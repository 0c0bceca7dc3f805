//! Flow-sensitive abstract interpretation over the typed AST.
//!
//! This is the value analysis behind diagnostics HD016–HD021 and behind
//! the native backend's proof-guided check elision. It abstractly
//! executes `main` in the exact statement/expression order the
//! interpreter uses (the same execution-order convention
//! `region.rs` events follow: `for`-init before cond, rhs before a
//! compound assignment's lhs, subscript index before base, lazy
//! `printf` arguments), tracking four domains per variable:
//!
//! * **interval** — an [`Interval`] for integer-valued quantities,
//! * **initialization** — an [`InitState`] for declared-but-unassigned
//!   scalars (the interpreter zero-defines them, hence HD018 is a
//!   warning rather than an error),
//! * **nullness** — whether a pointer may still be the `V::Null`
//!   default ([`Nullness`] folded into [`PtrFact`]),
//! * **array extent** — the element count of the buffer a pointer
//!   refers to, plus its element offset as an interval.
//!
//! ## Fixpoint discipline
//!
//! Loops run a two-phase analysis. Phase one iterates the body
//! abstractly from the loop-head state, joining the back edge into the
//! head; after [`WIDEN_DELAY`] joins every moved interval bound is
//! widened straight to infinity, so the chain stabilizes in a handful
//! of iterations (bounded by [`MAX_FIXPOINT_ITERS`]; if that bound is
//! ever hit the head is havocked to top, which converges immediately
//! and is reported via [`ValueAnalysis::max_fixpoint_iters`] so tests
//! can assert the bound). Phase one is silent: no findings, no facts —
//! intermediate iterates (e.g. `i = [0,0]` on the first pass) would
//! produce spurious "provably dead" claims. Phase two replays the body
//! once from the stable head with reporting enabled. The whole
//! procedure is deterministic: environments are `BTreeMap`s, the
//! iteration order is the program order, and no hashing order leaks
//! into results.
//!
//! ## Soundness contract
//!
//! The abstract state over-approximates every *non-faulting* concrete
//! execution: when a runtime error is provable (out-of-bounds write,
//! division by a definite zero) the environment drops to unreachable,
//! exactly as the concrete program halts. A [`SafetyFacts`] entry
//! `proven-safe` for a site therefore means: every execution that
//! reaches the site with operand *values* satisfies the guarded
//! predicate — which is precisely the condition under which the native
//! backend may skip the guard without changing observable behavior.
//! Guards charge nothing to `InterpStats`, so elision is
//! stats-neutral by construction.
//!
//! ## One run, two consumers
//!
//! `analyze_main` runs once per program, from
//! [`crate::sema::analyze`], which keeps both halves of the result on
//! its `Analysis`: the [`SafetyFacts`] table (indexed by the parser's
//! [`SiteId`]s, so it also fits every clone of the program) for the
//! backend, the HD016–HD021 findings for `lint_program`.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{AssignOp, BinOp, CType, Declarator, Expr, Program, SiteId, Stmt, StmtKind, UnOp};
use crate::error::Span;
use crate::interp::{builtin_min_args, parse_printf, parse_scanf, PSeg};

use super::domains::{InitState, Interval, Nullness};

/// Joins before widening kicks in at a loop head.
const WIDEN_DELAY: usize = 3;

/// Hard bound on loop-head iterations; exceeding it havocs the head to
/// top (which converges on the next check). Far above what the widened
/// domains need — asserted by the fixpoint corner tests.
pub(crate) const MAX_FIXPOINT_ITERS: usize = 64;

// ====================================================================
// Safety facts — the analyzer→backend contract.
// ====================================================================

/// Per-site safety verdicts exported from the value analysis: one
/// plain vector per site kind, indexed by the [`SiteId`] the parser
/// gave the `Expr::Index`, `Expr::Binary(Div|Rem)` or `Expr::Call`
/// node, under the [`Program::fingerprint`] of the analyzed source.
/// Ids and fingerprint survive `Program::clone`, so a table is valid
/// for the program it was computed from and for every clone of it;
/// [`SafetyFacts::matches`] refuses it for anything else by content.
///
/// `Some(true)` means proven safe: every execution reaching the site
/// with operand values satisfies the guard the native backend would
/// otherwise evaluate. `Some(false)` means visited but unknown, `None`
/// never reached by the reporting pass — either way the guard stays.
/// Call-site facts are recorded for completeness of the table (a
/// proven call's own argument dispatch cannot fault) but are not yet
/// consumed by the backend.
#[derive(Clone, Debug, Default)]
pub struct SafetyFacts {
    fingerprint: u64,
    subscripts: Vec<Option<bool>>,
    divisions: Vec<Option<bool>>,
    calls: Vec<Option<bool>>,
}

impl SafetyFacts {
    /// An all-unvisited table shaped for `prog`.
    pub(crate) fn blank(prog: &Program) -> SafetyFacts {
        let n = prog.sites();
        SafetyFacts {
            fingerprint: prog.fingerprint(),
            subscripts: vec![None; n.subscripts as usize],
            divisions: vec![None; n.divisions as usize],
            calls: vec![None; n.calls as usize],
        }
    }

    /// Whether this table describes `prog`: same source fingerprint and
    /// the same number of sites of every kind.
    pub fn matches(&self, prog: &Program) -> bool {
        let n = prog.sites();
        self.fingerprint == prog.fingerprint()
            && self.subscripts.len() == n.subscripts as usize
            && self.divisions.len() == n.divisions as usize
            && self.calls.len() == n.calls as usize
    }

    /// Whether the subscript site is proven in-bounds.
    pub fn subscript_safe(&self, site: SiteId) -> bool {
        proven(&self.subscripts, site)
    }

    /// Whether the division/remainder site is proven to never see an
    /// integer zero denominator.
    pub fn division_safe(&self, site: SiteId) -> bool {
        proven(&self.divisions, site)
    }

    /// Whether the call site's own argument dispatch is proven
    /// fault-free.
    pub fn call_safe(&self, site: SiteId) -> bool {
        proven(&self.calls, site)
    }

    /// `(subscripts, divisions, calls)` — sites the analysis visited.
    pub fn site_counts(&self) -> (usize, usize, usize) {
        let n = |v: &[Option<bool>]| v.iter().flatten().count();
        (n(&self.subscripts), n(&self.divisions), n(&self.calls))
    }

    /// `(subscripts, divisions, calls)` — sites proven safe.
    pub fn proven_counts(&self) -> (usize, usize, usize) {
        let n = |v: &[Option<bool>]| v.iter().filter(|x| **x == Some(true)).count();
        (n(&self.subscripts), n(&self.divisions), n(&self.calls))
    }
}

fn proven(table: &[Option<bool>], site: SiteId) -> bool {
    table.get(site.0 as usize) == Some(&Some(true))
}

/// A visit's verdict: a site stays proven only while every visit
/// proves it.
fn record(table: &mut [Option<bool>], site: SiteId, safe: bool) {
    if let Some(slot) = table.get_mut(site.0 as usize) {
        *slot = Some(slot.unwrap_or(true) && safe);
    }
}

/// Test-only forgery: lets backend tests hand the compiler a *wrong*
/// proof and assert the checked-elision oracle catches it.
#[cfg(test)]
impl SafetyFacts {
    /// Claim the subscript site is proven in-bounds.
    pub(crate) fn claim_subscript(&mut self, site: SiteId) {
        self.subscripts[site.0 as usize] = Some(true);
    }

    /// Claim the division site is proven nonzero.
    pub(crate) fn claim_division(&mut self, site: SiteId) {
        self.divisions[site.0 as usize] = Some(true);
    }
}

/// One diagnostic produced by the analysis (wired into the lint report
/// by `lint_program`).
#[derive(Clone, Debug)]
pub(crate) struct Finding {
    /// HD016–HD021.
    pub code: &'static str,
    /// Statement span the finding anchors to.
    pub span: Span,
    /// Variable name to underline, when one is implicated.
    pub focus: Option<String>,
    /// Human-readable message.
    pub msg: String,
}

/// Everything the analysis produces: findings for the lint report,
/// facts for the backend, and the worst loop-head iteration count for
/// the fixpoint-bound tests.
pub(crate) struct ValueAnalysis {
    /// Per-site safety verdicts.
    pub facts: SafetyFacts,
    /// HD016–HD021 findings in deterministic program order.
    pub findings: Vec<Finding>,
    /// Largest loop-head iteration count any fixpoint needed.
    #[cfg_attr(not(test), allow(dead_code))]
    pub max_fixpoint_iters: usize,
}

// ====================================================================
// Abstract values.
// ====================================================================

/// Element kind of the buffer behind a pointer (mirrors `Buffer`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ElemKind {
    Byte,
    Int,
    Double,
    Unknown,
}

impl ElemKind {
    fn of(t: &CType) -> ElemKind {
        match crate::interp::leaf_type(t) {
            CType::Char => ElemKind::Byte,
            CType::Float | CType::Double => ElemKind::Double,
            _ => ElemKind::Int,
        }
    }

    /// Abstract value of one element read from such a buffer.
    fn read_value(self) -> AVal {
        match self {
            ElemKind::Byte => AVal::Int(Interval::range(0, 255)),
            ElemKind::Int => AVal::Int(Interval::FULL),
            ElemKind::Double => AVal::Float,
            ElemKind::Unknown => AVal::Top,
        }
    }
}

/// What is known about a pointer value.
#[derive(Clone, Debug, PartialEq)]
struct PtrFact {
    /// May the value still be the `V::Null` sentinel?
    null: Nullness,
    /// Element count of the buffer, when uniquely known.
    extent: Option<usize>,
    /// Element offset into the buffer.
    off: Interval,
    /// Buffer element kind.
    elem: ElemKind,
}

impl PtrFact {
    fn join(&self, o: &PtrFact) -> PtrFact {
        PtrFact {
            null: self.null.join(&o.null),
            extent: if self.extent == o.extent {
                self.extent
            } else {
                None
            },
            off: self.off.join(&o.off),
            elem: if self.elem == o.elem {
                self.elem
            } else {
                ElemKind::Unknown
            },
        }
    }
}

/// Abstract counterpart of the interpreter's `V`, over-approximating
/// the value an expression produces *when it evaluates without error*.
#[derive(Clone, Debug, PartialEq)]
enum AVal {
    /// Definitely `V::I`, within the interval.
    Int(Interval),
    /// Definitely `V::F` (float intervals are not tracked).
    Float,
    /// Definitely a buffer pointer (or possibly-null per the fact).
    Ptr(PtrFact),
    /// Definitely the `V::Null` sentinel.
    Null,
    /// Definitely `V::SlotRef` to the named scalar.
    SlotRef(String),
    /// Anything.
    Top,
}

impl AVal {
    fn join(&self, o: &AVal) -> AVal {
        use AVal::*;
        match (self, o) {
            (Int(a), Int(b)) => Int(a.join(b)),
            (Float, Float) => Float,
            (Ptr(a), Ptr(b)) => Ptr(a.join(b)),
            (Null, Null) => Null,
            (Null, Ptr(f)) | (Ptr(f), Null) => Ptr(PtrFact {
                null: Nullness::MaybeNull,
                ..f.clone()
            }),
            (SlotRef(a), SlotRef(b)) if a == b => SlotRef(a.clone()),
            _ => Top,
        }
    }

    /// The interval this value contributes when used where `as_int`
    /// succeeds. Floats truncate to an unknown integer; pointers fail
    /// `as_int` entirely, so any interval is vacuously sound for the
    /// (nonexistent) success values.
    fn int_itv(&self) -> Interval {
        match self {
            AVal::Int(i) => *i,
            _ => Interval::FULL,
        }
    }

    /// Definite truthiness under the interpreter's `truthy`.
    fn definitely_truthy(&self) -> Option<bool> {
        match self {
            AVal::Int(i) => i.definitely_truthy(),
            AVal::Ptr(f) if f.null == Nullness::NonNull => Some(true),
            AVal::SlotRef(_) => Some(true),
            AVal::Null => Some(false),
            _ => None,
        }
    }

    fn truth_interval(&self) -> Interval {
        match self.definitely_truthy() {
            Some(true) => Interval::constant(1),
            Some(false) => Interval::constant(0),
            None => Interval::range(0, 1),
        }
    }
}

/// Per-variable abstract state.
#[derive(Clone, Debug, PartialEq)]
struct VarState {
    val: AVal,
    init: InitState,
    /// Declared as an array (decays under `&`, never SlotRef-targeted).
    is_array: bool,
    /// Declared 2-D row length, driving the strided fast path.
    stride: Option<usize>,
}

impl VarState {
    fn join(&self, o: &VarState) -> VarState {
        VarState {
            val: self.val.join(&o.val),
            init: self.init.join(&o.init),
            is_array: self.is_array && o.is_array,
            stride: if self.stride == o.stride {
                self.stride
            } else {
                None
            },
        }
    }

    fn havoc(&self) -> VarState {
        VarState {
            val: AVal::Top,
            init: InitState::MaybeInit,
            is_array: self.is_array,
            stride: self.stride,
        }
    }
}

type Env = BTreeMap<String, VarState>;

/// Join two reachability-tagged environments. Keys are intersected:
/// a variable missing on one side simply becomes unknown (lookups
/// treat absence as top).
fn join_opt(a: Option<Env>, b: Option<Env>) -> Option<Env> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(ea), Some(eb)) => {
            let mut out = Env::new();
            for (k, va) in &ea {
                if let Some(vb) = eb.get(k) {
                    out.insert(k.clone(), va.join(vb));
                }
            }
            Some(out)
        }
    }
}

/// Widen `head` toward `back` (which must already include `head` via
/// the join): interval bounds that moved jump to infinity, every other
/// component takes the joined value (their lattices are finite).
fn widen_env(head: &Env, back: &Env) -> Env {
    let mut out = Env::new();
    for (k, vb) in back {
        let widened = match head.get(k) {
            Some(vh) => {
                let val = match (&vh.val, &vb.val) {
                    (AVal::Int(a), AVal::Int(b)) => AVal::Int(a.widen(b)),
                    (AVal::Ptr(pa), AVal::Ptr(pb)) => AVal::Ptr(PtrFact {
                        off: pa.off.widen(&pb.off),
                        ..pb.clone()
                    }),
                    _ => vb.val.clone(),
                };
                VarState { val, ..vb.clone() }
            }
            None => vb.clone(),
        };
        out.insert(k.clone(), widened);
    }
    out
}

fn havoc_all(mut env: Env) -> Env {
    for vs in env.values_mut() {
        *vs = vs.havoc();
    }
    env
}

// ====================================================================
// The analyzer.
// ====================================================================

struct LoopCx {
    /// `frames.len()` at loop entry; break/continue snapshots unwind
    /// scopes deeper than this so their keys line up with the head's.
    frame_depth: usize,
    breaks: Vec<Env>,
    continues: Vec<Env>,
}

struct Analyzer<'p> {
    prog: &'p Program,
    /// `None` = this program point is unreachable (bottom).
    env: Option<Env>,
    /// Scope save-stack: each frame records shadowed/created bindings
    /// to restore at block exit.
    frames: Vec<Vec<(String, Option<VarState>)>>,
    loops: Vec<LoopCx>,
    /// Reporting pass? Gates findings *and* fact recording (fixpoint
    /// iterations must stay silent).
    report: bool,
    cur_span: Span,
    findings: Vec<Finding>,
    finding_keys: BTreeSet<(String, u32, u32, u32, String)>,
    facts: SafetyFacts,
    max_fixpoint_iters: usize,
}

/// Run the value analysis over `prog`'s `main` (helpers are not
/// analyzed: their sites simply stay unknown, which is sound).
pub(crate) fn analyze_main(prog: &Program) -> ValueAnalysis {
    let mut a = Analyzer {
        prog,
        env: None,
        frames: vec![Vec::new()],
        loops: Vec::new(),
        report: true,
        cur_span: Span::default(),
        findings: Vec::new(),
        finding_keys: BTreeSet::new(),
        facts: SafetyFacts::blank(prog),
        max_fixpoint_iters: 0,
    };
    if let Some(main) = prog.func("main") {
        let mut env = Env::new();
        for (ty, name) in &main.params {
            env.insert(
                name.clone(),
                VarState {
                    val: match ty {
                        CType::Float | CType::Double => AVal::Float,
                        CType::Ptr(_) => AVal::Top,
                        _ => AVal::Int(Interval::FULL),
                    },
                    init: InitState::Init,
                    is_array: ty.is_array(),
                    stride: None,
                },
            );
        }
        a.env = Some(env);
        for s in &main.body {
            a.exec_stmt(s);
        }
    }
    ValueAnalysis {
        facts: a.facts,
        findings: a.findings,
        max_fixpoint_iters: a.max_fixpoint_iters,
    }
}

impl<'p> Analyzer<'p> {
    // ---- bookkeeping ----

    fn get(&self, name: &str) -> Option<&VarState> {
        self.env.as_ref().and_then(|e| e.get(name))
    }

    /// Assign `val` to `name` (marks it initialized). An unknown name
    /// is a definite runtime error → unreachable.
    fn write_var(&mut self, name: &str, val: AVal) {
        let known = match self.env.as_mut() {
            Some(env) => match env.get_mut(name) {
                Some(vs) => {
                    vs.val = val;
                    vs.init = InitState::Init;
                    true
                }
                None => false,
            },
            None => return,
        };
        if !known {
            self.env = None;
        }
    }

    /// A store may or may not have hit `name` (scanf/getline EOF paths
    /// handle this via env forking; this is for call-by-reference
    /// havoc where the callee may write).
    fn havoc_var(&mut self, name: &str) {
        if let Some(env) = self.env.as_mut() {
            if let Some(vs) = env.get_mut(name) {
                vs.val = AVal::Top;
                vs.init = vs.init.join(&InitState::Init);
            }
        }
    }

    /// A store went through an unknown slot reference: any scalar may
    /// have been written.
    fn havoc_all_scalars(&mut self) {
        if let Some(env) = self.env.as_mut() {
            for vs in env.values_mut() {
                if !vs.is_array {
                    vs.val = AVal::Top;
                    vs.init = vs.init.join(&InitState::Init);
                }
            }
        }
    }

    fn bind_decl(&mut self, name: &str, vs: VarState) {
        let Some(env) = self.env.as_mut() else { return };
        // Shadowing hazard: a SlotRef taken on the outer binding would
        // resolve by name to the inner one while shadowed, so the saved
        // outer state could go stale. Havoc the saved copy: the restore
        // is then conservative no matter what happened in between.
        let old = env.insert(name.to_string(), vs).map(|v| v.havoc());
        self.frames
            .last_mut()
            .expect("analyzer always has a frame")
            .push((name.to_string(), old));
    }

    fn push_frame(&mut self) {
        self.frames.push(Vec::new());
    }

    fn pop_frame(&mut self) {
        let frame = self.frames.pop().expect("frame underflow");
        if let Some(env) = self.env.as_mut() {
            for (name, old) in frame.into_iter().rev() {
                match old {
                    Some(v) => {
                        env.insert(name, v);
                    }
                    None => {
                        env.remove(&name);
                    }
                }
            }
        }
    }

    /// Snapshot the current environment as if every scope deeper than
    /// `depth` had exited — used for break/continue edges so the
    /// snapshot's keys line up with the loop head's.
    fn unwound_snapshot(&self, depth: usize) -> Option<Env> {
        let mut snap = self.env.clone()?;
        for frame in self.frames[depth..].iter().rev() {
            for (name, old) in frame.iter().rev() {
                match old {
                    Some(v) => {
                        snap.insert(name.clone(), v.clone());
                    }
                    None => {
                        snap.remove(name);
                    }
                }
            }
        }
        Some(snap)
    }

    fn finding(&mut self, code: &'static str, focus: Option<String>, msg: String) {
        if !self.report {
            return;
        }
        let span = self.cur_span;
        let dedup = (
            code.to_string(),
            span.line,
            span.start,
            span.end,
            msg.clone(),
        );
        if self.finding_keys.insert(dedup) {
            self.findings.push(Finding {
                code,
                span,
                focus,
                msg,
            });
        }
    }

    fn finding_at(&mut self, code: &'static str, span: Span, msg: String) {
        let saved = self.cur_span;
        self.cur_span = span;
        self.finding(code, None, msg);
        self.cur_span = saved;
    }

    // ---- fact recording (reporting pass only) ----

    fn record_subscript(&mut self, site: SiteId, safe: bool) {
        if self.report {
            record(&mut self.facts.subscripts, site, safe);
        }
    }

    fn record_division(&mut self, site: SiteId, safe: bool) {
        if self.report {
            record(&mut self.facts.divisions, site, safe);
        }
    }

    fn record_call(&mut self, site: SiteId, safe: bool) {
        if self.report {
            record(&mut self.facts.calls, site, safe);
        }
    }

    // ---- statements ----

    fn exec_stmt(&mut self, s: &'p Stmt) {
        if self.env.is_none() {
            return;
        }
        self.cur_span = s.span;
        match &s.kind {
            StmtKind::Decl(ds) => {
                for d in ds {
                    self.declare(d);
                    if self.env.is_none() {
                        return;
                    }
                }
            }
            StmtKind::Expr(e) => {
                self.eval(e);
            }
            StmtKind::While { cond, body } => {
                self.exec_loop(Some(cond), None, body, s.span);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_frame();
                if let Some(i) = init {
                    self.exec_stmt(i);
                }
                self.exec_loop(cond.as_ref(), step.as_ref(), body, s.span);
                self.pop_frame();
            }
            StmtKind::If { cond, then, els } => self.exec_if(cond, then, els.as_deref(), s.span),
            StmtKind::Return(e) => {
                if let Some(x) = e {
                    self.eval(x);
                }
                self.env = None;
            }
            StmtKind::Break => {
                if let Some(depth) = self.loops.last().map(|l| l.frame_depth) {
                    if let Some(snap) = self.unwound_snapshot(depth) {
                        self.loops.last_mut().unwrap().breaks.push(snap);
                    }
                }
                self.env = None;
            }
            StmtKind::Continue => {
                if let Some(depth) = self.loops.last().map(|l| l.frame_depth) {
                    if let Some(snap) = self.unwound_snapshot(depth) {
                        self.loops.last_mut().unwrap().continues.push(snap);
                    }
                }
                self.env = None;
            }
            StmtKind::Block(body) => {
                self.push_frame();
                for st in body {
                    self.exec_stmt(st);
                }
                self.pop_frame();
            }
            StmtKind::Annotated(_, inner) => self.exec_stmt(inner),
            StmtKind::Empty => {}
        }
    }

    fn declare(&mut self, d: &'p Declarator) {
        match &d.ty {
            CType::Array(inner, n) => {
                let total = match inner.as_ref() {
                    CType::Array(_, Some(cols)) => n.unwrap_or(1) * cols,
                    _ => match n {
                        Some(n) => *n,
                        None => {
                            // `int a[];` is a definite runtime error.
                            self.env = None;
                            return;
                        }
                    },
                };
                let stride = match inner.as_ref() {
                    CType::Array(_, Some(cols)) => Some(*cols),
                    _ => None,
                };
                self.bind_decl(
                    &d.name,
                    VarState {
                        val: AVal::Ptr(PtrFact {
                            null: Nullness::NonNull,
                            extent: Some(total),
                            off: Interval::constant(0),
                            elem: ElemKind::of(&d.ty),
                        }),
                        init: InitState::Init,
                        is_array: true,
                        stride,
                    },
                );
            }
            _ => {
                let (val, init) = match &d.init {
                    Some(e) => (self.eval(e), InitState::Init),
                    None => (
                        match &d.ty {
                            CType::Float | CType::Double => AVal::Float,
                            CType::Ptr(_) => AVal::Null,
                            _ => AVal::Int(Interval::constant(0)),
                        },
                        InitState::Uninit,
                    ),
                };
                if self.env.is_none() {
                    return;
                }
                self.bind_decl(
                    &d.name,
                    VarState {
                        val,
                        init,
                        is_array: false,
                        stride: None,
                    },
                );
            }
        }
    }

    fn exec_if(&mut self, cond: &'p Expr, then: &'p Stmt, els: Option<&'p Stmt>, span: Span) {
        self.eval(cond);
        let Some(_) = self.env.as_ref() else { return };
        let saved = self.env.clone();

        self.refine(cond, true);
        let then_reachable = self.env.is_some();
        if !then_reachable {
            self.finding_at(
                "HD019",
                span,
                "condition is provably false; the then-branch never runs".into(),
            );
            self.report_dead_emits(then);
        }
        self.exec_stmt(then);
        let out_then = self.env.take();

        self.env = saved;
        self.refine(cond, false);
        if self.env.is_none() {
            if let Some(e) = els {
                self.finding_at(
                    "HD019",
                    span,
                    "condition is provably true; the else-branch never runs".into(),
                );
                self.report_dead_emits(e);
            }
        }
        if let Some(e) = els {
            self.exec_stmt(e);
        }
        let out_else = self.env.take();
        self.env = join_opt(out_then, out_else);
    }

    /// Flag `printf` statements inside a provably dead subtree.
    fn report_dead_emits(&mut self, s: &'p Stmt) {
        if !self.report {
            return;
        }
        let mut spans = Vec::new();
        collect_printf_spans(s, &mut spans);
        for sp in spans {
            self.finding_at(
                "HD019",
                sp,
                "emit in a provably dead branch never executes".into(),
            );
        }
    }

    fn exec_loop(
        &mut self,
        cond: Option<&'p Expr>,
        step: Option<&'p Expr>,
        body: &'p Stmt,
        span: Span,
    ) {
        if self.env.is_none() {
            return;
        }
        let report = self.report;
        self.report = false;
        let frame_depth = self.frames.len();

        // Phase one: silent fixpoint over the loop head.
        let mut head = self.env.clone();
        let mut iters = 0usize;
        let mut exit_breaks;
        loop {
            iters += 1;
            if iters > MAX_FIXPOINT_ITERS {
                head = head.map(havoc_all);
            }
            self.env = head.clone();
            self.loops.push(LoopCx {
                frame_depth,
                breaks: Vec::new(),
                continues: Vec::new(),
            });
            if let Some(c) = cond {
                if self.env.is_some() {
                    self.eval(c);
                    self.refine(c, true);
                }
            }
            self.exec_stmt(body);
            let lc = self.loops.pop().expect("loop frame");
            let mut after = self.env.take();
            for cenv in lc.continues {
                after = join_opt(after, Some(cenv));
            }
            self.env = after;
            if let Some(st) = step {
                if self.env.is_some() {
                    self.eval(st);
                }
            }
            let back = join_opt(head.clone(), self.env.take());
            if back == head || iters > MAX_FIXPOINT_ITERS {
                exit_breaks = lc.breaks;
                break;
            }
            head = if iters >= WIDEN_DELAY {
                match (&head, &back) {
                    (Some(h), Some(b)) => Some(widen_env(h, b)),
                    _ => back,
                }
            } else {
                back
            };
        }
        self.max_fixpoint_iters = self.max_fixpoint_iters.max(iters);
        debug_assert!(
            iters <= MAX_FIXPOINT_ITERS + 1,
            "loop fixpoint failed to converge within the bound"
        );
        self.report = report;

        // Phase two: one reporting pass over the body from the stable
        // head (facts and findings come from here; inner loops re-run
        // their own two phases recursively).
        if self.report {
            self.env = head.clone();
            self.loops.push(LoopCx {
                frame_depth,
                breaks: Vec::new(),
                continues: Vec::new(),
            });
            // The silent pass left `cur_span` at the last body
            // statement; guard-condition findings anchor at the loop
            // head.
            self.cur_span = span;
            if let Some(c) = cond {
                if self.env.is_some() {
                    self.eval(c);
                    self.refine(c, true);
                }
            }
            if head.is_some() && self.env.is_none() {
                self.finding_at(
                    "HD019",
                    span,
                    "loop condition is provably false; the body never runs".into(),
                );
                self.report_dead_emits(body);
            }
            self.exec_stmt(body);
            let lc = self.loops.pop().expect("loop frame");
            exit_breaks = lc.breaks;
        }

        // Exit state: stable head with the condition refined false,
        // joined with every break-edge snapshot.
        self.env = head.clone();
        self.cur_span = span;
        match cond {
            Some(c) => {
                if self.env.is_some() {
                    self.eval(c);
                    self.refine(c, false);
                }
            }
            None => self.env = None, // `for (;;)`: no normal exit
        }
        if self.report
            && head.is_some()
            && self.env.is_none()
            && exit_breaks.is_empty()
            && !stmt_escapes(body)
        {
            self.finding_at(
                "HD020",
                span,
                "loop condition is provably always true and the body never \
                 breaks or returns; this loop exceeds any step limit"
                    .into(),
            );
        }
        let mut out = self.env.take();
        for benv in exit_breaks {
            out = join_opt(out, Some(benv));
        }
        self.env = out;
    }

    // ---- expressions ----

    fn eval(&mut self, e: &'p Expr) -> AVal {
        if self.env.is_none() {
            return AVal::Top;
        }
        match e {
            Expr::IntLit(v) => AVal::Int(Interval::constant(*v)),
            Expr::FloatLit(_) => AVal::Float,
            Expr::CharLit(c) => AVal::Int(Interval::constant(*c as i64)),
            Expr::StrLit(s) => AVal::Ptr(PtrFact {
                null: Nullness::NonNull,
                extent: Some(s.len() + 1),
                off: Interval::constant(0),
                elem: ElemKind::Byte,
            }),
            Expr::SizeOf(ty) => AVal::Int(Interval::constant(ty.scalar_size() as i64)),
            Expr::Ident(name) => match self.get(name).cloned() {
                Some(vs) => {
                    if vs.init == InitState::Uninit {
                        self.finding(
                            "HD018",
                            Some(name.clone()),
                            format!(
                                "`{name}` is read before it is ever assigned \
                                 (it still holds the declaration default)"
                            ),
                        );
                    }
                    vs.val
                }
                None => {
                    // Unknown variable: definite runtime error.
                    self.env = None;
                    AVal::Top
                }
            },
            Expr::Unary(op, x) => self.eval_unary(*op, x),
            Expr::PostInc(x) => {
                let old = self.eval(x);
                let new = self.abstract_num_add(&old, 1);
                self.assign_to(x, new);
                old
            }
            Expr::PostDec(x) => {
                let old = self.eval(x);
                let new = self.abstract_num_add(&old, -1);
                self.assign_to(x, new);
                old
            }
            Expr::Binary(op, a, b, site) => self.eval_binary(*site, *op, a, b),
            Expr::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs);
                let nv = if *op == AssignOp::None {
                    rv
                } else {
                    let old = self.eval(lhs);
                    let bop = match op {
                        AssignOp::Add => BinOp::Add,
                        AssignOp::Sub => BinOp::Sub,
                        AssignOp::Mul => BinOp::Mul,
                        AssignOp::Div => BinOp::Div,
                        AssignOp::Rem => BinOp::Rem,
                        AssignOp::None => unreachable!(),
                    };
                    if matches!(bop, BinOp::Div | BinOp::Rem) {
                        self.division_effect(None, &old, &rv);
                    }
                    abinary(bop, &old, &rv)
                };
                self.assign_to(lhs, nv.clone());
                nv
            }
            Expr::Cond(c, t, f) => {
                self.eval(c);
                let saved = self.env.clone();
                self.refine(c, true);
                let tv = if self.env.is_some() {
                    Some(self.eval(t))
                } else {
                    None
                };
                let env_t = self.env.take();
                self.env = saved;
                self.refine(c, false);
                let fv = if self.env.is_some() {
                    Some(self.eval(f))
                } else {
                    None
                };
                let env_f = self.env.take();
                self.env = join_opt(env_t, env_f);
                match (tv, fv) {
                    (Some(a), Some(b)) => a.join(&b),
                    (Some(a), None) | (None, Some(a)) => a,
                    (None, None) => AVal::Top,
                }
            }
            Expr::Call(name, args, site) => self.eval_call(*site, name, args),
            Expr::Index(base, idx, _) => self.subscript(e, base, idx),
            Expr::Cast(ty, x) => {
                let v = self.eval(x);
                match ty {
                    CType::Float | CType::Double => match v {
                        AVal::Int(_) => AVal::Float,
                        other => other,
                    },
                    CType::Int | CType::Char => match v {
                        AVal::Float => AVal::Int(Interval::FULL),
                        other => other,
                    },
                    _ => v,
                }
            }
        }
    }

    fn eval_unary(&mut self, op: UnOp, x: &'p Expr) -> AVal {
        match op {
            UnOp::AddrOf => match x {
                Expr::Ident(name) => match self.get(name).cloned() {
                    Some(vs) if vs.is_array => vs.val,
                    Some(_) => AVal::SlotRef(name.clone()),
                    None => {
                        self.env = None;
                        AVal::Top
                    }
                },
                Expr::Index(base, idx, _) => {
                    // `&a[i]` resolves the same checked position and
                    // yields a pointer into the same buffer.
                    self.subscript_place(x, base, idx)
                }
                _ => {
                    self.env = None; // definite "unsupported address-of"
                    AVal::Top
                }
            },
            UnOp::Deref => {
                let v = self.eval(x);
                match v {
                    AVal::Ptr(f) => f.elem.read_value(),
                    AVal::SlotRef(name) => self
                        .get(&name)
                        .map(|vs| vs.val.clone())
                        .unwrap_or(AVal::Top),
                    AVal::Null => {
                        self.env = None; // definite null dereference
                        AVal::Top
                    }
                    AVal::Int(_) | AVal::Float => {
                        self.env = None;
                        AVal::Top
                    }
                    AVal::Top => AVal::Top,
                }
            }
            UnOp::Neg => match self.eval(x) {
                AVal::Int(i) => AVal::Int(i.neg()),
                AVal::Float => AVal::Float,
                AVal::Top => AVal::Top,
                _ => {
                    self.env = None;
                    AVal::Top
                }
            },
            UnOp::Not => {
                let v = self.eval(x);
                AVal::Int(match v.definitely_truthy() {
                    Some(t) => Interval::constant(!t as i64),
                    None => Interval::range(0, 1),
                })
            }
            UnOp::BitNot => match self.eval(x) {
                AVal::Int(i) => AVal::Int(i.bitnot()),
                AVal::Top => AVal::Int(Interval::FULL),
                _ => {
                    self.env = None; // "~ on non-int" is definite
                    AVal::Top
                }
            },
            UnOp::PreInc => {
                let old = self.eval(x);
                let new = self.abstract_num_add(&old, 1);
                self.assign_to(x, new.clone());
                new
            }
            UnOp::PreDec => {
                let old = self.eval(x);
                let new = self.abstract_num_add(&old, -1);
                self.assign_to(x, new.clone());
                new
            }
        }
    }

    /// Abstract `num_add` (++/--): SlotRef/Null fault definitely.
    fn abstract_num_add(&mut self, v: &AVal, d: i64) -> AVal {
        match v {
            AVal::Int(i) => AVal::Int(i.add(&Interval::constant(d))),
            AVal::Float => AVal::Float,
            AVal::Ptr(f) => AVal::Ptr(PtrFact {
                off: f.off.add(&Interval::constant(d)),
                ..f.clone()
            }),
            AVal::Null | AVal::SlotRef(_) => {
                self.env = None;
                AVal::Top
            }
            AVal::Top => AVal::Top,
        }
    }

    fn eval_binary(&mut self, site: SiteId, op: BinOp, a: &'p Expr, b: &'p Expr) -> AVal {
        let va = self.eval(a);
        if op == BinOp::And || op == BinOp::Or {
            let skip_b = matches!(
                (op, va.definitely_truthy()),
                (BinOp::And, Some(false)) | (BinOp::Or, Some(true))
            );
            if skip_b {
                return AVal::Int(Interval::constant((op == BinOp::Or) as i64));
            }
            if va.definitely_truthy().is_some() {
                // b definitely evaluates.
                let vb = self.eval(b);
                return AVal::Int(vb.truth_interval());
            }
            // b may or may not evaluate: fork the environment.
            let saved = self.env.clone();
            self.eval(b);
            self.env = join_opt(self.env.take(), saved);
            return AVal::Int(Interval::range(0, 1));
        }
        let vb = self.eval(b);
        if matches!(op, BinOp::Div | BinOp::Rem) {
            self.division_effect(Some(site), &va, &vb);
        }
        abinary(op, &va, &vb)
    }

    /// Shared HD017/fact logic for `/` and `%` (expression sites and
    /// compound assignments; only the former are elidable).
    fn division_effect(&mut self, site: Option<SiteId>, num: &AVal, den: &AVal) {
        let safe = matches!(den, AVal::Int(i) if !i.contains_zero());
        if let Some(k) = site {
            self.record_division(k, safe);
        }
        if let (AVal::Int(_), AVal::Int(di)) = (num, den) {
            if di.as_constant() == Some(0) {
                self.finding(
                    "HD017",
                    None,
                    "division or remainder by a provably zero denominator \
                     always faults here"
                        .into(),
                );
                self.env = None;
            }
        }
    }

    // ---- subscripts ----

    /// Abstract `index_target` for a read: returns the element value.
    fn subscript(&mut self, site: &'p Expr, base: &'p Expr, idx: &'p Expr) -> AVal {
        match self.resolve_subscript(site, base, idx) {
            Some(elem) => elem.read_value(),
            None => AVal::Top,
        }
    }

    /// Abstract `&base[idx]`: a pointer into the same buffer at the
    /// checked position.
    fn subscript_place(&mut self, site: &'p Expr, base: &'p Expr, idx: &'p Expr) -> AVal {
        match self.resolve_place(site, base, idx) {
            Some((fact, pos)) => AVal::Ptr(PtrFact {
                null: Nullness::NonNull,
                extent: fact.extent,
                off: pos,
                elem: fact.elem,
            }),
            None => AVal::Top,
        }
    }

    fn resolve_subscript(
        &mut self,
        site: &'p Expr,
        base: &'p Expr,
        idx: &'p Expr,
    ) -> Option<ElemKind> {
        self.resolve_place(site, base, idx).map(|(f, _)| f.elem)
    }

    /// Mirror of the interpreter/native `index_target`: index first,
    /// then either the 2-D strided fast path (when the inner base is a
    /// declared 2-D array *and* its slot provably holds a pointer) or
    /// the generic path. Records the site's fact and any definite
    /// out-of-bounds finding. Returns the buffer fact and element
    /// position when the base is a definite pointer.
    fn resolve_place(
        &mut self,
        site: &'p Expr,
        base: &'p Expr,
        idx: &'p Expr,
    ) -> Option<(PtrFact, Interval)> {
        let iv = self.eval(idx);
        let i = iv.int_itv();
        // 2-D strided fast path.
        if let Expr::Index(inner_base, inner_idx, _) = base {
            if let Expr::Ident(name) = inner_base.as_ref() {
                let info = self
                    .get(name)
                    .and_then(|vs| vs.stride.map(|s| (s, vs.val.clone())));
                if let Some((stride, val)) = info {
                    if let AVal::Ptr(f) = &val {
                        if f.null == Nullness::NonNull {
                            // Fast path definitely taken.
                            let row = self.eval(inner_idx).int_itv();
                            let pos = f
                                .off
                                .add(&row.mul(&Interval::constant(stride as i64)))
                                .add(&i);
                            let f = f.clone();
                            self.check_site(site, &f, pos);
                            return Some((f, pos));
                        }
                    }
                    // Path is uncertain (slot may not hold a pointer):
                    // fall through to a generic evaluation of the base,
                    // whose side effects over-approximate both paths,
                    // and leave the site unknown.
                    self.eval(base);
                    self.record_subscript(site.site(), false);
                    return None;
                }
            }
        }
        // Generic path: evaluate the base as an expression.
        let bv = self.eval(base);
        match bv {
            AVal::Ptr(f) if f.null == Nullness::NonNull => {
                let pos = f.off.add(&i);
                self.check_site(site, &f, pos);
                Some((f, pos))
            }
            AVal::Ptr(_) | AVal::Top => {
                self.record_subscript(site.site(), false);
                None
            }
            AVal::Null | AVal::Int(_) | AVal::Float | AVal::SlotRef(_) => {
                // Definite "indexing non-pointer" fault.
                self.record_subscript(site.site(), false);
                self.env = None;
                None
            }
        }
    }

    /// Record the bounds verdict for a subscript site with a definite
    /// pointer base, and kill the environment on a provable fault.
    fn check_site(&mut self, site: &'p Expr, f: &PtrFact, pos: Interval) {
        let extent = f.extent.map(|e| e.min(i64::MAX as usize) as i64);
        let safe = pos.lo >= 0 && extent.is_some_and(|e| pos.hi < e);
        self.record_subscript(site.site(), safe);
        let oob_low = pos.hi < 0;
        let oob_high = extent.is_some_and(|e| pos.lo >= e);
        if oob_low || oob_high {
            let what = match extent {
                Some(e) => format!(
                    "subscript is provably out of bounds: position in \
                     [{}, {}] against a buffer of {} element(s)",
                    pos.lo, pos.hi, e
                ),
                None => format!(
                    "subscript is provably out of bounds: position in \
                     [{}, {}] is negative",
                    pos.lo, pos.hi
                ),
            };
            let focus = base_name(site);
            self.finding("HD016", focus, what);
            self.env = None;
        }
    }

    // ---- assignment targets ----

    fn assign_to(&mut self, lhs: &'p Expr, v: AVal) {
        if self.env.is_none() {
            return;
        }
        match lhs {
            Expr::Ident(name) => self.write_var(name, v),
            Expr::Index(base, idx, _) => {
                // Buffer contents are not tracked; resolving records
                // the site fact and any definite fault.
                self.resolve_place(lhs, base, idx);
            }
            Expr::Unary(UnOp::Deref, x) => {
                let tv = self.eval(x);
                match tv {
                    AVal::Ptr(_) => {} // contents untracked
                    AVal::SlotRef(name) => self.write_var(&name, v),
                    AVal::Null | AVal::Int(_) | AVal::Float => {
                        self.env = None; // definite non-pointer store
                    }
                    AVal::Top => self.havoc_all_scalars(),
                }
            }
            Expr::Cast(_, inner) => self.assign_to(inner, v),
            _ => {
                self.env = None; // definite "unsupported assignment target"
            }
        }
    }

    // ---- calls ----

    fn eval_call(&mut self, site: SiteId, name: &'p str, args: &'p [Expr]) -> AVal {
        // User-defined functions shadow builtins.
        if let Some(f) = self.prog.func(name) {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(self.eval(a));
            }
            // The callee may write through any slot reference it was
            // handed and may rebind nothing else.
            for v in &vals {
                if let AVal::SlotRef(n) = v {
                    let n = n.clone();
                    self.havoc_var(&n);
                }
            }
            self.record_call(site, false);
            if vals.len() != f.params.len() {
                self.env = None; // definite arity fault
            }
            return AVal::Top;
        }
        if let Some(need) = builtin_min_args(name) {
            if args.len() < need {
                // Arity fault before any argument evaluates.
                self.record_call(site, false);
                self.env = None;
                return AVal::Top;
            }
        }
        match name {
            "printf" => self.eval_printf(site, args),
            "scanf" => self.eval_scanf(site, args),
            "getline" => {
                // EOF returns -1 without touching the target; otherwise
                // the first argument's slot is rebound to a fresh line
                // buffer of unknown extent.
                let eof_env = self.env.clone();
                let target = self.eval(&args[0]);
                let fresh = AVal::Ptr(PtrFact {
                    null: Nullness::NonNull,
                    extent: None,
                    off: Interval::constant(0),
                    elem: ElemKind::Byte,
                });
                let mut proven = false;
                match target {
                    AVal::SlotRef(n) => {
                        let n = n.clone();
                        self.write_var(&n, fresh);
                        proven = true;
                    }
                    AVal::Top => self.havoc_all_scalars(),
                    _ => self.env = None, // definite "getline needs &var"
                }
                self.env = join_opt(self.env.take(), eof_env);
                self.record_call(site, proven);
                AVal::Int(Interval::at_least(-1))
            }
            "getWord" | "getTok" => {
                for a in args.iter().take(5) {
                    self.eval(a);
                }
                self.record_call(site, false);
                AVal::Int(Interval::at_least(-1))
            }
            "strfind" => {
                self.eval(&args[0]);
                self.eval(&args[1]);
                self.record_call(site, false);
                AVal::Int(Interval::at_least(-1))
            }
            "strcmp" => {
                self.eval(&args[0]);
                self.eval(&args[1]);
                self.record_call(site, false);
                AVal::Int(Interval::range(-1, 1))
            }
            "strcpy" => {
                let dst = self.eval(&args[0]);
                self.eval(&args[1]);
                self.record_call(site, false);
                dst
            }
            "strlen" => {
                self.eval(&args[0]);
                self.record_call(site, false);
                AVal::Int(Interval::at_least(0))
            }
            "atoi" => {
                self.eval(&args[0]);
                self.record_call(site, false);
                AVal::Int(Interval::FULL)
            }
            "atof" => {
                self.eval(&args[0]);
                self.record_call(site, false);
                AVal::Float
            }
            "sqrt" | "exp" | "log" | "fabs" | "floor" | "ceil" | "erf" => {
                let v = self.eval(&args[0]);
                self.numeric_arg_effect(site, &[v]);
                AVal::Float
            }
            "pow" => {
                let a = self.eval(&args[0]);
                let b = self.eval(&args[1]);
                self.numeric_arg_effect(site, &[a, b]);
                AVal::Float
            }
            "malloc" | "calloc" => {
                let n0 = self.eval(&args[0]);
                let mut counts = vec![n0];
                if name == "calloc" {
                    counts.push(self.eval(&args[1]));
                }
                let total = counts
                    .iter()
                    .map(const_nonneg)
                    .try_fold(1usize, |acc, c| c.and_then(|c| acc.checked_mul(c)));
                // `as_int` faults on a definite pointer/slot-ref count.
                self.numeric_arg_effect(site, &counts);
                AVal::Ptr(PtrFact {
                    null: Nullness::NonNull,
                    extent: total.map(|t| t.max(1)),
                    off: Interval::constant(0),
                    elem: ElemKind::Byte,
                })
            }
            "free" => {
                for a in args {
                    self.eval(a);
                }
                self.record_call(site, true);
                AVal::Int(Interval::constant(0))
            }
            "abs" => {
                let v = self.eval(&args[0]);
                let out = match &v {
                    AVal::Int(i) => {
                        if i.contains(i64::MIN) {
                            Interval::FULL
                        } else if i.lo >= 0 {
                            *i
                        } else if i.hi <= 0 {
                            i.neg()
                        } else {
                            Interval::range(0, i.lo.abs().max(i.hi.abs()))
                        }
                    }
                    _ => Interval::FULL,
                };
                self.numeric_arg_effect(site, &[v]);
                AVal::Int(out)
            }
            _ => {
                // Unknown function: definite error, arguments never
                // evaluated.
                self.record_call(site, false);
                self.env = None;
                AVal::Top
            }
        }
    }

    /// `as_int`/`as_f64` coercion effect for numeric builtins: a
    /// definite pointer/slot-ref argument always faults; definite
    /// numerics prove the call site.
    fn numeric_arg_effect(&mut self, site: SiteId, vals: &[AVal]) {
        let mut proven = true;
        for v in vals {
            match v {
                AVal::Int(_) | AVal::Float => {}
                AVal::Ptr(_) | AVal::Null | AVal::SlotRef(_) => {
                    self.env = None;
                    proven = false;
                }
                AVal::Top => proven = false,
            }
        }
        self.record_call(site, proven);
    }

    fn eval_printf(&mut self, site: SiteId, args: &'p [Expr]) -> AVal {
        let Expr::StrLit(fmt) = &args[0] else {
            // Definite "printf needs a literal format".
            self.record_call(site, false);
            self.env = None;
            return AVal::Top;
        };
        let segs = parse_printf(fmt);
        let nconvs = segs
            .iter()
            .filter(|s| matches!(s, PSeg::Conv { .. }))
            .count();
        if nconvs + 1 > args.len() {
            self.finding(
                "HD021",
                None,
                format!(
                    "printf format has {nconvs} conversion(s) but only {} \
                     value argument(s); the call always faults",
                    args.len() - 1
                ),
            );
        } else if args.len() > nconvs + 1 {
            self.finding(
                "HD021",
                None,
                format!(
                    "printf format has {nconvs} conversion(s); the extra {} \
                     argument(s) are never evaluated",
                    args.len() - 1 - nconvs
                ),
            );
        }
        let mut idx = 1usize;
        let mut proven = true;
        for seg in &segs {
            let PSeg::Conv { conv, .. } = seg else {
                continue;
            };
            if idx >= args.len() {
                // "printf: not enough arguments" at render time.
                self.env = None;
                self.record_call(site, false);
                return AVal::Top;
            }
            let v = self.eval(&args[idx]);
            idx += 1;
            match conv {
                b'd' | b'i' | b'u' | b'c' => {
                    match &v {
                        AVal::Int(_) | AVal::Float => {}
                        AVal::Ptr(_) | AVal::Null | AVal::SlotRef(_) => {
                            self.finding(
                                "HD021",
                                None,
                                format!(
                                    "printf %{} argument is provably not \
                                     numeric; the call always faults",
                                    *conv as char
                                ),
                            );
                            self.env = None;
                            self.record_call(site, false);
                            return AVal::Top;
                        }
                        AVal::Top => proven = false,
                    }
                    if *conv == b'c' {
                        if let AVal::Int(i) = &v {
                            if i.meet(&Interval::range(0, 255)).is_none() {
                                self.finding(
                                    "HD021",
                                    None,
                                    format!(
                                        "printf %c argument is provably \
                                         outside [0, 255] (range [{}, {}]); \
                                         it truncates",
                                        i.lo, i.hi
                                    ),
                                );
                            }
                        }
                    }
                }
                b's' => {
                    match &v {
                        AVal::Int(_) | AVal::Float | AVal::Null | AVal::SlotRef(_) => {
                            self.finding(
                                "HD021",
                                None,
                                "printf %s argument is provably not a string \
                                 pointer; the call always faults"
                                    .into(),
                            );
                            self.env = None;
                            self.record_call(site, false);
                            return AVal::Top;
                        }
                        AVal::Ptr(f)
                            if f.null == Nullness::NonNull
                                && matches!(f.elem, ElemKind::Int | ElemKind::Double) =>
                        {
                            // cstr on a non-byte buffer always faults.
                            self.finding(
                                "HD021",
                                None,
                                "printf %s argument provably points at a \
                                 non-character buffer; the call always faults"
                                    .into(),
                            );
                            self.env = None;
                            self.record_call(site, false);
                            return AVal::Top;
                        }
                        _ => proven = false, // cstr termination unprovable here
                    }
                }
                b'f' | b'e' | b'g' => match &v {
                    AVal::Int(_) | AVal::Float => {}
                    AVal::Ptr(_) | AVal::Null | AVal::SlotRef(_) => {
                        self.finding(
                            "HD021",
                            None,
                            format!(
                                "printf %{} argument is provably not numeric; \
                                 the call always faults",
                                *conv as char
                            ),
                        );
                        self.env = None;
                        self.record_call(site, false);
                        return AVal::Top;
                    }
                    AVal::Top => proven = false,
                },
                other => {
                    self.finding(
                        "HD021",
                        None,
                        format!(
                            "printf conversion %{} is unsupported; the call \
                             always faults",
                            *other as char
                        ),
                    );
                    self.env = None;
                    self.record_call(site, false);
                    return AVal::Top;
                }
            }
        }
        self.record_call(site, proven);
        AVal::Int(Interval::at_least(0))
    }

    fn eval_scanf(&mut self, site: SiteId, args: &'p [Expr]) -> AVal {
        let Expr::StrLit(fmt) = &args[0] else {
            self.record_call(site, false);
            self.env = None;
            return AVal::Top;
        };
        let convs = parse_scanf(fmt);
        if convs.len() != args.len() - 1 {
            self.finding(
                "HD021",
                None,
                format!(
                    "scanf format has {} conversion(s) but {} destination \
                     argument(s); the extras are ignored",
                    convs.len(),
                    args.len() - 1
                ),
            );
        }
        // At end of input scanf returns -1 without evaluating any
        // destination; otherwise destinations are evaluated in order.
        let eof_env = self.env.clone();
        let matched_max = convs.len().min(args.len() - 1);
        let mut proven = true;
        for (ci, conv) in convs.iter().enumerate().take(args.len() - 1) {
            let dv = self.eval(&args[1 + ci]);
            match conv.as_str() {
                "%s" => match &dv {
                    AVal::Ptr(f)
                        if f.null == Nullness::NonNull
                            && matches!(f.elem, ElemKind::Byte | ElemKind::Unknown) =>
                    {
                        proven = false; // space check unprovable
                    }
                    AVal::Top => proven = false,
                    _ => {
                        self.finding(
                            "HD021",
                            None,
                            "scanf %s destination is provably not a character \
                             buffer; the call always faults"
                                .into(),
                        );
                        self.env = None;
                        self.record_call(site, false);
                        return AVal::Top;
                    }
                },
                "%d" | "%ld" | "%i" | "%u" | "%f" | "%lf" | "%g" | "%e" => {
                    let stored = match conv.as_str() {
                        "%d" | "%ld" | "%i" | "%u" => AVal::Int(Interval::FULL),
                        _ => AVal::Float,
                    };
                    match &dv {
                        AVal::SlotRef(n) => {
                            let n = n.clone();
                            self.write_var(&n, stored);
                        }
                        AVal::Ptr(_) => proven = false, // buffer store, kind-checked at runtime
                        AVal::Top => {
                            self.havoc_all_scalars();
                            proven = false;
                        }
                        AVal::Int(_) | AVal::Float | AVal::Null => {
                            self.finding(
                                "HD021",
                                None,
                                format!(
                                    "scanf {conv} destination is provably not \
                                     a pointer; the call always faults"
                                ),
                            );
                            self.env = None;
                            self.record_call(site, false);
                            return AVal::Top;
                        }
                    }
                }
                other => {
                    self.finding(
                        "HD021",
                        None,
                        format!(
                            "scanf conversion {other} is unsupported; the \
                             call always faults"
                        ),
                    );
                    self.env = None;
                    self.record_call(site, false);
                    return AVal::Top;
                }
            }
        }
        self.env = join_opt(self.env.take(), eof_env);
        self.record_call(site, proven);
        AVal::Int(Interval::range(-1, matched_max as i64))
    }

    // ---- refinement ----

    /// Constrain the environment assuming `cond` evaluated to `want`.
    /// Purely a meet: side effects were already applied by `eval`.
    fn refine(&mut self, cond: &Expr, want: bool) {
        if self.env.is_none() {
            return;
        }
        match cond {
            Expr::Unary(UnOp::Not, x) => self.refine(x, !want),
            Expr::Cast(_, x) => self.refine(x, want),
            Expr::Binary(BinOp::And, a, b, _) if want => {
                self.refine(a, true);
                self.refine(b, true);
            }
            Expr::Binary(BinOp::Or, a, b, _) if !want => {
                self.refine(a, false);
                self.refine(b, false);
            }
            Expr::Binary(op, a, b, _)
                if matches!(
                    op,
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
                ) =>
            {
                self.refine_cmp(*op, a, b, want)
            }
            other => self.refine_truthy(other, want),
        }
    }

    fn refine_truthy(&mut self, e: &Expr, want: bool) {
        // A condition with a provable truth value settles reachability
        // even when it names no variable (`if (0)`, `while (1)`).
        if let Some(i) = peek_int(self, e) {
            if i.definitely_truthy() == Some(!want) {
                self.env = None;
                return;
            }
        }
        let Some(name) = refine_target(e) else { return };
        let Some(vs) = self.get(name) else { return };
        match vs.val.clone() {
            AVal::Int(i) => {
                let refined = if want {
                    i.without(0)
                } else {
                    i.meet(&Interval::constant(0))
                };
                match refined {
                    Some(r) => self.set_val(name, AVal::Int(r)),
                    None => self.env = None,
                }
            }
            AVal::Ptr(f) => {
                if want {
                    self.set_val(
                        name,
                        AVal::Ptr(PtrFact {
                            null: Nullness::NonNull,
                            ..f
                        }),
                    );
                } else if f.null == Nullness::NonNull {
                    self.env = None;
                } else {
                    self.set_val(name, AVal::Null);
                }
            }
            AVal::Null => {
                if want {
                    self.env = None;
                }
            }
            AVal::SlotRef(_) => {
                if !want {
                    self.env = None;
                }
            }
            AVal::Float | AVal::Top => {}
        }
    }

    fn refine_cmp(&mut self, op: BinOp, a: &Expr, b: &Expr, want: bool) {
        let op = if want { op } else { flip(op) };
        let (Some(ia), Some(ib)) = (peek_int(self, a), peek_int(self, b)) else {
            return;
        };
        // A provably-false comparison settles reachability even when
        // neither side is a refinable variable.
        let decided = match op {
            BinOp::Lt => ia.definitely_lt(&ib),
            BinOp::Le => ia.definitely_le(&ib),
            BinOp::Gt => ib.definitely_lt(&ia),
            BinOp::Ge => ib.definitely_le(&ia),
            BinOp::Eq => ia.definitely_eq(&ib),
            BinOp::Ne => ia.definitely_eq(&ib).map(|x| !x),
            _ => None,
        };
        if decided == Some(false) {
            self.env = None;
            return;
        }
        if let Some(name) = refine_target(a) {
            let refined = constrain(&ia, op, &ib);
            match refined {
                Some(r) => self.set_val_if_int(name, r),
                None => {
                    self.env = None;
                    return;
                }
            }
        }
        if let Some(name) = refine_target(b) {
            let refined = constrain(&ib, swap(op), &ia);
            match refined {
                Some(r) => self.set_val_if_int(name, r),
                None => self.env = None,
            }
        }
    }

    fn set_val(&mut self, name: &str, val: AVal) {
        if let Some(env) = self.env.as_mut() {
            if let Some(vs) = env.get_mut(name) {
                vs.val = val;
            }
        }
    }

    fn set_val_if_int(&mut self, name: &str, itv: Interval) {
        if let Some(env) = self.env.as_mut() {
            if let Some(vs) = env.get_mut(name) {
                if matches!(vs.val, AVal::Int(_)) {
                    vs.val = AVal::Int(itv);
                }
            }
        }
    }
}

// ====================================================================
// Pure helpers.
// ====================================================================

/// Abstract transfer for a (non-short-circuit) binary operator over
/// success values.
fn abinary(op: BinOp, a: &AVal, b: &AVal) -> AVal {
    use BinOp::*;
    // Pointer arithmetic: a successful Add/Sub with an int on the right
    // implies the left side really was a pointer.
    if let (AVal::Ptr(f), Add | Sub) = (a, op) {
        let d = b.int_itv();
        let off = if op == Add {
            f.off.add(&d)
        } else {
            f.off.sub(&d)
        };
        if matches!(b, AVal::Int(_) | AVal::Top) {
            return AVal::Ptr(PtrFact {
                null: Nullness::NonNull,
                off,
                ..f.clone()
            });
        }
    }
    let ai = a.int_itv();
    let bi = b.int_itv();
    let both_int = matches!(a, AVal::Int(_)) && matches!(b, AVal::Int(_));
    match op {
        Lt | Le | Gt | Ge | Eq | Ne => {
            let decided = if both_int {
                match op {
                    Lt => ai.definitely_lt(&bi),
                    Le => ai.definitely_le(&bi),
                    Gt => bi.definitely_lt(&ai),
                    Ge => bi.definitely_le(&ai),
                    Eq => ai.definitely_eq(&bi),
                    Ne => ai.definitely_eq(&bi).map(|x| !x),
                    _ => unreachable!(),
                }
            } else {
                None
            };
            AVal::Int(match decided {
                Some(t) => Interval::constant(t as i64),
                None => Interval::range(0, 1),
            })
        }
        // Bitwise/shift success values are always integers.
        BitAnd => AVal::Int(ai.bitand(&bi)),
        BitOr => AVal::Int(ai.bitor(&bi)),
        BitXor => AVal::Int(ai.bitxor(&bi)),
        Shl => AVal::Int(Interval::FULL),
        Shr => AVal::Int(ai.shr(&bi)),
        Add | Sub | Mul | Div | Rem => {
            if both_int {
                AVal::Int(match op {
                    Add => ai.add(&bi),
                    Sub => ai.sub(&bi),
                    Mul => ai.mul(&bi),
                    Div => ai.div(&bi),
                    Rem => ai.rem(&bi),
                    _ => unreachable!(),
                })
            } else if matches!(a, AVal::Float) || matches!(b, AVal::Float) {
                AVal::Float
            } else {
                AVal::Top
            }
        }
        And | Or => AVal::Int(Interval::range(0, 1)),
    }
}

/// The variable a comparison side can refine: a bare identifier, or an
/// assignment whose target is one (its value equals the stored value).
fn refine_target(e: &Expr) -> Option<&str> {
    match e {
        Expr::Ident(n) => Some(n),
        Expr::Assign(_, lhs, _) => match lhs.as_ref() {
            Expr::Ident(n) => Some(n),
            _ => None,
        },
        _ => None,
    }
}

/// Side-effect-free view of an expression's integer interval, used by
/// refinement *after* the condition's effects were applied. Returns
/// `None` for floats/pointers/opaque shapes (no refinement).
fn peek_int(a: &Analyzer, e: &Expr) -> Option<Interval> {
    match e {
        Expr::IntLit(v) => Some(Interval::constant(*v)),
        Expr::CharLit(c) => Some(Interval::constant(*c as i64)),
        Expr::SizeOf(ty) => Some(Interval::constant(ty.scalar_size() as i64)),
        Expr::Ident(n) => match a.get(n)?.val {
            AVal::Int(i) => Some(i),
            _ => None,
        },
        // Post-state of the assigned variable == the comparison operand.
        Expr::Assign(_, lhs, _) => match lhs.as_ref() {
            Expr::Ident(n) => match a.get(n)?.val {
                AVal::Int(i) => Some(i),
                _ => None,
            },
            _ => None,
        },
        Expr::Unary(UnOp::Neg, x) => Some(peek_int(a, x)?.neg()),
        Expr::Binary(op, x, y, _)
            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::BitAnd) =>
        {
            let ix = peek_int(a, x)?;
            let iy = peek_int(a, y)?;
            Some(match op {
                BinOp::Add => ix.add(&iy),
                BinOp::Sub => ix.sub(&iy),
                BinOp::Mul => ix.mul(&iy),
                BinOp::BitAnd => ix.bitand(&iy),
                _ => unreachable!(),
            })
        }
        _ => None,
    }
}

/// Constrain `x` assuming `x <op> y` holds.
fn constrain(x: &Interval, op: BinOp, y: &Interval) -> Option<Interval> {
    match op {
        BinOp::Lt => x.meet(&Interval::at_most(y.hi.checked_sub(1)?)),
        BinOp::Le => x.meet(&Interval::at_most(y.hi)),
        BinOp::Gt => x.meet(&Interval::at_least(y.lo.checked_add(1)?)),
        BinOp::Ge => x.meet(&Interval::at_least(y.lo)),
        BinOp::Eq => x.meet(y),
        BinOp::Ne => match y.as_constant() {
            Some(c) => x.without(c),
            None => Some(*x),
        },
        _ => Some(*x),
    }
}

/// `x <op> y` ⇔ `y <swap(op)> x`.
fn swap(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Negation of a comparison.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

fn const_nonneg(v: &AVal) -> Option<usize> {
    match v {
        AVal::Int(i) => i.as_constant().filter(|c| *c >= 0).map(|c| c as usize),
        _ => None,
    }
}

/// Root array/pointer name of a subscript chain, for diagnostics.
fn base_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Index(base, ..) => match base.as_ref() {
            Expr::Ident(n) => Some(n.clone()),
            inner => base_name(inner),
        },
        Expr::Ident(n) => Some(n.clone()),
        _ => None,
    }
}

/// Whether `body` can leave its loop: a `break` at this nesting level,
/// or a `return` at any depth.
fn stmt_escapes(s: &Stmt) -> bool {
    match &s.kind {
        StmtKind::Break | StmtKind::Return(_) => true,
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => contains_return(body),
        StmtKind::If { then, els, .. } => {
            stmt_escapes(then) || els.as_deref().is_some_and(stmt_escapes)
        }
        StmtKind::Block(body) => body.iter().any(stmt_escapes),
        StmtKind::Annotated(_, inner) => stmt_escapes(inner),
        _ => false,
    }
}

fn contains_return(s: &Stmt) -> bool {
    match &s.kind {
        StmtKind::Return(_) => true,
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => contains_return(body),
        StmtKind::If { then, els, .. } => {
            contains_return(then) || els.as_deref().is_some_and(contains_return)
        }
        StmtKind::Block(body) => body.iter().any(contains_return),
        StmtKind::Annotated(_, inner) => contains_return(inner),
        _ => false,
    }
}

/// Statement spans whose expression trees call `printf`.
fn collect_printf_spans(s: &Stmt, out: &mut Vec<Span>) {
    fn expr_has_printf(e: &Expr) -> bool {
        let mut found = false;
        fn walk(e: &Expr, found: &mut bool) {
            if *found {
                return;
            }
            match e {
                Expr::Call(name, args, _) => {
                    if name == "printf" {
                        *found = true;
                        return;
                    }
                    for a in args {
                        walk(a, found);
                    }
                }
                Expr::Unary(_, x) | Expr::PostInc(x) | Expr::PostDec(x) | Expr::Cast(_, x) => {
                    walk(x, found)
                }
                Expr::Binary(_, a, b, _) | Expr::Assign(_, a, b) | Expr::Index(a, b, _) => {
                    walk(a, found);
                    walk(b, found);
                }
                Expr::Cond(c, t, f) => {
                    walk(c, found);
                    walk(t, found);
                    walk(f, found);
                }
                _ => {}
            }
        }
        walk(e, &mut found);
        found
    }
    let mut exprs: Vec<&Expr> = Vec::new();
    match &s.kind {
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => exprs.push(e),
        StmtKind::Decl(ds) => {
            for d in ds {
                if let Some(e) = &d.init {
                    exprs.push(e);
                }
            }
        }
        StmtKind::While { cond, body } => {
            exprs.push(cond);
            collect_printf_spans(body, out);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                collect_printf_spans(i, out);
            }
            if let Some(c) = cond {
                exprs.push(c);
            }
            if let Some(st) = step {
                exprs.push(st);
            }
            collect_printf_spans(body, out);
        }
        StmtKind::If { cond, then, els } => {
            exprs.push(cond);
            collect_printf_spans(then, out);
            if let Some(e) = els {
                collect_printf_spans(e, out);
            }
        }
        StmtKind::Block(body) => {
            for st in body {
                collect_printf_spans(st, out);
            }
        }
        StmtKind::Annotated(_, inner) => collect_printf_spans(inner, out),
        _ => {}
    }
    if exprs.iter().any(|e| expr_has_printf(e)) {
        out.push(s.span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn analyze(src: &str) -> ValueAnalysis {
        analyze_main(&parse(src).expect("test source parses"))
    }

    fn codes(a: &ValueAnalysis) -> Vec<&'static str> {
        a.findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn growing_guard_loop_is_not_flagged_infinite() {
        // `while (i >= 0) i++` DOES terminate concretely: the
        // interpreter's wrapping_add eventually takes `i` negative. The
        // interval for `i + 1` overflows to FULL rather than saturating
        // at MAX, so the exit refinement stays satisfiable and no HD020
        // is (correctly) reported.
        let a = analyze(
            "int main() {
               int i; i = 0;
               while (i >= 0) { i = i + 1; }
               return 0;
             }",
        );
        assert!(codes(&a).is_empty(), "{:?}", a.findings);
        assert!(a.max_fixpoint_iters <= MAX_FIXPOINT_ITERS);
    }

    #[test]
    fn proves_counted_loop_subscripts_safe() {
        let a = analyze(
            "int main() {
               int a[48]; int i; int s; s = 0;
               for (i = 0; i < 48; i++) { a[i] = i; s += a[i]; }
               printf(\"%d\\n\", s);
               return 0;
             }",
        );
        assert!(codes(&a).is_empty(), "clean program: {:?}", a.findings);
        let (subs, _, _) = a.facts.site_counts();
        let (proven, _, _) = a.facts.proven_counts();
        assert!(subs >= 2, "both subscript sites seen: {subs}");
        assert_eq!(proven, subs, "all counted-loop subscripts proven");
    }

    #[test]
    fn non_unit_stride_still_proves() {
        let a = analyze(
            "int main() {
               int a[40]; int i;
               for (i = 0; i < 40; i += 7) { a[i] = 1; }
               return 0;
             }",
        );
        assert!(codes(&a).is_empty(), "{:?}", a.findings);
        let (proven, _, _) = a.facts.proven_counts();
        assert_eq!(proven, 1, "strided store proven in-bounds");
    }

    #[test]
    fn decreasing_induction_variable_proves() {
        let a = analyze(
            "int main() {
               int a[16]; int i;
               for (i = 15; i >= 0; i--) { a[i] = i; }
               return 0;
             }",
        );
        assert!(codes(&a).is_empty(), "{:?}", a.findings);
        let (proven, _, _) = a.facts.proven_counts();
        assert_eq!(proven, 1, "countdown store proven in-bounds");
    }

    #[test]
    fn branch_narrowing_rejoins() {
        // An unknown value clamped by two branches must be provably
        // in-bounds after the rejoin.
        let a = analyze(
            "int main() {
               int a[10]; int i; int j;
               scanf(\"%d %d\", &i, &j);
               if (i < 0) { i = 0; }
               if (i > 9) { i = 9; }
               a[i] = 1;
               return 0;
             }",
        );
        assert!(codes(&a).is_empty(), "{:?}", a.findings);
        let (proven, _, _) = a.facts.proven_counts();
        assert_eq!(proven, 1, "clamped subscript proven");
    }

    #[test]
    fn two_dimensional_strided_access_proves() {
        let a = analyze(
            "int main() {
               double m[4][5]; int i; int j; double s; s = 0.0;
               for (i = 0; i < 4; i++) {
                 for (j = 0; j < 5; j++) { m[i][j] = 1.0; s += m[i][j]; }
               }
               printf(\"%f\\n\", s);
               return 0;
             }",
        );
        assert!(codes(&a).is_empty(), "{:?}", a.findings);
        let (subs, _, _) = a.facts.site_counts();
        let (proven, _, _) = a.facts.proven_counts();
        assert_eq!(
            proven, subs,
            "2-D strided sites all proven ({proven}/{subs})"
        );
        assert!(subs >= 2);
    }

    #[test]
    fn widening_to_top_terminates_within_bound() {
        // `i` can only grow; the loop never exits and the head must
        // widen to top instead of iterating forever.
        let a = analyze(
            "int main() {
               int i; i = 0;
               while (1) { i = i + 3; if (i > 100) { i = -5; } }
               return 0;
             }",
        );
        assert!(
            a.max_fixpoint_iters <= MAX_FIXPOINT_ITERS,
            "fixpoint took {} iterations (bound {})",
            a.max_fixpoint_iters,
            MAX_FIXPOINT_ITERS
        );
        assert!(
            codes(&a).contains(&"HD020"),
            "breakless true loop flagged: {:?}",
            a.findings
        );
    }

    #[test]
    fn division_facts_and_definite_zero() {
        let a = analyze(
            "int main() {
               int d; d = 10; int x;
               x = 100 / d;
               x = 100 % (d - 10);
               return 0;
             }",
        );
        assert_eq!(codes(&a), vec!["HD017"], "{:?}", a.findings);
        let (_, dproven, _) = a.facts.proven_counts();
        assert_eq!(dproven, 1, "only the nonzero division is proven");
    }

    #[test]
    fn provable_out_of_bounds_and_uninit_reads() {
        let a = analyze(
            "int main() {
               int a[3]; int x; int y;
               y = x + 1;
               a[7] = y;
               return 0;
             }",
        );
        assert_eq!(codes(&a), vec!["HD018", "HD016"], "{:?}", a.findings);
    }

    #[test]
    fn dead_branch_and_dead_emit() {
        let a = analyze(
            "int main() {
               if (0) { printf(\"never\\n\"); }
               return 0;
             }",
        );
        let c = codes(&a);
        assert_eq!(c, vec!["HD019", "HD019"], "{:?}", a.findings);
    }

    #[test]
    fn getline_driven_loop_stays_clean_and_analysis_is_deterministic() {
        let src = "int main() {
               char *line; int nbytes; int read; int n; n = 0;
               line = malloc(200); nbytes = 200;
               while ((read = getline(&line, &nbytes, 0)) != -1) { n++; }
               printf(\"%d\\n\", n);
               return 0;
             }";
        let a = analyze(src);
        assert!(codes(&a).is_empty(), "{:?}", a.findings);
        let b = analyze(src);
        let ka: Vec<_> = a.findings.iter().map(|f| (f.code, f.span.line)).collect();
        let kb: Vec<_> = b.findings.iter().map(|f| (f.code, f.span.line)).collect();
        assert_eq!(ka, kb, "repeated analysis is deterministic");
        assert_eq!(a.facts.proven_counts(), b.facts.proven_counts());
    }

    #[test]
    fn guard_refined_subscript_proves() {
        // The LR/BlackScholes idiom: a guarded store through a counter
        // that grows without bound.
        let a = analyze(
            "int main() {
               double v[13]; int n; n = 0;
               while (n < 1000) {
                 if (n < 13) { v[n] = 1.5; }
                 n++;
               }
               return 0;
             }",
        );
        assert!(codes(&a).is_empty(), "{:?}", a.findings);
        let (proven, _, _) = a.facts.proven_counts();
        assert_eq!(proven, 1, "guarded store proven despite unbounded n");
    }
}
