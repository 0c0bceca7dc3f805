//! Lowering: typed AST → register bytecode ([`super::bytecode`]).
//!
//! Runs **once per program**. What it pre-pays, relative to the
//! interpreter: names resolve to frame registers, literals to
//! constant-pool operands, `printf`/`scanf` formats are parsed, call
//! targets (user function vs which builtin) are decided, and 2-D
//! strided indexing is decided from the declaration site.
//!
//! **Cost parity.** [`Lower::tick`] is called wherever the interpreter
//! ticks — once per expression node evaluated (a step and an op), once
//! per statement executed and per loop iteration (a step). The ticks
//! accumulate in `pending` until the next instruction is emitted: the
//! fast block adds them to its `Fuel` sum, the exact twin gets a `Tick`
//! in front of that instruction. Since instructions are emitted in the
//! interpreter's evaluation order, the twin faults and runs out of
//! steps at exactly the interpreter's node.
//!
//! **Laziness.** The interpreter only faults on code it executes, so
//! lowering never fails: ill-formed constructs (unknown names,
//! non-literal formats, bad arity…) lower to a `Trap` carrying the
//! interpreter's message, raised only if reached.
//!
//! **Inlining.** A call to a small *leaf* — a user function that calls
//! no user function, declares no array and takes no `&` of a name —
//! lowers in place when the arity matches and no call cycle reaches the
//! caller (so the call could never have hit the VM's depth limit). The
//! callee's parameters and locals become registers pinned above the
//! caller's live temporaries, `return e` writes the call's destination
//! and jumps to the continuation, and every tick stays where the
//! interpreter ticks. Every other call stays a `Call`.

use super::bytecode::{Bytecode, Cmp, Func, Insn, Pc, ScanTo, Site2, R};
use super::vm::MAX_CALL_DEPTH;
use crate::ast::*;
use crate::error::CcError;
use crate::interp::{
    array_extent, builtin_arity_err, builtin_min_args, default_value, leaf_type, parse_printf,
    parse_scanf, printf_missing_arg, PSeg, ScanConv, Sfu1, V,
};
use std::collections::{HashMap, HashSet};

/// Lower `prog`.
pub(crate) fn lower(prog: &Program) -> Bytecode {
    // First function with a given name wins, like `Program::func`.
    let mut fn_indices: HashMap<&str, usize> = HashMap::new();
    for (i, f) in prog.funcs.iter().enumerate() {
        fn_indices.entry(&f.name).or_insert(i);
    }
    let mut effects = HashSet::new();
    for f in &prog.funcs {
        walk_stmts(&f.body, &mut |s| {
            stmt_roots(s, &mut |e| {
                mark_effects(e, &mut effects);
            });
        });
    }
    let (leaves, inline_into) = inline_plan(prog, &fn_indices);
    let mut lw = Lower {
        prog,
        out: Bytecode {
            code: Vec::new(),
            funcs: Vec::new(),
            main: fn_indices.get("main").copied(),
            consts: Vec::new(),
            msgs: Vec::new(),
            strs: Vec::new(),
            fmts: Vec::new(),
            pf_args: Vec::new(),
            scans: Vec::new(),
            arrays: Vec::new(),
            sites2: Vec::new(),
        },
        fn_indices,
        const_ids: HashMap::new(),
        effects,
        leaves,
        f: FnState::default(),
    };
    for (fi, f) in prog.funcs.iter().enumerate() {
        lw.func(f, inline_into[fi]);
    }
    lw.out
}

/// Largest callee, in statements and expression nodes, that a call site
/// inlines: bounds the code an inlined program can grow by to a constant
/// factor of its call sites.
const INLINE_MAX_NODES: usize = 256;

/// Names a leaf's body assigns or steps, in any scope: a parameter not
/// among them reads its argument's operand directly.
type Written = HashSet<String>;

/// Which functions are inlinable leaves (with their [`Written`] names),
/// and which functions may inline them: those no call cycle reaches.
/// Such a function runs at most `funcs.len() - 1` frames deep, below
/// [`MAX_CALL_DEPTH`], so none of its calls could have failed the depth
/// check.
fn inline_plan(
    prog: &Program,
    fn_indices: &HashMap<&str, usize>,
) -> (Vec<Option<Written>>, Vec<bool>) {
    let n = prog.funcs.len();
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut leaves = Vec::with_capacity(n);
    for (fi, f) in prog.funcs.iter().enumerate() {
        let (mut nodes, mut leaf) = (0, true);
        let mut written = HashSet::new();
        walk_stmts(&f.body, &mut |s| {
            nodes += 1;
            if let StmtKind::Decl(ds) = &s.kind {
                leaf &= !ds.iter().any(|d| d.ty.is_array());
            }
            own_exprs(s, &mut |e| {
                nodes += 1;
                match e {
                    Expr::Call(name, ..) => {
                        if let Some(&g) = fn_indices.get(name.as_str()) {
                            callees[fi].push(g);
                            leaf = false;
                        }
                    }
                    Expr::Unary(UnOp::AddrOf, x) => leaf &= !matches!(**x, Expr::Ident(_)),
                    Expr::Assign(_, x, _)
                    | Expr::PostInc(x)
                    | Expr::PostDec(x)
                    | Expr::Unary(UnOp::PreInc | UnOp::PreDec, x) => {
                        let mut x: &Expr = x;
                        while let Expr::Cast(_, inner) = x {
                            x = inner;
                        }
                        if let Expr::Ident(name) = x {
                            written.insert(name.clone());
                        }
                    }
                    _ => {}
                }
            });
        });
        leaves.push((leaf && nodes <= INLINE_MAX_NODES).then_some(written));
    }
    // Kahn's peel: what it removes is exactly what no cycle reaches.
    let mut indeg = vec![0usize; n];
    for g in callees.iter().flatten() {
        indeg[*g] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&f| indeg[f] == 0).collect();
    let mut inline_into = vec![false; n];
    while let Some(f) = ready.pop() {
        inline_into[f] = n <= MAX_CALL_DEPTH;
        for &g in &callees[f] {
            indeg[g] -= 1;
            if indeg[g] == 0 {
                ready.push(g);
            }
        }
    }
    (leaves, inline_into)
}

#[derive(Clone, Copy)]
struct Local {
    reg: R,
    is_array: bool,
    /// Row length for `a[rows][cols]` declarations (2-D fast path).
    stride: Option<usize>,
}

#[derive(Default)]
struct Block {
    fast_pc: usize,
    twin_pc: usize,
    steps: u32,
    ops: u32,
    /// Instructions besides the `Fuel`, counted in the exact twin.
    insns: usize,
}

/// `(buffer pointer, element index)` operands of a subscript, ready for
/// the access instruction.
enum Place<'a> {
    One {
        base: R,
        idx: R,
    },
    /// Strided 2-D access; `inner` is the `slot[row]` node the generic
    /// fallback evaluates.
    Two {
        slot: R,
        row: R,
        col: R,
        site: u16,
        inner: &'a Expr,
    },
}

/// What the access instruction does with a [`Place`].
#[derive(Clone, Copy)]
enum Access {
    Load(R),
    Store(R),
    Addr(R),
}

/// The call being lowered in place.
#[derive(Clone, Copy)]
struct Inline<'a> {
    /// The call's destination: what `return` writes.
    dst: R,
    /// Continuation label: where a `return` jumps.
    ret: u32,
    /// The body's last top-level statement: a `return` there falls
    /// through to the continuation.
    tail: Option<&'a Stmt>,
}

/// Per-function lowering state.
#[derive(Default)]
struct FnState<'a> {
    fast: Vec<Insn>,
    twin: Vec<Insn>,
    blocks: Vec<Block>,
    /// No block is open: the next instruction (or label) opens one.
    need_block: bool,
    /// The last block ended in a jump, return or trap: until a label is
    /// bound, nothing reaches this point.
    dead_end: bool,
    /// Bound at the next block's start (the previous twin's exit).
    next_label: Option<u32>,
    /// Label id → fast pc (function-relative), once bound.
    labels: Vec<Option<usize>>,
    label_refs: Vec<u32>,
    /// Ticks since the last emitted instruction.
    pending: (u32, u32),
    scopes: Vec<HashMap<String, Local>>,
    next_local: usize,
    /// Registers below this hold named values (the function's locals,
    /// and inside an inlined body also the values live across it):
    /// statements reset the temporaries to here.
    tmp_base: usize,
    tmp_top: usize,
    nregs: usize,
    /// `(break, continue)` labels of the enclosing loops.
    loops: Vec<(u32, u32)>,
    /// Names whose address the function takes (`&x`): an argument held
    /// in such a local is copied before an inlined body reads it.
    addr_taken: HashSet<&'a str>,
    /// Registers bound to an `addr_taken` name.
    addr_regs: HashSet<u16>,
    /// Inline call sites are allowed here.
    may_inline: bool,
    /// Set while an inlined body is being lowered.
    inline: Option<Inline<'a>>,
    /// A call was lowered in place.
    inlined: bool,
    /// First `sites2` entry of this function (their `cont` is a label).
    sites2_start: usize,
    /// An index outgrew its operand field.
    overflow: bool,
}

struct Lower<'a> {
    prog: &'a Program,
    fn_indices: HashMap<&'a str, usize>,
    out: Bytecode,
    const_ids: HashMap<(u8, u64), usize>,
    /// Expression nodes (by address) whose evaluation may write a
    /// local: they contain an assignment, `++`/`--`, or a call.
    effects: HashSet<usize>,
    /// Per function: `Some` if its call sites may lower it in place.
    leaves: Vec<Option<Written>>,
    f: FnState<'a>,
}

fn key(e: &Expr) -> usize {
    e as *const Expr as usize
}

/// The expressions a statement evaluates itself (not those of nested
/// statements).
fn stmt_roots<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    match &s.kind {
        StmtKind::Decl(ds) => ds.iter().filter_map(|d| d.init.as_ref()).for_each(f),
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => f(e),
        StmtKind::While { cond, .. } | StmtKind::If { cond, .. } => f(cond),
        StmtKind::For { cond, step, .. } => cond.iter().chain(step).for_each(f),
        _ => {}
    }
}

/// Record every node of `e` whose evaluation may write a local.
fn mark_effects(e: &Expr, set: &mut HashSet<usize>) -> bool {
    let inner = match e {
        Expr::Unary(_, x) | Expr::PostInc(x) | Expr::PostDec(x) | Expr::Cast(_, x) => {
            mark_effects(x, set)
        }
        Expr::Binary(_, a, b, _) | Expr::Assign(_, a, b) | Expr::Index(a, b, _) => {
            let (x, y) = (mark_effects(a, set), mark_effects(b, set));
            x || y
        }
        Expr::Cond(c, t, f) => {
            let (x, y, z) = (
                mark_effects(c, set),
                mark_effects(t, set),
                mark_effects(f, set),
            );
            x || y || z
        }
        Expr::Call(_, args, _) => args.iter().fold(false, |acc, a| mark_effects(a, set) | acc),
        _ => false,
    };
    let own = matches!(
        e,
        Expr::Assign(..)
            | Expr::PostInc(_)
            | Expr::PostDec(_)
            | Expr::Call(..)
            | Expr::Unary(UnOp::PreInc | UnOp::PreDec, _)
    );
    if inner || own {
        set.insert(key(e));
    }
    inner || own
}

impl<'a> Lower<'a> {
    // ================================================================
    // Functions, blocks, labels.
    // ================================================================

    /// Lower `f`, inlining leaf calls if `may_inline`. Should inlining
    /// outgrow an operand field, `f` is lowered again without it, so it
    /// faults only where it did before.
    fn func(&mut self, f: &'a FuncDef, may_inline: bool) {
        let tables = (
            self.out.msgs.len(),
            self.out.strs.len(),
            self.out.fmts.len(),
            self.out.arrays.len(),
            self.out.scans.len(),
        );
        self.lower_body(f, may_inline);
        if self.f.overflow && self.f.inlined {
            self.out.msgs.truncate(tables.0);
            self.out.strs.truncate(tables.1);
            self.out.fmts.truncate(tables.2);
            self.out.pf_args.truncate(tables.2);
            self.out.arrays.truncate(tables.3);
            self.out.scans.truncate(tables.4);
            self.out.sites2.truncate(self.f.sites2_start);
            self.lower_body(f, false);
        }
        self.finish_func(f);
    }

    fn lower_body(&mut self, f: &'a FuncDef, may_inline: bool) {
        let mut ndecls = 0;
        let mut addr_taken = HashSet::new();
        walk_stmts(&f.body, &mut |s| {
            if let StmtKind::Decl(ds) = &s.kind {
                ndecls += ds.len();
            }
            own_exprs(s, &mut |e| {
                if let Expr::Unary(UnOp::AddrOf, x) = e {
                    if let Expr::Ident(name) = x.as_ref() {
                        addr_taken.insert(name.as_str());
                    }
                }
            });
        });
        let nlocals = f.params.len() + ndecls;
        self.f = FnState {
            need_block: true,
            scopes: vec![HashMap::new()],
            tmp_base: nlocals,
            tmp_top: nlocals,
            nregs: nlocals,
            addr_taken,
            may_inline,
            sites2_start: self.out.sites2.len(),
            overflow: nlocals > R::MAX,
            ..FnState::default()
        };
        for (_, pname) in &f.params {
            let reg = self.new_local();
            self.bind_name(pname, reg, false, None);
        }
        for s in &f.body {
            self.stmt(s);
        }
        // Falling off the end returns 0.
        if !(self.f.need_block && self.f.dead_end) {
            let zero = self.konst(V::I(0));
            self.emit(Insn::Ret { src: zero });
        }
    }

    /// Resolve labels, stamp the `Fuel`s, and append fast blocks then
    /// exact twins to the program.
    fn finish_func(&mut self, f: &FuncDef) {
        let base = self.out.code.len();
        let st = std::mem::take(&mut self.f);
        if st.overflow || st.fast.len() + st.twin.len() + base > u32::MAX as usize {
            // Past an operand field's range the code above is garbage;
            // the function faults when called instead.
            self.out.sites2.truncate(st.sites2_start);
            let msg = self.msg(CcError::interp(format!(
                "function {} is too large for the bytecode engine",
                f.name
            )));
            self.out.code.push(Insn::Trap { msg });
            self.out.funcs.push(Func {
                name: f.name.clone(),
                nparams: f.params.len(),
                nregs: f.params.len(),
                entry: base,
                twins: base + 1,
                end: base + 1,
            });
            return;
        }
        let FnState {
            mut fast,
            mut twin,
            blocks,
            labels,
            nregs,
            sites2_start,
            ..
        } = st;
        let twins = base + fast.len();
        let resolve = |pc: &mut Pc| {
            let at = labels[pc.0 as usize].expect("referenced labels are bound");
            *pc = Pc((base + at) as u32);
        };
        for b in &blocks {
            fast[b.fast_pc] = Insn::Fuel {
                steps: b.steps,
                ops: b.ops,
                exact: Pc((twins + b.twin_pc) as u32),
            };
        }
        for insn in fast.iter_mut().chain(twin.iter_mut()) {
            if let Some(pc) = insn.target_mut() {
                resolve(pc);
            }
        }
        for site in &mut self.out.sites2[sites2_start..] {
            resolve(&mut site.cont);
        }
        self.out.code.append(&mut fast);
        self.out.code.append(&mut twin);
        self.out.funcs.push(Func {
            name: f.name.clone(),
            nparams: f.params.len(),
            nregs,
            entry: base,
            twins,
            end: self.out.code.len(),
        });
    }

    /// Count a tick at the point the interpreter ticks.
    fn tick(&mut self, steps: u32, ops: u32) {
        self.f.pending.0 += steps;
        self.f.pending.1 += ops;
    }

    fn open_block(&mut self) {
        let at = self.f.fast.len();
        if let Some(l) = self.f.next_label.take() {
            self.f.labels[l as usize] = Some(at);
        }
        self.f.blocks.push(Block {
            fast_pc: at,
            twin_pc: self.f.twin.len(),
            ..Block::default()
        });
        self.f.fast.push(Insn::Fuel {
            steps: 0,
            ops: 0,
            exact: Pc(0),
        });
        self.f.need_block = false;
        self.f.dead_end = false;
    }

    /// Move the pending ticks into the open block: its `Fuel` sum, and
    /// a `Tick` at this point of its twin.
    fn flush(&mut self) {
        if self.f.need_block {
            self.open_block();
        }
        let (steps, ops) = std::mem::take(&mut self.f.pending);
        if steps != 0 || ops != 0 {
            let b = self.f.blocks.last_mut().expect("a block is open");
            b.steps = b.steps.saturating_add(steps);
            b.ops = b.ops.saturating_add(ops);
            self.f.overflow |= b.steps == u32::MAX;
            self.f.twin.push(Insn::Tick { steps, ops });
        }
    }

    /// Close the open block. Its twin leaves through a jump to the next
    /// fast block, which re-decides between fast and exact.
    fn close_block(&mut self, falls_through: bool) {
        let l = self.new_label();
        if falls_through {
            self.f.label_refs[l as usize] += 1;
            self.f.twin.push(Insn::Jmp { to: Pc(l) });
        }
        self.f.next_label = Some(l);
        self.f.need_block = true;
        self.f.dead_end = !falls_through;
    }

    fn emit(&mut self, insn: Insn) {
        self.flush();
        self.f.fast.push(insn);
        self.f.twin.push(insn);
        self.f.blocks.last_mut().expect("a block is open").insns += 1;
        if let Some(falls_through) = insn.ends_block() {
            self.close_block(falls_through);
        }
    }

    /// An instruction of the exact twin only: the fast block pays its
    /// ticks up front, so no step limit can fire before the consumer that
    /// repeats this check.
    fn emit_twin(&mut self, insn: Insn) {
        self.flush();
        self.f.twin.push(insn);
        self.f.blocks.last_mut().expect("a block is open").insns += 1;
    }

    /// Where the open block's next fast instruction goes, for
    /// [`fuse`](Self::fuse).
    fn fuse_mark(&mut self) -> usize {
        self.flush();
        self.f.fast.len()
    }

    /// Replace the fast instructions emitted since `mark` with `insn`;
    /// the exact twin keeps them, with its `Tick`s between.
    fn fuse(&mut self, mark: usize, insn: Insn) {
        let b = self.f.blocks.last().expect("a block is open");
        debug_assert!(!self.f.need_block && b.fast_pc < mark, "one block");
        self.f.fast.truncate(mark);
        self.f.fast.push(insn);
    }

    fn new_label(&mut self) -> u32 {
        self.f.labels.push(None);
        self.f.label_refs.push(0);
        (self.f.labels.len() - 1) as u32
    }

    /// A jump operand for `label`.
    fn to(&mut self, label: u32) -> Pc {
        self.f.label_refs[label as usize] += 1;
        Pc(label)
    }

    /// Bind `label` here, starting a new block unless one just started.
    /// Ticks pending at this point were spent before the label: they go
    /// into a block of their own when none is open to take them, so a
    /// jump to the label does not pay them.
    fn bind(&mut self, label: u32) {
        let open_nonempty = !self.f.need_block && {
            let b = self.f.blocks.last().expect("a block is open");
            b.insns > 0 || b.steps > 0
        };
        if open_nonempty || self.f.pending != (0, 0) {
            self.flush();
            self.close_block(true);
        }
        if self.f.need_block {
            self.open_block();
        }
        let at = self.f.blocks.last().expect("just opened").fast_pc;
        self.f.labels[label as usize] = Some(at);
    }

    /// [`bind`](Self::bind), but only if something jumps to `label`.
    fn bind_if_used(&mut self, label: u32) {
        if self.f.label_refs[label as usize] > 0 {
            self.bind(label);
        }
    }

    // ================================================================
    // Registers, constants, side tables.
    // ================================================================

    fn resolve(&self, name: &str) -> Option<Local> {
        self.f
            .scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .copied()
    }

    /// Registers of named locals are allocated monotonically and never
    /// reused after a scope closes: a sibling scope's variables get
    /// fresh registers, like the interpreter's append-only slots. An
    /// inlined body's locals are pinned above the caller's live values
    /// until the body ends.
    fn new_local(&mut self) -> R {
        if self.f.inline.is_some() {
            let r = self.alloc_tmp();
            self.f.tmp_base = self.f.tmp_top;
            return r;
        }
        let r = R::reg(self.f.next_local);
        self.f.next_local += 1;
        r
    }

    fn bind_name(&mut self, name: &str, reg: R, is_array: bool, stride: Option<usize>) {
        let local = Local {
            reg,
            is_array,
            stride,
        };
        if self.f.inline.is_none() && self.f.addr_taken.contains(name) {
            self.f.addr_regs.insert(reg.0);
        }
        let scope = self.f.scopes.last_mut().expect("function scope");
        scope.insert(name.to_string(), local);
    }

    fn alloc_tmp(&mut self) -> R {
        let r = self.f.tmp_top;
        self.f.tmp_top += 1;
        self.f.nregs = self.f.nregs.max(self.f.tmp_top);
        self.f.overflow |= r > R::MAX;
        R::reg(r)
    }

    /// The destination of a node's root instruction: the caller's
    /// `hint`, or a fresh temporary.
    fn dst(&mut self, hint: Option<R>) -> R {
        hint.unwrap_or_else(|| self.alloc_tmp())
    }

    fn is_local(&self, r: R) -> bool {
        !r.is_const() && r.index() < self.f.tmp_base
    }

    fn konst(&mut self, v: V) -> R {
        let id = match v {
            V::I(i) => (0, i as u64),
            V::F(x) => (1, x.to_bits()),
            _ => (2, 0),
        };
        let consts = &mut self.out.consts;
        let i = *self.const_ids.entry(id).or_insert_with(|| {
            consts.push(v);
            consts.len() - 1
        });
        self.f.overflow |= i > R::MAX;
        R::konst(i)
    }

    fn is_num_const(&self, r: R) -> bool {
        r.is_const() && matches!(self.out.consts[r.index()], V::I(_) | V::F(_))
    }

    fn idx16(&mut self, i: usize) -> u16 {
        self.f.overflow |= i > u16::MAX as usize;
        i as u16
    }

    fn msg(&mut self, e: CcError) -> u16 {
        self.out.msgs.push(e);
        self.idx16(self.out.msgs.len() - 1)
    }

    /// Raise `msg` if this point is reached. Returns a placeholder
    /// operand for the (unreachable) consumer.
    fn trap(&mut self, msg: impl Into<String>) -> R {
        self.trap_err(CcError::interp(msg))
    }

    fn trap_err(&mut self, e: CcError) -> R {
        let msg = self.msg(e);
        self.emit(Insn::Trap { msg });
        self.konst(V::I(0))
    }

    fn has_effects(&self, e: &Expr) -> bool {
        self.effects.contains(&key(e))
    }

    // ================================================================
    // Statements.
    // ================================================================

    fn stmt(&mut self, s: &'a Stmt) {
        // Every executed statement costs one step, like `Interp::exec`.
        self.tick(1, 0);
        match &s.kind {
            StmtKind::Decl(ds) => {
                for d in ds {
                    self.declarator(d);
                }
            }
            StmtKind::Expr(e) => self.expr_discard(e),
            StmtKind::While { cond, body } => {
                let (lbody, lcont, lexit) = (self.new_label(), self.new_label(), self.new_label());
                // Inverted: test once on entry, then at the bottom, so
                // a straight-line body and its test share one block.
                self.tick(1, 0);
                self.branch(cond, lexit, false);
                self.bind(lbody);
                self.f.loops.push((lexit, lcont));
                self.stmt(body);
                self.f.loops.pop();
                self.bind_if_used(lcont);
                self.tick(1, 0);
                self.branch(cond, lbody, true);
                self.bind(lexit);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let (lbody, lstep, lexit) = (self.new_label(), self.new_label(), self.new_label());
                self.f.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i);
                }
                self.tick(1, 0);
                if let Some(c) = cond {
                    self.branch(c, lexit, false);
                }
                self.bind(lbody);
                self.f.loops.push((lexit, lstep));
                self.stmt(body);
                self.f.loops.pop();
                self.bind_if_used(lstep);
                if let Some(st) = step {
                    self.expr_discard(st);
                }
                self.tick(1, 0);
                match cond {
                    Some(c) => self.branch(c, lbody, true),
                    None => {
                        let to = self.to(lbody);
                        self.emit(Insn::Jmp { to });
                    }
                }
                self.bind(lexit);
                self.f.scopes.pop();
            }
            StmtKind::If { cond, then, els } => {
                let lelse = self.new_label();
                self.branch(cond, lelse, false);
                self.stmt(then);
                match els {
                    Some(e) => {
                        let lend = self.new_label();
                        let to = self.to(lend);
                        self.emit(Insn::Jmp { to });
                        self.bind(lelse);
                        self.stmt(e);
                        self.bind(lend);
                    }
                    None => self.bind(lelse),
                }
            }
            StmtKind::Return(e) => {
                if let Some(site) = self.f.inline {
                    match e {
                        Some(x) => self.expr_into(x, site.dst),
                        None => {
                            let src = self.konst(V::I(0));
                            self.emit(Insn::Mov { dst: site.dst, src });
                        }
                    }
                    if !site.tail.is_some_and(|t| std::ptr::eq(t, s)) {
                        let to = self.to(site.ret);
                        self.emit(Insn::Jmp { to });
                    }
                } else {
                    let src = match e {
                        Some(x) => self.expr(x, None),
                        None => self.konst(V::I(0)),
                    };
                    self.emit(Insn::Ret { src });
                }
                self.f.tmp_top = self.f.tmp_base;
            }
            StmtKind::Break | StmtKind::Continue => {
                let target = self.f.loops.last().map(|&(brk, cont)| {
                    if matches!(s.kind, StmtKind::Break) {
                        brk
                    } else {
                        cont
                    }
                });
                match target {
                    Some(l) => {
                        let to = self.to(l);
                        self.emit(Insn::Jmp { to });
                    }
                    None => {
                        self.trap("break/continue outside loop");
                    }
                }
            }
            StmtKind::Block(body) => {
                self.f.scopes.push(HashMap::new());
                for st in body {
                    self.stmt(st);
                }
                self.f.scopes.pop();
            }
            // The wrapper ticked above; the inner statement ticks for
            // itself.
            StmtKind::Annotated(_, inner) => self.stmt(inner),
            StmtKind::Empty => {}
        }
    }

    /// (Re-)initialize one declared name. Runs every time the
    /// declaration executes: a fresh buffer per loop iteration.
    fn declarator(&mut self, d: &'a Declarator) {
        match &d.ty {
            CType::Array(inner, n) => {
                let reg = self.new_local();
                match array_extent(&d.name, inner, *n) {
                    Ok((total, stride)) => {
                        self.bind_name(&d.name, reg, true, stride);
                        let elem = leaf_type(&d.ty);
                        self.out.arrays.push((d.name.clone(), elem, total));
                        let site = self.idx16(self.out.arrays.len() - 1);
                        self.emit(Insn::DeclArr { dst: reg, site });
                    }
                    Err(e) => {
                        self.bind_name(&d.name, reg, true, None);
                        self.trap_err(e);
                    }
                }
            }
            ty => {
                // The initializer is lowered before the name is bound,
                // so `int x = x;` reads an outer `x`.
                let reg = self.new_local();
                match &d.init {
                    Some(e) => self.expr_into(e, reg),
                    None => {
                        let src = self.konst(default_value(ty));
                        self.emit(Insn::Mov { dst: reg, src });
                    }
                }
                self.f.tmp_top = self.f.tmp_base;
                self.bind_name(&d.name, reg, false, None);
            }
        }
    }

    // ================================================================
    // Expressions.
    // ================================================================

    /// Lower `e`; returns the operand holding its value. A root
    /// instruction that needs a destination writes `hint` if given.
    /// A temporary result is the lowest temporary the node allocated,
    /// and the only one still live on return.
    fn expr(&mut self, e: &'a Expr, hint: Option<R>) -> R {
        // Every evaluated expression node costs one step and one op,
        // like `Interp::eval`.
        self.tick(1, 1);
        self.node(e, hint)
    }

    /// Lower `e` with its value guaranteed in `dst`.
    fn expr_into(&mut self, e: &'a Expr, dst: R) {
        let src = self.expr(e, Some(dst));
        if src != dst {
            self.emit(Insn::Mov { dst, src });
        }
    }

    /// Lower `e` as an operand that stays valid while later siblings
    /// are evaluated: a named local is copied out if one of them may
    /// write it.
    fn operand(&mut self, e: &'a Expr, later_effects: bool) -> R {
        let r = self.expr(e, None);
        if later_effects && self.is_local(r) {
            let dst = self.alloc_tmp();
            self.emit(Insn::Mov { dst, src: r });
            dst
        } else {
            r
        }
    }

    /// Lower `e` for its effects only.
    fn expr_discard(&mut self, e: &'a Expr) {
        match e {
            // Nobody reads the old value, so `x++;` is `++x;`: same
            // ticks, same fault, same store, one instruction fewer.
            Expr::PostInc(x) | Expr::PostDec(x) => {
                self.tick(1, 1);
                let d = if matches!(e, Expr::PostInc(_)) { 1 } else { -1 };
                self.inc_dec(x, d, false, None);
            }
            _ => {
                self.expr(e, None);
            }
        }
        self.f.tmp_top = self.f.tmp_base;
    }

    fn node(&mut self, e: &'a Expr, hint: Option<R>) -> R {
        let mark = self.f.tmp_top;
        let r = self.node_inner(e, hint);
        self.f.tmp_top = if !r.is_const() && r.index() >= mark {
            r.index() + 1
        } else {
            mark
        };
        r
    }

    fn node_inner(&mut self, e: &'a Expr, hint: Option<R>) -> R {
        match e {
            Expr::IntLit(v) => self.konst(V::I(*v)),
            Expr::FloatLit(v) => self.konst(V::F(*v)),
            Expr::CharLit(c) => self.konst(V::I(*c as i64)),
            Expr::SizeOf(ty) => self.konst(V::I(ty.scalar_size() as i64)),
            Expr::StrLit(s) => {
                let mut bytes = s.as_bytes().to_vec();
                bytes.push(0);
                self.out.strs.push(bytes);
                let lit = self.idx16(self.out.strs.len() - 1);
                let dst = self.dst(hint);
                self.emit(Insn::StrLit { dst, lit });
                dst
            }
            Expr::Ident(name) => match self.resolve(name) {
                Some(l) => l.reg,
                None => self.trap(format!("unknown variable {name}")),
            },
            Expr::Unary(op, x) => self.unary(*op, x, hint),
            Expr::PostInc(x) | Expr::PostDec(x) => {
                let d = if matches!(e, Expr::PostInc(_)) { 1 } else { -1 };
                self.inc_dec(x, d, true, hint)
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b, _) => {
                // Value of `&&` / `||`: 0/1 through the branch form.
                let dst = self.dst(hint);
                let (lshort, lend) = (self.new_label(), self.new_label());
                let is_and = *op == BinOp::And;
                self.branch(a, lshort, !is_and);
                let vb = self.expr(b, None);
                self.emit(Insn::Truthy { dst, a: vb });
                let to = self.to(lend);
                self.emit(Insn::Jmp { to });
                self.bind(lshort);
                let src = self.konst(V::I(!is_and as i64));
                self.emit(Insn::Mov { dst, src });
                self.bind(lend);
                dst
            }
            Expr::Binary(op, x, y, _) => {
                let dst = self.dst(hint);
                let a = self.operand(x, self.has_effects(y));
                let b = self.operand(y, false);
                self.emit(bin_insn(*op, dst, a, b));
                dst
            }
            Expr::Assign(op, lhs, rhs) => self.assign(*op, lhs, rhs),
            Expr::Cond(c, t, f) => {
                let dst = self.dst(hint);
                let (lelse, lend) = (self.new_label(), self.new_label());
                self.branch(c, lelse, false);
                self.expr_into(t, dst);
                let to = self.to(lend);
                self.emit(Insn::Jmp { to });
                self.bind(lelse);
                self.expr_into(f, dst);
                self.bind(lend);
                dst
            }
            Expr::Call(name, args, _) => self.call(name, args, hint),
            Expr::Index(base, idx, _) => {
                let dst = self.dst(hint);
                let place = self.place(base, idx);
                self.access(place, Access::Load(dst));
                dst
            }
            Expr::Cast(ty, x) => match ty {
                CType::Float | CType::Double | CType::Int | CType::Char => {
                    let dst = self.dst(hint);
                    let a = self.expr(x, None);
                    self.emit(if matches!(ty, CType::Int | CType::Char) {
                        Insn::CastI { dst, a }
                    } else {
                        Insn::CastF { dst, a }
                    });
                    dst
                }
                // Pointer and other casts are the identity on values.
                _ => self.expr(x, hint),
            },
        }
    }

    fn unary(&mut self, op: UnOp, x: &'a Expr, hint: Option<R>) -> R {
        // `-1` and the like: the literal still ticks, the negation
        // happens here.
        let folded = match (op, x) {
            (UnOp::Neg, Expr::IntLit(v)) => Some(V::I(v.wrapping_neg())),
            (UnOp::Neg, Expr::FloatLit(v)) => Some(V::F(-v)),
            _ => None,
        };
        if let Some(v) = folded {
            self.tick(1, 1);
            return self.konst(v);
        }
        match op {
            UnOp::AddrOf => match x {
                Expr::Ident(name) => match self.resolve(name) {
                    // Address of an array decays to the array pointer.
                    Some(l) if l.is_array => l.reg,
                    Some(l) => {
                        let dst = self.dst(hint);
                        self.emit(Insn::AddrSlot { dst, reg: l.reg });
                        dst
                    }
                    None => self.trap(format!("unknown variable {name}")),
                },
                Expr::Index(base, idx, _) => {
                    let dst = self.dst(hint);
                    let place = self.place(base, idx);
                    self.access(place, Access::Addr(dst));
                    dst
                }
                _ => self.trap("unsupported address-of target"),
            },
            UnOp::PreInc => self.inc_dec(x, 1, false, hint),
            UnOp::PreDec => self.inc_dec(x, -1, false, hint),
            UnOp::Deref | UnOp::Neg | UnOp::Not | UnOp::BitNot => {
                let dst = self.dst(hint);
                let a = self.expr(x, None);
                self.emit(match op {
                    UnOp::Deref => Insn::LdDeref { dst, ptr: a },
                    UnOp::Neg => Insn::Neg { dst, a },
                    UnOp::Not => Insn::Not { dst, a },
                    _ => Insn::BitNot { dst, a },
                });
                dst
            }
        }
    }

    /// `x++` / `x--` (`post`) and `++x` / `--x`: read `x`, step it,
    /// store it back through [`store`](Self::store) — which re-evaluates
    /// an indexed target's index expressions, like the interpreter.
    fn inc_dec(&mut self, x: &'a Expr, d: i8, post: bool, hint: Option<R>) -> R {
        if let Expr::Ident(name) = x {
            if let Some(l) = self.resolve(name) {
                self.tick(1, 1);
                return if post {
                    let dst = self.dst(hint);
                    self.emit(Insn::PostInc { dst, reg: l.reg, d });
                    dst
                } else {
                    self.emit(Insn::NumAdd {
                        dst: l.reg,
                        a: l.reg,
                        d,
                    });
                    l.reg
                };
            }
        }
        // Not the caller's destination: the store below evaluates the
        // target's index expressions after this value is written.
        let dst = self.alloc_tmp();
        let (old, new) = if post {
            self.expr_into(x, dst);
            (dst, self.alloc_tmp())
        } else {
            (self.expr(x, None), dst)
        };
        self.emit(Insn::NumAdd {
            dst: new,
            a: old,
            d,
        });
        self.store(x, new);
        dst
    }

    fn assign(&mut self, op: AssignOp, lhs: &'a Expr, rhs: &'a Expr) -> R {
        let local = match lhs {
            Expr::Ident(name) => self.resolve(name),
            _ => None,
        };
        let bop = match op {
            AssignOp::None => {
                return match local {
                    Some(l) => {
                        self.expr_into(rhs, l.reg);
                        l.reg
                    }
                    None => {
                        let rv = self.operand(rhs, self.has_effects(lhs));
                        self.store(lhs, rv);
                        rv
                    }
                }
            }
            AssignOp::Add => BinOp::Add,
            AssignOp::Sub => BinOp::Sub,
            AssignOp::Mul => BinOp::Mul,
            AssignOp::Div => BinOp::Div,
            AssignOp::Rem => BinOp::Rem,
        };
        // Compound: rhs first, then the old value of lhs, then the
        // store (an indexed lhs evaluates its index a second time).
        let dst = match local {
            Some(l) => l.reg,
            None => self.alloc_tmp(),
        };
        let rv = self.operand(rhs, self.has_effects(lhs));
        let old = self.expr(lhs, None);
        self.emit(bin_insn(bop, dst, old, rv));
        if local.is_none() {
            self.store(lhs, dst);
        }
        dst
    }

    /// Store `val` through an assignment target. Mirrors
    /// `Interp::assign_to`: the target node itself is not charged, its
    /// index / pointer sub-expressions are.
    fn store(&mut self, lhs: &'a Expr, val: R) {
        match lhs {
            Expr::Ident(name) => match self.resolve(name) {
                Some(l) => {
                    if l.reg != val {
                        self.emit(Insn::Mov {
                            dst: l.reg,
                            src: val,
                        });
                    }
                }
                None => {
                    self.trap(format!("unknown variable {name}"));
                }
            },
            Expr::Index(base, idx, _) => {
                let mark = self.f.tmp_top;
                let place = self.place(base, idx);
                self.access(place, Access::Store(val));
                self.f.tmp_top = mark;
            }
            Expr::Unary(UnOp::Deref, x) => {
                let mark = self.f.tmp_top;
                let ptr = self.expr(x, None);
                self.emit(Insn::StDeref { val, ptr });
                self.f.tmp_top = mark;
            }
            Expr::Cast(_, inner) => self.store(inner, val),
            _ => {
                self.trap("unsupported assignment target");
            }
        }
    }

    /// Keep the interpreter's order between validating operand `op`
    /// (`as_int` / `as_f64`) and evaluating the operands that follow it.
    /// When every later operand is plain, nothing between the check and
    /// its consumer can fault but a step limit, so only the exact twin
    /// keeps it.
    fn check_before(&mut self, op: R, int: bool, rest: &[&'a Expr]) {
        if self.is_num_const(op) || rest.is_empty() {
            return;
        }
        let chk = if int {
            Insn::ChkInt { a: op }
        } else {
            Insn::ChkNum { a: op }
        };
        if rest.iter().all(|e| self.is_plain(e)) {
            self.emit_twin(chk);
        } else {
            self.emit(chk);
        }
    }

    /// `e` lowers to an operand without an instruction: it cannot fault
    /// and writes nothing.
    fn is_plain(&self, e: &Expr) -> bool {
        match e {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::CharLit(_) | Expr::SizeOf(_) => true,
            Expr::Ident(name) => self.resolve(name).is_some(),
            _ => false,
        }
    }

    /// Lower the operands of `base[idx]`. Mirrors
    /// `Interp::index_target`: `idx` evaluates (and must be an integer)
    /// before `base`; a 2-D access over a declared `a[rows][cols]`
    /// takes the strided path, where the inner `Index` node is never
    /// charged, only its row index.
    fn place(&mut self, base: &'a Expr, idx: &'a Expr) -> Place<'a> {
        if let Expr::Index(inner_base, row_e, _) = base {
            if let Expr::Ident(name) = inner_base.as_ref() {
                if let Some(Local {
                    reg: slot,
                    stride: Some(stride),
                    ..
                }) = self.resolve(name)
                {
                    let col = self.operand(idx, self.has_effects(row_e));
                    self.check_before(col, true, &[row_e]);
                    let row = self.operand(row_e, false);
                    self.out.sites2.push(Site2 {
                        stride,
                        cont: Pc(0),
                    });
                    let site = self.idx16(self.out.sites2.len() - 1);
                    return Place::Two {
                        slot,
                        row,
                        col,
                        site,
                        inner: base,
                    };
                }
            }
        }
        let i = self.operand(idx, self.has_effects(base));
        self.check_before(i, true, &[base]);
        let b = self.operand(base, false);
        Place::One { base: b, idx: i }
    }

    fn access(&mut self, place: Place<'a>, acc: Access) {
        match place {
            Place::One { base, idx } => self.emit(match acc {
                Access::Load(dst) => Insn::Ld { dst, base, idx },
                Access::Store(val) => Insn::St { val, base, idx },
                Access::Addr(dst) => Insn::Lea { dst, base, idx },
            }),
            Place::Two {
                slot,
                row,
                col,
                site,
                inner,
            } => {
                let cont = self.new_label();
                self.out.sites2[site as usize].cont = self.to(cont);
                self.emit(match acc {
                    Access::Load(dst) => Insn::Ld2 {
                        dst,
                        slot,
                        row,
                        col,
                        site,
                    },
                    Access::Store(val) => Insn::St2 {
                        val,
                        slot,
                        row,
                        col,
                        site,
                    },
                    Access::Addr(dst) => Insn::Lea2 {
                        dst,
                        slot,
                        row,
                        col,
                        site,
                    },
                });
                self.two_dim_fallback(inner);
                self.bind(cont);
            }
        }
    }

    /// The code a strided access falls into when its slot no longer
    /// holds a pointer (the array variable was reassigned): what the
    /// interpreter does then is evaluate `slot[row]` generically — row
    /// index a second time — and index the element it reads, which is a
    /// number: "indexing non-pointer" unless the inner access faults
    /// first.
    fn two_dim_fallback(&mut self, inner: &'a Expr) {
        let Expr::Index(inner_base, row_e, _) = inner else {
            unreachable!("a strided place is built from an Index base")
        };
        let mark = self.f.tmp_top;
        self.tick(1, 1);
        let dst = self.alloc_tmp();
        let place = self.place(inner_base, row_e);
        self.access(place, Access::Load(dst));
        self.trap("indexing non-pointer");
        self.f.tmp_top = mark;
    }

    // ================================================================
    // Conditions.
    // ================================================================

    /// Lower `e` as a condition: jump to `target` when its truth value
    /// equals `sense`, fall through otherwise. Ticks exactly the nodes
    /// `eval(e)` would.
    fn branch(&mut self, e: &'a Expr, target: u32, sense: bool) {
        self.tick(1, 1);
        let mark = self.f.tmp_top;
        match e {
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b, _) => {
                // `a && b` is false as soon as `a` is; `a || b` true.
                let short_on = *op == BinOp::Or;
                if sense == short_on {
                    self.branch(a, target, sense);
                    self.branch(b, target, sense);
                } else {
                    let skip = self.new_label();
                    self.branch(a, skip, short_on);
                    self.branch(b, target, sense);
                    self.bind(skip);
                }
            }
            Expr::Unary(UnOp::Not, x) => self.branch(x, target, !sense),
            Expr::Binary(op, x, y, _) if cmp_of(*op).is_some() => {
                let a = self.operand(x, self.has_effects(y));
                let b = self.operand(y, false);
                let to = self.to(target);
                self.emit(Insn::BrCmp {
                    op: cmp_of(*op).expect("guarded"),
                    sense,
                    a,
                    b,
                    to,
                });
            }
            _ => {
                let cond = self.node(e, None);
                let to = self.to(target);
                self.emit(if sense {
                    Insn::BrT { cond, to }
                } else {
                    Insn::Br { cond, to }
                });
            }
        }
        self.f.tmp_top = mark;
    }

    // ================================================================
    // Calls.
    // ================================================================

    fn call(&mut self, name: &'a str, args: &'a [Expr], hint: Option<R>) -> R {
        // User-defined functions shadow builtins, like `Interp::call`.
        if let Some(&fi) = self.fn_indices.get(name) {
            let callee = &self.prog.funcs[fi];
            if self.f.may_inline
                && self.f.inline.is_none()
                && args.len() == callee.params.len()
                && self.leaves[fi].is_some()
            {
                return self.inline_call(callee, fi, args, hint);
            }
            let dst = self.dst(hint);
            let start = self.f.tmp_top;
            for (i, a) in args.iter().enumerate() {
                // Argument i goes straight into register i of the
                // callee's window; its temporaries sit above it.
                self.f.tmp_top = start + i;
                let r = self.alloc_tmp();
                self.expr_into(a, r);
            }
            self.f.tmp_top = start;
            let nparams = self.prog.funcs[fi].params.len();
            if args.len() != nparams {
                // The interpreter checks arity after the arguments.
                return self.trap(format!(
                    "function {name} expects {nparams} args, got {}",
                    args.len()
                ));
            }
            self.f.overflow |= start > R::MAX;
            let func = self.idx16(fi);
            self.emit(Insn::Call {
                dst,
                func,
                args: R::reg(start),
            });
            return dst;
        }
        let Some(need) = builtin_min_args(name) else {
            return self.trap(format!("unknown function {name}"));
        };
        if args.len() < need {
            // The arity guard fires before any argument is evaluated.
            return self.trap_err(builtin_arity_err(name, need, args.len()));
        }
        match name {
            "getline" => {
                // The record is consumed (or end of input returned)
                // before the target argument is evaluated.
                let len = self.alloc_tmp();
                let ptr = self.alloc_tmp();
                let lend = self.new_label();
                let eof = self.to(lend);
                self.emit(Insn::GetLine { ptr, len, eof });
                let target = self.expr(&args[0], None);
                self.emit(Insn::GetLineStore { target, ptr });
                self.bind(lend);
                len
            }
            "getWord" | "getTok" => {
                let dst = self.dst(hint);
                let a: Vec<&Expr> = args.iter().take(5).collect();
                // eff[i]: does an argument after the i-th write locals?
                let mut eff = [false; 5];
                for i in (0..4).rev() {
                    eff[i] = eff[i + 1] || self.has_effects(a[i + 1]);
                }
                let line = self.operand(a[0], eff[0]);
                let off = self.operand(a[1], eff[1]);
                self.check_before(off, true, &a[2..]);
                let word = self.operand(a[2], eff[2]);
                let read = self.operand(a[3], eff[3]);
                self.check_before(read, true, &a[4..]);
                let max = self.operand(a[4], false);
                self.emit(Insn::Tok {
                    dst,
                    line,
                    off,
                    word,
                    read,
                    max,
                    word_mode: name == "getWord",
                });
                dst
            }
            "printf" => {
                let Expr::StrLit(fmt) = &args[0] else {
                    return self.trap("printf needs a literal format");
                };
                let dst = self.dst(hint);
                let segs = parse_printf(fmt);
                self.out.fmts.push(segs.clone());
                self.out.pf_args.push(Vec::new());
                let fmt = self.idx16(self.out.fmts.len() - 1);
                let fused = self.fuse_mark();
                self.emit(Insn::PfBegin);
                // One argument per conversion, evaluated right before
                // it renders; surplus arguments are never evaluated.
                // When none of them emits an instruction, the fast block
                // renders the whole call at once.
                let mut rest = args[1..].iter();
                let mut plain = Some(Vec::new());
                for (si, seg) in segs.iter().enumerate() {
                    let seg_i = self.idx16(si);
                    match seg {
                        PSeg::Lit(_) => self.emit(Insn::PfLit { fmt, seg: seg_i }),
                        PSeg::Conv { .. } => {
                            let Some(a) = rest.next() else {
                                self.trap_err(printf_missing_arg());
                                return dst;
                            };
                            let (mark, at) = (self.f.tmp_top, self.f.fast.len());
                            let src = self.expr(a, None);
                            match &mut plain {
                                Some(ops) if self.f.fast.len() == at => ops.push(src),
                                _ => plain = None,
                            }
                            self.emit(Insn::PfConv {
                                src,
                                fmt,
                                seg: seg_i,
                            });
                            self.f.tmp_top = mark;
                        }
                    }
                }
                self.emit(Insn::PfEnd { dst });
                if let Some(ops) = plain {
                    self.out.pf_args[fmt as usize] = ops;
                    self.fuse(fused, Insn::Printf { dst, fmt });
                }
                dst
            }
            "scanf" => {
                let Expr::StrLit(fmt) = &args[0] else {
                    return self.trap("scanf needs a literal format");
                };
                let dst = self.dst(hint);
                let lend = self.new_label();
                let eof = self.to(lend);
                self.emit(Insn::ScBegin { dst, eof });
                // One conversion per destination actually passed. When
                // each destination is plain or `&local`, the fast block
                // stores every field at once.
                let fused = self.fuse_mark();
                let mut plain = Some(Vec::new());
                for (ci, (conv, a)) in parse_scanf(fmt).iter().zip(&args[1..]).enumerate() {
                    let (mark, at) = (self.f.tmp_top, self.f.fast.len());
                    let src = self.expr(a, None);
                    let to = match self.f.fast[at..] {
                        [] => Some(ScanTo::Ptr(src)),
                        [Insn::AddrSlot { reg, .. }] => Some(ScanTo::Slot(reg)),
                        _ => None,
                    };
                    match ScanConv::parse(conv) {
                        Ok(conv) => {
                            match (&mut plain, to) {
                                (Some(convs), Some(to)) => convs.push((conv, to)),
                                _ => plain = None,
                            }
                            self.emit(Insn::ScConv {
                                src,
                                conv,
                                field: ci.min(1) as u8,
                            })
                        }
                        Err(e) => {
                            self.trap_err(e);
                            plain = None;
                            break;
                        }
                    }
                    self.f.tmp_top = mark;
                }
                self.emit(Insn::ScEnd { dst });
                if let Some(convs) = plain {
                    self.out.scans.push(convs);
                    let site = self.idx16(self.out.scans.len() - 1);
                    self.fuse(fused, Insn::ScTail { dst, site });
                }
                self.bind(lend);
                dst
            }
            "strfind" | "strcmp" | "strcpy" | "pow" | "calloc" => {
                let dst = self.dst(hint);
                let a = self.operand(&args[0], self.has_effects(&args[1]));
                match name {
                    "pow" => self.check_before(a, false, &[&args[1]]),
                    "calloc" => self.check_before(a, true, &[&args[1]]),
                    _ => {}
                }
                let b = self.operand(&args[1], false);
                self.emit(match name {
                    "strfind" => Insn::StrFind { dst, a, b },
                    "strcmp" => Insn::StrCmp { dst, a, b },
                    "strcpy" => Insn::StrCpy { dst, a, b },
                    "pow" => Insn::Pow { dst, a, b },
                    _ => Insn::Calloc { dst, n: a, m: b },
                });
                dst
            }
            "free" => {
                for a in args {
                    let mark = self.f.tmp_top;
                    self.expr(a, None);
                    self.f.tmp_top = mark;
                }
                self.konst(V::I(0))
            }
            _ => {
                let dst = self.dst(hint);
                let a = self.expr(&args[0], None);
                self.emit(match name {
                    "strlen" => Insn::StrLen { dst, a },
                    "atoi" => Insn::Atoi { dst, a },
                    "atof" => Insn::Atof { dst, a },
                    "malloc" => Insn::Malloc { dst, n: a },
                    "abs" => Insn::Abs { dst, a },
                    _ => Insn::Sfu {
                        dst,
                        a,
                        f: Sfu1::from_name(name).expect("builtin_min_args covered the name"),
                    },
                });
                dst
            }
        }
    }

    /// Lower a call to leaf `callee` in place. Its arguments evaluate
    /// in order, as for a `Call`; a parameter the body never writes
    /// reads its argument's operand directly (copied first only if it
    /// is a local whose address the caller takes, which the body could
    /// write through), any other gets a pinned register.
    fn inline_call(
        &mut self,
        callee: &'a FuncDef,
        fi: usize,
        args: &'a [Expr],
        hint: Option<R>,
    ) -> R {
        let dst = self.dst(hint);
        let mut scope = HashMap::new();
        for (i, (a, (_, pname))) in args.iter().zip(&callee.params).enumerate() {
            let written = self.leaves[fi].as_ref().is_some_and(|w| w.contains(pname));
            let reg = if written {
                let r = self.alloc_tmp();
                self.expr_into(a, r);
                r
            } else {
                let later = args[i + 1..].iter().any(|x| self.has_effects(x));
                let r = self.operand(a, later);
                if !r.is_const() && self.f.addr_regs.contains(&r.0) {
                    let copy = self.alloc_tmp();
                    self.emit(Insn::Mov { dst: copy, src: r });
                    copy
                } else {
                    r
                }
            };
            let local = Local {
                reg,
                is_array: false,
                stride: None,
            };
            scope.insert(pname.clone(), local);
        }
        let ret = self.new_label();
        let site = Inline {
            dst,
            ret,
            tail: callee.body.last(),
        };
        let saved = (
            std::mem::replace(&mut self.f.scopes, vec![scope]),
            std::mem::take(&mut self.f.loops),
            self.f.tmp_base,
        );
        self.f.tmp_base = self.f.tmp_top;
        self.f.inline = Some(site);
        self.f.inlined = true;
        for s in &callee.body {
            self.stmt(s);
        }
        let tail_return = matches!(
            site.tail,
            Some(Stmt {
                kind: StmtKind::Return(_),
                ..
            })
        );
        let reachable = !(self.f.need_block && self.f.dead_end);
        if reachable && !tail_return {
            // Falling off the end returns 0.
            let src = self.konst(V::I(0));
            self.emit(Insn::Mov { dst, src });
        }
        self.bind_if_used(ret);
        self.f.inline = None;
        (self.f.scopes, self.f.loops, self.f.tmp_base) = saved;
        dst
    }
}

fn cmp_of(op: BinOp) -> Option<Cmp> {
    Some(match op {
        BinOp::Lt => Cmp::Lt,
        BinOp::Le => Cmp::Le,
        BinOp::Gt => Cmp::Gt,
        BinOp::Ge => Cmp::Ge,
        BinOp::Eq => Cmp::Eq,
        BinOp::Ne => Cmp::Ne,
        _ => return None,
    })
}

fn bin_insn(op: BinOp, dst: R, a: R, b: R) -> Insn {
    match op {
        BinOp::Add => Insn::Add { dst, a, b },
        BinOp::Sub => Insn::Sub { dst, a, b },
        BinOp::Mul => Insn::Mul { dst, a, b },
        BinOp::Div => Insn::Div { dst, a, b },
        BinOp::Rem => Insn::Rem { dst, a, b },
        BinOp::Lt => Insn::Lt { dst, a, b },
        BinOp::Le => Insn::Le { dst, a, b },
        BinOp::Gt => Insn::Gt { dst, a, b },
        BinOp::Ge => Insn::Ge { dst, a, b },
        BinOp::Eq => Insn::Eq { dst, a, b },
        BinOp::Ne => Insn::Ne { dst, a, b },
        BinOp::BitAnd => Insn::BitAnd { dst, a, b },
        BinOp::BitOr => Insn::BitOr { dst, a, b },
        BinOp::BitXor => Insn::BitXor { dst, a, b },
        BinOp::Shl => Insn::Shl { dst, a, b },
        BinOp::Shr => Insn::Shr { dst, a, b },
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops lower to branches"),
    }
}
