//! The region fact base: everything the compiler knows about an
//! annotated region, collected once by [`crate::sema::analyze`] and read
//! by Algorithm 1 ([`crate::sema::classify`]), the lint passes and the
//! translator.
//!
//! Walks each annotated region **in execution order** (a `for` loop's
//! init before its condition, a loop body before its step) recording one
//! [`Event`] per variable access, plus emit sites, branch sites, and
//! array subscript sites. On top of the event stream a small
//! reaching-definitions approximation decides which reads can be reached
//! by a definition from a *previous* record iteration (the paper's
//! cross-iteration dependences): a read of `v` inside the record loop is
//! loop-carried iff no same-iteration definition of `v` precedes it in
//! execution order.

use crate::ast::*;
use crate::error::Span;
use crate::pragma::Directive;
use std::collections::{BTreeMap, BTreeSet};

/// The builtins that write through an argument, with the indices of the
/// arguments they write. Every name here is one the engines implement.
const WRITING_BUILTINS: &[(&str, &[usize])] = &[
    ("strcpy", &[0]),
    ("getWord", &[2]), // (line, off, word, read, max)
    ("getTok", &[2]),
    ("getline", &[0]),     // (&line, &nbytes, stdin)
    ("scanf", &[1, 2, 3]), // all conversion targets
];

/// Kind of variable access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Value read.
    Read,
    /// Value (or element) written.
    Write,
}

/// One variable access inside a region, in execution order.
#[derive(Debug, Clone)]
pub struct Event {
    /// Root variable name.
    pub var: String,
    /// Read or write.
    pub kind: EventKind,
    /// Span of the enclosing statement (statement-granular; expressions
    /// carry no spans in this AST).
    pub span: Span,
    /// Loop nesting depth *inside* the region (the record loop is 1).
    pub loop_depth: u32,
    /// Whether the access goes through a subscript/deref (element
    /// access) rather than the whole object.
    pub element: bool,
    /// Builtin that performed the write on the variable's behalf
    /// (`getline`, `scanf`, `strcpy`, ...) or `"addr-of"`, if any.
    pub via_builtin: Option<&'static str>,
}

/// An emit site: `printf(fmt, args...)` inside the region.
#[derive(Debug, Clone)]
pub struct EmitSite {
    /// Statement span.
    pub span: Span,
    /// The format string.
    pub fmt: String,
    /// Root identifiers of the value arguments (after the format).
    pub args: Vec<Option<String>>,
    /// Loop depth of the emit (record loop = 1).
    pub loop_depth: u32,
}

/// A conditional inside the region.
#[derive(Debug, Clone)]
pub struct BranchSite {
    /// Statement span of the `if`.
    pub span: Span,
    /// Loop depth (record loop = 1; ≥2 means inside an inner loop).
    pub loop_depth: u32,
}

/// One `a[i]` subscript site.
#[derive(Debug, Clone)]
pub struct IndexSite {
    /// Root array variable.
    pub array: String,
    /// Statement span.
    pub span: Span,
    /// Variables appearing in the subscript expression(s).
    pub subscript_vars: Vec<String>,
    /// True when every subscript is a literal constant.
    pub const_subscript: bool,
    /// Loop depth.
    pub loop_depth: u32,
}

/// All facts collected for one annotated region.
#[derive(Debug, Clone)]
pub struct RegionUnit {
    /// Index into `Program::directives`.
    pub directive_idx: usize,
    /// The directive itself (its `kind` says mapper or combiner).
    pub dir: Directive,
    /// Access events in execution order.
    pub events: Vec<Event>,
    /// Emit (`printf`) sites.
    pub emits: Vec<EmitSite>,
    /// `if` sites.
    pub branches: Vec<BranchSite>,
    /// Array subscript sites.
    pub index_sites: Vec<IndexSite>,
    /// Variables declared inside the region (always private).
    pub inner_decls: BTreeSet<String>,
    /// Types of outer (main-level) variables.
    pub outer_types: BTreeMap<String, CType>,
    /// Variables acting as the raw input record buffer (first argument
    /// of `getline`/`getWord`/`getTok` record reads).
    pub input_buffers: BTreeSet<String>,
    /// Compound assignments `((op, target), span)` seen in the region,
    /// for reduction-operator checks.
    pub compound_ops: Vec<((AssignOp, String), Span)>,
    /// Whether the region contains a `while` loop (the record loop).
    pub has_while: bool,
    /// Pointer-to-pointer assignment seen: the privatization analysis
    /// may be inaccurate (paper §3.2 aliasing warning).
    pub alias_risk: bool,
}

impl RegionUnit {
    /// Outer variables referenced in the region.
    pub fn used(&self) -> BTreeSet<&str> {
        self.events
            .iter()
            .map(|e| e.var.as_str())
            .filter(|v| self.is_outer(v))
            .collect()
    }

    /// Outer variables written in the region.
    pub fn written(&self) -> BTreeSet<&str> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Write)
            .map(|e| e.var.as_str())
            .filter(|v| self.is_outer(v))
            .collect()
    }

    /// Reaching-definitions approximation: variables with a read not
    /// preceded (in execution order) by any same-region definition — the
    /// value reaching the read may come from before the region or from a
    /// previous record iteration.
    pub fn read_before_write(&self) -> BTreeSet<&str> {
        let mut written: BTreeSet<&str> = BTreeSet::new();
        let mut rbw = BTreeSet::new();
        for e in &self.events {
            match e.kind {
                EventKind::Read => {
                    if !written.contains(e.var.as_str()) && self.is_outer(&e.var) {
                        rbw.insert(e.var.as_str());
                    }
                }
                EventKind::Write => {
                    written.insert(e.var.as_str());
                }
            }
        }
        rbw
    }

    /// First read event of `var` that no prior write dominates.
    pub fn first_unguarded_read(&self, var: &str) -> Option<&Event> {
        let mut written = false;
        for e in &self.events {
            if e.var == var {
                match e.kind {
                    EventKind::Write => written = true,
                    EventKind::Read if !written => return Some(e),
                    _ => {}
                }
            }
        }
        None
    }

    /// Whether `var` is a main-level (outer) variable.
    pub fn is_outer(&self, var: &str) -> bool {
        self.outer_types.contains_key(var) && !self.inner_decls.contains(var)
    }

    /// Declared type of an outer variable.
    pub fn ty(&self, var: &str) -> Option<&CType> {
        self.outer_types.get(var)
    }
}

/// Collect a [`RegionUnit`] for every annotated region of `main`, in
/// directive order. A directive attached to no statement of `main` has
/// no unit.
pub fn collect_regions(program: &Program, main: &FuncDef) -> Vec<RegionUnit> {
    // The paper's regions only see main-level variables.
    let outer_types = decls(&main.body);
    let mut units = Vec::new();
    for (idx, dir) in program.directives.iter().enumerate() {
        let Some(region) = program.region(idx) else {
            continue;
        };
        let mut c = Collector {
            unit: RegionUnit {
                directive_idx: idx,
                dir: dir.clone(),
                events: Vec::new(),
                emits: Vec::new(),
                branches: Vec::new(),
                index_sites: Vec::new(),
                compound_ops: Vec::new(),
                inner_decls: decls(std::slice::from_ref(region)).into_keys().collect(),
                outer_types: outer_types.clone(),
                input_buffers: BTreeSet::new(),
                has_while: false,
                alias_risk: false,
            },
            loop_depth: 0,
            stmt_span: region.span,
        };
        c.stmt(region);
        units.push(c.unit);
    }
    units
}

/// Every variable declared anywhere under `stmts`, with its type.
fn decls(stmts: &[Stmt]) -> BTreeMap<String, CType> {
    let mut out = BTreeMap::new();
    walk_stmts(stmts, &mut |s| {
        if let StmtKind::Decl(ds) = &s.kind {
            for d in ds {
                out.insert(d.name.clone(), d.ty.clone());
            }
        }
    });
    out
}

struct Collector {
    unit: RegionUnit,
    loop_depth: u32,
    stmt_span: Span,
}

impl Collector {
    fn event(&mut self, var: &str, kind: EventKind, element: bool, via: Option<&'static str>) {
        self.unit.events.push(Event {
            var: var.to_string(),
            kind,
            span: self.stmt_span,
            loop_depth: self.loop_depth,
            element,
            via_builtin: via,
        });
    }

    fn stmt(&mut self, s: &Stmt) {
        let prev = self.stmt_span;
        self.stmt_span = s.span;
        match &s.kind {
            StmtKind::Decl(ds) => {
                for d in ds {
                    if let Some(i) = &d.init {
                        self.expr(i);
                    }
                }
            }
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::While { cond, body } => {
                self.unit.has_while = true;
                self.expr(cond);
                self.loop_depth += 1;
                self.stmt(body);
                self.loop_depth -= 1;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                    self.stmt_span = s.span;
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.loop_depth += 1;
                self.stmt(body);
                self.stmt_span = s.span;
                if let Some(st) = step {
                    self.expr(st);
                }
                self.loop_depth -= 1;
            }
            StmtKind::If { cond, then, els } => {
                self.unit.branches.push(BranchSite {
                    span: s.span,
                    loop_depth: self.loop_depth,
                });
                self.expr(cond);
                self.stmt(then);
                if let Some(e) = els {
                    self.stmt(e);
                }
            }
            StmtKind::Return(Some(e)) => self.expr(e),
            StmtKind::Block(v) => {
                for st in v {
                    self.stmt(st);
                }
            }
            StmtKind::Annotated(_, inner) => self.stmt(inner),
            _ => {}
        }
        self.stmt_span = prev;
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Ident(n) => self.event(&n.clone(), EventKind::Read, false, None),
            Expr::Assign(op, lhs, rhs) => {
                self.expr(rhs);
                self.lvalue_subscripts(lhs);
                if let Some(n) = root_name(lhs) {
                    if *op != AssignOp::None {
                        self.event(&n, EventKind::Read, false, None);
                        self.unit
                            .compound_ops
                            .push(((*op, n.clone()), self.stmt_span));
                    }
                    let element = !matches!(lhs.as_ref(), Expr::Ident(_));
                    self.event(&n, EventKind::Write, element, None);
                    // Assigning a whole pointer inside the region defeats
                    // the privatization analysis (§3.2 warning).
                    if !element && matches!(self.unit.outer_types.get(&n), Some(CType::Ptr(_))) {
                        self.unit.alias_risk = true;
                    }
                }
            }
            Expr::Unary(UnOp::AddrOf, inner) => {
                self.lvalue_subscripts(inner);
                if let Some(n) = root_name(inner) {
                    self.event(&n, EventKind::Write, false, Some("addr-of"));
                }
            }
            Expr::PostInc(x) | Expr::PostDec(x) | Expr::Unary(UnOp::PreInc | UnOp::PreDec, x) => {
                self.lvalue_subscripts(x);
                if let Some(n) = root_name(x) {
                    self.event(&n, EventKind::Read, false, None);
                    let element = !matches!(x.as_ref(), Expr::Ident(_));
                    self.event(&n, EventKind::Write, element, None);
                }
            }
            Expr::Call(name, args, _) => self.call(name, args),
            Expr::Unary(_, x) | Expr::Cast(_, x) => self.expr(x),
            Expr::Binary(_, a, b, _) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Index(..) => {
                self.index_site(e);
                // The subscripted read itself.
                if let Some(n) = root_name(e) {
                    self.event(&n, EventKind::Read, true, None);
                }
                // Subscript expressions are ordinary reads.
                self.subscript_exprs(e);
            }
            Expr::Cond(c, t, x) => {
                self.expr(c);
                self.expr(t);
                self.expr(x);
            }
            _ => {}
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) {
        // printf is the emit primitive (paper §3.1): record the site.
        if name == "printf" {
            let fmt = match args.first() {
                Some(Expr::StrLit(s)) => s.clone(),
                _ => String::new(),
            };
            self.unit.emits.push(EmitSite {
                span: self.stmt_span,
                fmt,
                args: args.iter().skip(1).map(root_name).collect(),
                loop_depth: self.loop_depth,
            });
        }
        // Record-input builtins define the input buffer.
        if matches!(name, "getline" | "getWord" | "getTok") {
            if let Some(n) = args.first().and_then(strip_addr_root) {
                self.unit.input_buffers.insert(n);
            }
        }
        let (via, write_args) = match WRITING_BUILTINS.iter().find(|(n, _)| *n == name) {
            Some(&(n, write_args)) => (Some(n), write_args),
            None => (None, &[][..]),
        };
        for (i, a) in args.iter().enumerate() {
            if write_args.contains(&i) {
                self.lvalue_subscripts(a);
                if let Some(n) = strip_addr_root(a) {
                    self.event(&n, EventKind::Write, false, via);
                } else {
                    self.expr(a);
                }
            } else {
                self.expr(a);
            }
        }
    }

    /// Record an [`IndexSite`] for a (possibly multi-dim) subscript chain.
    fn index_site(&mut self, e: &Expr) {
        let Some(array) = root_name(e) else { return };
        let mut vars = Vec::new();
        let mut all_const = true;
        collect_subscripts(e, &mut |idx| {
            walk_expr(idx, &mut |x| {
                if let Expr::Ident(n) = x {
                    if !vars.contains(n) {
                        vars.push(n.clone());
                    }
                }
            });
            all_const &= matches!(idx, Expr::IntLit(_) | Expr::CharLit(_));
        });
        self.unit.index_sites.push(IndexSite {
            array,
            span: self.stmt_span,
            subscript_vars: vars,
            const_subscript: all_const,
            loop_depth: self.loop_depth,
        });
    }

    /// Visit the subscript expressions of an lvalue (reads), without
    /// reading the root.
    fn lvalue_subscripts(&mut self, e: &Expr) {
        if matches!(e, Expr::Index(..)) {
            self.index_site(e);
        }
        match e {
            Expr::Index(b, i, _) => {
                self.expr(i);
                self.lvalue_subscripts(b);
            }
            Expr::Unary(UnOp::Deref, x) | Expr::Cast(_, x) => self.lvalue_subscripts(x),
            _ => {}
        }
    }

    /// Visit subscript expressions of a read chain (the root read event
    /// is emitted separately). A base that is not a plain root — say
    /// `(p + k)[i]` or `f(x)[i]` — is an ordinary expression.
    fn subscript_exprs(&mut self, e: &Expr) {
        match e {
            Expr::Index(b, i, _) => {
                self.expr(i);
                self.subscript_exprs(b);
            }
            Expr::Unary(UnOp::Deref, x) | Expr::Cast(_, x) => self.subscript_exprs(x),
            Expr::Ident(_) => {}
            other => self.expr(other),
        }
    }
}

fn root_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Ident(n) => Some(n.clone()),
        Expr::Index(b, ..) => root_name(b),
        Expr::Unary(UnOp::Deref, x) => root_name(x),
        Expr::Cast(_, x) => root_name(x),
        _ => None,
    }
}

fn strip_addr_root(e: &Expr) -> Option<String> {
    match e {
        Expr::Unary(UnOp::AddrOf, inner) => root_name(inner),
        _ => root_name(e),
    }
}

fn collect_subscripts(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    if let Expr::Index(b, i, _) = e {
        f(i);
        collect_subscripts(b, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn unit(src: &str) -> RegionUnit {
        let prog = parse(src).unwrap();
        let mut units = collect_regions(&prog, prog.func("main").unwrap());
        assert_eq!(units.len(), 1);
        units.remove(0)
    }

    const SIMPLE: &str = r#"
int main() {
  char word[30]; int one; int total; total = 0;
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4)
  while (getline(&word, 0, stdin) != -1) {
    one = 1;
    total += one;
    printf("%s\t%d\n", word, one);
  }
}
"#;

    #[test]
    fn every_writing_builtin_is_one_the_engines_implement() {
        for (name, _) in WRITING_BUILTINS {
            assert!(crate::interp::builtin_min_args(name).is_some(), "{name}");
        }
    }

    #[test]
    fn events_in_execution_order() {
        let u = unit(SIMPLE);
        assert!(u.written().contains("one"));
        assert!(u.written().contains("total"));
        // `total += one` reads total before any write → loop-carried.
        assert!(u.read_before_write().contains("total"));
        assert!(!u.read_before_write().contains("one"));
    }

    #[test]
    fn emit_sites_recorded() {
        let u = unit(SIMPLE);
        assert_eq!(u.emits.len(), 1);
        assert_eq!(u.emits[0].fmt, "%s\t%d\n");
        assert_eq!(
            u.emits[0].args,
            vec![Some("word".to_string()), Some("one".to_string())]
        );
        assert_eq!(u.emits[0].loop_depth, 1);
    }

    #[test]
    fn input_buffer_identified() {
        let u = unit(SIMPLE);
        assert!(u.input_buffers.contains("word"));
    }

    #[test]
    fn for_init_precedes_cond_in_events() {
        let src = r#"
int main() {
  char word[30]; int one; int c; double s;
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4)
  while (getline(&word, 0, stdin) != -1) {
    s = 0.0;
    for (c = 0; c < 8; c++) { s = s + c; }
    one = s > 0.0;
    printf("%s\t%d\n", word, one);
  }
}
"#;
        let u = unit(src);
        assert!(!u.read_before_write().contains("c"));
        assert!(!u.read_before_write().contains("s"));
    }

    #[test]
    fn index_sites_and_branches() {
        let src = r#"
int main() {
  char word[30]; int one; double m[8]; int i;
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4) sharedRO(m)
  while (getline(&word, 0, stdin) != -1) {
    one = 0;
    for (i = 0; i < 8; i++) {
      if (m[i] > 0.5) { one++; }
    }
    printf("%s\t%d\n", word, one);
  }
}
"#;
        let u = unit(src);
        assert!(u
            .index_sites
            .iter()
            .any(|s| s.array == "m" && s.subscript_vars == vec!["i".to_string()]));
        assert!(u.branches.iter().any(|b| b.loop_depth == 2));
    }
}
