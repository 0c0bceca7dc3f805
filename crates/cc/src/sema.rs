//! Semantic analysis of annotated regions: Algorithm 1 of the paper.
//!
//! For each `#pragma mapreduce` region this pass
//!
//! 1. collects the variables used inside the region,
//! 2. classifies each one — shared read-only scalar (→ constant memory),
//!    shared read-only array (→ texture or global memory), private, or
//!    firstprivate (with automatic inference when the clause is absent),
//! 3. validates the directive's variable references against the symbol
//!    table, and
//! 4. emits the paper's aliasing warning when privatization inference may
//!    be inaccurate (§3.2).
//!
//! [`analyze`] is also where the value analysis ([`crate::lint::absint`])
//! runs — once per program — so one [`Analysis`] carries everything
//! later stages consume: placements for the translator, the safety
//! table for the kernel backend, the HD016–HD021 findings for the lint
//! report.

use crate::ast::*;
use crate::error::{CcError, Warning};
use crate::lint::absint::{self, SafetyFacts};
use crate::pragma::{Directive, DirectiveKind};
use std::collections::{BTreeMap, BTreeSet};

/// Where a variable is placed in the generated kernel (Algorithm 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Shared read-only scalar passed as a kernel argument — the CUDA
    /// compiler places it in constant memory (Algo 1 lines 5–6).
    ConstantScalar,
    /// Shared read-only array bound to the texture memory (lines 11–15).
    TextureArray,
    /// Shared read-only array in global memory via a device pointer
    /// (lines 8–9).
    GlobalArray,
    /// Private per-thread variable (lines 17 ff.).
    Private,
    /// Firstprivate scalar: initial value passed by kernel parameter.
    FirstPrivateScalar,
    /// Firstprivate array: staged through global memory and copied into
    /// the private space by each thread (lines 20–23).
    FirstPrivateArray,
}

/// One analyzed `#pragma mapreduce` region.
#[derive(Debug, Clone)]
pub struct RegionInfo {
    /// Index into `Program::directives`.
    pub directive_idx: usize,
    /// Directive kind (mapper/combiner).
    pub kind: DirectiveKind,
    /// Placement decision for every outer variable used in the region.
    pub placements: BTreeMap<String, Placement>,
    /// Types of all variables visible to the region (outer + params).
    pub types: BTreeMap<String, CType>,
    /// Resolved emitted-key length in bytes.
    pub key_length: usize,
    /// Resolved emitted-value length in bytes.
    pub val_length: usize,
    /// Whether the emitted key is an array (drives vectorization).
    pub key_is_array: bool,
    /// Whether the emitted value is an array.
    pub val_is_array: bool,
    /// Non-fatal diagnostics.
    pub warnings: Vec<Warning>,
}

/// Full analysis result for a program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// One entry per mapreduce directive, in directive order.
    pub regions: Vec<RegionInfo>,
    /// Per-site safety proofs from the value analysis
    /// ([`crate::lint::absint`]); the native backend consumes these via
    /// [`crate::backend::NativeBackend::with_facts`] to pick the guarded
    /// or unguarded opcode at each site. Indexed by the parser's site
    /// ids: valid for the `Program` analyzed and for its clones.
    pub safety: SafetyFacts,
    /// The same run's HD016–HD021 findings, for
    /// [`crate::lint::lint_program`].
    pub(crate) value_findings: Vec<absint::Finding>,
}

/// Analyze every annotated region in `prog`.
pub fn analyze(prog: &Program) -> Result<Analysis, CcError> {
    let main = prog
        .func("main")
        .ok_or_else(|| CcError::sema(0u32, "program has no main function"))?;

    // Symbol table of main's declarations (the paper's regions only see
    // main-level variables).
    let mut types: BTreeMap<String, CType> = BTreeMap::new();
    walk_stmts(&main.body, &mut |s| {
        if let StmtKind::Decl(ds) = &s.kind {
            for d in ds {
                types.insert(d.name.clone(), d.ty.clone());
            }
        }
    });

    let mut regions = Vec::new();
    for (idx, dir) in prog.directives.iter().enumerate() {
        let region = find_region(&main.body, idx)
            .ok_or_else(|| CcError::sema(dir.span, "directive is not attached to a statement"))?;
        regions.push(analyze_region(dir, idx, region, &types)?);
    }
    let value = absint::analyze_main(prog);
    Ok(Analysis {
        regions,
        safety: value.facts,
        value_findings: value.findings,
    })
}

fn find_region(stmts: &[Stmt], idx: usize) -> Option<&Stmt> {
    let mut found = None;
    walk_stmts(stmts, &mut |s| {
        if let StmtKind::Annotated(i, inner) = &s.kind {
            if *i == idx {
                found = Some(inner.as_ref());
            }
        }
    });
    found
}

fn analyze_region(
    dir: &Directive,
    idx: usize,
    region: &Stmt,
    outer_types: &BTreeMap<String, CType>,
) -> Result<RegionInfo, CcError> {
    let line = dir.span;
    let mut warnings = Vec::new();

    // The mapper/combiner region must contain the record loop.
    let mut has_while = false;
    let tmp = [region.clone()];
    walk_stmts(&tmp, &mut |s| {
        if matches!(s.kind, StmtKind::While { .. }) {
            has_while = true;
        }
    });
    if !has_while {
        return Err(CcError::sema(
            line,
            "annotated region contains no while loop over records",
        ));
    }

    // Variables declared inside the region shadow outer ones and are
    // private by construction.
    let mut inner_decls: BTreeSet<String> = BTreeSet::new();
    walk_stmts(&tmp, &mut |s| {
        if let StmtKind::Decl(ds) = &s.kind {
            for d in ds {
                inner_decls.insert(d.name.clone());
            }
        }
    });

    // Used variables (Algo 1: getUsedVars), collected in execution order
    // so read-before-write is exact: a `for` loop visits init before
    // cond/step, and compound assignments (`x += v`) read their target.
    let mut usage = Usage::default();
    usage.visit_stmt(&tmp[0], outer_types);
    let Usage {
        mut used,
        written,
        read_before_write,
        alias_risk,
    } = usage;
    used.retain(|v| outer_types.contains_key(v) && !inner_decls.contains(v));

    // Validate directive variable references.
    let check_var = |name: &str| -> Result<(), CcError> {
        if !outer_types.contains_key(name) && !inner_decls.contains(name) {
            return Err(CcError::sema(
                line,
                format!("clause references unknown variable '{name}'"),
            ));
        }
        Ok(())
    };
    check_var(&dir.key)?;
    check_var(&dir.value)?;
    if let Some(k) = &dir.keyin {
        check_var(k)?;
    }
    if let Some(v) = &dir.valuein {
        check_var(v)?;
    }
    for v in dir
        .firstprivate
        .iter()
        .chain(dir.shared_ro.iter())
        .chain(dir.texture.iter())
    {
        check_var(v)?;
    }

    // Resolve emitted key/value lengths: clause wins, otherwise derive
    // from the variable's type (paper §3.1: keylength/vallength are needed
    // when the type is not compiler-derivable).
    let key_ty = lookup_ty(&dir.key, outer_types);
    let val_ty = lookup_ty(&dir.value, outer_types);
    let derive_len =
        |ty: Option<&CType>, clause: Option<usize>, what: &str| -> Result<usize, CcError> {
            if let Some(n) = clause {
                return Ok(n);
            }
            match ty {
                Some(CType::Array(el, Some(n))) => Ok(el.scalar_size() * n),
                Some(t) if t.is_scalar() => Ok(t.scalar_size()),
                _ => Err(CcError::sema(
                    line,
                    format!("{what} length is not compiler-derivable; add the {what}length clause"),
                )),
            }
        };
    let key_length = derive_len(key_ty, dir.keylength, "key")?;
    let val_length = derive_len(val_ty, dir.vallength, "val")?;
    let key_is_array = key_ty
        .map(|t| t.is_array() || matches!(t, CType::Ptr(_)))
        .unwrap_or(false);
    let val_is_array = val_ty
        .map(|t| t.is_array() || matches!(t, CType::Ptr(_)))
        .unwrap_or(false);

    if alias_risk {
        warnings.push(Warning::new(
            line,
            "privatization analysis may be inaccurate due to pointer aliasing; \
             consider an explicit firstprivate clause",
        ));
    }

    // Classification (Algorithm 1).
    let shared_ro: BTreeSet<&String> = dir.shared_ro.iter().collect();
    let texture: BTreeSet<&String> = dir.texture.iter().collect();
    let mut firstprivate: BTreeSet<String> = dir.firstprivate.iter().cloned().collect();
    // Automatic inference: an outer variable written in the region whose
    // value is (possibly) read before the first write needs its initial
    // value — firstprivate. Read-only non-sharedRO variables also keep
    // their initial value.
    for v in &used {
        if firstprivate.contains(v) || shared_ro.contains(v) || texture.contains(v) {
            continue;
        }
        let w = written.contains(v);
        let rbw = read_before_write.contains(v);
        if (!w && !is_stream_handle(v)) || (w && rbw) {
            firstprivate.insert(v.clone());
        }
    }

    let mut placements = BTreeMap::new();
    for v in &used {
        let ty = lookup_ty(v, outer_types);
        let is_arr = ty
            .map(|t| t.is_array() || matches!(t, CType::Ptr(_)))
            .unwrap_or(false);
        let p = if texture.contains(v) {
            Placement::TextureArray
        } else if shared_ro.contains(v) {
            if is_arr {
                // Arrays with compile-time size default to texture (paper
                // §3.2); unknown-size arrays go to global memory.
                match ty {
                    Some(CType::Array(_, Some(_))) => Placement::TextureArray,
                    _ => Placement::GlobalArray,
                }
            } else {
                Placement::ConstantScalar
            }
        } else if firstprivate.contains(v) {
            if is_arr {
                Placement::FirstPrivateArray
            } else {
                Placement::FirstPrivateScalar
            }
        } else {
            Placement::Private
        };
        placements.insert(v.clone(), p);
    }

    let mut types = outer_types.clone();
    types.retain(|k, _| used.contains(k) || inner_decls.contains(k));

    Ok(RegionInfo {
        directive_idx: idx,
        kind: dir.kind,
        placements,
        types,
        key_length,
        val_length,
        key_is_array,
        val_is_array,
        warnings,
    })
}

fn lookup_ty<'a>(name: &str, t: &'a BTreeMap<String, CType>) -> Option<&'a CType> {
    t.get(name)
}

/// `stdin`/`stdout` pseudo-handles are replaced by the runtime, never
/// privatized.
pub(crate) fn is_stream_handle(name: &str) -> bool {
    matches!(name, "stdin" | "stdout" | "stderr")
}

/// Execution-ordered def/use collector for a region (Algorithm 1's
/// getUsedVars plus read-before-write tracking for firstprivate
/// inference).
#[derive(Debug, Default, Clone)]
pub(crate) struct Usage {
    /// All outer variables referenced in the region.
    pub(crate) used: BTreeSet<String>,
    /// Variables written (directly, via `&x`, or by a writing builtin).
    pub(crate) written: BTreeSet<String>,
    /// Variables whose value may be read before the region's first write.
    pub(crate) read_before_write: BTreeSet<String>,
    /// Pointer-to-pointer assignment seen (paper §3.2 aliasing warning).
    pub(crate) alias_risk: bool,
}

impl Usage {
    fn read(&mut self, n: &str) {
        self.used.insert(n.to_string());
        if !self.written.contains(n) {
            self.read_before_write.insert(n.to_string());
        }
    }

    fn write(&mut self, n: &str) {
        self.used.insert(n.to_string());
        self.written.insert(n.to_string());
    }

    pub(crate) fn visit_stmt(&mut self, s: &Stmt, tys: &BTreeMap<String, CType>) {
        match &s.kind {
            StmtKind::Decl(ds) => {
                for d in ds {
                    if let Some(i) = &d.init {
                        self.visit_expr(i, tys);
                    }
                }
            }
            StmtKind::Expr(e) => self.visit_expr(e, tys),
            StmtKind::While { cond, body } => {
                self.visit_expr(cond, tys);
                self.visit_stmt(body, tys);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                // Execution order: init runs before cond is first read.
                if let Some(i) = init {
                    self.visit_stmt(i, tys);
                }
                if let Some(c) = cond {
                    self.visit_expr(c, tys);
                }
                self.visit_stmt(body, tys);
                if let Some(st) = step {
                    self.visit_expr(st, tys);
                }
            }
            StmtKind::If { cond, then, els } => {
                self.visit_expr(cond, tys);
                self.visit_stmt(then, tys);
                if let Some(e) = els {
                    self.visit_stmt(e, tys);
                }
            }
            StmtKind::Return(Some(e)) => self.visit_expr(e, tys),
            StmtKind::Block(v) => {
                for st in v {
                    self.visit_stmt(st, tys);
                }
            }
            StmtKind::Annotated(_, inner) => self.visit_stmt(inner, tys),
            _ => {}
        }
    }

    fn visit_expr(&mut self, e: &Expr, tys: &BTreeMap<String, CType>) {
        match e {
            Expr::Ident(n) => self.read(n),
            Expr::Assign(op, lhs, rhs) => {
                self.visit_expr(rhs, tys);
                // Subscripts on the lhs are reads (`a[i] = ...` reads i).
                self.visit_lhs_subscripts(lhs, tys);
                if let Some(n) = root_ident(lhs) {
                    // Compound assignment reads the target first.
                    if *op != AssignOp::None {
                        self.read(n);
                    }
                    let n = n.to_string();
                    self.write(&n);
                    // Pointer-to-pointer assignment inside the region
                    // defeats the privatization analysis (§3.2 warning).
                    if matches!(tys.get(&n), Some(CType::Ptr(_)))
                        && matches!(lhs.as_ref(), Expr::Ident(_))
                    {
                        self.alias_risk = true;
                    }
                }
            }
            Expr::Unary(UnOp::AddrOf, inner) => {
                // Address-taken variables are written through the pointer
                // (getline(&line...), scanf(..., &val)).
                self.visit_lhs_subscripts(inner, tys);
                if let Some(n) = root_ident(inner) {
                    let n = n.to_string();
                    self.write(&n);
                }
            }
            Expr::PostInc(x) | Expr::PostDec(x) | Expr::Unary(UnOp::PreInc | UnOp::PreDec, x) => {
                self.visit_lhs_subscripts(x, tys);
                if let Some(n) = root_ident(x) {
                    self.read(n);
                    let n = n.to_string();
                    self.write(&n);
                }
            }
            Expr::Call(name, args, _) => {
                // Builtins that write through specific arguments.
                let write_args = builtin_write_args(name);
                for (i, a) in args.iter().enumerate() {
                    if write_args.contains(&i) {
                        self.visit_lhs_subscripts(a, tys);
                        if let Some(n) = a_root(a) {
                            self.write(&n);
                        } else {
                            self.visit_expr(a, tys);
                        }
                    } else {
                        self.visit_expr(a, tys);
                    }
                }
            }
            Expr::Unary(_, x) | Expr::Cast(_, x) => self.visit_expr(x, tys),
            Expr::Binary(_, a, b, _) => {
                self.visit_expr(a, tys);
                self.visit_expr(b, tys);
            }
            Expr::Index(a, b, _) => {
                self.visit_expr(a, tys);
                self.visit_expr(b, tys);
            }
            Expr::Cond(c, t, x) => {
                self.visit_expr(c, tys);
                self.visit_expr(t, tys);
                self.visit_expr(x, tys);
            }
            _ => {}
        }
    }

    /// Visit the index expressions of an lvalue (they are reads) without
    /// treating the root identifier as a read.
    fn visit_lhs_subscripts(&mut self, e: &Expr, tys: &BTreeMap<String, CType>) {
        match e {
            Expr::Index(b, i, _) => {
                self.visit_expr(i, tys);
                self.visit_lhs_subscripts(b, tys);
            }
            Expr::Unary(UnOp::Deref, x) | Expr::Cast(_, x) => self.visit_lhs_subscripts(x, tys),
            _ => {}
        }
    }
}

fn a_root(e: &Expr) -> Option<String> {
    // `&x` write-arguments are handled by the AddrOf arm; here we accept
    // both `word` and `&val` shapes.
    match e {
        Expr::Unary(UnOp::AddrOf, inner) => root_ident(inner).map(|s| s.to_string()),
        _ => root_ident(e).map(|s| s.to_string()),
    }
}

/// Argument indices a known builtin writes through.
pub(crate) fn builtin_write_args(name: &str) -> &'static [usize] {
    match name {
        "strcpy" | "strncpy" | "strcat" => &[0],
        "getWord" | "getTok" => &[2], // (line, off, word, read, max)
        "getline" => &[0],            // (&line, &nbytes, stdin)
        "scanf" => &[1, 2, 3],        // all conversion targets
        _ => &[],
    }
}

fn root_ident(e: &Expr) -> Option<&str> {
    match e {
        Expr::Ident(n) => Some(n),
        Expr::Index(b, ..) => root_ident(b),
        Expr::Unary(UnOp::Deref, x) => root_ident(x),
        Expr::Cast(_, x) => root_ident(x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const WC_MAP: &str = r#"
int main()
{
  char word[30], *line;
  size_t nbytes = 10000;
  int read, linePtr, offset, one;
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(1)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    linePtr = 0;
    offset = 0;
    one = 1;
    while( (linePtr = getWord(line, offset, word, read, 30)) != -1) {
      printf("%s\t%d\n", word, one);
      offset += linePtr;
    }
  }
  free(line);
  return 0;
}
"#;

    #[test]
    fn wordcount_map_region_analyzed() {
        let prog = parse(WC_MAP).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(a.regions.len(), 1);
        let r = &a.regions[0];
        assert_eq!(r.kind, DirectiveKind::Mapper);
        assert_eq!(r.key_length, 30);
        assert_eq!(r.val_length, 1);
        assert!(r.key_is_array);
        assert!(!r.val_is_array);
        // word/line/read/linePtr/offset/one are all written fresh each
        // iteration -> private.
        assert_eq!(r.placements["word"], Placement::Private);
        assert_eq!(r.placements["one"], Placement::Private);
        assert_eq!(r.placements["offset"], Placement::Private);
    }

    #[test]
    fn lengths_derived_from_types_when_clause_absent() {
        let src = r#"
int main() {
  char word[24]; int one;
  #pragma mapreduce mapper key(word) value(one)
  while (getline(&word, 0, stdin) != -1) { one = 1; printf("%s\t%d\n", word, one); }
}
"#;
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(a.regions[0].key_length, 24);
        assert_eq!(a.regions[0].val_length, 4);
    }

    #[test]
    fn underivable_length_requires_clause() {
        let src = r#"
int main() {
  char *key; int one;
  #pragma mapreduce mapper key(key) value(one)
  while (getline(&key, 0, stdin) != -1) { one = 1; }
}
"#;
        let prog = parse(src).unwrap();
        assert!(matches!(analyze(&prog), Err(CcError::Sema { .. })));
    }

    #[test]
    fn shared_ro_scalar_goes_to_constant_memory() {
        let src = r#"
int main() {
  int k; double thr; char word[30]; int one;
  k = 4; thr = 0.5;
  #pragma mapreduce mapper key(word) value(one) sharedRO(k, thr)
  while (getline(&word, 0, stdin) != -1) { one = k; printf("%s\t%d\n", word, one); }
}
"#;
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(a.regions[0].placements["k"], Placement::ConstantScalar);
    }

    #[test]
    fn shared_ro_sized_array_defaults_to_texture() {
        let src = r#"
int main() {
  double centroids[64]; char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) sharedRO(centroids)
  while (getline(&word, 0, stdin) != -1) { one = centroids[0] > 0.0; printf("x\t1\n"); }
}
"#;
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(
            a.regions[0].placements["centroids"],
            Placement::TextureArray
        );
    }

    #[test]
    fn shared_ro_unsized_array_goes_global() {
        let src = r#"
int main() {
  double *model; char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) sharedRO(model)
  while (getline(&word, 0, stdin) != -1) { one = model[0] > 0.0; printf("x\t1\n"); }
}
"#;
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(a.regions[0].placements["model"], Placement::GlobalArray);
    }

    #[test]
    fn texture_clause_forces_texture() {
        let src = r#"
int main() {
  double *model; char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) texture(model)
  while (getline(&word, 0, stdin) != -1) { one = model[0] > 0.0; printf("x\t1\n"); }
}
"#;
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(a.regions[0].placements["model"], Placement::TextureArray);
    }

    #[test]
    fn explicit_firstprivate_honoured_listing_2() {
        let src = r#"
int main()
{
  char word[30], prevWord[30]; prevWord[0] = '\0';
  int count, val, read; count = 0;
  #pragma mapreduce combiner key(prevWord) value(count) keyin(word) valuein(val) \
    keylength(30) vallength(1) firstprivate(prevWord, count)
  {
    while( (read = scanf("%s %d", word, &val)) == 2 ) {
      if(strcmp(word, prevWord) == 0 ) { count += val; }
      else {
        if(prevWord[0] != '\0') printf("%s\t%d\n", prevWord, count);
        strcpy(prevWord, word);
        count = val;
      }
    }
    if(prevWord[0] != '\0') printf("%s\t%d\n", prevWord, count);
  }
  return 0;
}
"#;
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        let r = &a.regions[0];
        assert_eq!(r.kind, DirectiveKind::Combiner);
        assert_eq!(r.placements["prevWord"], Placement::FirstPrivateArray);
        assert_eq!(r.placements["count"], Placement::FirstPrivateScalar);
        assert_eq!(r.placements["val"], Placement::Private);
    }

    #[test]
    fn firstprivate_inferred_for_read_before_write() {
        let src = r#"
int main() {
  char word[30]; int one; int total; total = 5;
  #pragma mapreduce mapper key(word) value(one)
  while (getline(&word, 0, stdin) != -1) {
    one = total;    // reads total before any write
    total = one + 1;
    printf("%s\t%d\n", word, one);
  }
}
"#;
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(
            a.regions[0].placements["total"],
            Placement::FirstPrivateScalar
        );
    }

    #[test]
    fn for_loop_index_written_in_init_is_private() {
        // Regression: the old pre-order walk visited a `for` statement's
        // cond/step before its init, so `c` looked read-before-write and
        // was misclassified FirstPrivateScalar.
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
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(a.regions[0].placements["c"], Placement::Private);
        assert_eq!(a.regions[0].placements["s"], Placement::Private);
    }

    #[test]
    fn compound_assign_counts_as_read() {
        // Regression: `total += one` reads `total` before writing it, so
        // the region needs its initial value (firstprivate), even though
        // the old collector only recorded the write.
        let src = r#"
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
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        assert_eq!(
            a.regions[0].placements["total"],
            Placement::FirstPrivateScalar
        );
    }

    #[test]
    fn alias_warning_emitted() {
        let src = r#"
int main() {
  char *line; char *alias; char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4)
  while (getline(&line, 0, stdin) != -1) {
    alias = line;   // pointer aliasing inside the region
    one = 1;
    printf("%s\t%d\n", word, one);
  }
}
"#;
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        assert!(!a.regions[0].warnings.is_empty());
        assert!(a.regions[0].warnings[0].msg.contains("aliasing"));
    }

    #[test]
    fn unknown_clause_variable_rejected() {
        let src = r#"
int main() {
  char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) sharedRO(ghost)
  while (getline(&word, 0, stdin) != -1) { one = 1; }
}
"#;
        let prog = parse(src).unwrap();
        assert!(matches!(analyze(&prog), Err(CcError::Sema { .. })));
    }

    #[test]
    fn region_without_while_rejected() {
        let src = r#"
int main() {
  char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one)
  { one = 1; }
}
"#;
        let prog = parse(src).unwrap();
        assert!(matches!(analyze(&prog), Err(CcError::Sema { .. })));
    }
}
