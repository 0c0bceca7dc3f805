//! Semantic analysis of annotated regions: Algorithm 1 of the paper.
//!
//! [`analyze`] collects the region fact base ([`crate::region`]) once and,
//! for each `#pragma mapreduce` region,
//!
//! 1. classifies every outer variable the region uses ([`classify`]) —
//!    shared read-only scalar (→ constant memory), shared read-only array
//!    (→ texture or global memory), private, or firstprivate (with
//!    automatic inference when the clause is absent),
//! 2. validates the directive's variable references against the symbol
//!    table, and
//! 3. emits the paper's aliasing warning when privatization inference may
//!    be inaccurate (§3.2).
//!
//! It is also where the value analysis ([`crate::lint::absint`]) runs —
//! once per program — so one [`Analysis`] carries everything later stages
//! consume: the region facts for the lints and whatever follows the
//! front end, placements for the translator, the safety table for the
//! kernel backend, the HD016–HD021 findings for the lint report.

use crate::ast::*;
use crate::error::{CcError, Warning};
use crate::interp::builtin_min_args;
use crate::lint::absint::{self, SafetyFacts};
use crate::pragma::DirectiveKind;
use crate::region::{collect_regions, RegionUnit};
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
    /// The fact base each entry of `regions` was derived from, parallel
    /// to it: def-use events in execution order, emit/branch/subscript
    /// sites, region-local declarations.
    pub units: Vec<RegionUnit>,
    /// How many guard sites the value analysis
    /// ([`crate::lint::absint`]) visited and proved safe. Only the `e2e`
    /// ledger's probe reads it; ROADMAP item 1's `[benchmark]` change
    /// deletes it.
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
    check_calls(prog)?;

    let units = collect_regions(prog, main);
    let mut regions = Vec::new();
    for (idx, dir) in prog.directives.iter().enumerate() {
        // Units come in directive order, so the first gap is here.
        let unit = units
            .get(idx)
            .filter(|u| u.directive_idx == idx)
            .ok_or_else(|| CcError::sema(dir.span, "directive is not attached to a statement"))?;
        regions.push(analyze_region(unit)?);
    }
    let value = absint::analyze_main(prog);
    Ok(Analysis {
        regions,
        units,
        safety: value.facts,
        value_findings: value.findings,
    })
}

/// Every call names a function of the program or a builtin the engines
/// implement; anything else would only fail once a record reaches it.
fn check_calls(prog: &Program) -> Result<(), CcError> {
    let mut unknown = None;
    for f in &prog.funcs {
        walk_stmts(&f.body, &mut |s| {
            own_exprs(s, &mut |e| {
                if let Expr::Call(name, ..) = e {
                    if unknown.is_none()
                        && prog.func(name).is_none()
                        && builtin_min_args(name).is_none()
                    {
                        unknown = Some((s.span, name));
                    }
                }
            });
        });
    }
    match unknown {
        Some((span, name)) => Err(CcError::sema(
            span,
            format!("call to unknown function '{name}'"),
        )),
        None => Ok(()),
    }
}

fn analyze_region(unit: &RegionUnit) -> Result<RegionInfo, CcError> {
    let dir = &unit.dir;
    let line = dir.span;

    // The mapper/combiner region must contain the record loop.
    if !unit.has_while {
        return Err(CcError::sema(
            line,
            "annotated region contains no while loop over records",
        ));
    }

    // Validate directive variable references.
    let clause_vars = [&dir.key, &dir.value]
        .into_iter()
        .chain(&dir.keyin)
        .chain(&dir.valuein)
        .chain(&dir.firstprivate)
        .chain(&dir.shared_ro)
        .chain(&dir.texture);
    for name in clause_vars {
        if !unit.outer_types.contains_key(name) && !unit.inner_decls.contains(name) {
            return Err(CcError::sema(
                line,
                format!("clause references unknown variable '{name}'"),
            ));
        }
    }

    // Resolve emitted key/value lengths: clause wins, otherwise derive
    // from the variable's type (paper §3.1: keylength/vallength are needed
    // when the type is not compiler-derivable).
    let key_ty = unit.ty(&dir.key);
    let val_ty = unit.ty(&dir.value);
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

    let mut warnings = Vec::new();
    if unit.alias_risk {
        warnings.push(Warning::new(
            line,
            "privatization analysis may be inaccurate due to pointer aliasing; \
             consider an explicit firstprivate clause",
        ));
    }

    let placements = classify(unit);
    let mut types = unit.outer_types.clone();
    types.retain(|k, _| placements.contains_key(k) || unit.inner_decls.contains(k));

    Ok(RegionInfo {
        directive_idx: unit.directive_idx,
        kind: dir.kind,
        placements,
        types,
        key_length,
        val_length,
        key_is_array: key_ty.is_some_and(is_arr),
        val_is_array: val_ty.is_some_and(is_arr),
        warnings,
    })
}

fn is_arr(ty: &CType) -> bool {
    matches!(ty, CType::Array(..) | CType::Ptr(_))
}

/// `stdin`/`stdout` pseudo-handles are replaced by the runtime, never
/// privatized.
pub(crate) fn is_stream_handle(name: &str) -> bool {
    matches!(name, "stdin" | "stdout" | "stderr")
}

/// Algorithm 1: the placement of every outer variable a region uses.
///
/// Rules, in clause-priority order (paper §3.2):
/// 1. `texture(v)` forces the texture path.
/// 2. `sharedRO(v)`: scalars become kernel arguments (constant memory);
///    arrays with a compile-time size default to texture; unsized arrays
///    go to global memory through a device pointer.
/// 3. explicit or inferred `firstprivate`: scalars by kernel parameter,
///    arrays staged through global memory. Inference: the region reads
///    the variable's pre-region value — either it never writes it, or a
///    read precedes every same-iteration write.
/// 4. everything else is private.
pub fn classify(unit: &RegionUnit) -> BTreeMap<String, Placement> {
    let used = unit.used();
    let written = unit.written();
    let rbw = unit.read_before_write();
    let texture: BTreeSet<&str> = unit.dir.texture.iter().map(|s| s.as_str()).collect();
    let shared_ro: BTreeSet<&str> = unit.dir.shared_ro.iter().map(|s| s.as_str()).collect();
    let mut firstprivate: BTreeSet<&str> =
        unit.dir.firstprivate.iter().map(|s| s.as_str()).collect();

    for v in &used {
        if firstprivate.contains(v) || shared_ro.contains(v) || texture.contains(v) {
            continue;
        }
        let w = written.contains(v);
        let reads_initial = rbw.contains(v);
        if (!w && !is_stream_handle(v)) || (w && reads_initial) {
            firstprivate.insert(v);
        }
    }

    let mut out = BTreeMap::new();
    for v in used {
        let arr = unit.ty(v).is_some_and(is_arr);
        let p = if texture.contains(v) {
            Placement::TextureArray
        } else if shared_ro.contains(v) {
            match unit.ty(v) {
                Some(CType::Array(_, Some(_))) => Placement::TextureArray,
                _ if arr => Placement::GlobalArray,
                _ => Placement::ConstantScalar,
            }
        } else if firstprivate.contains(v) {
            if arr {
                Placement::FirstPrivateArray
            } else {
                Placement::FirstPrivateScalar
            }
        } else {
            Placement::Private
        };
        out.insert(v.to_string(), p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::test_listings::{LISTING1, LISTING2};

    #[test]
    fn wordcount_map_region_analyzed() {
        let prog = parse(LISTING1).unwrap();
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
        let prog = parse(LISTING2).unwrap();
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
