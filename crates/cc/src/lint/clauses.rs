//! Clause validator (Table 1 consistency): HD004–HD007, HD013–HD015.

use super::{push, Diag};
use crate::ast::CType;
use crate::interp::{parse_printf, PSeg};
use crate::pragma::DirectiveKind;
use crate::region::RegionUnit;
use std::collections::BTreeSet;

/// Run the clause-consistency family on one region.
pub fn check(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    emits_match_clauses(unit, diags);
    lengths_fit(unit, diags);
    storage_contradictions(unit, diags);
    if unit.dir.kind == DirectiveKind::Combiner {
        reduction_op(unit, diags);
    }
    warp_alignment(unit, diags);
}

/// Conversion classes a printf directive can demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conv {
    Str,
    Int,
    Float,
    Char,
}

/// The conversions of a printf format string, as the engines parse it
/// ([`parse_printf`]): `None` for one they reject at run time, which
/// HD021 reports.
fn conversions(fmt: &str) -> Vec<Option<Conv>> {
    parse_printf(fmt)
        .into_iter()
        .filter_map(|seg| match seg {
            PSeg::Lit(_) => None,
            PSeg::Conv { conv, .. } => Some(match conv {
                b's' => Some(Conv::Str),
                b'd' | b'i' | b'u' => Some(Conv::Int),
                b'f' | b'e' | b'g' => Some(Conv::Float),
                b'c' => Some(Conv::Char),
                _ => None,
            }),
        })
        .collect()
}

fn conv_accepts(c: Conv, ty: Option<&CType>) -> bool {
    let Some(ty) = ty else {
        // Unknown type (e.g. region-local): accept.
        return true;
    };
    match c {
        Conv::Str => matches!(
            ty,
            CType::Array(el, _) | CType::Ptr(el) if matches!(el.as_ref(), CType::Char)
        ),
        Conv::Int => matches!(ty, CType::Int | CType::Char),
        Conv::Float => matches!(ty, CType::Float | CType::Double),
        Conv::Char => matches!(ty, CType::Char | CType::Int),
    }
}

fn conv_name(c: Conv) -> &'static str {
    match c {
        Conv::Str => "%s (string)",
        Conv::Int => "%d (integer)",
        Conv::Float => "%f (floating-point)",
        Conv::Char => "%c (char)",
    }
}

/// HD004 + HD014: every region must emit, and each emit site must agree
/// with the `key`/`value` clauses — argument count matches the format's
/// conversions, the first argument is the key clause variable with a
/// compatible conversion, and the value clause variable appears with a
/// compatible conversion.
fn emits_match_clauses(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    if unit.emits.is_empty() {
        push(
            diags,
            "HD014",
            unit.dir.span,
            None,
            format!(
                "{} region never emits: no printf(key, value) call found; the kernel \
                 would produce no output",
                kind_name(unit.dir.kind)
            ),
        );
        return;
    }
    for e in &unit.emits {
        let convs = conversions(&e.fmt);
        if convs.len() != e.args.len() {
            push(
                diags,
                "HD004",
                e.span,
                None,
                format!(
                    "emit format {:?} has {} conversion(s) but {} argument(s)",
                    e.fmt,
                    convs.len(),
                    e.args.len()
                ),
            );
            continue;
        }
        if convs.is_empty() {
            push(
                diags,
                "HD004",
                e.span,
                None,
                format!(
                    "emit format {:?} carries no key/value conversions; expected \
                     \"key\\tvalue\\n\" shape",
                    e.fmt
                ),
            );
            continue;
        }
        // Key: first conversion / first argument.
        match &e.args[0] {
            Some(a) if *a == unit.dir.key => {
                if let Some(c) = convs[0].filter(|&c| !conv_accepts(c, unit.ty(a))) {
                    push(
                        diags,
                        "HD004",
                        e.span,
                        Some(a.clone()),
                        format!(
                            "key `{a}` has type `{}` but is emitted with {}",
                            ty_name(unit.ty(a)),
                            conv_name(c)
                        ),
                    );
                }
            }
            Some(a) => push(
                diags,
                "HD004",
                e.span,
                Some(a.clone()),
                format!(
                    "first emitted field is `{a}` but the directive declares key({})",
                    unit.dir.key
                ),
            ),
            None => push(
                diags,
                "HD004",
                e.span,
                None,
                format!(
                    "first emitted field is not a variable; the directive declares key({})",
                    unit.dir.key
                ),
            ),
        }
        // Value: the value clause variable must appear among the
        // remaining args with a compatible conversion. Extra args are a
        // composite textual value (KMeans emits "%d %d" for sum+count),
        // which vallength accounts for.
        let mut value_seen = false;
        for (i, a) in e.args.iter().enumerate().skip(1) {
            if a.as_deref() == Some(unit.dir.value.as_str()) {
                value_seen = true;
                let ty = unit.ty(&unit.dir.value);
                if let Some(c) = convs[i].filter(|&c| !conv_accepts(c, ty)) {
                    push(
                        diags,
                        "HD004",
                        e.span,
                        Some(unit.dir.value.clone()),
                        format!(
                            "value `{}` has type `{}` but is emitted with {}",
                            unit.dir.value,
                            ty_name(ty),
                            conv_name(c)
                        ),
                    );
                }
            }
        }
        if !value_seen {
            push(
                diags,
                "HD004",
                e.span,
                None,
                format!(
                    "emit does not reference the value clause variable `{}`",
                    unit.dir.value
                ),
            );
        }
    }
}

/// HD005: a `keylength`/`vallength` clause smaller than the declared
/// array it describes silently truncates emitted bytes. Scalar textual
/// lengths (the paper's `vallength(1)` for an int's digit) are legal.
fn lengths_fit(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    let mut check_len = |var: &str, clause: Option<usize>, what: &str| {
        let (Some(n), Some(CType::Array(el, Some(len)))) = (clause, unit.ty(var)) else {
            return;
        };
        let bytes = el.scalar_size() * len;
        if n < bytes {
            push(
                diags,
                "HD005",
                unit.dir.span,
                Some(format!("{what}length")),
                format!(
                    "{what}length({n}) truncates `{var}`: the declared array is {bytes} \
                     bytes; emitted {what}s would lose data"
                ),
            );
        }
    };
    check_len(&unit.dir.key, unit.dir.keylength, "key");
    check_len(&unit.dir.value, unit.dir.vallength, "val");
}

/// HD006 + HD015: a variable cannot be both privatized and shared;
/// listing it in both `sharedRO` and `texture` (or twice in one list) is
/// redundant.
fn storage_contradictions(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    let fp: BTreeSet<&String> = unit.dir.firstprivate.iter().collect();
    let ro: BTreeSet<&String> = unit.dir.shared_ro.iter().collect();
    let tex: BTreeSet<&String> = unit.dir.texture.iter().collect();
    for v in fp.iter() {
        if ro.contains(*v) || tex.contains(*v) {
            let other = if ro.contains(*v) {
                "sharedRO"
            } else {
                "texture"
            };
            push(
                diags,
                "HD006",
                unit.dir.span,
                Some((*v).clone()),
                format!(
                    "`{v}` is declared both firstprivate (per-thread copy) and {other} \
                     (single shared copy) — the placements are mutually exclusive"
                ),
            );
        }
    }
    for v in ro.intersection(&tex) {
        push(
            diags,
            "HD015",
            unit.dir.span,
            Some((*v).clone()),
            format!(
                "`{v}` appears in both sharedRO and texture; texture wins and the \
                 sharedRO listing is redundant"
            ),
        );
    }
    for (list, name) in [
        (&unit.dir.firstprivate, "firstprivate"),
        (&unit.dir.shared_ro, "sharedRO"),
        (&unit.dir.texture, "texture"),
    ] {
        let mut seen = BTreeSet::new();
        for v in list {
            if !seen.insert(v) {
                push(
                    diags,
                    "HD015",
                    unit.dir.span,
                    Some(v.clone()),
                    format!("`{v}` is listed twice in the {name} clause"),
                );
            }
        }
    }
}

/// HD007: the combiner folds values with an operator that must be
/// commutative and associative (the paper's combine step may see values
/// in any order and grouping). `-=`, `/=`, `%=` are neither.
fn reduction_op(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    use crate::ast::AssignOp;
    for (op, span) in &unit.compound_ops {
        if unit.dir.value != op.1 {
            continue;
        }
        if matches!(op.0, AssignOp::Sub | AssignOp::Div | AssignOp::Rem) {
            let sym = match op.0 {
                AssignOp::Sub => "-=",
                AssignOp::Div => "/=",
                AssignOp::Rem => "%=",
                _ => unreachable!(),
            };
            push(
                diags,
                "HD007",
                *span,
                Some(op.1.clone()),
                format!(
                    "combiner folds `{}` with `{sym}`, which is not \
                     commutative/associative; combining in a different order or \
                     grouping changes the result",
                    op.1
                ),
            );
        }
    }
}

/// HD013: a `threads` clause that is not a multiple of the warp size
/// wastes lanes in every warp.
fn warp_alignment(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    if let Some(t) = unit.dir.threads {
        if t % 32 != 0 {
            push(
                diags,
                "HD013",
                unit.dir.span,
                Some("threads".to_string()),
                format!(
                    "threads({t}) is not a multiple of the warp size (32); the last \
                     {} lanes of every warp idle",
                    32 - (t % 32)
                ),
            );
        }
    }
}

fn kind_name(k: DirectiveKind) -> &'static str {
    match k {
        DirectiveKind::Mapper => "mapper",
        DirectiveKind::Combiner => "combiner",
    }
}

fn ty_name(t: Option<&CType>) -> String {
    t.map(|t| t.c_name()).unwrap_or_else(|| "?".to_string())
}

#[cfg(test)]
mod tests {
    use super::super::lint_program;
    use super::*;
    use crate::parse::parse;
    use crate::sema::analyze;

    fn lint(src: &str) -> super::super::LintReport {
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        lint_program(src, &prog, &a)
    }

    #[test]
    fn conversions_are_the_engines() {
        use Conv::*;
        assert_eq!(conversions("%s\t%d\n"), [Some(Str), Some(Int)]);
        assert_eq!(conversions("%s\t%.6f\n"), [Some(Str), Some(Float)]);
        assert_eq!(conversions("%s %lf"), [Some(Str), Some(Float)]);
        assert_eq!(conversions("100%% %d"), [Some(Int)]);
        // The engines fault on a width or `%x`: no class, no type check.
        assert_eq!(conversions("%s\t%5d\n"), [Some(Str), None]);
        assert_eq!(conversions("%-3d %x"), [None, None]);
    }

    #[test]
    fn hd004_type_mismatch() {
        let src = r#"
int main() {
  char word[30]; double v;
  #pragma mapreduce mapper key(word) value(v) keylength(30) vallength(8)
  while (getline(&word, 0, stdin) != -1) {
    v = 1.5;
    printf("%s\t%d\n", word, v);
  }
}
"#;
        let r = lint(src);
        let d = r.diags.iter().find(|d| d.code == "HD004").unwrap();
        assert!(d.msg.contains("value `v`"), "{}", d.msg);
    }

    #[test]
    fn hd005_truncating_keylength() {
        let src = r#"
int main() {
  char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) keylength(8) vallength(4)
  while (getline(&word, 0, stdin) != -1) { one = 1; printf("%s\t%d\n", word, one); }
}
"#;
        let r = lint(src);
        let d = r.diags.iter().find(|d| d.code == "HD005").unwrap();
        assert!(d.msg.contains("truncates"), "{}", d.msg);
    }

    #[test]
    fn hd006_firstprivate_and_shared() {
        let src = r#"
int main() {
  char word[30]; int one; double m[8];
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4) \
    firstprivate(m) sharedRO(m)
  while (getline(&word, 0, stdin) != -1) { one = m[0] > 0.0; printf("%s\t%d\n", word, one); }
}
"#;
        let r = lint(src);
        assert!(r.diags.iter().any(|d| d.code == "HD006"));
    }

    #[test]
    fn hd007_subtracting_combiner() {
        let src = r#"
int main() {
  char key[30], prevKey[30]; prevKey[0] = '\0';
  int diff, val, read; diff = 0;
  #pragma mapreduce combiner key(prevKey) value(diff) keyin(key) valuein(val) \
    keylength(30) vallength(4) firstprivate(prevKey, diff)
  {
    while ((read = scanf("%s %d", key, &val)) == 2) {
      if (strcmp(key, prevKey) == 0) { diff -= val; }
      else { strcpy(prevKey, key); diff = val; }
    }
    if (prevKey[0] != '\0') printf("%s\t%d\n", prevKey, diff);
  }
}
"#;
        let r = lint(src);
        let d = r.diags.iter().find(|d| d.code == "HD007").unwrap();
        assert!(d.msg.contains("-="), "{}", d.msg);
    }

    #[test]
    fn hd013_unaligned_threads() {
        let src = r#"
int main() {
  char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4) threads(100)
  while (getline(&word, 0, stdin) != -1) { one = 1; printf("%s\t%d\n", word, one); }
}
"#;
        let r = lint(src);
        assert!(r.diags.iter().any(|d| d.code == "HD013"));
    }

    #[test]
    fn hd014_no_emit() {
        let src = r#"
int main() {
  char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4)
  while (getline(&word, 0, stdin) != -1) { one = 1; }
}
"#;
        let r = lint(src);
        assert!(r.diags.iter().any(|d| d.code == "HD014"));
    }

    #[test]
    fn hd015_shared_and_texture() {
        let src = r#"
int main() {
  char word[30]; int one; double m[8];
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4) \
    sharedRO(m) texture(m)
  while (getline(&word, 0, stdin) != -1) { one = m[0] > 0.0; printf("%s\t%d\n", word, one); }
}
"#;
        let r = lint(src);
        assert!(r.diags.iter().any(|d| d.code == "HD015"));
    }
}
