//! Performance lints (HD009–HD012). Each is validated against
//! `hetero-gpusim` counters by the workspace differential tests: HD009 /
//! HD011 correspond to `random_txn` global loads that texture binding
//! removes, HD010 to non-zero `divergent_lanes`, and HD012 to
//! `dropped_records` when the kvpairs hint under-provisions the KV
//! store.

use super::{push, Diag};
use crate::ast::CType;
use crate::pragma::DirectiveKind;
use crate::region::RegionUnit;
use crate::sema::{Placement, RegionInfo};
use std::collections::BTreeSet;

/// Run the performance family on one region.
pub fn check(unit: &RegionUnit, region: &RegionInfo, diags: &mut Vec<Diag>) {
    uncoalesced(unit, region, diags);
    readonly_firstprivate(unit, region, diags);
    if unit.dir.kind == DirectiveKind::Mapper {
        divergent_branches(unit, diags);
        kvpairs_hint(unit, diags);
    }
}

/// HD009: subscripted access to a global-memory array with a
/// non-constant subscript. Warp lanes process different records, so the
/// subscript differs per lane and the loads cannot coalesce into few
/// transactions (the simulator bills them as `Access::Random`); binding
/// the array to texture serves them from the texture cache instead.
fn uncoalesced(unit: &RegionUnit, region: &RegionInfo, diags: &mut Vec<Diag>) {
    let mut reported = BTreeSet::new();
    for site in &unit.index_sites {
        if region.placements.get(&site.array) != Some(&Placement::GlobalArray) {
            continue;
        }
        if site.const_subscript || !reported.insert(site.array.clone()) {
            continue;
        }
        push(
            diags,
            "HD009",
            site.span,
            Some(site.array.clone()),
            format!(
                "`{}` lives in global memory and is indexed by [{}], which varies per \
                 thread — the loads are uncoalesced; `texture({})` would serve them \
                 from the texture cache",
                site.array,
                site.subscript_vars.join(", "),
                site.array
            ),
        );
    }
}

/// HD010: a branch inside an inner loop of a mapper region. Warp lanes
/// process different records, so inner-loop conditionals evaluate
/// differently per lane and serialize the warp (the simulator's
/// `divergent_lanes` counter). Record-level branches (loop depth 1) are
/// the map decision itself and are not flagged.
fn divergent_branches(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    let mut reported_lines = BTreeSet::new();
    for b in &unit.branches {
        if b.loop_depth >= 2 && reported_lines.insert(b.span.line) {
            push(
                diags,
                "HD010",
                b.span,
                None,
                "branch inside an inner hot loop: warp lanes hold different records, \
                 so this condition diverges and serializes the warp"
                    .to_string(),
            );
        }
    }
}

/// HD011: a firstprivate array the region never writes. Each GPU thread
/// copies the array into its private space at kernel start (Algorithm 1
/// lines 20–23); a read-only array could be shared via `sharedRO`/
/// `texture` with no copies at all.
fn readonly_firstprivate(unit: &RegionUnit, region: &RegionInfo, diags: &mut Vec<Diag>) {
    let written = unit.written();
    for (var, p) in &region.placements {
        if *p != Placement::FirstPrivateArray || written.contains(var.as_str()) {
            continue;
        }
        // Only flag true arrays — pointer-typed firstprivates may alias
        // writable storage.
        if !matches!(unit.ty(var), Some(CType::Array(..))) {
            continue;
        }
        let span = unit
            .first_unguarded_read(var)
            .map(|e| e.span)
            .unwrap_or(unit.dir.span);
        push(
            diags,
            "HD011",
            span,
            Some(var.clone()),
            format!(
                "firstprivate array `{var}` is never written in the region; every \
                 thread still copies it — sharedRO({var}) or texture({var}) shares one \
                 read-only copy instead"
            ),
        );
    }
}

/// HD012: a mapper that can emit more than one pair per record (an emit
/// inside an inner loop, or several emit sites) without a `kvpairs`
/// clause. The runtime then assumes the worst-case per-record pair
/// count, which shrinks the records a thread block can take and can
/// drop records when the KV store fills (`dropped_records` in the
/// simulator).
fn kvpairs_hint(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    if unit.dir.kvpairs.is_some() {
        return;
    }
    let multi = unit.emits.len() > 1 || unit.emits.iter().any(|e| e.loop_depth >= 2);
    if !multi {
        return;
    }
    let span = unit
        .emits
        .iter()
        .find(|e| e.loop_depth >= 2)
        .map(|e| e.span)
        .unwrap_or(unit.dir.span);
    push(
        diags,
        "HD012",
        span,
        None,
        "mapper may emit several pairs per record but declares no kvpairs() bound; \
         the runtime must assume the worst case, wasting KV-store space and risking \
         dropped records"
            .to_string(),
    );
}

#[cfg(test)]
mod tests {
    use super::super::{lint_program, LintReport, Severity};
    use crate::parse::parse;
    use crate::sema::analyze;

    fn lint(src: &str) -> LintReport {
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        lint_program(src, &prog, &a)
    }

    #[test]
    fn hd009_unsized_shared_array() {
        let src = r#"
int main() {
  double *model; char word[30]; int one; int h;
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4) sharedRO(model)
  while (getline(&word, 0, stdin) != -1) {
    h = word[0];
    one = model[h] > 0.0;
    printf("%s\t%d\n", word, one);
  }
}
"#;
        let r = lint(src);
        let d = r.diags.iter().find(|d| d.code == "HD009").unwrap();
        assert_eq!(d.severity, Severity::PerfNote);
        assert!(d.msg.contains("texture(model)"), "{}", d.msg);
    }

    #[test]
    fn hd010_branch_in_inner_loop() {
        let src = r#"
int main() {
  char tok[16], word[30], *line; size_t nbytes = 100; int read, one, off, c, n;
  line = (char*) malloc(nbytes);
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4) kvpairs(1)
  while ((read = getline(&line, &nbytes, stdin)) != -1) {
    off = 0; one = 0; n = 0;
    while ((c = getWord(line, off, tok, read, 16)) != -1) {
      if (n > 0) { one++; }
      n++;
      off += c;
    }
    strcpy(word, tok);
    printf("%s\t%d\n", word, one);
  }
}
"#;
        let r = lint(src);
        assert!(r.diags.iter().any(|d| d.code == "HD010"));
    }

    #[test]
    fn hd011_readonly_firstprivate_array() {
        let src = r#"
int main() {
  char pat[30], word[30], *line; size_t nbytes = 100; int read, one;
  strcpy(pat, "the");
  line = (char*) malloc(nbytes);
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4) \
    kvpairs(1) firstprivate(pat)
  while ((read = getline(&line, &nbytes, stdin)) != -1) {
    one = strfind(line, pat) >= 0;
    strcpy(word, pat);
    printf("%s\t%d\n", word, one);
  }
}
"#;
        let r = lint(src);
        let d = r.diags.iter().find(|d| d.code == "HD011").unwrap();
        assert!(d.msg.contains("sharedRO(pat)"), "{}", d.msg);
    }

    #[test]
    fn hd012_multi_emit_without_kvpairs() {
        let src = crate::test_listings::LISTING1;
        let r = lint(src);
        let d = r.diags.iter().find(|d| d.code == "HD012").unwrap();
        assert_eq!(d.severity, Severity::PerfNote);
    }

    #[test]
    fn kvpairs_hint_silences_hd012() {
        let src = r#"
int main() {
  char word[30]; int one;
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4) kvpairs(1)
  while (getline(&word, 0, stdin) != -1) { one = 1; printf("%s\t%d\n", word, one); }
}
"#;
        let r = lint(src);
        assert!(!r.diags.iter().any(|d| d.code == "HD012"));
    }
}
