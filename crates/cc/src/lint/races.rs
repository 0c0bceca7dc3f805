//! Race / purity checks (HD001–HD003).
//!
//! The MapReduce contract lets a region write only privatizable state:
//! locals, loop indices, and emit buffers. Writes to shared read-only
//! state are races on the GPU (every thread would write the single
//! copy); writes into the input record buffer corrupt neighbouring
//! records in the staged input; and a mapper whose value flows across
//! record iterations is not parallelizable per-record at all.

use super::push;
use super::Diag;
use crate::pragma::DirectiveKind;
use crate::region::{EventKind, RegionUnit};
use crate::sema::is_stream_handle;
use std::collections::BTreeSet;

/// Run the race/purity family on one region.
pub fn check(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    shared_writes(unit, diags);
    input_buffer_writes(unit, diags);
    if unit.dir.kind == DirectiveKind::Mapper {
        cross_iteration(unit, diags);
    }
}

/// HD001: write to a `sharedRO`/`texture` variable inside the region.
fn shared_writes(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    let shared: BTreeSet<&String> = unit
        .dir
        .shared_ro
        .iter()
        .chain(unit.dir.texture.iter())
        .collect();
    let mut reported = BTreeSet::new();
    for e in &unit.events {
        if e.kind == EventKind::Write && shared.contains(&e.var) && reported.insert(e.var.clone()) {
            let clause = if unit.dir.texture.contains(&e.var) {
                "texture"
            } else {
                "sharedRO"
            };
            push(
                diags,
                "HD001",
                e.span,
                Some(e.var.clone()),
                format!(
                    "`{}` is declared {clause} (read-only, shared by all GPU threads) \
                     but the region writes it — a data race on the device",
                    e.var
                ),
            );
        }
    }
}

/// HD002: write into the input record buffer. The staged input is shared
/// between threads (each thread walks its record in place), so stores
/// into it corrupt other records.
fn input_buffer_writes(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    let mut reported = BTreeSet::new();
    for e in &unit.events {
        if e.kind != EventKind::Write || !unit.input_buffers.contains(&e.var) {
            continue;
        }
        // The input builtins' own writes (getline filling the buffer)
        // are the sanctioned definition, not a violation. Only element
        // stores (`line[i] = c`) and string-builtin overwrites count.
        let offending = match e.via_builtin {
            Some("getline" | "getWord" | "getTok" | "scanf" | "addr-of") => false,
            Some(_) => true, // strcpy into the buffer
            None => e.element,
        };
        if offending && reported.insert(e.var.clone()) {
            push(
                diags,
                "HD002",
                e.span,
                Some(e.var.clone()),
                format!(
                    "the region writes into `{}`, the shared input record buffer; \
                     records are unpacked in place on the device and must stay read-only",
                    e.var
                ),
            );
        }
    }
}

/// HD003: mapper cross-iteration dependence. A variable both written in
/// the region and read before any same-iteration definition carries its
/// value from one record to the next — the per-record parallel execution
/// of the map kernel would observe a different value than the sequential
/// program.
fn cross_iteration(unit: &RegionUnit, diags: &mut Vec<Diag>) {
    let written = unit.written();
    let fp: BTreeSet<&str> = unit.dir.firstprivate.iter().map(|s| s.as_str()).collect();
    for var in unit.read_before_write() {
        if !written.contains(var) || is_stream_handle(var) || fp.contains(var) {
            // Read-only vars keep their pre-region value (firstprivate,
            // fine); explicit firstprivate acknowledges the carry.
            continue;
        }
        if let Some(e) = unit.first_unguarded_read(var) {
            push(
                diags,
                "HD003",
                e.span,
                Some(var.to_string()),
                format!(
                    "mapper reads `{var}` before writing it each record, and also \
                     writes it — its value is carried across record iterations, which \
                     per-record GPU threads cannot reproduce; initialize `{var}` at the \
                     top of the record loop or declare it firstprivate"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lint_program, Severity};
    use crate::parse::parse;
    use crate::sema::analyze;

    fn lint(src: &str) -> super::super::LintReport {
        let prog = parse(src).unwrap();
        let a = analyze(&prog).unwrap();
        lint_program(src, &prog, &a)
    }

    #[test]
    fn hd001_write_to_shared_ro() {
        let src = r#"
int main() {
  char word[30]; int one; int n; n = 3;
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4) sharedRO(n)
  while (getline(&word, 0, stdin) != -1) {
    one = n;
    n = n + 1;
    printf("%s\t%d\n", word, one);
  }
}
"#;
        let r = lint(src);
        let d = r.diags.iter().find(|d| d.code == "HD001").unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.focus.as_deref(), Some("n"));
    }

    #[test]
    fn hd002_write_to_input_buffer() {
        let src = r#"
int main() {
  char word[30], *line; size_t nbytes = 100; int read, one;
  line = (char*) malloc(nbytes);
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(4)
  while ((read = getline(&line, &nbytes, stdin)) != -1) {
    one = 1;
    line[0] = 'x';
    printf("%s\t%d\n", word, one);
  }
}
"#;
        let r = lint(src);
        assert!(r.diags.iter().any(|d| d.code == "HD002"));
    }

    #[test]
    fn hd003_cross_iteration_dependence() {
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
        let r = lint(src);
        let d = r.diags.iter().find(|d| d.code == "HD003").unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.focus.as_deref(), Some("total"));
    }

    #[test]
    fn combiner_carry_is_legitimate() {
        // Listing 2 intentionally carries prevWord/count across records.
        let src = crate::test_listings::LISTING2;
        let r = lint(src);
        assert!(!r.diags.iter().any(|d| d.code == "HD003"), "{:?}", r.diags);
    }
}
