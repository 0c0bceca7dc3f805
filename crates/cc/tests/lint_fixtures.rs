//! Golden-diagnostic tests for the heterolint fixtures.
//!
//! Every `tests/fixtures/lint/*.c` program declares the full set of
//! diagnostics it must produce via header comments:
//!
//! ```c
//! // expect: HD003 line=10 severity=warning
//! ```
//!
//! The test lints each fixture and requires the produced
//! `(code, line, severity)` set to match the declared set exactly — a
//! missing diagnostic, an extra one, a drifted span line, or a changed
//! severity all fail.

use hetero_cc::lint::{lint_program, LintLevel};
use hetero_cc::parse::parse;
use hetero_cc::sema::analyze;
use hetero_cc::{compile, compile_with, CcError};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint")
}

fn fixtures() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures dir exists")
        .filter_map(|e| {
            let p = e.ok()?.path();
            if p.extension().is_some_and(|x| x == "c") {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                Some((name, std::fs::read_to_string(&p).unwrap()))
            } else {
                None
            }
        })
        .collect();
    out.sort();
    assert!(out.len() >= 8, "expected at least 8 lint fixtures");
    out
}

/// Parse `// expect: HDxxx line=N severity=S` headers.
fn expectations(src: &str) -> BTreeSet<(String, u32, String)> {
    let mut out = BTreeSet::new();
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("// expect:") else {
            continue;
        };
        let mut code = None;
        let mut at = None;
        let mut sev = None;
        for tok in rest.split_whitespace() {
            if let Some(v) = tok.strip_prefix("line=") {
                at = Some(v.parse::<u32>().expect("line number"));
            } else if let Some(v) = tok.strip_prefix("severity=") {
                sev = Some(v.to_string());
            } else {
                code = Some(tok.to_string());
            }
        }
        out.insert((
            code.expect("expect header names a code"),
            at.expect("expect header names a line"),
            sev.expect("expect header names a severity"),
        ));
    }
    out
}

#[test]
fn every_fixture_produces_exactly_its_declared_diagnostics() {
    for (name, src) in fixtures() {
        let expected = expectations(&src);
        assert!(!expected.is_empty(), "{name}: no `// expect:` headers");

        let prog = parse(&src).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let analysis = analyze(&prog).unwrap_or_else(|e| panic!("{name}: sema failed: {e}"));
        let report = lint_program(&src, &prog, &analysis);

        let actual: BTreeSet<(String, u32, String)> = report
            .diags
            .iter()
            .map(|d| (d.code.to_string(), d.span.line, d.severity.to_string()))
            .collect();
        assert_eq!(
            actual,
            expected,
            "{name}: diagnostic set mismatch\nrendered:\n{}",
            report.render(&src)
        );

        // Rendering must produce a snippet with an underline for each.
        let rendered = report.render(&src);
        for (code, _, _) in &expected {
            assert!(
                rendered.contains(code.as_str()),
                "{name}: {code} not rendered"
            );
        }
        assert!(rendered.contains('^'), "{name}: no underline in rendering");
    }
}

#[test]
fn lint_level_gates_compilation_per_fixture() {
    for (name, src) in fixtures() {
        let expected = expectations(&src);
        let has_error = expected.iter().any(|(_, _, s)| s == "error");
        let has_warning = expected.iter().any(|(_, _, s)| s == "warning");

        // Default level (Warn): errors abort the pipeline with a lint
        // error carrying one summary per finding.
        match compile(&src) {
            Err(CcError::Lint { reports }) => {
                assert!(has_error, "{name}: compile rejected but no error expected");
                assert_eq!(
                    reports.len(),
                    expected.iter().filter(|(_, _, s)| s == "error").count(),
                    "{name}: summary count"
                );
            }
            Ok(_) => assert!(!has_error, "{name}: compile accepted despite errors"),
            Err(e) => panic!("{name}: unexpected compile failure: {e}"),
        }

        // Deny also rejects warnings; perf-notes never block.
        match compile_with(&src, LintLevel::Deny) {
            Err(CcError::Lint { .. }) => {
                assert!(
                    has_error || has_warning,
                    "{name}: Deny rejected perf-note-only fixture"
                )
            }
            Ok(_) => assert!(!has_error && !has_warning, "{name}: Deny accepted findings"),
            Err(e) => panic!("{name}: unexpected compile failure: {e}"),
        }

        // Off always compiles and carries no lint report.
        let off = compile_with(&src, LintLevel::Off)
            .unwrap_or_else(|e| panic!("{name}: LintLevel::Off rejected: {e}"));
        assert!(off.lint.diags.is_empty(), "{name}: Off still linted");
    }
}
