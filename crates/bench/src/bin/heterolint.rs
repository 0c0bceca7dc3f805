//! `heterolint` — GPU-safety and performance static analysis over
//! `#pragma mapreduce` programs.
//!
//! ```text
//! heterolint [--deny-warnings] [--json PATH] [--expect-findings] [FILE.c ...]
//! ```
//!
//! With no files, lints the annotated mini-C sources of all eight
//! bundled Table 2 benchmarks (mapper and combiner programs). With
//! files, lints each one from disk.
//!
//! Exit status: `0` when every unit passes, `1` when any unit fails the
//! selected level (`--deny-warnings` also rejects warning-severity
//! findings; perf-notes never fail), `2` on usage or I/O errors. With
//! `--expect-findings` the polarity flips: a unit with **no** findings
//! fails — used by CI to prove the negative fixtures still trip their
//! lints.

use hetero_cc::lint::{lint_program, Diag, LintLevel, LintReport, REPORT_SCHEMA};
use hetero_cc::parse::parse;
use hetero_cc::sema::analyze;
use hetero_trace::json::{self, Json};

fn usage() -> i32 {
    eprintln!("usage: heterolint [--deny-warnings] [--json PATH] [--expect-findings] [FILE.c ...]");
    2
}

fn main() {
    std::process::exit(run());
}

fn diag_json(d: &Diag) -> Json {
    Json::obj()
        .with("code", d.code)
        .with("severity", d.severity.to_string())
        .with("line", d.span.line)
        .with("start", d.span.start)
        .with("end", d.span.end)
        .with("focus", d.focus.as_deref().map_or(Json::Null, Json::from))
        .with("message", d.msg.as_str())
}

/// One unit's findings in the versioned report shape ([`REPORT_SCHEMA`]).
fn report_json(report: &LintReport, unit: &str) -> Json {
    Json::obj()
        .with("schema", REPORT_SCHEMA)
        .with("unit", unit)
        .with("regions", report.regions)
        .with("errors", report.error_count())
        .with("warnings", report.warning_count())
        .with("perf_notes", report.perf_notes().count())
        .with("diagnostics", Json::arr(report.diags.iter().map(diag_json)))
}

/// The `--json` document: one row per linted unit.
fn document(level_name: &str, units: Vec<Json>) -> Json {
    Json::obj()
        .with("tool", "heterolint")
        .with("schema", REPORT_SCHEMA)
        .with("level", level_name)
        .with("units", Json::Arr(units))
}

fn run() -> i32 {
    let mut deny = false;
    let mut expect_findings = false;
    let mut json_path: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny-warnings" => deny = true,
            "--expect-findings" => expect_findings = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            f if !f.starts_with('-') => files.push(f.to_string()),
            _ => return usage(),
        }
    }
    let level = if deny {
        LintLevel::Deny
    } else {
        LintLevel::Warn
    };

    // Work list: explicit files, or the bundled benchmark programs.
    let mut units: Vec<(String, String)> = Vec::new();
    if files.is_empty() {
        for app in hetero_apps::all_apps() {
            let code = app.spec().code;
            units.push((format!("{code}.map.c"), app.mapper_source().to_string()));
            if let Some(cs) = app.combiner_source() {
                units.push((format!("{code}.combine.c"), cs.to_string()));
            }
        }
    } else {
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(src) => units.push((f.clone(), src)),
                Err(e) => {
                    eprintln!("heterolint: {f}: {e}");
                    return 2;
                }
            }
        }
    }

    let mut failed = false;
    let mut json_units: Vec<Json> = Vec::new();
    for (name, src) in &units {
        let report = match parse(src).and_then(|p| analyze(&p).map(|a| (p, a))) {
            Ok((prog, analysis)) => lint_program(src, &prog, &analysis),
            Err(e) => {
                eprintln!("{name}: {e}");
                failed = true;
                continue;
            }
        };
        println!(
            "== {name}: {} region(s), {} error(s), {} warning(s), {} perf-note(s)",
            report.regions,
            report.error_count(),
            report.warning_count(),
            report.perf_notes().count()
        );
        let rendered = report.render(src);
        if !rendered.is_empty() {
            print!("{rendered}");
        }
        if expect_findings {
            if report.diags.is_empty() {
                eprintln!("{name}: expected findings, found none");
                failed = true;
            }
        } else if !report.passes(level) {
            failed = true;
        }
        json_units.push(report_json(&report, name));
    }

    if let Some(path) = &json_path {
        let doc = document(if deny { "deny" } else { "warn" }, json_units);
        if let Err(e) = std::fs::write(path, json::write(&doc)) {
            eprintln!("heterolint: writing {path}: {e}");
            return 2;
        }
    }
    if failed {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_cc::error::Span;
    use hetero_cc::lint::severity_of;

    fn diag(code: &'static str, span: Span, focus: Option<&str>, msg: &str) -> Diag {
        Diag {
            code,
            severity: severity_of(code).unwrap(),
            span,
            focus: focus.map(str::to_string),
            msg: msg.to_string(),
        }
    }

    #[test]
    fn diag_json_shape() {
        let j = diag_json(&diag(
            "HD001",
            Span::new(3, 5, 8),
            Some("x"),
            "write to `n`",
        ));
        assert_eq!(j.get("code"), Some(&Json::from("HD001")));
        assert_eq!(j.get("severity"), Some(&Json::from("error")));
        assert_eq!(j.get("line"), Some(&Json::U64(3)));
        assert_eq!(j.get("focus"), Some(&Json::from("x")));
    }

    #[test]
    fn json_report_shape_is_golden() {
        // Pins the full versioned report shape: key order, the schema
        // field, counts, and every per-diagnostic key. Any change here
        // must come with a REPORT_SCHEMA bump.
        let report = LintReport {
            diags: vec![
                diag(
                    "HD016",
                    Span::new(6, 42, 46),
                    Some("a"),
                    "subscript is provably out of bounds",
                ),
                diag(
                    "HD018",
                    Span::new(3, 17, 18),
                    None,
                    "`x` is read before it is ever assigned",
                ),
            ],
            regions: 1,
        };
        let expected = concat!(
            "{\"tool\":\"heterolint\",\"schema\":1,\"level\":\"deny\",\"units\":[\n",
            "{\"schema\":1,\"unit\":\"unit.c\",\"regions\":1,",
            "\"errors\":1,\"warnings\":1,\"perf_notes\":0,",
            "\"diagnostics\":[",
            "{\"code\":\"HD016\",\"severity\":\"error\",\"line\":6,",
            "\"start\":42,\"end\":46,\"focus\":\"a\",",
            "\"message\":\"subscript is provably out of bounds\"},",
            "{\"code\":\"HD018\",\"severity\":\"warning\",\"line\":3,",
            "\"start\":17,\"end\":18,\"focus\":null,",
            "\"message\":\"`x` is read before it is ever assigned\"}",
            "]}\n]}\n"
        );
        let doc = document("deny", vec![report_json(&report, "unit.c")]);
        assert_eq!(json::write(&doc), expected);
    }

    #[test]
    fn fixture_json_reports_are_well_formed() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../cc/tests/fixtures/lint");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).expect("fixtures dir exists") {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|x| x != "c") {
                continue;
            }
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).unwrap();
            let prog = parse(&src).unwrap();
            let report = lint_program(&src, &prog, &analyze(&prog).unwrap());
            assert!(!report.diags.is_empty(), "{name}: fixture has no findings");

            // Through the writer and back: the report a consumer loads
            // lists exactly the findings the linter produced, in order.
            let text = json::write(&document("warn", vec![report_json(&report, &name)]));
            let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let unit = &doc.get("units").and_then(Json::as_arr).unwrap()[0];
            assert_eq!(unit.get("unit"), Some(&Json::from(name.as_str())));
            let codes: Vec<&str> = unit
                .get("diagnostics")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|d| d.get("code").and_then(Json::as_str).unwrap())
                .collect();
            let produced: Vec<&str> = report.diags.iter().map(|d| d.code).collect();
            assert_eq!(codes, produced, "{name}");
            checked += 1;
        }
        assert!(checked >= 8, "expected at least 8 lint fixtures");
    }
}
