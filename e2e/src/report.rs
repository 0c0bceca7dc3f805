//! `--all`: every workload as its own child processes (so that
//! `peak_rss_mb` is per workload), gathered into one report.

use crate::json::{self, Value};
use crate::workloads::{Mode, WORKLOADS};
use crate::RUN_SECONDS;
use std::process::Command;

/// Version of the report layout `--compare` reads.
pub const REPORT_SCHEMA: u64 = 1;
/// Timed phase of a smoke run: the whole `--all --smoke` stays under 10 s.
const SMOKE_SECONDS: f64 = 0.2;

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn header(seed: u64, mode: Mode, seconds: f64) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Value::obj()
        .with("mode", mode.as_str())
        .with("seed", seed)
        .with("run_seconds", seconds)
        .with("nproc", cores)
        .with("max_pool_width", cores.min(2))
        .with("rustc", command_line("rustc", &["--version"]))
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("loop", "closed, one job at a time")
        .with(
            "environment",
            "HETERO_THREADS, HETERO_BACKEND, HETERO_ELIDE cleared",
        )
}

struct Child {
    ok: bool,
    detail: Value,
    result: Value,
}

/// Run this binary once more for one (workload, trace) pair, echo its
/// human-readable lines, and parse its last two.
fn child(name: &str, seed: u64, seconds: f64, trace: bool, mode: Mode) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if mode == Mode::Smoke {
        cmd.arg("--smoke");
    }
    // `output()` waits for the child and reaps it.
    let out = cmd
        .output()
        .map_err(|e| format!("{name}: spawn failed: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let [human @ .., detail, result] = lines.as_slice() else {
        return Err(format!(
            "{name}: child printed no result; stderr: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    };
    for l in human {
        println!("{l}");
    }
    let detail = detail
        .strip_prefix("detail ")
        .ok_or_else(|| format!("{name}: no detail line"))?;
    Ok(Child {
        ok: out.status.success(),
        detail: json::parse(detail)?,
        result: json::parse(result)?,
    })
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// One workload's entry: the untraced run's end-to-end metrics and
/// samples, the traced run's per-layer metrics, and the verdicts that
/// span both.
fn entry(name: &str, work_unit: &str, plain: &Child, traced: &Child) -> (Value, bool) {
    let fingerprint = |c: &Child| {
        c.detail
            .get("sim_fingerprint")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let changed_within = |c: &Child| {
        c.detail
            .get("sim_changed")
            .and_then(Value::as_bool)
            .unwrap_or(true)
    };
    let sim_changed = changed_within(plain)
        || changed_within(traced)
        || fingerprint(plain) != fingerprint(traced);
    let attempted = num(&plain.result, "attempted") + num(&traced.result, "attempted");
    let failed = num(&plain.result, "failed") + num(&traced.result, "failed");
    let ok = plain.ok && traced.ok && failed == 0.0 && !sim_changed;
    let pick = |c: &Child, key: &str| c.detail.get(key).cloned().unwrap_or(Value::Null);
    let e = Value::obj()
        .with("name", name)
        .with("work_unit", work_unit)
        .with("sizes", pick(plain, "sizes"))
        .with(
            "end_to_end",
            plain.result.get("metrics").cloned().unwrap_or(Value::Null),
        )
        .with(
            "samples",
            Value::obj()
                .with("units_per_rep", pick(plain, "units_per_rep"))
                .with("rep_ref_s", pick(plain, "rep_ref_s"))
                .with("rep_wall_s", pick(plain, "rep_wall_s"))
                .with("setup_ref_s", pick(plain, "setup_ref_s")),
        )
        .with("attempted", attempted)
        .with("failed", failed)
        .with("fail_share", failed / attempted.max(1.0))
        .with("sim_changed", sim_changed)
        .with("sim_fingerprint", fingerprint(plain))
        .with(
            "per_layer",
            traced.result.get("metrics").cloned().unwrap_or(Value::Null),
        )
        .with("spans_file", pick(traced, "spans_file"));
    (e, ok)
}

/// Run every workload (untraced run, then traced run), print every
/// metric by name, write the report, and return whether every output
/// verified and no simulated fingerprint moved.
pub fn run_all(seed: u64, mode: Mode, out: Option<&str>) -> bool {
    let seconds = match mode {
        Mode::Full => RUN_SECONDS,
        Mode::Smoke => SMOKE_SECONDS,
    };
    let mut entries = Vec::new();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let pair = child(w.name, seed, seconds, false, mode)
            .and_then(|plain| Ok((plain, child(w.name, seed, seconds, true, mode)?)));
        match pair {
            Ok((plain, traced)) => {
                let (e, ok) = entry(w.name, w.work_unit, &plain, &traced);
                all_ok &= ok;
                entries.push(e);
            }
            Err(e) => {
                eprintln!("{e}");
                all_ok = false;
            }
        }
    }
    let report = Value::obj()
        .with("schema", REPORT_SCHEMA)
        .with("benchmark", "e2e")
        .with("header", header(seed, mode, seconds))
        .with("workloads", entries);
    let path = out.map_or_else(
        || crate::artifact_path("report.json"),
        std::path::PathBuf::from,
    );
    match crate::write_json(&path, &report) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            all_ok = false;
        }
    }
    if !all_ok {
        println!("FAILED: an output failed verification or a simulated fingerprint changed");
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(fingerprint: &str, failed: u64, sim_changed: bool) -> Child {
        Child {
            ok: failed == 0 && !sim_changed,
            detail: Value::obj()
                .with("sizes", Value::obj().with("records", 10u64))
                .with("units_per_rep", 10u64)
                .with("rep_ref_s", vec![Value::Num(1.0), Value::Num(1.1)])
                .with("setup_ref_s", vec![Value::Num(0.2)])
                .with("sim_fingerprint", fingerprint)
                .with("sim_changed", sim_changed),
            result: Value::obj()
                .with("correct", failed == 0)
                .with("attempted", 30u64)
                .with("failed", failed)
                .with("metrics", Value::obj()),
        }
    }

    #[test]
    fn entry_joins_both_runs_and_judges_them() {
        let (e, ok) = entry("w", "records/s", &fake("f", 0, false), &fake("f", 0, false));
        assert!(ok);
        assert_eq!(num(&e, "attempted"), 60.0);
        assert_eq!(e.get("sim_changed").and_then(Value::as_bool), Some(false));
        for key in [
            "sizes",
            "end_to_end",
            "per_layer",
            "samples",
            "sim_fingerprint",
        ] {
            assert!(e.get(key).is_some(), "missing {key}");
        }
        // A fingerprint that differs between the untraced and the traced
        // run is a changed simulation.
        let (e, ok) = entry("w", "records/s", &fake("f", 0, false), &fake("g", 0, false));
        assert!(!ok);
        assert_eq!(e.get("sim_changed").and_then(Value::as_bool), Some(true));
        let (e, ok) = entry("w", "records/s", &fake("f", 3, false), &fake("f", 0, false));
        assert!(!ok);
        assert_eq!(num(&e, "fail_share"), 0.05);
    }

    #[test]
    fn header_records_the_host_and_the_run() {
        let h = header(7, Mode::Smoke, 0.2);
        assert_eq!(h.get("mode").and_then(Value::as_str), Some("smoke"));
        assert_eq!(num(&h, "seed"), 7.0);
        assert!(num(&h, "nproc") >= 1.0);
        assert!(num(&h, "max_pool_width") <= 2.0);
        for key in ["rustc", "git_commit", "run_seconds", "environment"] {
            assert!(h.get(key).is_some(), "missing {key}");
        }
    }
}
