//! `--compare A.json B.json`: A is the baseline, B the candidate. One
//! row per (workload, end-to-end metric), judged by the metric's bound;
//! then the simulated fingerprints and every exact count side by side.

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER, SETUP_S, WORK_PER_S};
use crate::report::REPORT_SCHEMA;
use crate::stats::iqr_share;

/// `setup_s` regresses only if it is also worse by more than this many
/// seconds: a quarter of a 40 ms set-up is noise, not a regression.
const SETUP_FLOOR_S: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Neither side is steady enough to tell: the spread between one
    /// side's own samples is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate `b` against baseline `a`. `a_samples`/`b_samples` are
/// each side's own per-rep values (empty when a metric has one reading
/// per run).
pub fn judge(m: &EndToEnd, a: f64, b: f64, a_samples: &[f64], b_samples: &[f64]) -> Verdict {
    let worse_by = match m.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    };
    let floor_met = m.name != SETUP_S || (b - a) > SETUP_FLOOR_S;
    if worse_by > m.bound && floor_met {
        return Verdict::Regressed;
    }
    let better = |x: f64, y: f64| match m.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let b_always_better = !a_samples.is_empty()
        && !b_samples.is_empty()
        && b_samples
            .iter()
            .all(|&y| a_samples.iter().all(|&x| better(y, x)));
    let spread = iqr_share(a_samples).max(iqr_share(b_samples));
    if spread > m.bound && !b_always_better && floor_met {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    admit(path, &text)
}

/// Parse a report and refuse what cannot be compared: another layout,
/// or a smoke-sized run.
fn admit(path: &str, text: &str) -> Result<Value, String> {
    let doc = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_f64) != Some(REPORT_SCHEMA as f64) {
        return Err(format!("{path}: not a schema-{REPORT_SCHEMA} e2e report"));
    }
    let mode = doc
        .get("header")
        .and_then(|h| h.get("mode"))
        .and_then(Value::as_str);
    if mode != Some("full") {
        return Err(format!(
            "{path}: mode is {mode:?}; only full-size runs can be compared"
        ));
    }
    Ok(doc)
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn metric(w: &Value, group: &str, name: &str) -> Option<f64> {
    w.get(group)?.get(name)?.get("value")?.as_f64()
}

fn floats(w: &Value, key: &str) -> Vec<f64> {
    w.get("samples")
        .and_then(|s| s.get(key))
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Per-rep values of an end-to-end metric, from the report's samples.
fn samples(w: &Value, name: &str) -> Vec<f64> {
    if name == WORK_PER_S {
        let units = w
            .get("samples")
            .and_then(|s| s.get("units_per_rep"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        floats(w, "rep_ref_s").iter().map(|s| units / s).collect()
    } else if name == SETUP_S {
        floats(w, "setup_ref_s")
    } else {
        Vec::new()
    }
}

/// Compare two parsed reports; prints the table, returns whether any row
/// regressed.
fn compare(a: &Value, b: &Value) -> bool {
    let mut regressed = false;
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Value::as_arr)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str))
                .collect()
        })
        .unwrap_or_default();
    println!(
        "{:<14} {:<12} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for name in &names {
        let wa = workload(a, name).expect("listed above");
        let Some(wb) = workload(b, name) else {
            println!("{name:<14} missing from B: regressed");
            regressed = true;
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(wa, "end_to_end", m.name),
                metric(wb, "end_to_end", m.name),
            ) else {
                println!("{name:<14} {:<12} missing: regressed", m.name);
                regressed = true;
                continue;
            };
            let v = judge(m, va, vb, &samples(wa, m.name), &samples(wb, m.name));
            regressed |= v == Verdict::Regressed;
            println!(
                "{name:<14} {:<12} {va:>16.4} {vb:>16.4} {:>+8.1}% {:>6.0}%  {}",
                m.name,
                (vb / va - 1.0) * 100.0,
                m.bound * 100.0,
                v.as_str()
            );
        }
        // Any increase in failures or in fingerprint instability counts.
        let share = |w: &Value| w.get("fail_share").and_then(Value::as_f64).unwrap_or(1.0);
        let changed = |w: &Value| {
            w.get("sim_changed")
                .and_then(Value::as_bool)
                .unwrap_or(true)
        };
        for (label, worse) in [
            ("fail_share", share(wb) > share(wa)),
            ("sim_changed", changed(wb) && !changed(wa)),
        ] {
            regressed |= worse;
            println!(
                "{name:<14} {label:<12} {}",
                if worse { "regressed" } else { "ok" }
            );
        }
    }

    println!("\nsimulated quantities (identical under a host-only change):");
    for name in &names {
        let (wa, Some(wb)) = (workload(a, name).expect("listed above"), workload(b, name)) else {
            continue;
        };
        let fp = |w: &Value| {
            w.get("sim_fingerprint")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        if fp(wa) == fp(wb) {
            println!("{name:<14} sim_fingerprint same");
        } else {
            println!(
                "{name:<14} sim_fingerprint DIFFERS\n    A: {}\n    B: {}",
                fp(wa),
                fp(wb)
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let va = metric(wa, "per_layer", m.name);
            let vb = metric(wb, "per_layer", m.name);
            if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                println!("{name:<14} {:<36} DIFFERS  A: {va:?}  B: {vb:?}", m.name);
            }
        }
    }
    regressed
}

/// Entry point of `--compare`: `true` when nothing regressed.
pub fn run(a_path: &str, b_path: &str) -> bool {
    match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => {
            let regressed = compare(&a, &b);
            println!(
                "\n{}",
                if regressed {
                    "REGRESSED"
                } else {
                    "no regression"
                }
            );
            !regressed
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORK: &EndToEnd = &END_TO_END[0];
    const SETUP: &EndToEnd = &END_TO_END[1];
    const RSS: &EndToEnd = &END_TO_END[2];

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        let just_inside = |m: &EndToEnd| 100.0 * (m.bound - 0.01);
        let just_outside = |m: &EndToEnd| 100.0 * (m.bound + 0.01);
        assert_eq!(
            judge(WORK, 100.0, 100.0 - just_inside(WORK), &[], &[]),
            Verdict::Ok
        );
        assert_eq!(
            judge(WORK, 100.0, 100.0 - just_outside(WORK), &[], &[]),
            Verdict::Regressed
        );
        assert_eq!(judge(WORK, 100.0, 150.0, &[], &[]), Verdict::Ok);
        assert_eq!(
            judge(RSS, 100.0, 100.0 + just_inside(RSS), &[], &[]),
            Verdict::Ok
        );
        assert_eq!(
            judge(RSS, 100.0, 100.0 + just_outside(RSS), &[], &[]),
            Verdict::Regressed
        );
        assert_eq!(judge(RSS, 100.0, 50.0, &[], &[]), Verdict::Ok);
    }

    #[test]
    fn setup_needs_both_the_share_and_the_floor() {
        // +50 % but only 20 ms: noise.
        assert_eq!(judge(SETUP, 0.04, 0.06, &[], &[]), Verdict::Ok);
        // +30 % and 0.3 s.
        assert_eq!(judge(SETUP, 1.0, 1.3, &[], &[]), Verdict::Regressed);
        // +0.2 s but only 10 %.
        assert_eq!(judge(SETUP, 2.0, 2.2, &[], &[]), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_always_wins() {
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(WORK, 100.0, 98.0, &noisy, &noisy),
            Verdict::Unresolved
        );
        // Every B rep beats every A rep: resolved in B's favour.
        let faster = [150.0, 200.0, 250.0, 300.0, 350.0];
        assert_eq!(judge(WORK, 100.0, 250.0, &noisy, &faster), Verdict::Ok);
        let steady = [99.0, 100.0, 100.0, 101.0, 101.0];
        assert_eq!(judge(WORK, 100.0, 98.0, &steady, &steady), Verdict::Ok);
        // A regression stays a regression however noisy the samples.
        assert_eq!(judge(WORK, 100.0, 70.0, &noisy, &noisy), Verdict::Regressed);
    }

    fn report(mode: &str, work: f64, fingerprint: &str, failed: f64) -> Value {
        let e2e = |v: f64| Value::obj().with("value", v).with("unit", "x");
        Value::obj()
            .with("schema", REPORT_SCHEMA)
            .with("header", Value::obj().with("mode", mode))
            .with(
                "workloads",
                vec![Value::obj()
                    .with("name", "w")
                    .with(
                        "end_to_end",
                        Value::obj()
                            .with("work_per_s", e2e(work))
                            .with("setup_s", e2e(0.5))
                            .with("peak_rss_mb", e2e(100.0)),
                    )
                    .with(
                        "samples",
                        Value::obj()
                            .with("units_per_rep", 1000u64)
                            .with("rep_ref_s", vec![Value::Num(1000.0 / work); 3])
                            .with("setup_ref_s", vec![Value::Num(0.5); 3]),
                    )
                    .with("fail_share", failed)
                    .with("sim_changed", false)
                    .with("sim_fingerprint", fingerprint)
                    .with("per_layer", Value::obj().with("cc.map_calls", e2e(7.0)))],
            )
    }

    #[test]
    fn whole_reports_compare() {
        let a = report("full", 100.0, "f", 0.0);
        assert!(!compare(&a, &a));
        assert!(compare(&a, &report("full", 80.0, "f", 0.0)));
        assert!(!compare(&a, &report("full", 130.0, "g", 0.0)));
        assert!(compare(&a, &report("full", 100.0, "f", 0.01)));
    }

    #[test]
    fn smoke_reports_are_refused() {
        let err = admit("s.json", &report("smoke", 1.0, "f", 0.0).render()).unwrap_err();
        assert!(err.contains("only full-size runs"), "{err}");
        assert!(admit("f.json", &report("full", 1.0, "f", 0.0).render()).is_ok());
        assert!(admit("x.json", "{\"schema\": 99}").is_err());
        assert!(load("/nonexistent/report.json").is_err());
    }
}
