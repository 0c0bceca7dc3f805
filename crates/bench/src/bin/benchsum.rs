//! Summarize bench artifacts into the repo-root perf-trajectory files:
//! `BENCH_scheduler.json` / `BENCH_kernels.json` from the criterion-stub
//! log, `BENCH_faults.json` from the chaos/faults results, and
//! `BENCH_service.json` from the multi-tenant service sweep.
//!
//! Partial runs are first-class: when an input is absent, the section it
//! feeds is **carried over from the existing `BENCH_*.json`** instead of
//! being clobbered or dropped — so `scripts/bench.sh --quick` after a
//! full run refreshes only what it re-measured. Inputs:
//!
//! * criterion-stub JSON-lines log (`CRITERION_STUB_LOG`), one
//!   `{"id": ..., "mean_s": ..., "iters": ...}` object per benchmark;
//! * `results/chaos.json`, `results/faults.json`, `results/service.json`
//!   from the corresponding bench bins.
//!
//! Usage: `benchsum [--log <file>] [--out-dir <dir>] [--results-dir <dir>]`
//! (defaults: `target/criterion-stub.jsonl`, repo root, `results` — as
//! driven by `scripts/bench.sh`).
use hetero_bench::{json_array, JsonObj};
use std::collections::BTreeMap;

/// One parsed log line.
#[derive(Debug, Clone)]
struct Entry {
    id: String,
    mean_s: f64,
    iters: u64,
}

/// Extract a `"key": value` field from a single-line JSON object. The
/// stub writes these lines itself, so a targeted parse is enough — no
/// JSON library needed offline.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

fn parse(line: &str) -> Option<Entry> {
    let id = field(line, "id")?.trim_matches('"').to_string();
    let mean_s: f64 = field(line, "mean_s")?.parse().ok()?;
    let iters: u64 = field(line, "iters")?.parse().ok()?;
    Some(Entry { id, mean_s, iters })
}

/// Extract the balanced JSON value (object `{...}` or array `[...]`) of
/// `key` from `src`. The bench artifacts are written by our own stable
/// emitter, so a bracket scan is exact — strings in them never contain
/// brackets.
fn extract_value(src: &str, key: &str) -> Option<String> {
    for (open, close) in [('{', '}'), ('[', ']')] {
        let pat = format!("\"{key}\": {open}");
        let Some(start) = src.find(&pat).map(|i| i + pat.len() - 1) else {
            continue;
        };
        let mut depth = 0usize;
        for (i, c) in src[start..].char_indices() {
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    return Some(src[start..=start + i].to_string());
                }
            }
        }
    }
    None
}

/// Extract a scalar (number / quoted string / bool) field from a
/// possibly multi-line JSON text. Complement of [`extract_value`] —
/// only consulted when the balanced-bracket scan found nothing.
fn scalar_field(src: &str, key: &str) -> Option<String> {
    src.lines().find_map(|l| field(l, key)).map(str::to_string)
}

fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn entries_json(entries: &BTreeMap<String, Entry>, prefixes: &[&str]) -> String {
    json_array(
        entries
            .values()
            .filter(|e| prefixes.iter().any(|p| e.id.starts_with(p)))
            .map(|e| {
                JsonObj::new()
                    .str("id", &e.id)
                    .float("mean_s", e.mean_s)
                    .int("iters", e.iters)
                    .build()
            }),
    )
}

/// Assemble one artifact from `(key, fresh_value)` sections: a section
/// whose fresh input is absent falls back to the value recorded in the
/// existing artifact file (the merge that keeps partial runs from
/// clobbering earlier full runs). Returns `None` when no section has a
/// value from either source.
fn merge_sections(
    existing: Option<&str>,
    name: &str,
    sections: &[(&str, Option<String>)],
) -> Option<String> {
    let mut obj = JsonObj::new().str("artifact", name);
    let mut any = false;
    for (key, fresh) in sections {
        let value = fresh.clone().or_else(|| {
            existing.and_then(|e| extract_value(e, key).or_else(|| scalar_field(e, key)))
        });
        if let Some(v) = value {
            obj = obj.raw(key, v);
            any = true;
        }
    }
    any.then(|| obj.build())
}

/// The whole summarization, parameterized for tests. Returns the list
/// of artifact files written.
fn summarize(log: &str, out_dir: &str, results_dir: &str) -> Vec<String> {
    let mut written = Vec::new();

    // ---- criterion-stub log → BENCH_scheduler / BENCH_kernels -------
    // A missing log no longer aborts the run (and no longer clobbers
    // previously recorded artifacts): the fault/service sections below
    // still fold their own inputs.
    match std::fs::read_to_string(log) {
        Err(e) => {
            eprintln!("benchsum: no bench log at {log} ({e}); keeping existing scheduler/kernel artifacts");
        }
        Ok(text) => {
            // Last result wins when a benchmark ran more than once
            // (BTreeMap also gives deterministic output order).
            let mut entries: BTreeMap<String, Entry> = BTreeMap::new();
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                match parse(line) {
                    Some(e) => {
                        entries.insert(e.id.clone(), e);
                    }
                    None => eprintln!("benchsum: skipping unparsable line: {line}"),
                }
            }

            // Indexed-vs-reference delta on the workloads measured both
            // ways: des/<s> vs des_ref/<s>, and the des_1k pair.
            let mut deltas = Vec::new();
            let pairs: Vec<(String, String, String)> = entries
                .keys()
                .filter_map(|id| {
                    let s = id.strip_prefix("des/")?;
                    Some((id.clone(), format!("des_ref/{s}"), format!("des/{s}")))
                })
                .chain(entries.keys().filter_map(|id| {
                    let s = id.strip_suffix("-reference")?;
                    Some((s.to_string(), id.clone(), s.to_string()))
                }))
                .collect();
            for (indexed_id, ref_id, label) in pairs {
                let (Some(a), Some(b)) = (entries.get(&indexed_id), entries.get(&ref_id)) else {
                    continue;
                };
                deltas.push(
                    JsonObj::new()
                        .str("case", &label)
                        .float("indexed_s", a.mean_s)
                        .float("reference_s", b.mean_s)
                        .float("speedup", b.mean_s / a.mean_s.max(1e-12))
                        .build(),
                );
            }

            let scheduler = JsonObj::new()
                .str("artifact", "BENCH_scheduler")
                .raw("benches", entries_json(&entries, &["des"]))
                .raw("indexed_vs_reference", json_array(deltas))
                .build();
            let mut kernels_obj = JsonObj::new().str("artifact", "BENCH_kernels").raw(
                "benches",
                entries_json(
                    &entries,
                    &[
                        "map_kernel",
                        "scan",
                        "indirection_sort",
                        "kernel_backend",
                        "check_elision",
                    ],
                ),
            );
            // Interpreter-vs-native-backend speedup on the same annotated
            // C mapper: wordcount (`kernel_backend`, builtin-bound) and
            // BlackScholes (`kernel_backend_bs`, dispatch-bound).
            for (group, key) in [
                ("kernel_backend", "interp_vs_native"),
                ("kernel_backend_bs", "interp_vs_native_bs"),
            ] {
                if let (Some(i), Some(n)) = (
                    entries.get(&format!("{group}/interp")),
                    entries.get(&format!("{group}/native")),
                ) {
                    kernels_obj = kernels_obj.raw(
                        key,
                        JsonObj::new()
                            .float("interp_s", i.mean_s)
                            .float("native_s", n.mean_s)
                            .float("speedup", i.mean_s / n.mean_s.max(1e-12))
                            .build(),
                    );
                }
            }
            // Guard-elision speedup on the native backend: all guards
            // kept vs analysis-proven guards removed (the check_elision
            // criterion group).
            if let (Some(u), Some(e)) = (
                entries.get("check_elision/unelided"),
                entries.get("check_elision/elided"),
            ) {
                kernels_obj = kernels_obj.raw(
                    "check_elision",
                    JsonObj::new()
                        .float("unelided_s", u.mean_s)
                        .float("elided_s", e.mean_s)
                        .float("speedup", u.mean_s / e.mean_s.max(1e-12))
                        .build(),
                );
            }
            let kernels = kernels_obj.build();

            let sched_path = format!("{out_dir}/BENCH_scheduler.json");
            let kern_path = format!("{out_dir}/BENCH_kernels.json");
            std::fs::write(&sched_path, scheduler + "\n").expect("write BENCH_scheduler.json");
            std::fs::write(&kern_path, kernels + "\n").expect("write BENCH_kernels.json");
            println!(
                "wrote {sched_path} and {kern_path} from {} benches",
                entries.len()
            );
            written.push(sched_path);
            written.push(kern_path);
        }
    }

    // ---- results/{chaos,faults}.json → BENCH_faults -----------------
    // The chaos sweep's recovery-overhead distribution plus the faults
    // bin's master-crash sweep and correlated-fault numbers. Sections
    // whose input is absent are carried over from the existing artifact.
    let chaos = std::fs::read_to_string(format!("{results_dir}/chaos.json")).ok();
    let faults = std::fs::read_to_string(format!("{results_dir}/faults.json")).ok();
    let faults_path = format!("{out_dir}/BENCH_faults.json");
    let existing = std::fs::read_to_string(&faults_path).ok();
    let sections = [
        (
            "mode",
            chaos.as_deref().and_then(|s| scalar_field(s, "mode")),
        ),
        (
            "runs",
            chaos.as_deref().and_then(|s| scalar_field(s, "runs")),
        ),
        (
            "recovery_overhead",
            chaos
                .as_deref()
                .and_then(|s| extract_value(s, "recovery_overhead")),
        ),
        (
            "jobtracker_crash_sweep",
            faults
                .as_deref()
                .and_then(|s| extract_value(s, "jobtracker_crash_sweep")),
        ),
        (
            "rack_failure",
            faults
                .as_deref()
                .and_then(|s| extract_value(s, "rack_failure")),
        ),
        (
            "partition",
            faults
                .as_deref()
                .and_then(|s| extract_value(s, "partition")),
        ),
    ];
    if let Some(out) = merge_sections(existing.as_deref(), "BENCH_faults", &sections) {
        std::fs::write(&faults_path, out + "\n").expect("write BENCH_faults.json");
        println!("wrote {faults_path}");
        written.push(faults_path);
    }

    // ---- results/service.json → BENCH_service -----------------------
    let service = std::fs::read_to_string(format!("{results_dir}/service.json")).ok();
    let service_path = format!("{out_dir}/BENCH_service.json");
    let existing = std::fs::read_to_string(&service_path).ok();
    let sections = [
        (
            "capacity_jobs_per_s",
            service
                .as_deref()
                .and_then(|s| scalar_field(s, "capacity_jobs_per_s")),
        ),
        (
            "sweep",
            service.as_deref().and_then(|s| extract_value(s, "sweep")),
        ),
        (
            "knee",
            service.as_deref().and_then(|s| extract_value(s, "knee")),
        ),
    ];
    if let Some(out) = merge_sections(existing.as_deref(), "BENCH_service", &sections) {
        std::fs::write(&service_path, out + "\n").expect("write BENCH_service.json");
        println!("wrote {service_path}");
        written.push(service_path);
    }

    written
}

fn main() {
    let log = flag_value("--log").unwrap_or_else(|| "target/criterion-stub.jsonl".to_string());
    let out_dir = flag_value("--out-dir").unwrap_or_else(|| ".".to_string());
    let results_dir = flag_value("--results-dir").unwrap_or_else(|| "results".to_string());
    summarize(&log, &out_dir, &results_dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory under the target-adjacent temp dir, cleaned
    /// up on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("benchsum-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(dir.join("results")).unwrap();
            Scratch(dir)
        }
        fn path(&self, rel: &str) -> String {
            self.0.join(rel).to_string_lossy().into_owned()
        }
        fn write(&self, rel: &str, content: &str) {
            std::fs::write(self.0.join(rel), content).unwrap();
        }
        fn read(&self, rel: &str) -> String {
            std::fs::read_to_string(self.0.join(rel)).unwrap()
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn log_lines_parse() {
        let e = parse(r#"{"id": "des/48", "mean_s": 0.125, "iters": 10}"#).unwrap();
        assert_eq!(e.id, "des/48");
        assert_eq!(e.iters, 10);
        assert!((e.mean_s - 0.125).abs() < 1e-12);
        assert!(parse("not json").is_none());
    }

    #[test]
    fn extract_value_handles_objects_and_arrays() {
        let src = r#"{"a": {"x": 1, "y": {"z": 2}}, "b": [1, 2, [3]], "c": 4}"#;
        assert_eq!(
            extract_value(src, "a"),
            Some(r#"{"x": 1, "y": {"z": 2}}"#.into())
        );
        assert_eq!(extract_value(src, "b"), Some("[1, 2, [3]]".into()));
        assert_eq!(extract_value(src, "c"), None);
    }

    #[test]
    fn missing_log_does_not_panic_or_clobber() {
        let s = Scratch::new("nolog");
        s.write(
            "BENCH_scheduler.json",
            "{\"artifact\": \"BENCH_scheduler\", \"benches\": []}\n",
        );
        let written = summarize(&s.path("no-such.jsonl"), &s.path(""), &s.path("results"));
        assert!(written.iter().all(|w| !w.contains("BENCH_scheduler")));
        // The pre-existing artifact survives untouched.
        assert!(s.read("BENCH_scheduler.json").contains("BENCH_scheduler"));
    }

    #[test]
    fn partial_results_merge_into_existing_faults_artifact() {
        let s = Scratch::new("merge");
        // A previous full run recorded all three fault sections.
        s.write(
            "BENCH_faults.json",
            concat!(
                "{\"artifact\": \"BENCH_faults\", ",
                "\"recovery_overhead\": {\"p50_s\": 0.23}, ",
                "\"jobtracker_crash_sweep\": [{\"t\": 1}], ",
                "\"rack_failure\": {\"overhead_s\": 9.0}}\n",
            ),
        );
        // This partial run re-measured only chaos (recovery_overhead).
        s.write(
            "results/chaos.json",
            "{\"recovery_overhead\": {\"p50_s\": 0.5}}\n",
        );
        summarize(&s.path("no-such.jsonl"), &s.path(""), &s.path("results"));
        let merged = s.read("BENCH_faults.json");
        // Fresh section updated…
        assert!(merged.contains("\"p50_s\": 0.5"), "{merged}");
        // …absent-input sections carried over, not dropped.
        assert!(merged.contains("jobtracker_crash_sweep"), "{merged}");
        assert!(merged.contains("\"overhead_s\": 9.0"), "{merged}");
    }

    #[test]
    fn service_results_produce_service_artifact() {
        let s = Scratch::new("service");
        s.write(
            "results/service.json",
            concat!(
                "{\"experiment\": \"service\", \"capacity_jobs_per_s\": 0.264, ",
                "\"sweep\": [{\"load_factor\": 1.0}], ",
                "\"knee\": {\"load_factor\": 2.0}}\n",
            ),
        );
        summarize(&s.path("no-such.jsonl"), &s.path(""), &s.path("results"));
        let out = s.read("BENCH_service.json");
        assert!(out.contains("\"artifact\": \"BENCH_service\""), "{out}");
        assert!(out.contains("\"sweep\": [{\"load_factor\": 1.0}]"), "{out}");
        assert!(out.contains("\"knee\""), "{out}");
        assert!(out.contains("0.264"), "{out}");

        // A later run with no service results keeps the artifact as-is.
        std::fs::remove_file(s.0.join("results/service.json")).unwrap();
        summarize(&s.path("no-such.jsonl"), &s.path(""), &s.path("results"));
        let kept = s.read("BENCH_service.json");
        assert!(kept.contains("\"knee\""), "{kept}");
    }

    #[test]
    fn fresh_log_writes_scheduler_and_kernels() {
        let s = Scratch::new("log");
        s.write(
            "stub.jsonl",
            concat!(
                "{\"id\": \"des/48\", \"mean_s\": 0.25, \"iters\": 5}\n",
                "{\"id\": \"des_ref/48\", \"mean_s\": 1.0, \"iters\": 5}\n",
                "{\"id\": \"scan/1k\", \"mean_s\": 0.01, \"iters\": 50}\n",
            ),
        );
        let written = summarize(&s.path("stub.jsonl"), &s.path(""), &s.path("results"));
        assert_eq!(written.len(), 2);
        let sched = s.read("BENCH_scheduler.json");
        assert!(sched.contains("\"speedup\": 4"), "{sched}");
        let kern = s.read("BENCH_kernels.json");
        assert!(kern.contains("scan/1k"), "{kern}");
    }

    #[test]
    fn kernel_backend_pair_yields_speedup_section() {
        let s = Scratch::new("backend");
        s.write(
            "stub.jsonl",
            concat!(
                "{\"id\": \"kernel_backend/interp\", \"mean_s\": 0.08, \"iters\": 10}\n",
                "{\"id\": \"kernel_backend/native\", \"mean_s\": 0.02, \"iters\": 10}\n",
            ),
        );
        summarize(&s.path("stub.jsonl"), &s.path(""), &s.path("results"));
        let kern = s.read("BENCH_kernels.json");
        // Both backends fold into the benches list…
        assert!(kern.contains("kernel_backend/interp"), "{kern}");
        assert!(kern.contains("kernel_backend/native"), "{kern}");
        // …and the explicit speedup entry records interp_s / native_s.
        assert!(kern.contains("\"interp_vs_native\""), "{kern}");
        assert!(kern.contains("\"speedup\": 4"), "{kern}");
    }

    #[test]
    fn bs_backend_pair_yields_its_own_speedup_section() {
        let s = Scratch::new("backend-bs");
        s.write(
            "stub.jsonl",
            concat!(
                "{\"id\": \"kernel_backend/interp\", \"mean_s\": 0.08, \"iters\": 10}\n",
                "{\"id\": \"kernel_backend/native\", \"mean_s\": 0.04, \"iters\": 10}\n",
                "{\"id\": \"kernel_backend_bs/interp\", \"mean_s\": 0.05, \"iters\": 10}\n",
                "{\"id\": \"kernel_backend_bs/native\", \"mean_s\": 0.01, \"iters\": 10}\n",
            ),
        );
        summarize(&s.path("stub.jsonl"), &s.path(""), &s.path("results"));
        let kern = s.read("BENCH_kernels.json");
        assert!(kern.contains("kernel_backend_bs/native"), "{kern}");
        let wc = extract_value(&kern, "interp_vs_native").unwrap();
        assert!(wc.contains("\"speedup\": 2"), "{wc}");
        let bs = extract_value(&kern, "interp_vs_native_bs").unwrap();
        assert!(bs.contains("\"interp_s\": 0.05"), "{bs}");
        assert!(bs.contains("\"speedup\": 5"), "{bs}");
    }

    #[test]
    fn check_elision_pair_yields_speedup_section() {
        let s = Scratch::new("elision");
        s.write(
            "stub.jsonl",
            concat!(
                "{\"id\": \"check_elision/unelided\", \"mean_s\": 0.06, \"iters\": 10}\n",
                "{\"id\": \"check_elision/elided\", \"mean_s\": 0.05, \"iters\": 10}\n",
            ),
        );
        summarize(&s.path("stub.jsonl"), &s.path(""), &s.path("results"));
        let kern = s.read("BENCH_kernels.json");
        // Both rows fold into the benches list…
        assert!(kern.contains("check_elision/unelided"), "{kern}");
        assert!(kern.contains("check_elision/elided"), "{kern}");
        // …and the explicit speedup entry records unelided_s / elided_s.
        assert!(kern.contains("\"check_elision\": {"), "{kern}");
        assert!(kern.contains("\"speedup\": 1.2"), "{kern}");
    }

    #[test]
    fn lone_backend_entry_omits_speedup_section() {
        let s = Scratch::new("lone");
        s.write(
            "stub.jsonl",
            "{\"id\": \"kernel_backend/native\", \"mean_s\": 0.02, \"iters\": 10}\n",
        );
        summarize(&s.path("stub.jsonl"), &s.path(""), &s.path("results"));
        let kern = s.read("BENCH_kernels.json");
        assert!(kern.contains("kernel_backend/native"), "{kern}");
        assert!(!kern.contains("interp_vs_native"), "{kern}");
    }
}
