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
use hetero_trace::json::{self, Json};
use std::collections::BTreeMap;

/// One parsed log line.
#[derive(Debug, Clone)]
struct Entry {
    id: String,
    mean_s: f64,
    iters: u64,
}

fn parse_entry(line: &str) -> Option<Entry> {
    let v = json::parse(line).ok()?;
    Some(Entry {
        id: v.get("id")?.as_str()?.to_string(),
        mean_s: v.get("mean_s")?.as_f64()?,
        iters: v.get("iters")?.as_u64()?,
    })
}

/// Read and parse one JSON file. `None` when it is absent; an
/// unparsable one is reported and treated as absent.
fn read_json(path: &str) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    json::parse(&text)
        .map_err(|e| eprintln!("benchsum: ignoring {path}: {e}"))
        .ok()
}

fn write_json(path: &str, v: &Json) {
    std::fs::write(path, json::write(v)).unwrap_or_else(|e| panic!("write {path}: {e}"));
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

fn entries_json(entries: &BTreeMap<String, Entry>, prefixes: &[&str]) -> Json {
    Json::arr(
        entries
            .values()
            .filter(|e| prefixes.iter().any(|p| e.id.starts_with(p)))
            .map(|e| {
                Json::obj()
                    .with("id", e.id.as_str())
                    .with("mean_s", e.mean_s)
                    .with("iters", e.iters)
            }),
    )
}

/// `{<slow>_s, <fast>_s, speedup}` for a pair of benches measuring the
/// same work two ways; `None` unless both ran.
fn speedup(entries: &BTreeMap<String, Entry>, group: &str, slow: &str, fast: &str) -> Option<Json> {
    let s = entries.get(&format!("{group}/{slow}"))?;
    let f = entries.get(&format!("{group}/{fast}"))?;
    Some(
        Json::obj()
            .with(&format!("{slow}_s"), s.mean_s)
            .with(&format!("{fast}_s"), f.mean_s)
            .with("speedup", s.mean_s / f.mean_s.max(1e-12)),
    )
}

/// Assemble one artifact from `(key, source)` sections: each takes the
/// top-level field `key` of its freshly written source file, or — when
/// that input is absent — of the existing artifact (the merge that keeps
/// partial runs from clobbering earlier full runs). Returns `None` when
/// no section has a value from either side.
fn merge_sections(
    existing: Option<&Json>,
    name: &str,
    sections: &[(&str, &Option<Json>)],
) -> Option<Json> {
    let mut obj = Json::obj().with("artifact", name);
    let mut any = false;
    for (key, source) in sections {
        let fresh = source.as_ref().and_then(|s| s.get(key));
        if let Some(v) = fresh.or_else(|| existing?.get(key)) {
            obj = obj.with(key, v.clone());
            any = true;
        }
    }
    any.then_some(obj)
}

/// The whole summarization, parameterized for tests. Returns the list
/// of artifact files written.
fn summarize(log: &str, out_dir: &str, results_dir: &str) -> Vec<String> {
    let mut written = Vec::new();

    // ---- criterion-stub log → BENCH_scheduler / BENCH_kernels -------
    // A missing log neither aborts the run nor clobbers previously
    // recorded artifacts: the fault/service sections below still fold
    // their own inputs.
    match std::fs::read_to_string(log) {
        Err(e) => {
            eprintln!("benchsum: no bench log at {log} ({e}); keeping existing scheduler/kernel artifacts");
        }
        Ok(text) => {
            // Last result wins when a benchmark ran more than once
            // (BTreeMap also gives deterministic output order).
            let mut entries: BTreeMap<String, Entry> = BTreeMap::new();
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                match parse_entry(line) {
                    Some(e) => {
                        entries.insert(e.id.clone(), e);
                    }
                    None => eprintln!("benchsum: skipping unparsable line: {line}"),
                }
            }

            // Indexed-vs-reference delta on the workloads measured both
            // ways: des/<s> vs des_ref/<s>, and the des_1k pair.
            let pairs = entries
                .keys()
                .filter_map(|id| {
                    let s = id.strip_prefix("des/")?;
                    Some((id.clone(), format!("des_ref/{s}")))
                })
                .chain(entries.keys().filter_map(|id| {
                    let s = id.strip_suffix("-reference")?;
                    Some((s.to_string(), id.clone()))
                }));
            let deltas = pairs.filter_map(|(indexed_id, ref_id)| {
                let (a, b) = (entries.get(&indexed_id)?, entries.get(&ref_id)?);
                Some(
                    Json::obj()
                        .with("case", indexed_id)
                        .with("indexed_s", a.mean_s)
                        .with("reference_s", b.mean_s)
                        .with("speedup", b.mean_s / a.mean_s.max(1e-12)),
                )
            });

            let scheduler = Json::obj()
                .with("artifact", "BENCH_scheduler")
                .with("benches", entries_json(&entries, &["des"]))
                .with("indexed_vs_reference", Json::arr(deltas));
            let mut kernels = Json::obj().with("artifact", "BENCH_kernels").with(
                "benches",
                entries_json(
                    &entries,
                    &[
                        "scan",
                        "indirection_sort",
                        "kernel_backend",
                        "check_elision",
                    ],
                ),
            );
            // Interpreter-vs-native-backend speedup on the same annotated
            // C mapper — wordcount (`kernel_backend`, builtin-bound) and
            // BlackScholes (`kernel_backend_bs`, dispatch-bound) — and the
            // guard-elision speedup on the native backend: all guards
            // kept vs analysis-proven guards removed.
            for (key, group, slow, fast) in [
                ("interp_vs_native", "kernel_backend", "interp", "native"),
                (
                    "interp_vs_native_bs",
                    "kernel_backend_bs",
                    "interp",
                    "native",
                ),
                ("check_elision", "check_elision", "unelided", "elided"),
            ] {
                if let Some(section) = speedup(&entries, group, slow, fast) {
                    kernels = kernels.with(key, section);
                }
            }

            let sched_path = format!("{out_dir}/BENCH_scheduler.json");
            let kern_path = format!("{out_dir}/BENCH_kernels.json");
            write_json(&sched_path, &scheduler);
            write_json(&kern_path, &kernels);
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
    // bin's master-crash sweep and correlated-fault numbers; then
    // results/service.json → BENCH_service. Sections whose input is
    // absent are carried over from the existing artifact.
    let chaos = read_json(&format!("{results_dir}/chaos.json"));
    let faults = read_json(&format!("{results_dir}/faults.json"));
    let service = read_json(&format!("{results_dir}/service.json"));
    let mut merge = |name: &str, sections: &[(&str, &Option<Json>)]| {
        let path = format!("{out_dir}/{name}.json");
        if let Some(out) = merge_sections(read_json(&path).as_ref(), name, sections) {
            write_json(&path, &out);
            println!("wrote {path}");
            written.push(path);
        }
    };
    merge(
        "BENCH_faults",
        &[
            ("mode", &chaos),
            ("runs", &chaos),
            ("recovery_overhead", &chaos),
            ("jobtracker_crash_sweep", &faults),
            ("rack_failure", &faults),
            ("partition", &faults),
        ],
    );
    merge(
        "BENCH_service",
        &[
            ("capacity_jobs_per_s", &service),
            ("sweep", &service),
            ("knee", &service),
        ],
    );

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
        fn json(&self, rel: &str) -> Json {
            json::parse(&self.read(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
        }
        fn summarize(&self, log: &str) -> Vec<String> {
            summarize(&self.path(log), &self.path(""), &self.path("results"))
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// `doc.a.b.c` for `path = ["a", "b", "c"]`.
    fn at<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
        path.iter().fold(doc, |v, k| {
            v.get(k).unwrap_or_else(|| panic!("no {k} in {v:?}"))
        })
    }

    fn ids(benches: &Json) -> Vec<&str> {
        let rows = benches.as_arr().unwrap().iter();
        rows.map(|b| at(b, &["id"]).as_str().unwrap()).collect()
    }

    #[test]
    fn log_lines_parse() {
        let e = parse_entry(r#"{"id": "des/48", "mean_s": 0.125, "iters": 10}"#).unwrap();
        assert_eq!(e.id, "des/48");
        assert_eq!(e.iters, 10);
        assert!((e.mean_s - 0.125).abs() < 1e-12);
        assert!(parse_entry("not json").is_none());
        assert!(parse_entry(r#"{"id": "des/48", "mean_s": "fast", "iters": 10}"#).is_none());
    }

    #[test]
    fn missing_log_does_not_panic_or_clobber() {
        let s = Scratch::new("nolog");
        let before = "{\"artifact\":\"BENCH_scheduler\",\"benches\":[]}\n";
        s.write("BENCH_scheduler.json", before);
        let written = s.summarize("no-such.jsonl");
        assert!(written.is_empty(), "{written:?}");
        // The pre-existing artifact survives untouched.
        assert_eq!(s.read("BENCH_scheduler.json"), before);
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
        s.summarize("no-such.jsonl");
        let merged = s.json("BENCH_faults.json");
        // Fresh section updated…
        assert_eq!(
            at(&merged, &["recovery_overhead", "p50_s"]),
            &Json::F64(0.5)
        );
        // …absent-input sections carried over, not dropped.
        assert_eq!(
            at(&merged, &["jobtracker_crash_sweep"]),
            &Json::arr([Json::obj().with("t", 1u64)])
        );
        assert_eq!(
            at(&merged, &["rack_failure", "overhead_s"]),
            &Json::F64(9.0)
        );
    }

    #[test]
    fn carry_over_is_a_top_level_lookup_not_a_substring_scan() {
        let s = Scratch::new("nested");
        // `knee` also occurs one level down, before the real one, and a
        // string holds every byte a bracket-counting scan trips over.
        let label = "a], b}, \"c\": [{";
        let sweep = Json::arr([Json::obj()
            .with("knee", Json::obj().with("load_factor", 99.0))
            .with("label", label)]);
        let existing = Json::obj()
            .with("artifact", "BENCH_service")
            .with("capacity_jobs_per_s", 0.25)
            .with("sweep", sweep.clone())
            .with("knee", Json::obj().with("load_factor", 2.0));
        s.write("BENCH_service.json", &json::write(&existing));

        // No fresh inputs: every section is carried over intact, and the
        // rewrite is a byte-for-byte no-op — twice.
        for _ in 0..2 {
            s.summarize("no-such.jsonl");
            assert_eq!(s.read("BENCH_service.json"), json::write(&existing));
        }
        let kept = s.json("BENCH_service.json");
        assert_eq!(at(&kept, &["knee", "load_factor"]), &Json::F64(2.0));
        assert_eq!(at(&kept, &["sweep"]), &sweep);

        // A fresh input whose own `sweep` nests a `capacity_jobs_per_s`
        // replaces exactly its top-level sections.
        let fresh = Json::obj()
            .with(
                "sweep",
                Json::arr([Json::obj().with("capacity_jobs_per_s", 7.0)]),
            )
            .with("capacity_jobs_per_s", 0.5);
        s.write("results/service.json", &json::write(&fresh));
        s.summarize("no-such.jsonl");
        let merged = s.json("BENCH_service.json");
        assert_eq!(at(&merged, &["capacity_jobs_per_s"]), &Json::F64(0.5));
        assert_eq!(at(&merged, &["sweep"]), at(&fresh, &["sweep"]));
        assert_eq!(at(&merged, &["knee", "load_factor"]), &Json::F64(2.0));
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
        s.summarize("no-such.jsonl");
        let expected = Json::obj()
            .with("artifact", "BENCH_service")
            .with("capacity_jobs_per_s", 0.264)
            .with("sweep", Json::arr([Json::obj().with("load_factor", 1.0)]))
            .with("knee", Json::obj().with("load_factor", 2.0));
        assert_eq!(s.json("BENCH_service.json"), expected);

        // A later run with no service results keeps the artifact as-is.
        std::fs::remove_file(s.0.join("results/service.json")).unwrap();
        s.summarize("no-such.jsonl");
        assert_eq!(s.json("BENCH_service.json"), expected);
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
        let written = s.summarize("stub.jsonl");
        assert_eq!(written.len(), 2);
        let sched = s.json("BENCH_scheduler.json");
        let deltas = at(&sched, &["indexed_vs_reference"]).as_arr().unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(at(&deltas[0], &["case"]).as_str(), Some("des/48"));
        assert_eq!(at(&deltas[0], &["speedup"]), &Json::F64(4.0));
        let kern = s.json("BENCH_kernels.json");
        assert_eq!(ids(at(&kern, &["benches"])), ["scan/1k"]);
    }

    #[test]
    fn measured_pairs_yield_speedup_sections() {
        let s = Scratch::new("pairs");
        s.write(
            "stub.jsonl",
            concat!(
                "{\"id\": \"kernel_backend/interp\", \"mean_s\": 0.08, \"iters\": 10}\n",
                "{\"id\": \"kernel_backend/native\", \"mean_s\": 0.04, \"iters\": 10}\n",
                "{\"id\": \"kernel_backend_bs/interp\", \"mean_s\": 0.05, \"iters\": 10}\n",
                "{\"id\": \"kernel_backend_bs/native\", \"mean_s\": 0.01, \"iters\": 10}\n",
                "{\"id\": \"check_elision/unelided\", \"mean_s\": 0.06, \"iters\": 10}\n",
                "{\"id\": \"check_elision/elided\", \"mean_s\": 0.05, \"iters\": 10}\n",
            ),
        );
        s.summarize("stub.jsonl");
        let kern = s.json("BENCH_kernels.json");
        // Every row folds into the benches list…
        assert_eq!(ids(at(&kern, &["benches"])).len(), 6);
        // …and each pair gets its explicit slow_s / fast_s / speedup entry.
        assert_eq!(
            at(&kern, &["interp_vs_native"]),
            &Json::obj()
                .with("interp_s", 0.08)
                .with("native_s", 0.04)
                .with("speedup", 2.0)
        );
        assert_eq!(
            at(&kern, &["interp_vs_native_bs", "interp_s"]),
            &Json::F64(0.05)
        );
        assert_eq!(
            at(&kern, &["interp_vs_native_bs", "speedup"]),
            &Json::F64(5.0)
        );
        assert_eq!(
            at(&kern, &["check_elision", "unelided_s"]),
            &Json::F64(0.06)
        );
        let gain = at(&kern, &["check_elision", "speedup"]).as_f64().unwrap();
        assert!((gain - 1.2).abs() < 1e-9, "{gain}");
    }

    #[test]
    fn lone_backend_entry_omits_speedup_section() {
        let s = Scratch::new("lone");
        s.write(
            "stub.jsonl",
            "{\"id\": \"kernel_backend/native\", \"mean_s\": 0.02, \"iters\": 10}\n",
        );
        s.summarize("stub.jsonl");
        let kern = s.json("BENCH_kernels.json");
        assert_eq!(ids(at(&kern, &["benches"])), ["kernel_backend/native"]);
        assert!(kern.get("interp_vs_native").is_none(), "{kern:?}");
    }
}
