//! The single list of what the ledger reports. `BENCHMARK.json` at the
//! repository root repeats it for the driver; a unit test keeps the two
//! in step.

use crate::json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: measured with every span and decorator off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression — and how closely two runs of
    /// the same code must agree.
    pub bound: f64,
}

pub const WORK_PER_S: &str = "work_per_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// `work_per_s` counts a different unit of work per workload (see
/// [`crate::workloads::WORKLOADS`]), so its unit here is the bare rate.
/// Both times are in reference seconds (see [`crate::hostspeed`]).
///
/// The bounds are about three times the spread ten runs of one binary
/// showed on the reference host (interquartile range ÷ median: 3–5 %
/// for `work_per_s`, 7 % once; up to 4 % for `peak_rss_mb`), so that two
/// runs of the same code agree well within them.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: WORK_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// An exact count of simulated or structural work: must repeat
    /// bit-for-bit between reps, runs and — for a host-only change —
    /// commits.
    pub exact: bool,
}

const fn t(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn c(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn up(mut m: PerLayer) -> PerLayer {
    m.better = Better::Higher;
    m
}

/// Prefix = the crate the number is attributed to. A metric that does
/// not apply to a workload (say `cc.*` on a DES workload) reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // hetero-cc front end: median of 50 calls each.
    t("cc.parse_s", "s"),
    t("cc.sema_s", "s"),
    t("cc.lint_s", "s"),
    t("cc.translate_s", "s"),
    t("cc.compile_s", "s"),
    t("cc.backend_build_s", "s"),
    c("cc.safety_sites_total", "count"),
    up(c("cc.safety_sites_proven", "count")),
    // hetero-cc engine, seen through the Mapper/Combiner/Emit decorators
    // of the traced job (on wc_rust_gpu: the hand-written twin in the
    // engine's place).
    t("cc.map_busy_s", "s"),
    c("cc.map_calls", "count"),
    t("cc.map_ns_per_record", "ns"),
    t("cc.combine_busy_s", "s"),
    c("cc.combine_calls", "count"),
    c("cc.charged_alu", "count"),
    c("cc.charged_sfu", "count"),
    t("cc.ns_per_charged_op", "ns"),
    c("cc.emitted_pairs", "count"),
    t("cc.engine_share", "ratio"),
    // hetero-runtime: the staged replay over the public stage functions.
    t("runtime.locate_s", "s"),
    t("runtime.map_s", "s"),
    t("runtime.map_self_s", "s"),
    t("runtime.aggregate_s", "s"),
    t("runtime.sort_s", "s"),
    t("runtime.combine_s", "s"),
    t("runtime.combine_self_s", "s"),
    t("runtime.cpu_task_s", "s"),
    t("runtime.cpu_task_self_s", "s"),
    t("runtime.reduce_s", "s"),
    c("runtime.records", "count"),
    c("runtime.pairs_sorted", "count"),
    c("runtime.pairs_out", "count"),
    up(c("runtime.kv_occupancy", "ratio")),
    // hetero-gpusim: device totals of the traced job, and a fixed
    // synthetic launch grid timed directly.
    c("gpusim.kernels_launched", "count"),
    c("gpusim.sim_cycles", "cycles"),
    c("gpusim.dram_bytes", "bytes"),
    c("gpusim.divergent_lanes", "count"),
    c("gpusim.h2d_bytes", "bytes"),
    c("gpusim.d2h_bytes", "bytes"),
    t("gpusim.probe_s", "s"),
    t("gpusim.probe_ns_per_warp_round", "ns"),
    // hetero-hdfs.
    t("hdfs.put_s", "s"),
    t("hdfs.read_s", "s"),
    t("hdfs.seqfile_encode_s", "s"),
    t("hdfs.seqfile_decode_s", "s"),
    c("hdfs.bytes_in", "bytes"),
    c("hdfs.bytes_out", "bytes"),
    c("hdfs.splits", "count"),
    // hetero-apps.
    t("apps.datagen_s", "s"),
    c("apps.input_bytes", "bytes"),
    t("apps.reduce_busy_s", "s"),
    // heterodoop core.
    t("core.job_s", "s"),
    t("core.glue_s", "s"),
    c("core.pool_width", "count"),
    up(t("core.pool_efficiency", "ratio")),
    t("core.cold_rep_s", "s"),
    c("core.sim_task_s", "s"),
    t("core.host_s_per_sim_s", "ratio"),
    // hetero-cluster.
    t("cluster.simulate_s", "s"),
    c("cluster.attempts", "count"),
    c("cluster.failed_attempts", "count"),
    c("cluster.speculative_attempts", "count"),
    c("cluster.re_executed", "count"),
    c("cluster.journal_records", "count"),
    t("cluster.host_us_per_attempt", "us"),
    c("cluster.sim_makespan_s", "s"),
    t("cluster.service_run_s", "s"),
    up(c("cluster.service_completed", "count")),
    c("cluster.service_rejected", "count"),
    c("cluster.service_p99_latency_sim_s", "s"),
    up(c("cluster.service_utilization", "ratio")),
    t("cluster.host_us_per_job", "us"),
    // hetero-trace, and the cost of the benchmark's own instrumentation.
    t("trace.overhead_share", "ratio"),
    t("trace.sim_tracer_overhead_share", "ratio"),
    c("trace.chrome_json_bytes", "bytes"),
    up(t("trace.span_coverage", "ratio")),
];

/// Values of one run, keyed by registered name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `v` under a name from [`PER_LAYER`] or [`END_TO_END`].
    /// An unregistered name is a bug in the benchmark, not an input
    /// error, hence the panic.
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name) || END_TO_END.iter().any(|m| m.name == name),
            "metric {name} is not in the registry"
        );
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, …}` over the per-layer
    /// registry, in registry order.
    pub fn per_layer_json(&self) -> Value {
        Value::Obj(
            PER_LAYER
                .iter()
                .map(|m| (m.name.to_string(), metric_json(self.get(m.name), m.unit)))
                .collect(),
        )
    }

    /// The same over the end-to-end registry.
    pub fn end_to_end_json(&self) -> Value {
        Value::Obj(
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), metric_json(self.get(m.name), m.unit)))
                .collect(),
        )
    }
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj().with("value", value).with("unit", unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let names = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch)));
            assert!(unit
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn json_shape_is_the_contracts() {
        let mut m = Metrics::default();
        m.set(WORK_PER_S, 1234.5);
        m.set(SETUP_S, 0.5);
        m.set(PEAK_RSS_MB, 80.25);
        m.set("cc.map_calls", 7.0);
        let e = json::parse(&m.end_to_end_json().render()).unwrap();
        assert_eq!(e.fields().len(), END_TO_END.len());
        let w = e.get(WORK_PER_S).unwrap();
        assert_eq!(w.get("value").unwrap().as_f64(), Some(1234.5));
        assert_eq!(w.get("unit").unwrap().as_str(), Some("1/s"));
        let p = json::parse(&m.per_layer_json().render()).unwrap();
        assert_eq!(p.fields().len(), PER_LAYER.len());
        assert_eq!(
            p.get("cc.map_calls")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
        // Unset metrics still appear, as 0.
        assert_eq!(
            p.get("cluster.attempts")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_names_are_a_bug() {
        Metrics::default().set("cc.typo", 1.0);
    }

    /// `BENCHMARK.json` is what the driver reads; this registry is what
    /// the binary prints. They must list the same things.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed("end_to_end"), want_e2e);
        let want_layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed("per_layer"), want_layers);
        for (m, e) in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(e.bound));
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::RUN_SECONDS)
        );
    }
}
