//! The six workloads and the interface the run loop drives them through.

use crate::json::Value;
use crate::metrics::Metrics;
use crate::spans::SpanLog;

/// How large a run is. `Smoke` is the same code at about 1/50 of the
/// work, for a later CI gate; its results are stamped and `--compare`
/// refuses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Full,
    Smoke,
}

impl Mode {
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Smoke => "smoke",
        }
    }

    /// `full` sized down for smoke runs (never below `floor`).
    pub fn scale(self, full: usize, floor: usize) -> usize {
        match self {
            Mode::Full => full,
            Mode::Smoke => (full / 50).max(floor),
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// What `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    /// Run under [`crate::hostspeed::keep_heap_warm`]: the single-threaded
    /// workloads whose reps allocate and free hundreds of MB. The
    /// functional jobs were no steadier with it, so they keep the
    /// default allocator.
    pub warm_heap: bool,
}

/// Sized so that one rep takes about 1 s on the 2-core reference host
/// (see the README on why not longer).
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "wc_c_mixed",
        work_unit: "records/s",
        why: "Wordcount from its annotated C sources, every other task on the GPU, pool width 2: \
              every layer on the clock, and the only workload where the worker pool is timed",
        warm_heap: false,
    },
    WorkloadDef {
        name: "bs_c_gpu",
        work_unit: "records/s",
        why: "BlackScholes from C, all-GPU, map-only: compute-bound in the kernel engine; \
              the bypass case for runtime, gpusim and DES changes",
        warm_heap: false,
    },
    WorkloadDef {
        name: "wc_rust_gpu",
        work_unit: "records/s",
        why: "Wordcount through the hand-written Rust mapper, all-GPU: host time is runtime \
              stages, gpusim launches and hdfs; the bypass case for kernel-engine changes",
        warm_heap: false,
    },
    WorkloadDef {
        name: "des_tail_8k",
        work_unit: "attempts/s",
        why: "Cluster DES alone, 8000 nodes and 800k maps under tail scheduling, no faults: \
              the indexed scheduler hot path",
        warm_heap: true,
    },
    WorkloadDef {
        name: "des_faults_2k",
        work_unit: "attempts/s",
        why: "Cluster DES at 2000 nodes with speculation and a seeded fault plan, 4 seeds a rep: \
              expiry, re-execution, speculation, journal and recovery paths",
        warm_heap: true,
    },
    WorkloadDef {
        name: "service_knee",
        work_unit: "jobs/s",
        why: "Multi-tenant service on 1000 nodes at 1.5x calibrated capacity: many small DES \
              jobs under fair share and queueing instead of one large job",
        warm_heap: true,
    },
];

/// What one rep did, as checked against the workload's reference.
pub struct Rep {
    /// Wall time of the call(s) into the system, verification excluded.
    pub wall_s: f64,
    /// The same in reference seconds (see [`crate::hostspeed`]).
    pub ref_s: f64,
    /// Work units attempted.
    pub units: u64,
    /// Units whose output failed verification.
    pub failed: u64,
    /// Identity of every simulated quantity the rep produced; must not
    /// change between reps, with tracing, or under a host-only change.
    pub sim_fingerprint: String,
}

/// A set-up workload: inputs generated, sources compiled, capacity
/// calibrated. Building one (see [`build`]) is what `setup_s` times.
pub trait Workload {
    /// Work units one rep attempts.
    fn units(&self) -> u64;

    /// The final sizes, for the run header.
    fn sizes(&self) -> Value;

    /// Layer timings and counts gathered while setting up
    /// (`apps.datagen_s`, `hdfs.put_s`, …), copied into a traced run.
    fn setup_metrics(&self, m: &mut Metrics);

    /// One rep with every span and decorator off.
    fn rep(&self) -> Result<Rep, String>;

    /// One rep with spans around every call into the crates, filling the
    /// per-layer metrics. `untraced_ref_s` is the median reference time
    /// of the untraced reps of the same run, the base of the overhead
    /// shares.
    fn traced_rep(
        &self,
        log: &mut SpanLog,
        m: &mut Metrics,
        untraced_ref_s: f64,
    ) -> Result<Rep, String>;
}

/// Set up workload `name` from `seed`. The crates only ever see the
/// generated inputs; the seed goes no further than the generators.
pub fn build(name: &str, seed: u64, mode: Mode) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wc_c_mixed" | "bs_c_gpu" | "wc_rust_gpu" => {
            Box::new(crate::functional::Functional::setup(name, seed, mode))
        }
        "des_tail_8k" => Box::new(crate::cluster::Des::tail(mode)),
        "des_faults_2k" => Box::new(crate::cluster::Des::faults(seed, mode)),
        "service_knee" => Box::new(crate::cluster::Service::setup(seed, mode)),
        _ => return None,
    })
}

/// The 64-bit mixer behind every seed the benchmark derives.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_table_is_well_formed() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
            assert!(!w.why.contains('\n'));
        }
        assert!(build("nope", 1, Mode::Smoke).is_none());
    }

    #[test]
    fn smoke_scales_down_to_a_floor() {
        assert_eq!(Mode::Full.scale(1000, 10), 1000);
        assert_eq!(Mode::Smoke.scale(1000, 10), 20);
        assert_eq!(Mode::Smoke.scale(100, 10), 10);
    }
}
