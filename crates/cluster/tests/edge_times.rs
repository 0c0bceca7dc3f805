//! Edge-time regression: a 64-node job under node, rack and JobTracker
//! crashes, with every fault scheduled at one of the float corners where
//! an event queue could order differently from `partial_cmp` on `f64` —
//! negative zero, zero, the smallest subnormal, a tiny normal, an
//! ordinary time and a time past the end of the run.
//!
//! `GOLDEN` holds an FNV-1a hash of each run's `JobStats::fingerprint()`,
//! captured from the commit whose event queue was a `BinaryHeap` ordered
//! by `partial_cmp` on time and then push order. Only a declared change
//! of the simulated schedule regenerates it: `cargo test -p
//! hetero-cluster --test edge_times -- --ignored --nocapture
//! print_golden` prints the table as Rust source.

use hetero_cluster::{
    simulate, simulate_reference, ClusterConfig, FaultPlan, JobSpec, ReduceTaskSpec, Scheduler,
};

const TIMES: [f64; 6] = [-0.0, 0.0, 5e-324, 1e-300, 3.0, 1e300];

const GOLDEN: [(u64, u64); 6] = [
    (0x8000000000000000, 0x2c79922331bf9c41), // -0e0
    (0x0000000000000000, 0x2c79922331bf9c41), // 0e0
    (0x0000000000000001, 0x2c79922331bf9c41), // 5e-324
    (0x01a56e1fc2f8f359, 0x2c79922331bf9c41), // 1e-300
    (0x4008000000000000, 0x66e17135f7c34bd4), // 3e0
    (0x7e37e43c8800759c, 0xc3dc8a02173060c8), // 1e300
];

fn cluster(t: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(64, Scheduler::TailScheduling);
    cfg.map_slots_per_node = 4;
    cfg.gpus_per_node = 2;
    cfg.speculative = true;
    cfg.faults = FaultPlan::seeded(41)
        .with_node_crash(0, t)
        .with_node_crash(40, t)
        .with_rack_failure(3, t)
        .with_gpu_fault(20, 1, t)
        .with_jobtracker_crash(t);
    cfg
}

fn job() -> JobSpec {
    let mut job = JobSpec::uniform("edge-times", 1_024, 64, 3, 4.0, 0.8);
    job.reduces = (0..16)
        .map(|id| ReduceTaskSpec { id, compute_s: 2.0 })
        .collect();
    job
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The fingerprint of the run with every fault at `t`; the scan-based
/// reference must agree with it.
fn fingerprint(t: f64) -> String {
    let (cfg, job) = (cluster(t), job());
    assert_eq!(cfg.faults.validate(64, cfg.num_racks(), 2), Ok(()));
    let fp = simulate(&cfg, &job).fingerprint();
    assert_eq!(
        fp,
        simulate_reference(&cfg, &job).fingerprint(),
        "time {t:e}: indexed and reference runs diverged"
    );
    fp
}

#[test]
fn fault_times_at_float_corners_keep_their_schedules() {
    assert_eq!(GOLDEN.len(), TIMES.len());
    for (&t, &(bits, hash)) in TIMES.iter().zip(&GOLDEN) {
        assert_eq!(t.to_bits(), bits, "GOLDEN row out of order");
        let fp = fingerprint(t);
        assert_eq!(fnv1a(&fp), hash, "time {t:e} moved its schedule:\n{fp}");
    }
}

#[test]
#[ignore = "prints GOLDEN; run with --ignored --nocapture"]
fn print_golden() {
    println!("const GOLDEN: [(u64, u64); {}] = [", TIMES.len());
    for t in TIMES {
        println!(
            "    ({:#018x}, {:#018x}), // {t:e}",
            t.to_bits(),
            fnv1a(&fingerprint(t))
        );
    }
    println!("];");
}
