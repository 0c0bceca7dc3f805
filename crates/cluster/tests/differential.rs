//! Differential proof that the indexed scheduler (`sim`) is bit-identical
//! to the retained scan-based implementation (`reference`).
//!
//! "Bit-identical" is taken literally: every `f64` in `JobStats` is
//! compared through `to_bits`, every attempt is compared as its full
//! `(id, attempt, node, device, speculative, start, end, outcome)` tuple,
//! and traced runs must produce byte-identical Chrome-trace JSON. The
//! configurations cover the paper's Fig. 3 / Fig. 4 shapes, all three
//! schedulers, fault storms (crashes + GPU faults + transient failures +
//! corrupt replicas + stragglers), speculation, and ≥16 seeded random
//! job/fault combinations.

use hetero_cluster::{
    simulate, simulate_reference, simulate_reference_traced, simulate_traced, ClusterConfig,
    FaultPlan, JobSpec, JobStats, MapTaskSpec, ReduceTaskSpec, Scheduler,
};
use hetero_hdfs::NodeId;
use hetero_trace::Tracer;

/// splitmix64 — the test's own deterministic RNG (no external crates).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix64(self.0)
    }
    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
    /// Uniform integer in [lo, hi].
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Field-by-field exact equality, floats through `to_bits`.
fn assert_stats_identical(a: &JobStats, b: &JobStats, ctx: &str) {
    assert_eq!(a.name, b.name, "{ctx}: name");
    let f = |x: f64, y: f64, what: &str| {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {what} ({x} vs {y})");
    };
    f(a.makespan_s, b.makespan_s, "makespan_s");
    f(a.map_phase_s, b.map_phase_s, "map_phase_s");
    f(a.gpu_busy_s, b.gpu_busy_s, "gpu_busy_s");
    f(a.max_speedup_seen, b.max_speedup_seen, "max_speedup_seen");
    f(
        a.speculative_wasted_s,
        b.speculative_wasted_s,
        "speculative_wasted_s",
    );
    f(a.wasted_work_s, b.wasted_work_s, "wasted_work_s");
    assert_eq!(a.node_local, b.node_local, "{ctx}: node_local");
    assert_eq!(a.rack_local, b.rack_local, "{ctx}: rack_local");
    assert_eq!(a.off_rack, b.off_rack, "{ctx}: off_rack");
    assert_eq!(
        a.failed_attempts, b.failed_attempts,
        "{ctx}: failed_attempts"
    );
    assert_eq!(a.re_executed, b.re_executed, "{ctx}: re_executed");
    assert_eq!(
        a.speculative_attempts, b.speculative_attempts,
        "{ctx}: speculative_attempts"
    );
    assert_eq!(a.nodes_lost, b.nodes_lost, "{ctx}: nodes_lost");
    assert_eq!(
        a.gpu_faults_seen, b.gpu_faults_seen,
        "{ctx}: gpu_faults_seen"
    );
    assert_eq!(
        a.checksum_failures, b.checksum_failures,
        "{ctx}: checksum_failures"
    );
    assert_eq!(
        a.reduce_attempts_lost, b.reduce_attempts_lost,
        "{ctx}: reduce_attempts_lost"
    );
    assert_eq!(
        a.jobtracker_crashes_seen, b.jobtracker_crashes_seen,
        "{ctx}: jobtracker_crashes_seen"
    );
    assert_eq!(
        a.jobtracker_recoveries.len(),
        b.jobtracker_recoveries.len(),
        "{ctx}: jobtracker_recoveries count"
    );
    for (i, (x, y)) in a
        .jobtracker_recoveries
        .iter()
        .zip(&b.jobtracker_recoveries)
        .enumerate()
    {
        f(x.0, y.0, &format!("jobtracker_recoveries[{i}].t"));
        assert_eq!(x.1, y.1, "{ctx}: jobtracker_recoveries[{i}].records");
    }
    assert_eq!(
        a.nodes_readmitted, b.nodes_readmitted,
        "{ctx}: nodes_readmitted"
    );
    assert_eq!(
        a.heartbeats_lost, b.heartbeats_lost,
        "{ctx}: heartbeats_lost"
    );
    assert_eq!(
        a.journal_records, b.journal_records,
        "{ctx}: journal_records"
    );
    assert_eq!(
        a.journal_snapshots, b.journal_snapshots,
        "{ctx}: journal_snapshots"
    );
    assert_eq!(a.aborted, b.aborted, "{ctx}: aborted");
    assert_eq!(
        a.node_loss_detected.len(),
        b.node_loss_detected.len(),
        "{ctx}: node_loss_detected count"
    );
    for (i, (x, y)) in a
        .node_loss_detected
        .iter()
        .zip(&b.node_loss_detected)
        .enumerate()
    {
        assert_eq!(x.0, y.0, "{ctx}: node_loss_detected[{i}].node");
        f(x.1, y.1, &format!("node_loss_detected[{i}].t"));
    }
    assert_eq!(a.tasks.len(), b.tasks.len(), "{ctx}: attempt count");
    for (i, (x, y)) in a.tasks.iter().zip(&b.tasks).enumerate() {
        let tup = |r: &hetero_cluster::TaskRecord| {
            (
                r.id,
                r.attempt,
                r.node,
                r.device,
                r.speculative,
                r.start_s.to_bits(),
                r.end_s.map(f64::to_bits),
                r.outcome,
            )
        };
        assert_eq!(tup(x), tup(y), "{ctx}: attempt[{i}]");
    }
    assert_eq!(
        a.completed_reduces(),
        b.completed_reduces(),
        "{ctx}: completed_reduces"
    );
}

/// Run both implementations on `(cfg, job)` and require identical stats
/// and byte-identical trace JSON.
///
/// The per-event invariant auditor is switched off here: these tests are
/// about sim/reference bit-equality, and full-state audits after every
/// event make the sweep ~100× slower. `tests/invariants.rs` runs the
/// same random generator with the auditor on.
fn check(cfg: &ClusterConfig, job: &JobSpec, ctx: &str) {
    hetero_cluster::audit::set_enabled(false);
    let a = simulate(cfg, job);
    let b = simulate_reference(cfg, job);
    assert_stats_identical(&a, &b, ctx);

    let ta = Tracer::new();
    let tb = Tracer::new();
    let sa = simulate_traced(cfg, job, &ta);
    let sb = simulate_reference_traced(cfg, job, &tb);
    assert_stats_identical(&sa, &sb, &format!("{ctx} (traced)"));
    // Tracing must also not perturb the schedule itself.
    assert_stats_identical(&a, &sa, &format!("{ctx} (traced vs untraced)"));
    let ja = ta.to_chrome_json();
    let jb = tb.to_chrome_json();
    assert!(
        ja == jb,
        "{ctx}: trace JSON diverged ({} vs {} bytes)",
        ja.len(),
        jb.len()
    );
}

const SCHEDULERS: [Scheduler; 3] = [
    Scheduler::CpuOnly,
    Scheduler::GpuFirst,
    Scheduler::TailScheduling,
];

#[test]
fn fig3_all_schedulers() {
    let job = JobSpec::uniform("fig3", 19, 1, 1, 6.0, 1.0);
    for s in SCHEDULERS {
        check(&ClusterConfig::fig3(s), &job, &format!("fig3/{s:?}"));
    }
}

#[test]
fn fig4_style_multinode() {
    // Fig. 4 shape: a rack-structured cluster with reduces in play.
    for s in SCHEDULERS {
        let mut cfg = ClusterConfig::small(12, s);
        cfg.map_slots_per_node = 4;
        cfg.gpus_per_node = 2;
        let mut job = JobSpec::uniform("fig4", 480, 12, 3, 4.0, 0.8);
        job.reduces = (0..8)
            .map(|id| ReduceTaskSpec { id, compute_s: 2.0 })
            .collect();
        check(&cfg, &job, &format!("fig4/{s:?}"));
    }
}

#[test]
fn fault_storm_all_schedulers() {
    for s in SCHEDULERS {
        let mut cfg = ClusterConfig::small(8, s);
        cfg.speculative = true;
        cfg.faults = FaultPlan {
            seed: 0xDEAD_BEEF,
            node_crashes: vec![(1, 5.0), (3, 9.0), (6, 14.0)],
            transient_fail_p: 0.08,
            gpu_faults: vec![(0, 0, 3.0), (2, 0, 7.0), (4, 0, 11.0)],
            corrupt_task_inputs: vec![2, 17, 33, 61],
            stragglers: vec![(5, 3.0), (7, 1.7)],
            ..FaultPlan::none()
        };
        let mut job = JobSpec::uniform("storm", 200, 8, 3, 3.0, 0.6);
        job.reduces = (0..6)
            .map(|id| ReduceTaskSpec { id, compute_s: 1.5 })
            .collect();
        check(&cfg, &job, &format!("storm/{s:?}"));
    }
}

#[test]
fn total_node_loss_aborts_identically() {
    let mut cfg = ClusterConfig::small(3, Scheduler::TailScheduling);
    cfg.faults.node_crashes = vec![(0, 2.0), (1, 2.5), (2, 3.0)];
    let job = JobSpec::uniform("doomed", 60, 3, 2, 5.0, 1.0);
    check(&cfg, &job, "total-loss");
}

/// Random job + fault plan, derived entirely from `seed`.
fn random_case(seed: u64) -> (ClusterConfig, JobSpec) {
    let mut rng = Rng(mix64(seed) ^ 0x5EED);
    let num_nodes = rng.range(1, 24) as u32;
    let scheduler = SCHEDULERS[rng.range(0, 2) as usize];
    let mut cfg = ClusterConfig::small(num_nodes, scheduler);
    cfg.nodes_per_rack = rng.range(1, 6) as u32;
    cfg.map_slots_per_node = rng.range(1, 4) as u32;
    cfg.gpus_per_node = rng.range(0, 2) as u32;
    cfg.heartbeat_s = 0.05 + 0.3 * rng.unit();
    cfg.heartbeat_timeout_s = 3.0 * cfg.heartbeat_s + 2.0 * rng.unit();
    cfg.speculative = rng.next().is_multiple_of(2);
    cfg.max_attempts = rng.range(2, 5) as u32;

    let num_tasks = rng.range(10, 240) as u32;
    let mut maps = Vec::new();
    for id in 0..num_tasks {
        let repl = rng.range(1, 3) as usize;
        // Replicas may repeat and may even point past the cluster (a
        // stale NameNode answer); both implementations must agree on how
        // those are treated.
        let mut replicas: Vec<NodeId> = (0..repl)
            .map(|_| NodeId(rng.range(0, num_nodes as u64) as u32))
            .collect();
        if rng.next().is_multiple_of(16) {
            replicas.push(NodeId(num_nodes + 3)); // out of range
        }
        maps.push(MapTaskSpec {
            id,
            replicas,
            cpu_s: 0.5 + 7.5 * rng.unit(),
            gpu_s: 0.1 + 1.9 * rng.unit(),
            output_bytes: rng.range(1 << 16, 1 << 22),
        });
    }
    let reduces = (0..rng.range(0, 6) as u32)
        .map(|id| ReduceTaskSpec {
            id,
            compute_s: 0.5 + 3.0 * rng.unit(),
        })
        .collect();
    let job = JobSpec {
        name: format!("rand-{seed}"),
        maps,
        reduces,
    };

    let mut faults = FaultPlan {
        seed: rng.next(),
        ..FaultPlan::none()
    };
    if rng.next().is_multiple_of(2) {
        faults.transient_fail_p = 0.1 * rng.unit();
    }
    for n in 0..num_nodes {
        if rng.next().is_multiple_of(5) {
            faults.node_crashes.push((n, 1.0 + 20.0 * rng.unit()));
        }
        if cfg.gpus_per_node > 0 && rng.next().is_multiple_of(4) {
            let g = rng.range(0, cfg.gpus_per_node as u64 - 1) as u32;
            faults.gpu_faults.push((n, g, 1.0 + 15.0 * rng.unit()));
        }
        if rng.next().is_multiple_of(6) {
            faults.stragglers.push((n, 1.5 + 2.5 * rng.unit()));
        }
    }
    for t in 0..num_tasks {
        if rng.next().is_multiple_of(24) {
            faults.corrupt_task_inputs.push(t);
        }
    }
    // Fault-model v2: master crashes, correlated rack failures, partition
    // windows, and per-beat heartbeat loss/jitter.
    if rng.next().is_multiple_of(2) {
        for _ in 0..rng.range(1, 2) {
            faults.jobtracker_crashes.push(0.5 + 25.0 * rng.unit());
        }
    }
    let num_racks = num_nodes.div_ceil(cfg.nodes_per_rack);
    if num_racks > 1 && rng.next().is_multiple_of(4) {
        let r = rng.range(0, num_racks as u64 - 1) as u32;
        faults.rack_failures.push((r, 2.0 + 18.0 * rng.unit()));
    }
    if rng.next().is_multiple_of(3) {
        let members: Vec<u32> = (0..num_nodes)
            .filter(|_| rng.next().is_multiple_of(3))
            .collect();
        if !members.is_empty() {
            let start = 1.0 + 10.0 * rng.unit();
            let end = start + 0.5 + 6.0 * rng.unit();
            faults.partitions.push((members, start, end));
        }
    }
    if rng.next().is_multiple_of(3) {
        faults.heartbeat_loss_p = 0.3 * rng.unit();
    }
    if rng.next().is_multiple_of(4) {
        faults.heartbeat_jitter_s = 0.5 * cfg.heartbeat_s * rng.unit();
    }
    cfg.faults = faults;
    (cfg, job)
}

#[test]
fn random_differential_sweep() {
    // ≥16 seeds of random jobs + fault plans; every one must match the
    // reference bit-for-bit, trace included.
    for seed in 0..20u64 {
        let (cfg, job) = random_case(seed);
        check(&cfg, &job, &format!("seed {seed}"));
    }
}

proptest::proptest! {
    /// Property form of the sweep: any seed's random job + fault plan
    /// schedules identically under both implementations.
    #[test]
    fn prop_indexed_matches_reference(seed in 1_000u64..100_000) {
        hetero_cluster::audit::set_enabled(false);
        let (cfg, job) = random_case(seed);
        let a = simulate(&cfg, &job);
        let b = simulate_reference(&cfg, &job);
        assert_stats_identical(&a, &b, &format!("prop seed {seed}"));
    }
}
