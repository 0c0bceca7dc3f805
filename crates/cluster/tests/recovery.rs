//! JobTracker crash-recovery acceptance tests: the master may crash at
//! *any* injected point of a run (≥20 seeds sweeping the whole makespan,
//! on the paper's Fig. 3 and Fig. 4 cluster shapes) and the job must
//! still complete — no lost task, completed maps, failure charges and
//! the blacklist preserved across the outage, deterministic schedules,
//! zero invariant-audit violations, and bit-identical agreement between
//! the indexed scheduler and the scan-based reference.
//!
//! The per-event invariant auditor stays at its default (enabled in
//! debug/test builds), so every one of these runs is also a full
//! cross-check of the incremental scheduler state through crash,
//! deferral, re-registration and the drain of buffered reports, and
//! of the master's logical state being the same at recovery as at the
//! crash.

use hetero_cluster::{
    audit, simulate, simulate_reference, ClusterConfig, FaultPlan, JobSpec, JobStats, Outcome,
    ReduceTaskSpec, Scheduler,
};

const SCHEDULERS: [Scheduler; 3] = [
    Scheduler::CpuOnly,
    Scheduler::GpuFirst,
    Scheduler::TailScheduling,
];

/// Fig. 4 shape: a rack-structured multi-node cluster with reduces.
fn fig4_cluster(s: Scheduler) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(12, s);
    cfg.map_slots_per_node = 4;
    cfg.gpus_per_node = 2;
    cfg
}

fn fig4_job() -> JobSpec {
    let mut job = JobSpec::uniform("fig4-recovery", 480, 12, 3, 4.0, 0.8);
    job.reduces = (0..8)
        .map(|id| ReduceTaskSpec { id, compute_s: 2.0 })
        .collect();
    job
}

/// Every map task must have exactly the completion story of a finished
/// job: at least one successful attempt.
fn assert_no_lost_task(stats: &JobStats, n_maps: u32, ctx: &str) {
    assert!(!stats.aborted, "{ctx}: job aborted");
    for t in 0..n_maps {
        assert!(
            stats
                .tasks
                .iter()
                .any(|r| r.id == t && r.outcome == Outcome::Success),
            "{ctx}: map {t} never completed successfully"
        );
    }
}

/// Key-field bitwise comparison (the full field-by-field comparison
/// lives in `tests/differential.rs`; here the recovery-relevant core).
fn assert_same_run(a: &JobStats, b: &JobStats, ctx: &str) {
    assert_eq!(
        a.makespan_s.to_bits(),
        b.makespan_s.to_bits(),
        "{ctx}: makespan diverged ({} vs {})",
        a.makespan_s,
        b.makespan_s
    );
    assert_eq!(a.tasks.len(), b.tasks.len(), "{ctx}: attempt count");
    assert_eq!(a.re_executed, b.re_executed, "{ctx}: re_executed");
    assert_eq!(a.journal_records, b.journal_records, "{ctx}: journal");
    assert_eq!(
        a.jobtracker_recoveries, b.jobtracker_recoveries,
        "{ctx}: recoveries"
    );
    assert_eq!(a.aborted, b.aborted, "{ctx}: aborted");
}

/// The master crashes at 20+ points spread across the whole job — before
/// the first heartbeat, mid-map-phase, around the tail, during reduces —
/// and every run completes with every map accounted for, on both the
/// Fig. 3 and Fig. 4 shapes, indexed and reference agreeing bitwise.
#[test]
fn jt_crash_recovers_at_any_point() {
    let fig3_job = JobSpec::uniform("fig3-recovery", 19, 1, 1, 6.0, 1.0);
    let fig4_job = fig4_job();
    for s in SCHEDULERS {
        for (cfg0, job, n_maps) in [
            (ClusterConfig::fig3(s), &fig3_job, 19u32),
            (fig4_cluster(s), &fig4_job, 480u32),
        ] {
            let baseline = simulate(&cfg0, job);
            assert!(!baseline.aborted);
            for seed in 0..21u64 {
                let frac = seed as f64 / 20.0;
                let crash_t = (frac * baseline.makespan_s).max(1e-3);
                let mut cfg = cfg0.clone();
                cfg.faults = FaultPlan::seeded(seed).with_jobtracker_crash(crash_t);
                let ctx = format!("{s:?}/{}-maps crash@{crash_t:.3}", n_maps);
                let stats = simulate(&cfg, job);
                assert_no_lost_task(&stats, n_maps, &ctx);
                assert_eq!(stats.jobtracker_crashes_seen, 1, "{ctx}: crash not seen");
                assert_eq!(
                    stats.jobtracker_recoveries.len(),
                    1,
                    "{ctx}: recovery not recorded"
                );
                assert!(
                    stats.makespan_s + 1e-9 >= baseline.makespan_s.min(crash_t),
                    "{ctx}: makespan {} impossibly short",
                    stats.makespan_s
                );
                let ref_stats = simulate_reference(&cfg, job);
                assert_same_run(&stats, &ref_stats, &ctx);
            }
        }
    }
    assert_eq!(audit::violations(), 0, "invariant auditor saw violations");
}

/// Maps finished before the outage are kept by the restarted master:
/// a JT crash alone (no node loss) never re-executes a completed map,
/// and every map still runs exactly one successful attempt.
#[test]
fn completed_maps_survive_recovery() {
    for s in SCHEDULERS {
        let cfg0 = fig4_cluster(s);
        let job = fig4_job();
        let baseline = simulate(&cfg0, &job);
        for frac in [0.3, 0.6, 0.9] {
            let mut cfg = cfg0.clone();
            cfg.faults = FaultPlan::seeded(7).with_jobtracker_crash(frac * baseline.makespan_s);
            let stats = simulate(&cfg, &job);
            let ctx = format!("{s:?} crash@{frac}");
            assert_no_lost_task(&stats, 480, &ctx);
            assert_eq!(stats.re_executed, 0, "{ctx}: a JT crash lost map output");
            let successes = stats
                .tasks
                .iter()
                .filter(|r| r.outcome == Outcome::Success)
                .count();
            assert_eq!(successes, 480, "{ctx}: duplicate winners");
        }
    }
}

/// The same crash plan replayed from the same seed gives a bit-identical
/// schedule — recovery is as deterministic as the rest of the DES.
#[test]
fn recovery_is_deterministic() {
    let mut cfg = fig4_cluster(Scheduler::TailScheduling);
    let job = fig4_job();
    let baseline = simulate(&cfg, &job);
    cfg.faults = FaultPlan::seeded(99)
        .with_jobtracker_crash(0.2 * baseline.makespan_s)
        .with_jobtracker_crash(0.6 * baseline.makespan_s)
        .with_heartbeat_jitter_s(0.05);
    let a = simulate(&cfg, &job);
    let b = simulate(&cfg, &job);
    assert_same_run(&a, &b, "repeat run");
    assert_eq!(a.jobtracker_crashes_seen, 2);
    assert_eq!(a.jobtracker_recoveries.len(), 2);
    assert!(!a.aborted);
}

/// Back-to-back master crashes (including one scheduled inside another
/// outage, which is moot) still leave a completing job.
#[test]
fn repeated_master_crashes_complete() {
    let mut cfg = fig4_cluster(Scheduler::GpuFirst);
    cfg.faults = FaultPlan::seeded(3)
        .with_jobtracker_crash(2.0)
        .with_jobtracker_crash(3.0) // inside the first outage
        .with_jobtracker_crash(12.0)
        .with_jobtracker_crash(30.0);
    let stats = simulate(&cfg, &fig4_job());
    assert_no_lost_task(&stats, 480, "quadruple crash");
    // The 3.0s crash lands while the master is already down: moot.
    assert!(stats.jobtracker_crashes_seen >= 2);
    assert_eq!(
        stats.jobtracker_crashes_seen as usize,
        stats.jobtracker_recoveries.len()
    );
}

/// A master crash overlapping a node crash and a partition window: the
/// kept blacklist and the re-registration protocol must sort out which trackers are
/// really gone (the crashed one) and which only look gone (the
/// partitioned ones, re-admitted after the heal).
#[test]
fn recovery_with_concurrent_node_faults() {
    let mut cfg = fig4_cluster(Scheduler::TailScheduling);
    cfg.faults = FaultPlan::seeded(11)
        .with_node_crash(2, 6.0)
        .with_partition(vec![5, 6], 4.0, 20.0)
        .with_jobtracker_crash(7.0);
    let stats = simulate(&cfg, &fig4_job());
    assert_no_lost_task(&stats, 480, "crash+partition+node-loss");
    assert_eq!(stats.jobtracker_recoveries.len(), 1);
    // The partitioned pair was falsely expired and came back.
    assert!(stats.nodes_readmitted >= 1, "no tracker was re-admitted");
    // The genuinely crashed node never came back.
    assert!(stats.nodes_lost >= 1);
    let ref_stats = simulate_reference(&cfg, &fig4_job());
    assert_same_run(&stats, &ref_stats, "crash+partition+node-loss");
    assert_eq!(audit::violations(), 0);
}

/// Recovery overhead is bounded: a single master outage costs at most
/// the outage itself plus a small reschedule penalty, never a restart
/// from scratch.
#[test]
fn recovery_overhead_is_bounded() {
    let cfg0 = fig4_cluster(Scheduler::GpuFirst);
    let job = fig4_job();
    let baseline = simulate(&cfg0, &job);
    let mut worst = 0.0f64;
    for seed in 0..10u64 {
        let crash_t = (seed as f64 + 0.5) / 10.0 * baseline.makespan_s;
        let mut cfg = cfg0.clone();
        cfg.faults = FaultPlan::seeded(seed).with_jobtracker_crash(crash_t);
        let stats = simulate(&cfg, &job);
        assert!(!stats.aborted);
        worst = worst.max(stats.makespan_s - baseline.makespan_s);
    }
    // Outage = jobtracker_recovery_s; allow generous slack for the lost
    // scheduling beats around it, but a recovery must never look like
    // re-running the job.
    assert!(
        worst < cfg0.jobtracker_recovery_s + 0.5 * baseline.makespan_s,
        "recovery overhead {worst}s vs baseline {}s",
        baseline.makespan_s
    );
}

/// Failure charges survive a master crash: every attempt fails, the
/// master goes down between a task's first and last charged failure,
/// and still no task runs more than `max_attempts` failed attempts
/// before the job aborts.
#[test]
fn failure_charges_survive_recovery() {
    let mut cfg0 = ClusterConfig::small(4, Scheduler::CpuOnly);
    cfg0.max_attempts = 3;
    let job = JobSpec::uniform("charges-recovery", 8, 4, 1, 4.0, 1.0);
    for seed in 0..4u64 {
        let ctx = format!("seed {seed}");
        cfg0.faults = FaultPlan::seeded(seed).with_transient_p(1.0);
        let baseline = simulate(&cfg0, &job);
        assert!(baseline.aborted, "{ctx}: every attempt fails");
        let first_failure = baseline
            .tasks
            .iter()
            .filter_map(|r| r.end_s)
            .fold(f64::INFINITY, f64::min);
        let crash_t = 0.5 * (first_failure + baseline.makespan_s);
        let mut cfg = cfg0.clone();
        cfg.faults = cfg0.faults.clone().with_jobtracker_crash(crash_t);
        let stats = simulate(&cfg, &job);
        assert_eq!(stats.jobtracker_recoveries.len(), 1, "{ctx}: no recovery");
        assert!(stats.aborted, "{ctx}: job did not abort");
        let failed = |t: u32| {
            stats
                .tasks
                .iter()
                .filter(move |r| r.id == t && r.outcome == Outcome::TransientFail)
        };
        assert!(
            (0..8).any(|t| failed(t).any(|r| r.end_s.unwrap() <= crash_t)
                && failed(t).any(|r| r.end_s.unwrap() > crash_t)),
            "{ctx}: the crash at {crash_t} split no task's failures"
        );
        for t in 0..8 {
            let n = failed(t).count();
            assert!(
                n as u32 <= cfg.max_attempts,
                "{ctx}: task {t} failed {n} times, max_attempts {}",
                cfg.max_attempts
            );
        }
        assert_same_run(&stats, &simulate_reference(&cfg, &job), &ctx);
    }
}

/// The blacklist survives a master crash: a tracker declared dead inside
/// a partition window that outlasts the outage is not declared dead a
/// second time, starts no attempt between the recovery and the heal,
/// and is re-admitted once.
#[test]
fn blacklist_survives_recovery() {
    let (node, heal_t, crash_t) = (5u32, 12.0, 7.5);
    let mut cfg = fig4_cluster(Scheduler::TailScheduling);
    cfg.faults = FaultPlan::seeded(5)
        .with_partition(vec![node], 3.0, heal_t)
        .with_jobtracker_crash(crash_t);
    let stats = simulate(&cfg, &fig4_job());
    assert_no_lost_task(&stats, 480, "partition across an outage");
    assert_eq!(
        stats.node_loss_detected.len(),
        1,
        "{:?}",
        stats.node_loss_detected
    );
    let (lost, lost_at) = stats.node_loss_detected[0];
    assert_eq!(lost, node);
    assert!(
        lost_at < crash_t,
        "declared dead at {lost_at}, after the crash"
    );
    let (recovered_at, _) = stats.jobtracker_recoveries[0];
    assert!(
        recovered_at < heal_t,
        "recovered at {recovered_at}, after the heal"
    );
    assert!(
        !stats
            .tasks
            .iter()
            .any(|r| r.node == node && r.start_s >= recovered_at && r.start_s < heal_t),
        "the blacklisted tracker started an attempt before its re-admission"
    );
    assert_eq!(stats.nodes_readmitted, 1);
    assert_same_run(
        &stats,
        &simulate_reference(&cfg, &fig4_job()),
        "partition across an outage",
    );
}
