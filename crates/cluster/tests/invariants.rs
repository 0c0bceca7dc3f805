//! Fault-combination and invariant-audit sweeps.
//!
//! Two jobs: (1) pin the nasty fault *combinations* — GPU fault and
//! straggler on the same node, a node crash during active speculation,
//! corrupt input on a rack that later fails — differentially against the
//! scan-based reference across ≥10 seeds each; (2) prove via proptest
//! that random kill/partition/outage sequences leave the per-event
//! invariant auditor clean (the auditor panics inside `simulate` on the
//! first drifted index, and [`audit::violations`] counts them).

use hetero_cluster::{
    audit, simulate, simulate_reference, ClusterConfig, FaultPlan, JobSpec, JobStats,
    ReduceTaskSpec, Scheduler,
};

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
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

fn cluster(seed: u64) -> (ClusterConfig, JobSpec) {
    let mut rng = Rng(mix64(seed) ^ 0xFA01);
    let n = rng.range(4, 12) as u32;
    let mut cfg = ClusterConfig::small(
        n,
        [
            Scheduler::CpuOnly,
            Scheduler::GpuFirst,
            Scheduler::TailScheduling,
        ][rng.range(0, 2) as usize],
    );
    cfg.nodes_per_rack = rng.range(2, 4) as u32;
    cfg.gpus_per_node = rng.range(0, 2) as u32;
    cfg.speculative = rng.next().is_multiple_of(2);
    let mut job = JobSpec::uniform(
        &format!("inv-{seed}"),
        rng.range(40, 160) as u32,
        n,
        2,
        2.0 + 4.0 * rng.unit(),
        0.5 + 0.5 * rng.unit(),
    );
    job.reduces = (0..rng.range(0, 4) as u32)
        .map(|id| ReduceTaskSpec {
            id,
            compute_s: 1.0 + rng.unit(),
        })
        .collect();
    (cfg, job)
}

fn assert_same_run(a: &JobStats, b: &JobStats, ctx: &str) {
    assert_eq!(
        a.makespan_s.to_bits(),
        b.makespan_s.to_bits(),
        "{ctx}: makespan ({} vs {})",
        a.makespan_s,
        b.makespan_s
    );
    assert_eq!(a.tasks.len(), b.tasks.len(), "{ctx}: attempt count");
    assert_eq!(a.failed_attempts, b.failed_attempts, "{ctx}: failures");
    assert_eq!(a.re_executed, b.re_executed, "{ctx}: re_executed");
    assert_eq!(a.nodes_lost, b.nodes_lost, "{ctx}: nodes_lost");
    assert_eq!(
        a.nodes_readmitted, b.nodes_readmitted,
        "{ctx}: nodes_readmitted"
    );
    assert_eq!(
        a.heartbeats_lost, b.heartbeats_lost,
        "{ctx}: heartbeats_lost"
    );
    assert_eq!(a.journal_records, b.journal_records, "{ctx}: journal");
    assert_eq!(a.aborted, b.aborted, "{ctx}: aborted");
}

fn check_differential(cfg: &ClusterConfig, job: &JobSpec, ctx: &str) {
    let a = simulate(cfg, job);
    let b = simulate_reference(cfg, job);
    assert_same_run(&a, &b, ctx);
}

/// A GPU fault and a straggler factor landing on the same node: the node
/// degrades to slow CPU slots mid-job, speculation may back its work up.
#[test]
fn gpu_fault_and_straggler_same_node() {
    for seed in 0..12u64 {
        let (mut cfg, job) = cluster(seed);
        cfg.gpus_per_node = cfg.gpus_per_node.max(1);
        cfg.speculative = true;
        let victim = seed as u32 % cfg.num_slaves;
        cfg.faults = FaultPlan::seeded(seed)
            .with_gpu_fault(victim, 0, 1.0 + 5.0 * (seed as f64 / 12.0))
            .with_straggler(victim, 2.0 + (seed % 3) as f64);
        check_differential(&cfg, &job, &format!("gpu+straggler seed {seed}"));
    }
    assert_eq!(audit::violations(), 0);
}

/// A node crashes while speculation is actively backing up its tasks:
/// losers, winners, and lost attempts must all reconcile.
#[test]
fn node_crash_during_speculation() {
    for seed in 0..12u64 {
        let (mut cfg, job) = cluster(seed);
        cfg.speculative = true;
        // A hard straggler guarantees backup attempts are in flight when
        // the straggling node then crashes mid-job.
        let victim = (seed as u32 + 1) % cfg.num_slaves;
        cfg.faults = FaultPlan::seeded(seed)
            .with_straggler(victim, 4.0)
            .with_node_crash(victim, 3.0 + 4.0 * (seed as f64 / 12.0));
        check_differential(&cfg, &job, &format!("crash-during-spec seed {seed}"));
    }
    assert_eq!(audit::violations(), 0);
}

/// Corrupt input replicas on tasks homed in a rack that later fails
/// wholesale: checksum retries first, then correlated loss of the rack,
/// re-execution of its finished maps, and rescheduling elsewhere.
#[test]
fn corrupt_input_on_rack_that_later_fails() {
    for seed in 0..12u64 {
        let (mut cfg, mut job) = cluster(seed);
        cfg.nodes_per_rack = 2;
        let num_racks = cfg.num_slaves.div_ceil(cfg.nodes_per_rack);
        let rack = seed as u32 % num_racks;
        // Tasks whose first replica lives in the doomed rack get corrupt
        // first reads.
        let mut faults = FaultPlan::seeded(seed).with_rack_failure(rack, 6.0);
        for m in &job.maps {
            let first = m.replicas[0].0;
            if first < cfg.num_slaves && first / cfg.nodes_per_rack == rack {
                faults = faults.with_corrupt_input(m.id);
            }
        }
        job.reduces = (0..4)
            .map(|id| ReduceTaskSpec { id, compute_s: 1.0 })
            .collect();
        cfg.faults = faults;
        check_differential(&cfg, &job, &format!("corrupt+rack-fail seed {seed}"));
    }
    assert_eq!(audit::violations(), 0);
}

/// Concurrent-job fault storm: a multi-tenant service run where every
/// job carries a JobTracker crash (and some a node crash) in its fault
/// plan. Each admitted job must preserve all of its completed maps —
/// a master crash alone never loses map output (PR 7's guarantee, here
/// exercised under multi-tenant load) — and the per-event invariant
/// auditor must stay clean across every inner run, whichever thread of
/// the pool runs it.
#[test]
fn concurrent_jobs_survive_jobtracker_crash_storm() {
    use hetero_cluster::{
        run_service_traced, AdmissionControl, JobRequest, ParallelRunner, ServiceConfig, TenantSpec,
    };
    use hetero_trace::Tracer;
    let mut cluster = ClusterConfig::small(8, Scheduler::GpuFirst);
    cluster.nodes_per_rack = 4;
    let svc = ServiceConfig {
        cluster,
        tenants: vec![
            TenantSpec::new("batch", 2.0).with_nodes_per_job(4),
            TenantSpec::new("adhoc", 1.0).with_nodes_per_job(2),
        ],
        admission: AdmissionControl::default(),
    };
    let mut rng = Rng(0x17_5708);
    let mut reqs = Vec::new();
    for i in 0..16u32 {
        let tenant = i % 2;
        let grant = if tenant == 0 { 4 } else { 2 };
        let mut faults =
            FaultPlan::seeded(rng.next()).with_jobtracker_crash(0.5 + 1.5 * rng.unit());
        if rng.next().is_multiple_of(3) {
            // A node crash inside the grant, composed with the outage.
            faults = faults.with_node_crash(rng.range(0, grant - 1) as u32, 2.0 + 2.0 * rng.unit());
        }
        let mut job = JobSpec::uniform(&format!("storm-{i}"), 24, grant as u32, 2, 4.0, 1.0);
        job.reduces = (0..(i % 3))
            .map(|id| ReduceTaskSpec { id, compute_s: 1.0 })
            .collect();
        reqs.push(JobRequest {
            tenant,
            arrive_s: (i as f64) * 1.5,
            spec: job,
            faults,
        });
    }
    let before = audit::violations();
    // The inner runs, audited, start on the pool's workers at admission:
    // every width must give the same bits.
    let run = |width: usize| {
        let tracer = Tracer::new();
        let stats = run_service_traced(&svc, &reqs, &tracer, &ParallelRunner::new(width)).unwrap();
        (stats, tracer.to_chrome_json())
    };
    let (stats, json) = run(1);
    for width in [2, 4, 8] {
        let (wide, wide_json) = run(width);
        assert_eq!(stats.fingerprint(), wide.fingerprint(), "width {width}");
        assert_eq!(json, wide_json, "width {width}");
    }
    assert!(stats.rejections.is_empty(), "{:?}", stats.rejections);
    assert_eq!(stats.jobs.len(), 16);
    for j in &stats.jobs {
        assert!(
            j.stats.jobtracker_crashes_seen >= 1,
            "{}: storm did not land",
            j.name
        );
        assert!(!j.stats.aborted, "{}: aborted", j.name);
        assert_eq!(
            j.stats.completed_maps(),
            24,
            "{}: lost completed maps under the master crash",
            j.name
        );
    }
    assert_eq!(audit::violations(), before);
}

proptest::proptest! {
    /// Random kill/partition/outage sequences keep the auditor clean:
    /// `simulate` runs with the per-event invariant audit enabled (test
    /// builds default it on) and any drifted index panics the run.
    #[test]
    fn prop_random_fault_sequences_keep_auditor_clean(seed in 0u64..10_000) {
        let (mut cfg, job) = cluster(seed);
        let mut rng = Rng(mix64(seed) ^ 0xC4A0);
        let mut faults = FaultPlan::seeded(rng.next());
        // Random kill sequence over distinct nodes (never all of them,
        // so the job can finish).
        for n in 0..cfg.num_slaves.saturating_sub(1) {
            if rng.next().is_multiple_of(3) {
                faults = faults.with_node_crash(n, 0.5 + 15.0 * rng.unit());
            }
        }
        // Random partition windows.
        for _ in 0..rng.range(0, 2) {
            let members: Vec<u32> = (0..cfg.num_slaves)
                .filter(|_| rng.next().is_multiple_of(3))
                .collect();
            if !members.is_empty() {
                let start = 0.5 + 8.0 * rng.unit();
                faults = faults.with_partition(members, start, start + 1.0 + 5.0 * rng.unit());
            }
        }
        // Random master outages.
        for _ in 0..rng.range(0, 2) {
            faults = faults.with_jobtracker_crash(0.5 + 20.0 * rng.unit());
        }
        if rng.next().is_multiple_of(2) {
            faults = faults.with_heartbeat_loss_p(0.25 * rng.unit());
        }
        cfg.faults = faults;
        let before = audit::violations();
        let stats = simulate(&cfg, &job);
        // Either the run finished or it aborted for a legitimate reason
        // (every node dead); the audit saw no drift either way.
        let _ = stats;
        proptest::prop_assert_eq!(audit::violations(), before);
    }
}
