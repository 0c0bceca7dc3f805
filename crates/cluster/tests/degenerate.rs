//! Regression tests for degenerate `JobSpec`s and `ClusterConfig`s:
//! shapes that used to (or could plausibly) hit `unwrap()`/division
//! paths or hang the event loop. Every shape must produce well-defined
//! `JobStats` from BOTH simulators, identically.

use hetero_cluster::{
    simulate, simulate_reference, ClusterConfig, JobSpec, ReduceTaskSpec, Scheduler,
};
use hetero_hdfs::NodeId;

const SCHEDULERS: [Scheduler; 3] = [
    Scheduler::CpuOnly,
    Scheduler::GpuFirst,
    Scheduler::TailScheduling,
];

fn reduce_only(n: u32) -> JobSpec {
    JobSpec {
        name: "reduce-only".into(),
        maps: vec![],
        reduces: (0..n)
            .map(|id| ReduceTaskSpec { id, compute_s: 1.0 })
            .collect(),
    }
}

/// Run a shape through both simulators and pin the identity + the
/// completion counts.
fn check(cfg: &ClusterConfig, job: &JobSpec) -> hetero_cluster::JobStats {
    let a = simulate(cfg, job);
    let b = simulate_reference(cfg, job);
    assert_eq!(a.completed_maps(), b.completed_maps(), "{}", job.name);
    assert_eq!(a.completed_reduces(), b.completed_reduces(), "{}", job.name);
    assert_eq!(a.aborted, b.aborted, "{}", job.name);
    assert_eq!(
        a.makespan_s.to_bits(),
        b.makespan_s.to_bits(),
        "{}",
        job.name
    );
    a
}

#[test]
fn empty_job_completes_instantly() {
    for s in SCHEDULERS {
        let cfg = ClusterConfig::small(4, s);
        let st = check(
            &cfg,
            &JobSpec {
                name: "empty".into(),
                maps: vec![],
                reduces: vec![],
            },
        );
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 0);
        assert_eq!(st.completed_reduces(), 0);
        assert_eq!(st.makespan_s, 0.0);
    }
}

#[test]
fn reduce_only_job_completes() {
    for s in SCHEDULERS {
        let cfg = ClusterConfig::small(4, s);
        let st = check(&cfg, &reduce_only(3));
        assert!(!st.aborted);
        assert_eq!(st.completed_reduces(), 3);
    }
}

#[test]
fn maps_with_no_replicas_still_run() {
    // Fewer replicas than tasks expect: rack-remote placement only.
    for s in SCHEDULERS {
        let cfg = ClusterConfig::small(4, s);
        let mut job = JobSpec::uniform("no-replicas", 5, 4, 1, 2.0, 1.0);
        for m in &mut job.maps {
            m.replicas.clear();
        }
        let st = check(&cfg, &job);
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 5);
    }
}

#[test]
fn out_of_range_replicas_are_ignored() {
    // Replica node ids beyond the cluster (maps < replicas in spirit:
    // the replica list names nodes that don't exist).
    for s in SCHEDULERS {
        let cfg = ClusterConfig::small(4, s);
        let mut job = JobSpec::uniform("oob-replicas", 5, 4, 1, 2.0, 1.0);
        for m in &mut job.maps {
            m.replicas = vec![NodeId(99)];
        }
        let st = check(&cfg, &job);
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 5);
    }
}

#[test]
fn zero_duration_tasks_complete() {
    for s in SCHEDULERS {
        let cfg = ClusterConfig::small(4, s);
        let st = check(&cfg, &JobSpec::uniform("zd", 5, 4, 1, 0.0, 0.0));
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 5);
    }
}

#[test]
fn more_replicas_than_nodes() {
    // Replication wider than the cluster: replicas wrap over the few
    // nodes that exist.
    for s in SCHEDULERS {
        let cfg = ClusterConfig::small(2, s);
        let st = check(&cfg, &JobSpec::uniform("wide", 6, 2, 5, 1.0, 0.5));
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 6);
    }
}

#[test]
fn zero_map_capacity_aborts_instead_of_hanging() {
    // map_slots = 0 with CpuOnly (so no GPU slots either) can never run
    // a map: the run must abort up front, not spin on heartbeats.
    let mut cfg = ClusterConfig::small(4, Scheduler::CpuOnly);
    cfg.map_slots_per_node = 0;
    let job = JobSpec::uniform("starved", 3, 4, 1, 1.0, 1.0);
    let st = check(&cfg, &job);
    assert!(st.aborted);
    assert_eq!(st.completed_maps(), 0);

    // Same slots but a GPU-using scheduler: the GPU slot suffices.
    let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
    cfg.map_slots_per_node = 0;
    let st = check(&cfg, &job);
    assert!(!st.aborted);
    assert_eq!(st.completed_maps(), 3);
}

#[test]
fn zero_reduce_capacity_aborts_instead_of_hanging() {
    let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
    cfg.reduce_slots_per_node = 0;
    let mut job = JobSpec::uniform("starved-reduce", 3, 4, 1, 1.0, 1.0);
    job.reduces = (0..2)
        .map(|id| ReduceTaskSpec { id, compute_s: 1.0 })
        .collect();
    let st = check(&cfg, &job);
    assert!(st.aborted);

    // Map-only on the same config is fine (fig3 relies on this).
    let job = JobSpec::uniform("map-only", 3, 4, 1, 1.0, 1.0);
    let st = check(&cfg, &job);
    assert!(!st.aborted);
    assert_eq!(st.completed_maps(), 3);
}

#[test]
#[should_panic(expected = "num_slaves")]
fn zero_slaves_fails_fast_with_descriptive_error() {
    let cfg = ClusterConfig::small(0, Scheduler::GpuFirst);
    simulate(&cfg, &JobSpec::uniform("ghost", 1, 1, 1, 1.0, 1.0));
}

#[test]
#[should_panic(expected = "invalid FaultPlan")]
fn invalid_fault_plan_fails_fast_from_simulate() {
    let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
    cfg.faults = hetero_cluster::FaultPlan::none().with_node_crash(99, 1.0);
    simulate(&cfg, &JobSpec::uniform("f", 1, 4, 1, 1.0, 1.0));
}

#[test]
fn degenerate_shapes_survive_speculation_and_stragglers() {
    let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
    cfg.speculative = true;
    cfg.faults.stragglers = vec![(0, 10.0)];
    let mut job = JobSpec::uniform("spec", 2, 4, 3, 40.0, 30.0);
    job.maps[0].replicas.clear();
    let st = check(&cfg, &job);
    assert!(!st.aborted);
    assert_eq!(st.completed_maps(), 2);
}

/// Durations the clock cannot absorb: an infinite task never completes
/// (the run used to spin on heartbeats forever), a negative one ran the
/// makespan backwards, NaN poisoned it. Each must be refused up front by
/// both entry points, with a message naming the job, task and field.
#[test]
fn non_finite_or_negative_durations_fail_fast_from_both_simulators() {
    type Entry = fn(&ClusterConfig, &JobSpec) -> hetero_cluster::JobStats;
    let entries: [(&str, Entry); 2] = [
        ("simulate", simulate),
        ("simulate_reference", simulate_reference),
    ];
    let cfg = ClusterConfig::small(4, Scheduler::CpuOnly);
    let bad_map = |cpu_s: f64| JobSpec::uniform("bad", 8, 4, 1, cpu_s, 0.5);
    let mut bad_gpu = JobSpec::uniform("bad", 8, 4, 1, 1.0, 0.5);
    bad_gpu.maps[3].gpu_s = f64::NAN;
    let mut bad_reduce = reduce_only(2);
    bad_reduce.reduces[1].compute_s = f64::NEG_INFINITY;
    let cases = [
        (bad_map(f64::INFINITY), "map task 0: cpu_s inf"),
        (bad_map(-5.0), "map task 0: cpu_s -5"),
        (bad_map(f64::NAN), "map task 0: cpu_s NaN"),
        (bad_gpu, "map task 3: gpu_s NaN"),
        (bad_reduce, "reduce task 1: compute_s -inf"),
    ];
    for (job, expect) in &cases {
        assert!(job.validate().is_err(), "{expect}");
        for (name, entry) in entries {
            let panic = std::panic::catch_unwind(|| entry(&cfg, job))
                .expect_err("a bad duration must not produce JobStats");
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "<non-string panic>".into());
            assert!(
                msg.contains(expect) && msg.contains("finite and non-negative"),
                "{name}: {msg}"
            );
        }
    }
    // Zero stays legal (see `zero_duration_tasks_complete`).
    assert!(JobSpec::uniform("zd", 5, 4, 1, 0.0, 0.0).validate().is_ok());
}
