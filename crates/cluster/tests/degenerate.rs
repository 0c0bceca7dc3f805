//! Regression tests for degenerate `JobSpec`s and `ClusterConfig`s:
//! shapes that used to (or could plausibly) hit `unwrap()`/division
//! paths or hang the event loop. Every shape must produce well-defined
//! `JobStats` from BOTH simulators, identically. Degenerate
//! `WorkloadConfig`s must be named by `validate` and must neither hang
//! nor panic the workload generator.

use hetero_cluster::{
    generate_workload, run_service, simulate, simulate_reference, ArrivalProcess, ClusterConfig,
    JobRequest, JobSpec, ReduceTaskSpec, Scheduler, ServiceConfig, WorkloadConfig,
};
use hetero_hdfs::NodeId;
use std::sync::mpsc;
use std::time::Duration;

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

/// Run `f` on its own thread; fail if it has not returned within `secs`
/// — a generator that hangs must fail its test, not stall the suite.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(out) => out,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("no result within {secs} s"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the body panicked"),
    }
}

fn poisson(rate_per_s: f64, transient_fail_p: f64) -> WorkloadConfig {
    WorkloadConfig {
        seed: 5,
        num_jobs: 8,
        arrivals: ArrivalProcess::Poisson { rate_per_s },
        transient_fail_p,
    }
}

fn one_tenant() -> ServiceConfig {
    ServiceConfig::single_tenant(ClusterConfig::small(4, Scheduler::GpuFirst))
}

/// `validate` names `field`; the generator returns under a watchdog; and
/// `run_service` refuses the trace it returned, which is handed back.
fn degenerate_workload_is_refused(
    w: WorkloadConfig,
    svc: ServiceConfig,
    field: &str,
) -> Vec<JobRequest> {
    let err = w.validate(&svc).expect_err(field);
    assert!(err.0.contains(field), "{field}: {err}");
    let gen_svc = svc.clone();
    let jobs = within(3, move || generate_workload(&w, &gen_svc));
    let err = run_service(&svc, &jobs).expect_err("the trace must be refused");
    assert!(
        err.0.contains("arrive_s") || err.0.contains("tenant"),
        "{field}: {err}"
    );
    jobs
}

#[test]
fn a_service_without_tenants_gets_an_empty_trace() {
    let mut svc = one_tenant();
    svc.tenants.clear();
    let jobs = degenerate_workload_is_refused(poisson(1.0, 0.0), svc, "tenant");
    assert!(jobs.is_empty());
}

#[test]
fn workload_validate_names_each_bad_field() {
    let svc = one_tenant();
    let cases = [
        (poisson(0.0, 0.0), "rate_per_s"),
        (poisson(f64::INFINITY, 0.0), "rate_per_s"),
        (poisson(1.0, 1.5), "transient_fail_p"),
        (poisson(1.0, f64::NAN), "transient_fail_p"),
    ];
    for (w, field) in &cases {
        let err = w.validate(&svc).expect_err(field);
        assert!(err.0.contains(field), "{field}: {err}");
    }
    assert!(poisson(0.5, 0.01).validate(&svc).is_ok());
}
