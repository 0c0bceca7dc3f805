//! Multi-tenant service determinism and equivalence suite.
//!
//! Pins the three service-level guarantees: (1) a single job submitted
//! through the service is bit-identical to a direct `simulate()` call;
//! (2) a fixed arrival trace replays byte-identically; (3) partitioning
//! a trace across service *shards* changes wait times only — every
//! per-job `JobStats` is unchanged (grants are tenant-static, never
//! load-dependent).

use hetero_cluster::{
    generate_workload, run_service, simulate, AdmissionControl, ArrivalProcess, ClusterConfig,
    FaultPlan, JobRequest, JobSpec, Scheduler, ServiceConfig, TenantSpec, WorkloadConfig,
};
use std::collections::BTreeMap;

fn two_tenant_service(nodes: u32) -> ServiceConfig {
    let mut cluster = ClusterConfig::small(nodes, Scheduler::GpuFirst);
    cluster.nodes_per_rack = 4;
    ServiceConfig {
        cluster,
        tenants: vec![
            TenantSpec::new("batch", 2.0).with_nodes_per_job(4),
            TenantSpec::new("adhoc", 1.0).with_nodes_per_job(2),
        ],
        admission: AdmissionControl::default(),
    }
}

fn workload(svc: &ServiceConfig, seed: u64, n: u32) -> Vec<JobRequest> {
    generate_workload(
        &WorkloadConfig {
            seed,
            num_jobs: n,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 0.3 },
            transient_fail_p: 0.02,
        },
        svc,
    )
}

#[test]
fn single_job_through_service_is_bit_identical_to_simulate() {
    for sched in [
        Scheduler::CpuOnly,
        Scheduler::GpuFirst,
        Scheduler::TailScheduling,
    ] {
        let cluster = ClusterConfig::small(6, sched);
        let job = JobSpec::uniform("solo", 24, 6, 3, 4.0, 0.8);
        let direct = simulate(&cluster, &job);
        let svc = ServiceConfig::single_tenant(cluster);
        let stats = run_service(
            &svc,
            &[JobRequest {
                tenant: 0,
                arrive_s: 0.0,
                spec: job,
                faults: FaultPlan::none(),
            }],
        )
        .unwrap();
        assert_eq!(stats.jobs.len(), 1);
        assert_eq!(
            direct.fingerprint(),
            stats.jobs[0].stats.fingerprint(),
            "{sched:?}"
        );
    }
}

#[test]
fn fixed_arrival_trace_replays_identically() {
    let svc = two_tenant_service(8);
    let jobs = workload(&svc, 97, 60);
    let a = run_service(&svc, &jobs).unwrap();
    let b = run_service(&svc, &jobs).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(!a.jobs.is_empty());
}

/// Partition the arrival trace across two shards (independent service
/// instances over identically-sized clusters). Start/finish times shift
/// with the different contention, but each job's inner `JobStats` must
/// be bit-identical to the unsharded run.
#[test]
fn per_job_stats_are_shard_invariant() {
    let svc = two_tenant_service(8);
    let jobs = workload(&svc, 1234, 50);

    let full = run_service(&svc, &jobs).unwrap();

    let shard_a: Vec<JobRequest> = jobs.iter().step_by(2).cloned().collect();
    let shard_b: Vec<JobRequest> = jobs.iter().skip(1).step_by(2).cloned().collect();
    let ra = run_service(&svc, &shard_a).unwrap();
    let rb = run_service(&svc, &shard_b).unwrap();

    let mut sharded: BTreeMap<String, String> = BTreeMap::new();
    for j in ra.jobs.iter().chain(rb.jobs.iter()) {
        sharded.insert(j.name.clone(), j.stats.fingerprint());
    }
    assert_eq!(full.jobs.len(), sharded.len());
    for j in &full.jobs {
        assert_eq!(
            Some(&j.stats.fingerprint()),
            sharded.get(&j.name),
            "job {} diverged between full and sharded runs",
            j.name
        );
    }
}

/// Concurrency changes waiting, never the work: under heavy contention
/// every job's latency decomposes exactly into wait + inner makespan.
#[test]
fn latency_decomposes_into_wait_plus_run() {
    let svc = two_tenant_service(8);
    let jobs = workload(&svc, 5, 40);
    let stats = run_service(&svc, &jobs).unwrap();
    for j in &stats.jobs {
        assert!(j.wait_s() >= 0.0, "{}: negative wait", j.name);
        let lat = j.wait_s() + j.stats.makespan_s;
        assert!(
            (j.latency_s() - lat).abs() < 1e-9,
            "{}: latency {} != wait {} + makespan {}",
            j.name,
            j.latency_s(),
            j.wait_s(),
            j.stats.makespan_s
        );
    }
    // The cluster saturates under this load: utilization is meaningful.
    assert!(stats.mean_utilization > 0.2);
    assert!(stats.mean_utilization <= 1.0 + 1e-12);
}

/// Per-job fault plans ride through the service: jobs with invalid
/// plans are rejected (with the FaultPlan error text), valid plans
/// inject deterministically.
#[test]
fn per_job_faults_validate_and_inject() {
    let svc = two_tenant_service(8);
    let mk = |name: &str, faults: FaultPlan| JobRequest {
        tenant: 0,
        arrive_s: 0.0,
        spec: JobSpec::uniform(name, 16, 4, 2, 3.0, 0.6),
        faults,
    };
    let reqs = vec![
        mk("clean", FaultPlan::none()),
        // Node 3 exists inside the 4-node grant; node 7 does not.
        mk("crashy", FaultPlan::seeded(9).with_node_crash(3, 2.0)),
        mk("invalid", FaultPlan::none().with_node_crash(7, 1.0)),
    ];
    let stats = run_service(&svc, &reqs).unwrap();
    assert_eq!(stats.jobs.len(), 2);
    assert_eq!(stats.rejections.len(), 1);
    assert_eq!(stats.rejections[0].name, "invalid");
    assert!(
        stats.rejections[0].reason.contains("out of range"),
        "{}",
        stats.rejections[0].reason
    );
    let crashy = stats.jobs.iter().find(|j| j.name == "crashy").unwrap();
    assert_eq!(crashy.stats.nodes_lost, 1);
    assert_eq!(crashy.stats.completed_maps(), 16);
}

#[test]
fn bad_job_durations_are_rejected_and_the_run_continues() {
    // The single-job path panics on these (tests/degenerate.rs); through
    // the service they must cost one job, not the run — an infinite
    // duration used to hang the whole service inside `simulate`.
    let svc = two_tenant_service(8);
    let mk = |name: &str, cpu_s: f64| JobRequest {
        tenant: 0,
        arrive_s: 0.0,
        spec: JobSpec::uniform(name, 16, 4, 2, cpu_s, 0.6),
        faults: FaultPlan::none(),
    };
    let reqs = vec![
        mk("endless", f64::INFINITY),
        mk("fine", 3.0),
        mk("backwards", -5.0),
        mk("poisoned", f64::NAN),
    ];
    let stats = run_service(&svc, &reqs).unwrap();
    assert_eq!(stats.jobs.len(), 1);
    assert_eq!(stats.jobs[0].name, "fine");
    assert_eq!(stats.jobs[0].stats.completed_maps(), 16);
    let rejected: Vec<&str> = stats.rejections.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(rejected, ["endless", "backwards", "poisoned"]);
    for r in &stats.rejections {
        assert!(
            r.reason.contains("cpu_s") && r.reason.contains("finite and non-negative"),
            "{}",
            r.reason
        );
    }
}

#[test]
fn a_cluster_whose_jobtracker_never_recovers_is_refused_up_front() {
    // The shared cluster config is validated before any job is admitted:
    // a master that stays down forever used to hang the first job whose
    // plan crashed it (and with it the whole service).
    let mut svc = two_tenant_service(8);
    svc.cluster.jobtracker_recovery_s = f64::INFINITY;
    let reqs = vec![JobRequest {
        tenant: 0,
        arrive_s: 0.0,
        spec: JobSpec::uniform("crashes-the-master", 16, 4, 2, 3.0, 0.6),
        faults: FaultPlan::none().with_jobtracker_crash(0.5),
    }];
    let err = run_service(&svc, &reqs).expect_err("the run must be refused");
    assert!(err.0.contains("jobtracker_recovery_s"), "{err}");
}
