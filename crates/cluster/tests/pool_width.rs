//! The service's inner simulations start at admission on a worker pool
//! and are taken at launch; the pool width must change nothing. Each
//! trace runs at widths 1, 2, 4 and 8 and must give byte-equal
//! `ServiceStats::fingerprint()`s and Chrome-trace JSON. (The
//! JobTracker-crash storm of `tests/invariants.rs` runs the same check
//! with the auditor on.)

use hetero_cluster::{
    generate_workload, run_service_traced, AdmissionControl, ArrivalProcess, ClusterConfig,
    JobRequest, ParallelRunner, Scheduler, ServiceConfig, ServiceStats, TenantSpec, WorkloadConfig,
};
use hetero_trace::Tracer;

/// `bin/service`'s three tenants (3:2:1 weights, grants of 1/10, 1/20
/// and 1/40 of the cluster) on a 40-node cluster.
fn three_tenants(admission: AdmissionControl) -> ServiceConfig {
    let mut cluster = ClusterConfig::small(40, Scheduler::TailScheduling);
    cluster.map_slots_per_node = 4;
    cluster.nodes_per_rack = 8;
    ServiceConfig {
        cluster,
        tenants: vec![
            TenantSpec::new("etl", 3.0).with_nodes_per_job(4),
            TenantSpec::new("analytics", 2.0).with_nodes_per_job(2),
            TenantSpec::new("adhoc", 1.0).with_nodes_per_job(1),
        ],
        admission,
    }
}

fn trace(svc: &ServiceConfig, rate_per_s: f64, num_jobs: u32) -> Vec<JobRequest> {
    let w = WorkloadConfig {
        seed: 27,
        num_jobs,
        arrivals: ArrivalProcess::Poisson { rate_per_s },
        transient_fail_p: 0.02,
    };
    w.validate(svc).unwrap();
    generate_workload(&w, svc)
}

/// Run `reqs` at every width; assert they agree bit for bit and return
/// the width-1 stats.
fn same_at_every_width(svc: &ServiceConfig, reqs: &[JobRequest]) -> ServiceStats {
    let run = |width: usize| {
        let tracer = Tracer::new();
        let stats = run_service_traced(svc, reqs, &tracer, &ParallelRunner::new(width)).unwrap();
        let json = tracer.to_chrome_json();
        (stats, json)
    };
    let (serial, serial_json) = run(1);
    for width in [2, 4, 8] {
        let (stats, json) = run(width);
        assert_eq!(
            serial.fingerprint(),
            stats.fingerprint(),
            "width {width}: stats moved"
        );
        assert_eq!(serial_json, json, "width {width}: trace moved");
    }
    serial
}

#[test]
fn a_trace_past_the_knee_is_width_invariant() {
    let svc = three_tenants(AdmissionControl::default());
    let reqs = trace(&svc, 0.5, 80);
    let stats = same_at_every_width(&svc, &reqs);
    assert_eq!(stats.jobs.len(), 80);
    // Past the knee: most jobs queue, so their runs were prefetched.
    let waited = stats.jobs.iter().filter(|j| j.wait_s() > 0.0).count();
    assert!(waited > 40, "only {waited} of 80 jobs waited");
}

#[test]
fn a_trace_with_both_admission_rejections_is_width_invariant() {
    let svc = three_tenants(AdmissionControl {
        max_queue_per_tenant: 2,
        max_outstanding_tasks: 900,
    });
    let reqs = trace(&svc, 0.5, 80);
    let stats = same_at_every_width(&svc, &reqs);
    let count = |what: &str| {
        stats
            .rejections
            .iter()
            .filter(|r| r.reason.contains(what))
            .count()
    };
    assert!(count("queue full") > 0, "{:?}", stats.rejections);
    assert!(count("outstanding-task") > 0, "{:?}", stats.rejections);
    assert_eq!(stats.jobs.len() + stats.rejections.len(), 80);
}
