//! Multi-tenant service load sweep: offered load vs latency on a
//! 1000-node cluster, driven through the knee of the latency-vs-load
//! curve (EXPERIMENTS.md "Latency vs load").
//!
//! The sweep calibrates the cluster's job-throughput capacity from the
//! workload's own shapes (mean node-seconds per job), then replays a
//! seeded Poisson arrival trace at fixed fractions of that capacity.
//! Each point reports completed/rejected jobs, per-tenant p50/p99
//! wait and latency, and mean node-grant utilization.
//!
//! `service.json` contains **simulated quantities only** (no
//! wall-clock), so a fixed seed reproduces it byte-for-byte. Wall time
//! goes to stdout and, in `--smoke` mode, gates a wall-clock budget.
//!
//! Modes:
//!
//! * default — 8 load points × 200 jobs, 1000 nodes (< 60 s wall),
//!   written to `results/`;
//! * `--quick` — 5 points × 120 jobs, written to `target/results/` (CI's
//!   bench job);
//! * `--smoke` — 1 point × 60 jobs under a wall-clock budget (default
//!   30 s, `--budget-s N`); exits non-zero on overrun. Writes nothing.
use hetero_bench::{write_artifact, Args};
use hetero_cluster::{
    generate_workload, run_service_traced, simulate, AdmissionControl, ArrivalProcess,
    ClusterConfig, JobRequest, ParallelRunner, Scheduler, ServiceConfig, ServiceStats, TenantSpec,
    WorkloadConfig,
};
use hetero_trace::json::Json;
use hetero_trace::Tracer;
use std::time::Instant;

const SEED: u64 = 0xD00B;

/// The shared 1000-node cluster (scale.rs's shape) and its tenants:
/// a heavy ETL tenant, a medium analytics tenant, and a light ad-hoc
/// tenant, with 3:2:1 fair-share weights and sliced grants.
fn service_config(nodes: u32) -> ServiceConfig {
    let mut cluster = ClusterConfig::small(nodes, Scheduler::TailScheduling);
    cluster.map_slots_per_node = 4;
    cluster.nodes_per_rack = 16;
    cluster.heartbeat_s = 1.0;
    cluster.heartbeat_timeout_s = 10.0;
    let slice = |frac: u32| (nodes / frac).max(1);
    ServiceConfig {
        cluster,
        tenants: vec![
            TenantSpec::new("etl", 3.0).with_nodes_per_job(slice(10)),
            TenantSpec::new("analytics", 2.0).with_nodes_per_job(slice(20)),
            TenantSpec::new("adhoc", 1.0).with_nodes_per_job(slice(50)),
        ],
        admission: AdmissionControl::default(),
    }
}

fn workload(svc: &ServiceConfig, rate_per_s: f64, num_jobs: u32) -> Vec<JobRequest> {
    let w = WorkloadConfig {
        seed: SEED,
        num_jobs,
        arrivals: ArrivalProcess::Poisson { rate_per_s },
        transient_fail_p: 0.01,
    };
    w.validate(svc).expect("valid workload config");
    generate_workload(&w, svc)
}

/// Capacity calibration: mean node-seconds per job over a sample of the
/// workload's own shapes, run contention-free on their grants. The
/// cluster's saturation throughput is `nodes / mean_node_seconds`. The
/// sample runs on `pool` and is summed in submission order, so the
/// capacity's bits do not depend on the width.
fn capacity_jobs_per_s(svc: &ServiceConfig, sample: u32, pool: &ParallelRunner) -> f64 {
    let jobs = workload(svc, 1.0, sample);
    let node_s: f64 = pool
        .run(
            jobs.iter()
                .map(|r| {
                    move || {
                        let grant = svc.grant_nodes(&svc.tenants[r.tenant as usize]);
                        let mut cfg = svc.cluster.clone();
                        cfg.num_slaves = grant;
                        cfg.faults = r.faults.clone();
                        grant as f64 * simulate(&cfg, &r.spec).makespan_s
                    }
                })
                .collect(),
        )
        .into_iter()
        .sum();
    svc.cluster.num_slaves as f64 / (node_s / jobs.len() as f64)
}

struct Point {
    load_factor: f64,
    rate_per_s: f64,
    stats: ServiceStats,
    wall_s: f64,
}

fn run_point(
    svc: &ServiceConfig,
    load_factor: f64,
    capacity: f64,
    num_jobs: u32,
    pool: &ParallelRunner,
) -> Point {
    let rate = capacity * load_factor;
    let jobs = workload(svc, rate, num_jobs);
    let start = Instant::now();
    let stats = run_service_traced(svc, &jobs, &Tracer::off(), pool).expect("valid service config");
    Point {
        load_factor,
        rate_per_s: rate,
        stats,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Overall p99 latency of a point (all tenants pooled, nearest-rank).
fn p99_latency(stats: &ServiceStats) -> f64 {
    let mut lats: Vec<f64> = stats.jobs.iter().map(|j| j.latency_s()).collect();
    lats.sort_by(f64::total_cmp);
    if lats.is_empty() {
        return 0.0;
    }
    let rank = (0.99 * lats.len() as f64).ceil() as usize;
    lats[rank.clamp(1, lats.len()) - 1]
}

/// The saturation knee: the first sweep point whose pooled p99 latency
/// exceeds 3× the lightest point's (queueing delay has taken over), or
/// the last point when the sweep never gets there.
fn knee_index(points: &[Point]) -> usize {
    let base = p99_latency(&points[0].stats).max(1e-9);
    points
        .iter()
        .position(|p| p99_latency(&p.stats) > 3.0 * base)
        .unwrap_or(points.len() - 1)
}

fn point_json(p: &Point) -> Json {
    Json::obj()
        .with("load_factor", p.load_factor)
        .with("offered_jobs_per_s", p.rate_per_s)
        .with("completed", p.stats.jobs.len())
        .with("rejected", p.stats.rejections.len())
        .with("p99_latency_s", p99_latency(&p.stats))
        .with("mean_utilization", p.stats.mean_utilization)
        .with("makespan_s", p.stats.makespan_s)
        .with(
            "tenants",
            Json::arr(p.stats.tenants.iter().map(|t| {
                Json::obj()
                    .with("name", t.name.as_str())
                    .with("completed", t.completed)
                    .with("rejected", t.rejected)
                    .with("p50_wait_s", t.p50_wait_s)
                    .with("p99_wait_s", t.p99_wait_s)
                    .with("p50_latency_s", t.p50_latency_s)
                    .with("p99_latency_s", t.p99_latency_s)
                    .with("mean_latency_s", t.mean_latency_s)
            })),
        )
}

fn main() {
    let args = Args::from_env(&["--smoke", "--quick", "--budget-s="]);
    let pool = args.pool();
    if args.flag("--smoke") {
        let budget_s: f64 = args.flag_value("--budget-s").unwrap_or(30.0);
        let svc = service_config(1_000);
        let start = Instant::now();
        let capacity = capacity_jobs_per_s(&svc, 8, &pool);
        let p = run_point(&svc, 1.0, capacity, 60, &pool);
        let wall_s = start.elapsed().as_secs_f64();
        println!(
            "service smoke: 60 jobs at capacity ({:.3} jobs/s) on 1000 nodes in {wall_s:.2}s \
             wall (budget {budget_s}s): {} completed, p99 latency {:.1}s, util {:.2}",
            capacity,
            p.stats.jobs.len(),
            p99_latency(&p.stats),
            p.stats.mean_utilization
        );
        assert!(
            !p.stats.jobs.is_empty(),
            "service smoke completed zero jobs"
        );
        if wall_s > budget_s {
            eprintln!(
                "service smoke FAILED: {wall_s:.2}s wall exceeds the {budget_s}s budget — \
                 the service or scheduler hot path has regressed"
            );
            std::process::exit(1);
        }
        return;
    }

    let quick = args.flag("--quick");
    let (factors, jobs_per_point): (&[f64], u32) = if quick {
        (&[0.4, 0.8, 1.2, 1.6, 2.0], 120)
    } else {
        (&[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0], 200)
    };

    let svc = service_config(1_000);
    let t0 = Instant::now();
    let capacity = capacity_jobs_per_s(&svc, 24, &pool);
    println!(
        "service load sweep — 1000 nodes, 3 tenants (etl/analytics/adhoc 3:2:1), \
         calibrated capacity {capacity:.3} jobs/s"
    );
    println!(
        "{:>6} {:>12} {:>10} {:>9} {:>14} {:>10} {:>9}",
        "load", "jobs/s", "completed", "rejected", "p99 latency s", "util", "wall s"
    );
    let mut points = Vec::new();
    for &f in factors {
        let p = run_point(&svc, f, capacity, jobs_per_point, &pool);
        println!(
            "{:>6.2} {:>12.3} {:>10} {:>9} {:>14.1} {:>10.3} {:>9.2}",
            p.load_factor,
            p.rate_per_s,
            p.stats.jobs.len(),
            p.stats.rejections.len(),
            p99_latency(&p.stats),
            p.stats.mean_utilization,
            p.wall_s
        );
        points.push(p);
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let knee = knee_index(&points);
    println!(
        "\nsaturation knee at load factor {:.2} ({:.3} jobs/s): p99 latency {:.1}s, \
         utilization {:.3}",
        points[knee].load_factor,
        points[knee].rate_per_s,
        p99_latency(&points[knee].stats),
        points[knee].stats.mean_utilization
    );
    println!("total wall: {wall_s:.1}s");

    // Simulated quantities only — byte-identical across runs.
    let json = Json::obj()
        .with("experiment", "service")
        .with("nodes", 1_000u64)
        .with("jobs_per_point", jobs_per_point as u64)
        .with("seed", SEED)
        .with("capacity_jobs_per_s", capacity)
        .with("sweep", Json::arr(points.iter().map(point_json)))
        .with(
            "knee",
            Json::obj()
                .with("load_factor", points[knee].load_factor)
                .with("offered_jobs_per_s", points[knee].rate_per_s)
                .with("p99_latency_s", p99_latency(&points[knee].stats))
                .with("mean_utilization", points[knee].stats.mean_utilization),
        );
    write_artifact("service.json", !quick, &json);
}
