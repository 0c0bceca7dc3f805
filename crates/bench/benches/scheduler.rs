//! Criterion benchmarks of the discrete-event cluster simulator under
//! the three schedulers (Fig. 3 / Fig. 4 machinery), plus a 1 000-node
//! case that exercises the indexed scheduler structures, and the retained
//! scan-based reference as the before/after baseline. (Whole-DES
//! throughput at scale is the `e2e` ledger's `des_tail_8k`.)
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetero_cluster::{simulate, simulate_reference, ClusterConfig, JobSpec, Scheduler};

const SCHEDULERS: [Scheduler; 3] = [
    Scheduler::CpuOnly,
    Scheduler::GpuFirst,
    Scheduler::TailScheduling,
];

/// Paper-scale cluster: 48 nodes, 20 map slots, 100 tasks per node.
fn paper_case(s: Scheduler) -> (ClusterConfig, JobSpec) {
    let mut cfg = ClusterConfig::small(48, s);
    cfg.map_slots_per_node = 20;
    let job = JobSpec::uniform("bench", 4800, 48, 3, 40.0, 4.0);
    (cfg, job)
}

/// Large cluster: `nodes` nodes at 100 map tasks per node (the scale
/// sweep's shape, see `--bin scale`).
fn large_case(nodes: u32, s: Scheduler) -> (ClusterConfig, JobSpec) {
    let mut cfg = ClusterConfig::small(nodes, s);
    cfg.map_slots_per_node = 4;
    cfg.nodes_per_rack = 16;
    cfg.heartbeat_s = 1.0;
    let job = JobSpec::uniform("bench-large", nodes * 100, nodes, 3, 8.0, 1.0);
    (cfg, job)
}

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    for s in SCHEDULERS {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{s:?}")),
            &paper_case(s),
            |b, (cfg, job)| b.iter(|| simulate(cfg, job)),
        );
    }
    g.finish();
}

/// The scan-based reference on the same workloads — the pre-index
/// baseline, kept on the measured path so `BENCH_scheduler.json` records
/// the indexed-vs-scan throughput delta from this PR onward.
fn bench_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_ref");
    for s in SCHEDULERS {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{s:?}")),
            &paper_case(s),
            |b, (cfg, job)| b.iter(|| simulate_reference(cfg, job)),
        );
    }
    g.finish();
}

fn bench_large_clusters(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_1k");
    g.sample_size(3);
    g.bench_with_input(
        BenchmarkId::from_parameter("TailScheduling"),
        &large_case(1_000, Scheduler::TailScheduling),
        |b, (cfg, job)| b.iter(|| simulate(cfg, job)),
    );
    // The scan-based baseline at 1k nodes: the number that motivated the
    // indexes (quadratic in cluster size, so one iteration is plenty).
    g.sample_size(1);
    g.bench_with_input(
        BenchmarkId::from_parameter("TailScheduling-reference"),
        &large_case(1_000, Scheduler::TailScheduling),
        |b, (cfg, job)| b.iter(|| simulate_reference(cfg, job)),
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_reference,
    bench_large_clusters
);
criterion_main!(benches);
