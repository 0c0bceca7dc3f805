//! Criterion wall-clock benchmarks of the simulator's hot kernels: the
//! scan primitive and the two kernel-execution backends (tree-walking
//! interpreter vs the register-bytecode native backend) on the same
//! annotated C mappers. (The map-kernel driver is timed end to end by the
//! `e2e` ledger's `wc_rust_gpu`.)
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetero_cc::backend::{make_backend, make_backend_with_facts, BackendKind, ElisionMode};
use hetero_cc::interp::StreamIo;
use hetero_gpusim::{Device, GpuSpec};
use hetero_runtime::scan::exclusive_scan;

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan");
    for &n in &[1024usize, 65536] {
        let data: Vec<u32> = (0..n as u32).map(|i| i % 17).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            let dev = Device::new(GpuSpec::tesla_k40());
            b.iter(|| exclusive_scan(&dev, data).unwrap())
        });
    }
    g.finish();
}

/// One annotated C mapper over its generated records, once per backend.
/// Both backends must charge the same stats; the checksum keeps the
/// work honest (and un-optimized-away).
fn bench_mapper_backends(c: &mut Criterion, group: &str, code: &str, records: usize) {
    let app = hetero_apps::app_by_code(code).unwrap();
    let prog = hetero_cc::compile(app.mapper_source()).unwrap().program;
    let split = app.generate_split(records, 7);
    let lines: Vec<Vec<u8>> = split
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| l.to_vec())
        .collect();
    let mut g = c.benchmark_group(group);
    for kind in [BackendKind::Interp, BackendKind::Native] {
        let backend = make_backend(kind, &prog);
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &lines,
            |b, lines| {
                b.iter(|| {
                    let mut ops = 0u64;
                    for l in lines {
                        let mut io = StreamIo::lines(vec![l.clone()]);
                        ops += backend.run(&mut io).unwrap().ops;
                    }
                    ops
                })
            },
        );
    }
    g.finish();
}

/// The wordcount mapper over a 400-line text corpus — bounded by the
/// builtins (`getWord`, `printf`), 165 nodes a record: the number
/// behind BENCH_kernels.json's `interp_vs_native` entry.
fn bench_kernel_backend(c: &mut Criterion) {
    bench_mapper_backends(c, "kernel_backend", "WC", 400);
}

/// The BlackScholes mapper over 50 options — compute-bound, 12k nodes
/// a record, so the ratio is the engines' dispatch cost: the number
/// behind `interp_vs_native_bs`.
fn bench_kernel_backend_bs(c: &mut Criterion) {
    bench_mapper_backends(c, "kernel_backend_bs", "BS", 50);
}

/// Host-guard elision on the native backend: the same subscript- and
/// division-heavy kernel with every bounds/zero guard kept (`unelided`,
/// `HETERO_ELIDE=checked`: the guards run, and a proven one that fired
/// would panic) versus guards at analysis-proven sites removed
/// (`elided`, the default). The delta is the pure host-side cost of
/// checks the abstract interpreter can discharge statically — the
/// number behind BENCH_kernels.json's `check_elision` speedup entry.
/// Simulated cycles are identical in both rows by construction (guards
/// charge nothing to `InterpStats`); only wall-clock moves.
fn bench_check_elision(c: &mut Criterion) {
    let src = r#"
int main() {
  int a[16]; int i; int r; int s; s = 0;
  for (i = 0; i < 16; i++) a[i] = i + 1;
  for (r = 0; r < 500; r++) {
    s = s + a[0] + a[1] + a[2] + a[3] + a[4] + a[5] + a[6] + a[7];
    s = s + a[8] + a[9] + a[10] + a[11] + a[12] + a[13] + a[14] + a[15];
    s = s + a[r & 15] / ((r & 3) + 1) + a[15 - (r & 15)] % ((r & 7) + 2);
  }
  printf("s\t%d\n", s);
  return 0;
}
"#;
    let prog = hetero_cc::parse::parse(src).unwrap();
    let facts = hetero_cc::sema::analyze(&prog).unwrap().safety;
    let mut g = c.benchmark_group("check_elision");
    // The per-guard saving is nanoseconds against a millisecond kernel;
    // more samples than the stub default keep the delta above run-to-run
    // noise.
    g.sample_size(60);
    for (name, mode) in [
        ("unelided", ElisionMode::Checked),
        ("elided", ElisionMode::On),
    ] {
        let backend = make_backend_with_facts(BackendKind::Native, &prog, &facts, mode);
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut io = StreamIo::lines(vec![]);
                backend.run(&mut io).unwrap().ops
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scan,
    bench_kernel_backend,
    bench_kernel_backend_bs,
    bench_check_elision
);
criterion_main!(benches);
