//! Backend-matrix differential test: every benchmark's annotated C
//! sources, run as a *whole functional job* (HDFS splits → map/combine
//! on CPU and simulated GPU → shuffle → reduce), must produce the same
//! bits under the tree-walking interpreter and the register-bytecode
//! native backend, at any worker-pool width.
//!
//! "Same bits" is strict:
//!   * byte-identical final output (every partition, every KV pair),
//!   * `task_seconds` equal by `to_bits()` — the backends charge
//!     identical `InterpStats`, so every simulated duration downstream
//!     of the cost models is bit-identical, not merely close,
//!   * identical Chrome-trace JSON (same spans, same timestamps, same
//!     kernel launches and PCIe transfers).
//!
//! The interpreter at width 1 is the reference; production's engine is
//! one of the four configurations, named like the others.

use hetero_cc::backend::BackendKind;
use hetero_gpusim::Device;
use hetero_trace::Tracer;
use heterodoop::{run_functional_job_pooled, CompiledApp, OptFlags, ParallelRunner, Preset};

/// (per-partition output, task_seconds, Chrome-trace JSON) of one run.
type RunBits = (Vec<Vec<(Vec<u8>, Vec<u8>)>>, f64, String);

/// One full functional run of `code` on the given backend and pool
/// width. GPU placement every other task exercises both device paths.
fn run(code: &str, kind: BackendKind, threads: usize) -> RunBits {
    let base = hetero_apps::app_by_code(code).unwrap();
    let input = base.generate_split(400, 42);
    let app = CompiledApp::with_backend(base, kind).unwrap();
    let preset = Preset::cluster1();
    let dev = Device::new(preset.gpu.clone());
    let tracer = Tracer::new();
    let job = run_functional_job_pooled(
        &app,
        &preset,
        &input,
        2,
        OptFlags::all(),
        &dev,
        &tracer,
        &ParallelRunner::new(threads),
    )
    .unwrap();
    (job.output, job.task_seconds, tracer.to_chrome_json())
}

#[test]
fn all_benchmarks_are_bit_identical_across_backends_and_pools() {
    for code in hetero_apps::CODES {
        let (out_ref, secs_ref, trace_ref) = run(code, BackendKind::Interp, 1);
        let pairs: usize = out_ref.iter().map(|p| p.len()).sum();
        assert!(pairs > 0, "{code}: compiled job produced no output");
        for (kind, threads) in [
            (BackendKind::Interp, 4),
            (BackendKind::Native, 1),
            (BackendKind::Native, 4),
        ] {
            let (out, secs, trace) = run(code, kind, threads);
            let on = format!("{} x{threads}", kind.name());
            assert_eq!(out_ref, out, "{code}: output diverged on {on} vs interp x1");
            assert_eq!(
                secs_ref.to_bits(),
                secs.to_bits(),
                "{code}: task_seconds diverged on {on}: {secs_ref} vs {secs}"
            );
            assert_eq!(trace_ref, trace, "{code}: trace JSON diverged on {on}");
        }
    }
}
