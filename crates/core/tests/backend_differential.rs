//! Backend-matrix differential test: every benchmark's annotated C
//! sources, run as a *whole functional job* (HDFS splits → map/combine
//! on CPU and simulated GPU → shuffle → reduce), must produce the same
//! bits under the tree-walking interpreter and the register-bytecode
//! native backend — at any worker-pool width, and under every
//! guard-elision mode of the native backend.
//!
//! "Same bits" is strict:
//!   * byte-identical final output (every partition, every KV pair),
//!   * `task_seconds` equal by `to_bits()` — the backends charge
//!     identical `InterpStats`, so every simulated duration downstream
//!     of the cost models is bit-identical, not merely close,
//!   * identical Chrome-trace JSON (same spans, same timestamps, same
//!     kernel launches and PCIe transfers).
//!
//! The elision dimension pins the zero-perturbation contract: guards
//! proven safe by the value analysis charge nothing to `InterpStats`,
//! so eliding them (On) or keeping and panic-checking them (Checked —
//! the soundness oracle) must be invisible in every bit of job output.
//! The interpreter, which has no elision, is the reference; production's
//! configuration (native, On) is one of the six, named like the others.

use hetero_cc::backend::{BackendKind, ElisionMode};
use hetero_gpusim::Device;
use hetero_trace::Tracer;
use heterodoop::{run_functional_job_pooled, CompiledApp, OptFlags, ParallelRunner, Preset};

/// (per-partition output, task_seconds, Chrome-trace JSON) of one run.
type RunBits = (Vec<Vec<(Vec<u8>, Vec<u8>)>>, f64, String);

/// One full functional run of `code` on the given backend, elision
/// mode, and pool width. GPU placement every other task exercises both
/// device paths.
fn run(code: &str, kind: BackendKind, mode: ElisionMode, threads: usize) -> RunBits {
    let base = hetero_apps::app_by_code(code).unwrap();
    let input = base.generate_split(400, 42);
    let app = CompiledApp::with_backend_mode(base, kind, mode).unwrap();
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
fn all_benchmarks_are_bit_identical_across_backends_pools_and_elision() {
    for code in hetero_apps::CODES {
        let (out_ref, secs_ref, trace_ref) = run(code, BackendKind::Interp, ElisionMode::On, 1);
        let pairs: usize = out_ref.iter().map(|p| p.len()).sum();
        assert!(pairs > 0, "{code}: compiled job produced no output");
        for (kind, mode, threads) in [
            (BackendKind::Interp, ElisionMode::On, 4),
            (BackendKind::Native, ElisionMode::On, 1),
            (BackendKind::Native, ElisionMode::On, 4),
            (BackendKind::Native, ElisionMode::Checked, 1),
            (BackendKind::Native, ElisionMode::Checked, 4),
        ] {
            let (out, secs, trace) = run(code, kind, mode, threads);
            assert_eq!(
                out_ref,
                out,
                "{code}: output diverged on {} elide={} x{threads} vs interp x1",
                kind.name(),
                mode.name()
            );
            assert_eq!(
                secs_ref.to_bits(),
                secs.to_bits(),
                "{code}: task_seconds diverged on {} elide={} x{threads}: {secs_ref} vs {secs}",
                kind.name(),
                mode.name()
            );
            assert_eq!(
                trace_ref,
                trace,
                "{code}: trace JSON diverged on {} elide={} x{threads}",
                kind.name(),
                mode.name()
            );
        }
    }
}
