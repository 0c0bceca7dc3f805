//! Small direct timings of single public entry points: the `hetero-cc`
//! front-end phases, a fixed synthetic `hetero-gpusim` launch grid, and
//! the SequenceFile codec. Each isolates one layer's cost from the
//! whole-job numbers.

use crate::metrics::Metrics;
use crate::stats::median;
use crate::verify::Pairs;
use hetero_apps::App;
use hetero_cc::backend::{make_backend_with_facts, BackendKind, ElisionMode};
use hetero_gpusim::{Access, Device, GpuSpec};
use hetero_hdfs::seqfile;
use std::hint::black_box;
use std::time::Instant;

/// Calls per front-end phase; the median is reported.
const CC_CALLS: usize = 50;

fn median_of<R>(calls: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Time each compile phase over the app's C sources (mapper, plus the
/// combiner when it has one; the phase times of the two are summed) and
/// count the value analysis' safety sites.
pub fn cc_front_end(app: &dyn App, m: &mut Metrics) {
    let sources: Vec<&str> = std::iter::once(app.mapper_source())
        .chain(app.combiner_source())
        .collect();
    let (mut parse_s, mut sema_s, mut lint_s, mut translate_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut compile_s, mut backend_s) = (0.0, 0.0);
    let (mut sites, mut proven) = (0usize, 0usize);
    for src in sources {
        let program = hetero_cc::parse::parse(src).expect("benchmark source parses");
        let analysis = hetero_cc::sema::analyze(&program).expect("benchmark source analyzes");
        parse_s += median_of(CC_CALLS, || hetero_cc::parse::parse(black_box(src)));
        sema_s += median_of(CC_CALLS, || hetero_cc::sema::analyze(black_box(&program)));
        lint_s += median_of(CC_CALLS, || {
            hetero_cc::lint::lint_program(src, &program, &analysis)
        });
        translate_s += median_of(CC_CALLS, || {
            hetero_cc::translate::translate(&program, &analysis)
        });
        compile_s += median_of(CC_CALLS, || hetero_cc::compile(black_box(src)));
        let compiled = hetero_cc::compile(src).expect("benchmark source compiles");
        backend_s += median_of(CC_CALLS, || {
            make_backend_with_facts(
                BackendKind::from_env(),
                &compiled.program,
                &compiled.analysis.safety,
                ElisionMode::from_env(),
            )
        });
        let (s, d, c) = compiled.analysis.safety.site_counts();
        let (ps, pd, pc) = compiled.analysis.safety.proven_counts();
        sites += s + d + c;
        proven += ps + pd + pc;
    }
    m.set("cc.parse_s", parse_s);
    m.set("cc.sema_s", sema_s);
    m.set("cc.lint_s", lint_s);
    m.set("cc.translate_s", translate_s);
    m.set("cc.compile_s", compile_s);
    m.set("cc.backend_build_s", backend_s);
    m.set("cc.safety_sites_total", sites as f64);
    m.set("cc.safety_sites_proven", proven as f64);
}

const PROBE_BLOCKS: usize = 64;
const PROBE_THREADS: u32 = 128;
const PROBE_ROUNDS: u32 = 32;

/// A fixed grid of `Device::launch_named` calls whose blocks do nothing
/// but charge lane costs: `launches` (256 at full size) × 64 blocks × 128
/// threads, each warp doing 32 rounds of 4 ALU ops + one coalesced
/// 4-byte load per lane. What it times is the block loop and the cost
/// model, with no mapper, KV store or sort around them.
pub fn gpusim_launch_grid(launches: u32, m: &mut Metrics) {
    let dev = Device::new(GpuSpec::tesla_k40());
    let warps = PROBE_THREADS / 32;
    let t = Instant::now();
    for _ in 0..launches {
        let stats = dev
            .launch_named(
                "e2e_probe_kernel",
                PROBE_THREADS,
                vec![(); PROBE_BLOCKS],
                |blk, ()| {
                    for _ in 0..warps * PROBE_ROUNDS {
                        blk.warp_round(|_, lane| {
                            lane.alu(4);
                            lane.gld(4, Access::Coalesced);
                        });
                    }
                    Ok(())
                },
            )
            .expect("probe launch is well-formed");
        black_box(stats);
    }
    let probe_s = t.elapsed().as_secs_f64();
    let rounds = f64::from(launches) * PROBE_BLOCKS as f64 * f64::from(warps * PROBE_ROUNDS);
    m.set("gpusim.probe_s", probe_s);
    m.set("gpusim.probe_ns_per_warp_round", probe_s * 1e9 / rounds);
}

/// Encode then decode the job's reducer output as SequenceFiles; the
/// decode must give the pairs back. Returns `Err` on a round-trip
/// mismatch.
pub fn seqfile_round_trip(output: &[Pairs], m: &mut Metrics) -> Result<(), String> {
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = output
        .iter()
        .map(|pairs| seqfile::encode(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))))
        .collect();
    m.set("hdfs.seqfile_encode_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let decoded: Result<Vec<Pairs>, _> = encoded.iter().map(|e| seqfile::decode(e)).collect();
    m.set("hdfs.seqfile_decode_s", t.elapsed().as_secs_f64());
    match decoded {
        Ok(d) if d == output => Ok(()),
        Ok(_) => Err("SequenceFile round trip changed the pairs".to_string()),
        Err(e) => Err(format!("SequenceFile decode failed: {e}")),
    }
}
