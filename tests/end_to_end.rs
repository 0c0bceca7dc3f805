//! Cross-crate integration tests: the whole HeteroDoop stack from
//! annotated C source to cluster-level job statistics.

use hetero_cluster::Scheduler;
use hetero_runtime::types::trim_key;
use hetero_runtime::OptFlags;
use heterodoop::{build_job, job_speedup, measure_task, Preset};
use std::collections::BTreeMap;

/// Every benchmark's GPU task and CPU task must produce identical key
/// totals — the system's core correctness property across the two paths.
#[test]
fn gpu_and_cpu_paths_agree_for_every_benchmark() {
    let p = Preset::cluster1();
    for app in hetero_apps::all_apps() {
        let split = app.generate_split(400, 17);
        let cfg = heterodoop::task_config(app.as_ref(), &p, OptFlags::all());
        let dev = hetero_gpusim::Device::new(p.gpu.clone());
        let mapper = app.mapper();
        let combiner = app.combiner();
        let gpu = hetero_runtime::task::run_gpu_task(
            &dev,
            &p.env,
            &split,
            mapper.as_ref(),
            combiner.as_deref(),
            &cfg,
        )
        .unwrap_or_else(|e| panic!("{} GPU task failed: {e}", app.spec().code));
        let cpu = hetero_runtime::cpu::run_cpu_task(
            &p.env,
            &p.cpu,
            &split,
            mapper.as_ref(),
            combiner.as_deref(),
            cfg.num_reducers,
            cfg.map_only,
        );
        let totals = |parts: &[Vec<(Vec<u8>, Vec<u8>)>], numeric: bool| -> BTreeMap<Vec<u8>, f64> {
            let mut m = BTreeMap::new();
            for part in parts {
                for (k, v) in part {
                    let key = trim_key(k).to_vec();
                    let val: f64 = if numeric {
                        String::from_utf8_lossy(trim_key(v))
                            .split_whitespace()
                            .next()
                            .and_then(|t| t.parse().ok())
                            .unwrap_or(1.0)
                    } else {
                        1.0
                    };
                    *m.entry(key).or_insert(0.0) += val;
                }
            }
            m
        };
        let numeric = app.spec().has_combiner;
        let g = totals(&gpu.partitions, numeric);
        let c = totals(&cpu.partitions, numeric);
        assert_eq!(
            g.keys().collect::<Vec<_>>(),
            c.keys().collect::<Vec<_>>(),
            "{}: key sets differ",
            app.spec().code
        );
        for (k, gv) in &g {
            let cv = c[k];
            assert!(
                (gv - cv).abs() < 1e-3 * gv.abs().max(1.0),
                "{}: key {:?} totals differ: gpu {gv} cpu {cv}",
                app.spec().code,
                String::from_utf8_lossy(k)
            );
        }
    }
}

/// The twin oracle: each benchmark's hand-written Rust mapper and
/// combiner against the kernels compiled from its annotated C sources, on
/// the same generated split, at the strongest agreement that holds per row
/// (EXPERIMENTS.md "Twin vs C source" lists the gaps as ROADMAP item 4's
/// worklist).
#[test]
fn compiled_sources_match_native_mappers() {
    use hetero_runtime::types::{Combiner, Mapper, VecEmit};
    #[derive(Clone, Copy)]
    enum Agreement {
        /// Byte-identical pair streams.
        Identical,
        /// LR: the source emits the twin's twelve `b..` (X'y) partials a
        /// record byte for byte and omits the 78 `a....` (X'X) ones.
        XtyOnly,
        /// BS: same option id and byte-identical price; the twin spells
        /// the key `opt000003`, the source `3`.
        OptionId,
    }
    use Agreement::*;
    let rows = [
        ("GR", Identical),
        ("HS", Identical),
        ("WC", Identical),
        ("HR", Identical),
        ("LR", XtyOnly),
        ("KM", Identical),
        ("CL", Identical),
        ("BS", OptionId),
    ];
    assert_eq!(rows.map(|(code, _)| code), hetero_apps::CODES);
    for (code, agreement) in rows {
        let app = hetero_apps::app_by_code(code).unwrap();
        let kernel = |src| heterodoop::CompiledKernel::new(&heterodoop::compile(src).unwrap());
        let compiled = kernel(app.mapper_source());
        let twin = app.mapper();
        let split = app.generate_split(40, 23);
        let mut a = VecEmit::default();
        let mut b = VecEmit::default();
        for line in split.split(|&x| x == b'\n').filter(|l| !l.is_empty()) {
            twin.map(line, &mut a);
            compiled.map(line, &mut b);
        }
        assert!(
            !b.pairs.is_empty(),
            "{code}: compiled mapper emitted nothing"
        );
        assert!(b.ops.alu > 0, "{code}: compiled mapper charged nothing");
        match agreement {
            Identical => assert_eq!(a.pairs, b.pairs, "{code}: pair streams differ"),
            XtyOnly => {
                let xty: Vec<_> = a.pairs.iter().filter(|(k, _)| k[0] == b'b').collect();
                assert_eq!(xty.len() * 90, a.pairs.len() * 12, "{code}: twin shape");
                assert!(xty.into_iter().eq(&b.pairs), "{code}: X'y partials differ");
            }
            OptionId => {
                assert_eq!(a.pairs.len(), b.pairs.len(), "{code}: pair counts differ");
                for ((ka, va), (kb, vb)) in a.pairs.iter().zip(&b.pairs) {
                    let id = |k: &[u8]| String::from_utf8_lossy(k).parse::<u64>().unwrap();
                    assert_eq!(id(ka.strip_prefix(b"opt").unwrap()), id(kb), "{code}: ids");
                    assert_eq!(va, vb, "{code}: prices differ");
                }
            }
        }

        // The combiners, on the twin mapper's output as one sorted run.
        assert_eq!(app.combiner().is_some(), app.combiner_source().is_some());
        let (Some(twin), Some(src)) = (app.combiner(), app.combiner_source()) else {
            continue;
        };
        a.pairs.sort();
        let run: Vec<(&[u8], &[u8])> = a.pairs.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let mut ca = VecEmit::default();
        let mut cb = VecEmit::default();
        twin.combine(&run, &mut ca);
        kernel(src).combine(&run, &mut cb);
        assert!(
            ca.pairs.len() < run.len(),
            "{code}: combiner must aggregate"
        );
        assert_eq!(ca.pairs, cb.pairs, "{code}: combiner outputs differ");
    }
}

/// The headline result: compute-intensive apps speed up most; the
/// ordering bands of Fig. 5 hold.
#[test]
fn fig5_speedup_bands_hold() {
    let p = Preset::cluster1();
    let mut speedups = BTreeMap::new();
    for code in hetero_apps::CODES {
        let app = hetero_apps::app_by_code(code).unwrap();
        let m = measure_task(app.as_ref(), &p, OptFlags::all(), 2000, 1).unwrap();
        speedups.insert(code, m.speedup);
    }
    // IO-intensive < mid compute < heavy compute; BS on top.
    for io in ["GR", "HS", "WC"] {
        for comp in ["HR", "KM", "CL", "LR", "BS"] {
            assert!(
                speedups[io] < speedups[comp],
                "{io} ({}) should be below {comp} ({})",
                speedups[io],
                speedups[comp]
            );
        }
    }
    let max = speedups.values().cloned().fold(0.0f64, f64::max);
    assert_eq!(speedups["BS"], max, "BS must be the fastest task");
    assert!(
        speedups["BS"] > 20.0,
        "BS should be tens of x: {}",
        speedups["BS"]
    );
    assert!(
        speedups["GR"] > 1.0,
        "even IO apps beat one core on the GPU"
    );
}

/// End-to-end Fig. 4a shape on a reduced Cluster1: HeteroDoop beats
/// CPU-only Hadoop, tail scheduling is at least competitive with
/// GPU-first, and compute apps gain more than IO apps.
#[test]
fn fig4a_shape_holds() {
    let p = Preset::cluster1();
    let run = |code: &str| {
        let app = hetero_apps::app_by_code(code).unwrap();
        let m = measure_task(app.as_ref(), &p, OptFlags::all(), 2000, 1).unwrap();
        let n = app.spec().map_tasks.0;
        let gf = job_speedup(app.as_ref(), &p, Scheduler::GpuFirst, 1, n, &m);
        let ts = job_speedup(app.as_ref(), &p, Scheduler::TailScheduling, 1, n, &m);
        (gf.speedup, ts.speedup)
    };
    let (bs_gf, bs_ts) = run("BS");
    let (gr_gf, gr_ts) = run("GR");
    assert!(bs_gf > 1.5, "BS GPU-first should clearly win: {bs_gf}");
    assert!(bs_ts >= bs_gf, "tail should help BS: {bs_ts} vs {bs_gf}");
    assert!(gr_gf > 0.98, "GR should not regress: {gr_gf}");
    assert!(bs_gf > gr_gf, "compute app gains more than IO app");
    let _ = (gr_ts,);
}

/// Multi-GPU scaling on Cluster2 (Fig. 4b shape).
#[test]
fn fig4b_gpu_scaling_holds() {
    let p = Preset::cluster2();
    let app = hetero_apps::app_by_code("CL").unwrap();
    let m = measure_task(app.as_ref(), &p, OptFlags::all(), 2000, 1).unwrap();
    let n = app.spec().map_tasks.1.unwrap();
    let s1 = job_speedup(app.as_ref(), &p, Scheduler::GpuFirst, 1, n, &m).speedup;
    let s3 = job_speedup(app.as_ref(), &p, Scheduler::GpuFirst, 3, n, &m).speedup;
    assert!(s3 > s1, "3 GPUs ({s3}) should beat 1 GPU ({s1})");
}

/// Job construction respects Table 2 metadata.
#[test]
fn jobs_reflect_table2() {
    let p = Preset::cluster1();
    for code in ["WC", "BS"] {
        let app = hetero_apps::app_by_code(code).unwrap();
        let m = measure_task(app.as_ref(), &p, OptFlags::all(), 500, 1).unwrap();
        let job = build_job(app.as_ref(), &p, &m, app.spec().map_tasks.0);
        assert_eq!(job.maps.len(), app.spec().map_tasks.0 as usize);
        assert_eq!(job.reduces.len(), app.spec().reduce_tasks.0 as usize);
    }
}

/// HDFS + task pipeline: store a split in the filesystem, read it back,
/// run the task, write the output as a SequenceFile and verify it.
#[test]
fn hdfs_round_trip_through_task() {
    use hetero_hdfs::{seqfile, Hdfs, Topology};
    let p = Preset::cluster1();
    let app = hetero_apps::app_by_code("WC").unwrap();
    let data = app.generate_split(300, 5);
    let fs = Hdfs::new(Topology::new(8, 4), 64 * 1024, 3).unwrap();
    fs.put("/in/part-0", &data).unwrap();
    let splits = fs.splits("/in/part-0").unwrap();
    assert!(!splits.is_empty());
    let block = fs.read_block(splits[0].id).unwrap();
    let cfg = heterodoop::task_config(app.as_ref(), &p, OptFlags::all());
    let dev = hetero_gpusim::Device::new(p.gpu.clone());
    let res = hetero_runtime::task::run_gpu_task(
        &dev,
        &p.env,
        &block,
        app.mapper().as_ref(),
        app.combiner().as_deref(),
        &cfg,
    )
    .unwrap();
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = res.partitions.into_iter().flatten().collect();
    let encoded = seqfile::encode(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
    fs.put("/out/part-0", &encoded).unwrap();
    let back = seqfile::decode(&fs.read_file("/out/part-0").unwrap()).unwrap();
    assert_eq!(back, pairs);
}

/// GPU fault tolerance: an injected device fault fails the task; after
/// the driver revives the device, the task succeeds (paper §5.1).
#[test]
fn gpu_fault_and_revival() {
    let p = Preset::cluster1();
    let app = hetero_apps::app_by_code("WC").unwrap();
    let split = app.generate_split(100, 3);
    let cfg = heterodoop::task_config(app.as_ref(), &p, OptFlags::all());
    let dev = hetero_gpusim::Device::new(p.gpu.clone());
    dev.inject_fault("simulated xid error");
    let err =
        hetero_runtime::task::run_gpu_task(&dev, &p.env, &split, app.mapper().as_ref(), None, &cfg);
    assert!(err.is_err(), "faulted device must fail the task");
    dev.revive();
    dev.reset();
    let ok =
        hetero_runtime::task::run_gpu_task(&dev, &p.env, &split, app.mapper().as_ref(), None, &cfg);
    assert!(ok.is_ok(), "revived device must run tasks again");
}
