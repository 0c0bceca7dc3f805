//! Regenerates Fig. 5: single GPU-task speedup over a single CPU core,
//! baseline translated code vs + optimizations.
//!
//! Accepts `--threads N` (default: all cores / `HETERO_THREADS`): the 16
//! independent measurements (8 apps × 2 flag sets) fan across the worker
//! pool. `results/fig5.json` — including every simulated cycle count and
//! device counter — is byte-identical at any thread count.
use hetero_bench::{write_artifact, Args};
use hetero_runtime::OptFlags;
use hetero_trace::json::Json;
use heterodoop::{measure_task, Preset, TaskMeasurement};

fn row_json(code: &str, base: &TaskMeasurement, opt: &TaskMeasurement) -> Json {
    let counters = |m: &TaskMeasurement| {
        Json::obj()
            .with("kernels", m.gpu_kernels)
            .with("device_s", m.gpu_device_s)
            .with("alu_ops", m.gpu_counters.alu_ops)
            .with("sfu_ops", m.gpu_counters.sfu_ops)
            .with("dram_bytes", m.gpu_counters.dram_bytes)
            .with("shared_ops", m.gpu_counters.shared_ops)
    };
    Json::obj()
        .with("app", code)
        .with("baseline_speedup", base.speedup)
        .with("optimized_speedup", opt.speedup)
        .with("opt_gain", opt.speedup / base.speedup)
        .with("gpu_task_s", opt.gpu.total_s())
        .with("cpu_task_s", opt.cpu.total_s())
        .with("baseline_gpu", counters(base))
        .with("optimized_gpu", counters(opt))
}

fn main() {
    let p = Preset::cluster1();
    let pool = Args::from_env(&[]).pool();
    println!("Fig. 5 — Speedup of a single GPU task over a CPU task (Cluster1)");
    eprintln!("[{} worker thread(s)]", pool.threads());
    println!(
        "{:<6}{:>12}{:>14}{:>10}",
        "app", "baseline", "+optimized", "opt gain"
    );

    // One job per (app, flag set): measurements are independent, results
    // come back in submission order.
    let jobs: Vec<_> = hetero_apps::CODES
        .iter()
        .flat_map(|&code| [(code, OptFlags::none()), (code, OptFlags::all())])
        .map(|(code, opts)| {
            let p = &p;
            move || {
                let app = hetero_apps::app_by_code(code).unwrap();
                measure_task(app.as_ref(), p, opts, 3000, 1).unwrap()
            }
        })
        .collect();
    let measured = pool.run(jobs);

    let mut rows = Vec::new();
    for (pair, code) in measured.chunks(2).zip(hetero_apps::CODES) {
        let (base, opt) = (&pair[0], &pair[1]);
        println!(
            "{:<6}{:>12.2}{:>14.2}{:>10.2}",
            code,
            base.speedup,
            opt.speedup,
            opt.speedup / base.speedup
        );
        rows.push(row_json(code, base, opt));
    }
    write_artifact("fig5.json", true, &Json::Arr(rows));
    println!("(paper: 2x..47x, increasing GR<HS<WC<HR<KM<CL<LR<BS; optimizations matter most for GR, KM, CL, LR)");
}
