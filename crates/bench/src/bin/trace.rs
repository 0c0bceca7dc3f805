//! Observability demo: exports simulated runs as Chrome-trace JSON
//! (open in Perfetto / `chrome://tracing`), an nvprof-style per-kernel
//! profile, and a flat metrics snapshot — all into `results/`.
//!
//! Everything here is deterministic: the tracer has no wall clock, so
//! the same `FaultPlan` seed produces byte-identical trace files.
use hetero_bench::{storm, Args};
use hetero_cluster::{simulate_traced, ClusterConfig, JobSpec, ReduceTaskSpec, Scheduler};
use hetero_gpusim::Device;
use hetero_runtime::OptFlags;
use hetero_trace::{json, KernelProfile, Tracer};
use heterodoop::{run_functional_job_pooled, Preset};
use std::fs;
use std::path::Path;

fn write(path: &str, bytes: &str) {
    json::validate(bytes).unwrap_or_else(|e| panic!("{path}: invalid JSON: {e}"));
    fs::write(path, bytes).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("  wrote {path} ({} bytes)", bytes.len());
}

fn main() {
    let pool = Args::from_env(&[]).pool();
    println!("[{} worker thread(s)]", pool.threads());
    fs::create_dir_all("results").expect("results dir");
    assert!(Path::new("results").is_dir());

    // ---- 1. Fig. 3 schedules, one trace per scheduler. ----------------
    println!("Fig. 3 schedule traces (19 tasks, GPU 6x faster, 2 CPU slots)");
    let job = JobSpec::uniform("fig3", 19, 1, 1, 6.0, 1.0);
    for (s, path) in [
        (Scheduler::GpuFirst, "results/fig3_gpu_first.trace.json"),
        (Scheduler::TailScheduling, "results/fig3_tail.trace.json"),
    ] {
        let tracer = Tracer::new();
        let st = simulate_traced(&ClusterConfig::fig3(s), &job, &tracer);
        println!(
            "{s:?}: makespan {:.2}s, {} events",
            st.makespan_s,
            tracer.len()
        );
        write(path, &tracer.to_chrome_json());
    }

    // ---- 2. A faulted run, plus its metrics snapshot. ------------------
    println!("\nFaulted run (node crash + 5% transient failures + corrupt input)");
    let mut cfg = ClusterConfig::small(8, Scheduler::GpuFirst);
    cfg.map_slots_per_node = 4;
    cfg.speculative = true;
    cfg.faults = storm();
    let mut j = JobSpec::uniform("faults", 200, 8, 3, 12.0, 2.0);
    j.reduces = (0..8)
        .map(|id| ReduceTaskSpec { id, compute_s: 2.0 })
        .collect();
    let tracer = Tracer::new();
    let st = simulate_traced(&cfg, &j, &tracer);
    assert!(!st.aborted, "job must survive the storm");
    let trace_json = tracer.to_chrome_json();
    println!(
        "makespan {:.1}s, {} attempts, {} events",
        st.makespan_s,
        st.map_attempts(),
        tracer.len()
    );
    write("results/faults.trace.json", &trace_json);
    write("results/faults.metrics.json", &st.metrics().to_json());

    // Determinism: the same seed must reproduce the trace byte for byte.
    let tracer2 = Tracer::new();
    simulate_traced(&cfg, &j, &tracer2);
    assert_eq!(
        trace_json,
        tracer2.to_chrome_json(),
        "same FaultPlan seed must give a byte-identical trace"
    );
    println!("determinism: re-run reproduced the trace byte for byte");

    // ---- 3. Data plane: a functional wordcount task trace + the
    //         nvprof-style kernel profile. ------------------------------
    println!("\nFunctional wordcount (data plane): stage + kernel spans");
    let app = hetero_apps::app_by_code("WC").unwrap();
    let p = Preset::cluster1();
    let input = app.generate_split(4000, 11);
    let dev = Device::new(p.gpu.clone());
    let ftracer = Tracer::new();
    let fj = run_functional_job_pooled(
        app.as_ref(),
        &p,
        &input,
        2,
        OptFlags::all(),
        &dev,
        &ftracer,
        &pool,
    )
    .unwrap();
    println!(
        "{} map tasks ({} on the GPU), {} events",
        fj.map_tasks,
        fj.gpu_tasks,
        ftracer.len()
    );
    write("results/wordcount.trace.json", &ftracer.to_chrome_json());

    // Kernel profile, aggregated over a second (untraced) run on a fresh
    // device with the kernel log left to accumulate.
    let dev2 = Device::new(p.gpu.clone());
    dev2.enable_kernel_log();
    run_functional_job_pooled(
        app.as_ref(),
        &p,
        &input,
        2,
        OptFlags::all(),
        &dev2,
        &Tracer::off(),
        &pool,
    )
    .unwrap();
    let mut profile = KernelProfile::new();
    for e in dev2.take_kernel_log() {
        profile.record(e.name, &e.stats);
    }
    print!("\n{}", profile.table());
    write("results/kernel_profile.json", &profile.to_json());

    println!("\nOpen the .trace.json files at https://ui.perfetto.dev or chrome://tracing.");
}
