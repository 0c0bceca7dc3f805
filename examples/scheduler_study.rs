//! Reproduce the Fig. 3 schedule and study tail scheduling across GPU
//! speedups: when does forcing the tail onto the GPU pay off?
//!
//! Run with: `cargo run --example scheduler_study`
use hetero_cluster::{simulate, ClusterConfig, FaultPlan, JobSpec, Scheduler};

fn main() {
    // The paper's worked example: 19 tasks, 6x GPU, 2 CPU slots.
    let cfg = |s| ClusterConfig {
        num_slaves: 1,
        nodes_per_rack: 1,
        map_slots_per_node: 2,
        reduce_slots_per_node: 0,
        gpus_per_node: 1,
        heartbeat_s: 0.01,
        scheduler: s,
        reduce_start_frac: 0.2,
        speculative: false,
        speculative_lag: 0.2,
        shuffle_bw: 1e9,
        max_attempts: 4,
        heartbeat_timeout_s: 3.0,
        jobtracker_recovery_s: 2.0,
        faults: FaultPlan::none(),
    };
    let job = JobSpec::uniform("fig3", 19, 1, 1, 6.0, 1.0);
    let gf = simulate(&cfg(Scheduler::GpuFirst), &job);
    let ts = simulate(&cfg(Scheduler::TailScheduling), &job);
    println!(
        "Fig. 3 scenario — GPU-first: {:.1}s, tail: {:.1}s (paper: 18 vs 15)",
        gf.makespan_s, ts.makespan_s
    );

    // Sweep the GPU speedup: the tail gain grows with the speed gap.
    println!(
        "\n{:<10}{:>12}{:>12}{:>10}",
        "speedup", "GPU-first", "tail", "gain"
    );
    for s in [2.0, 4.0, 8.0, 16.0, 32.0] {
        let mut c = ClusterConfig::small(8, Scheduler::GpuFirst);
        c.map_slots_per_node = 8;
        let job = JobSpec::uniform("sweep", 400, 8, 2, 24.0, 24.0 / s);
        let g = simulate(&c, &job).makespan_s;
        let mut ct = c.clone();
        ct.scheduler = Scheduler::TailScheduling;
        let t = simulate(&ct, &job).makespan_s;
        println!("{s:<10}{g:>12.1}{t:>12.1}{:>10.2}", g / t);
    }
}
