//! Regenerates Fig. 3: GPU-first vs tail scheduling on the paper's
//! worked example — 19 tasks, one 6x GPU, two CPU slots.
use hetero_cluster::{simulate, ClusterConfig, FaultPlan, JobSpec, Scheduler};

fn cfg(s: Scheduler) -> ClusterConfig {
    ClusterConfig {
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
    }
}

fn main() {
    println!("Fig. 3 — Key Idea of Tail Scheduling (19 tasks, GPU 6x faster, 2 CPU slots)");
    let job = JobSpec::uniform("fig3", 19, 1, 1, 6.0, 1.0);
    for s in [Scheduler::GpuFirst, Scheduler::TailScheduling] {
        let st = simulate(&cfg(s), &job);
        println!(
            "\n{s:?}: makespan {:.2}s  (gpu tasks {}, cpu tasks {})",
            st.makespan_s,
            st.gpu_tasks(),
            st.cpu_tasks()
        );
        let mut tasks = st.tasks.clone();
        tasks.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap());
        for t in tasks {
            println!(
                "  task {:>2}  {:?}  {:6.2}s -> {:6.2}s",
                t.id + 1,
                t.device,
                t.start_s,
                t.end_s.unwrap_or(f64::NAN)
            );
        }
    }
    println!("\n(paper: GPU-first 18 units, tail scheduling 15 units)");
}
