//! Regenerates Fig. 3: GPU-first vs tail scheduling on the paper's
//! worked example — 19 tasks, one 6x GPU, two CPU slots.
use hetero_cluster::{simulate, ClusterConfig, JobSpec, Scheduler};

fn main() {
    println!("Fig. 3 — Key Idea of Tail Scheduling (19 tasks, GPU 6x faster, 2 CPU slots)");
    let job = JobSpec::uniform("fig3", 19, 1, 1, 6.0, 1.0);
    for s in [Scheduler::GpuFirst, Scheduler::TailScheduling] {
        let st = simulate(&ClusterConfig::fig3(s), &job);
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
