//! Scale sweep of the DES scheduler (ROADMAP item 1): cluster sizes from
//! the paper's 48 nodes up to 10 000 nodes / 1 000 000 map tasks, all
//! under `TailScheduling`. Reports wall-clock time, simulated makespan,
//! and scheduling throughput (attempts and heartbeats per wall second),
//! and writes `results/scale.json`.
//!
//! Modes:
//!
//! * default — sweep 48 → 10 000 nodes (the EXPERIMENTS.md numbers);
//! * `--quick` — stop at 1 000 nodes (CI's bench job);
//! * `--smoke` — single 1 000-node / 100 000-task run under a wall-clock
//!   budget (default 30 s, `--budget-s N`); exits non-zero on overrun —
//!   the cheap regression gate wired into `scripts/check.sh`.
use hetero_cluster::{simulate, ClusterConfig, JobSpec, Scheduler};
use hetero_trace::json::{self, Json};
use std::time::Instant;

/// One sweep point: `nodes` nodes, 100 map tasks per node.
fn case(nodes: u32) -> (ClusterConfig, JobSpec) {
    let mut cfg = ClusterConfig::small(nodes, Scheduler::TailScheduling);
    cfg.map_slots_per_node = 4;
    cfg.nodes_per_rack = 16;
    cfg.heartbeat_s = 1.0;
    cfg.heartbeat_timeout_s = 10.0;
    let job = JobSpec::uniform("scale", nodes * 100, nodes, 3, 8.0, 1.0);
    (cfg, job)
}

struct Row {
    nodes: u32,
    tasks: u32,
    wall_s: f64,
    makespan_s: f64,
    attempts: usize,
}

fn run_point(nodes: u32) -> Row {
    let (cfg, job) = case(nodes);
    let tasks = job.maps.len() as u32;
    let start = Instant::now();
    let st = simulate(&cfg, &job);
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        st.completed_maps(),
        tasks as usize,
        "scale point {nodes} left work unfinished"
    );
    Row {
        nodes,
        tasks,
        wall_s,
        makespan_s: st.makespan_s,
        attempts: st.tasks.len(),
    }
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn main() {
    if flag("--smoke") {
        let budget_s: f64 = flag_value("--budget-s")
            .and_then(|v| v.parse().ok())
            .unwrap_or(30.0);
        let r = run_point(1_000);
        println!(
            "scale smoke: 1000 nodes / {} tasks in {:.2}s wall (budget {budget_s}s), \
             makespan {:.1}s sim, {:.0} tasks/wall-s",
            r.tasks,
            r.wall_s,
            r.makespan_s,
            r.tasks as f64 / r.wall_s
        );
        if r.wall_s > budget_s {
            eprintln!(
                "scale smoke FAILED: {:.2}s wall exceeds the {budget_s}s budget — \
                 a scheduler hot path has regressed",
                r.wall_s
            );
            std::process::exit(1);
        }
        return;
    }

    let sizes: &[u32] = if flag("--quick") {
        &[48, 200, 1_000]
    } else {
        &[48, 200, 1_000, 4_000, 10_000]
    };

    println!("DES scale sweep — TailScheduling, 100 map tasks/node, 4 CPU slots + 1 GPU");
    println!(
        "{:>7} {:>9} {:>10} {:>12} {:>14}",
        "nodes", "tasks", "wall s", "sim s", "tasks/wall-s"
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let r = run_point(n);
        println!(
            "{:>7} {:>9} {:>10.3} {:>12.1} {:>14.0}",
            r.nodes,
            r.tasks,
            r.wall_s,
            r.makespan_s,
            r.tasks as f64 / r.wall_s
        );
        rows.push(r);
    }

    std::fs::create_dir_all("results").expect("create results/");
    let json = Json::obj()
        .with("experiment", "scale")
        .with("scheduler", "TailScheduling")
        .with("tasks_per_node", 100u64)
        .with(
            "points",
            Json::arr(rows.iter().map(|r| {
                Json::obj()
                    .with("nodes", r.nodes)
                    .with("tasks", r.tasks)
                    .with("wall_s", r.wall_s)
                    .with("makespan_s", r.makespan_s)
                    .with("attempts", r.attempts)
                    .with("tasks_per_wall_s", r.tasks as f64 / r.wall_s)
            })),
        );
    std::fs::write("results/scale.json", json::write(&json)).expect("write results/scale.json");
    println!("\nwrote results/scale.json");
}
