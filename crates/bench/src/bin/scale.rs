//! Scale sweep of the DES scheduler: cluster sizes from the paper's 48
//! nodes up to 20 000 nodes / 2 000 000 map tasks, all under
//! `TailScheduling`. Reports wall-clock time, simulated makespan,
//! scheduling throughput (tasks per wall second) and the process's peak
//! resident set after each point (`VmHWM`; the sizes ascend, so it is
//! that point's own peak), and writes `scale.json`.
//!
//! Modes:
//!
//! * default — sweep 48 → 20 000 nodes, written to `results/` (the
//!   EXPERIMENTS.md numbers);
//! * `--quick` — stop at 1 000 nodes, written to `target/results/` (CI's
//!   bench job);
//! * `--smoke` — single 1 000-node / 100 000-task run under a wall-clock
//!   budget (default 30 s, `--budget-s N`) and a fixed memory ceiling
//!   ([`SMOKE_RSS_CEILING_MB`]); exits non-zero on either overrun — the
//!   cheap regression gate wired into `scripts/check.sh`. Writes nothing.
use hetero_bench::{nproc, peak_rss_mb, write_artifact, Args};
use hetero_cluster::{simulate, ClusterConfig, JobSpec, Scheduler};
use hetero_trace::json::Json;
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

/// `--smoke` fails when the 1 000-node point peaks above this: twice the
/// 32.6 MB it measures (2-vCPU reference host), so allocator and host
/// noise pass and a per-task structure coming back does not stay
/// unnoticed for long — 100 000 tasks make every 10 B a task 1 MB here.
const SMOKE_RSS_CEILING_MB: f64 = 64.0;

struct Row {
    nodes: u32,
    tasks: u32,
    wall_s: f64,
    makespan_s: f64,
    attempts: usize,
    /// `None` off Linux.
    peak_rss_mb: Option<f64>,
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
        peak_rss_mb: peak_rss_mb(),
    }
}

fn main() {
    let args = Args::from_env(&["--smoke", "--quick", "--budget-s="]);
    if args.flag("--smoke") {
        let budget_s: f64 = args.flag_value("--budget-s").unwrap_or(30.0);
        let r = run_point(1_000);
        let rss = r
            .peak_rss_mb
            .map_or("unreported".to_string(), |mb| format!("{mb:.1} MB"));
        println!(
            "scale smoke: 1000 nodes / {} tasks in {:.2}s wall (budget {budget_s}s), \
             makespan {:.1}s sim, {:.0} tasks/wall-s, peak RSS {rss} \
             (ceiling {SMOKE_RSS_CEILING_MB} MB)",
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
        if r.peak_rss_mb.is_some_and(|mb| mb > SMOKE_RSS_CEILING_MB) {
            eprintln!(
                "scale smoke FAILED: peak RSS {rss} exceeds the {SMOKE_RSS_CEILING_MB} MB \
                 ceiling — a per-task allocation has come back"
            );
            std::process::exit(1);
        }
        return;
    }

    let quick = args.flag("--quick");
    let sizes: &[u32] = if quick {
        &[48, 200, 1_000]
    } else {
        &[48, 200, 1_000, 4_000, 10_000, 20_000]
    };

    println!("DES scale sweep — TailScheduling, 100 map tasks/node, 4 CPU slots + 1 GPU");
    println!(
        "{:>7} {:>9} {:>10} {:>12} {:>14} {:>12}",
        "nodes", "tasks", "wall s", "sim s", "tasks/wall-s", "peak RSS MB"
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let r = run_point(n);
        println!(
            "{:>7} {:>9} {:>10.3} {:>12.1} {:>14.0} {:>12.1}",
            r.nodes,
            r.tasks,
            r.wall_s,
            r.makespan_s,
            r.tasks as f64 / r.wall_s,
            r.peak_rss_mb.unwrap_or(f64::NAN)
        );
        rows.push(r);
    }

    let json = Json::obj()
        .with("experiment", "scale")
        .with("nproc", nproc())
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
                    .with("peak_rss_mb", r.peak_rss_mb.map_or(Json::Null, Json::from))
            })),
        );
    write_artifact("scale.json", !quick, &json);
}
