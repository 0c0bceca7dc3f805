//! Regenerates Fig. 6: execution-time breakdown of a single GPU task.
//!
//! Accepts `--threads N`; the eight per-app measurements fan across the
//! worker pool and the table prints in fixed app order regardless.
use hetero_bench::Args;
use hetero_runtime::OptFlags;
use heterodoop::{measure_task, Preset};

fn main() {
    let p = Preset::cluster1();
    let pool = Args::from_env(&[]).pool();
    println!("Fig. 6 — Execution time breakdown of a GPU task (% of task time)");
    eprintln!("[{} worker thread(s)]", pool.threads());
    println!(
        "{:<6}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "app", "input", "reccnt", "map", "agg", "sort", "combine", "output"
    );
    let jobs: Vec<_> = hetero_apps::CODES
        .iter()
        .map(|&code| {
            let p = &p;
            move || {
                let app = hetero_apps::app_by_code(code).unwrap();
                measure_task(app.as_ref(), p, OptFlags::all(), 3000, 1).unwrap()
            }
        })
        .collect();
    for (m, code) in pool.run(jobs).into_iter().zip(hetero_apps::CODES) {
        let total = m.gpu.total_s();
        let mut row = format!("{code:<6}");
        for (_, t) in m.gpu.stages() {
            row.push_str(&format!("{:>8.1}%", 100.0 * t / total));
        }
        println!("{row}");
    }
    println!(
        "(paper: WC sort-dominated; BS ~62% output write; KM/CL map-heavy; HR/LR spend much in combine; aggregation negligible)"
    );
}
