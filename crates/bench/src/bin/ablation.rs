//! Ablation studies beyond the paper's figures (EXPERIMENTS.md "Ablations"):
//! the `kvpairs` clause's effect on global-KV-store occupancy and
//! downstream sort cost, and the global- vs shared-memory atomic cost
//! gap that motivates threadblock-level record stealing.
use hetero_gpusim::{Device, GpuSpec};
use hetero_runtime::OptFlags;
use heterodoop::{measure_task, task_config, Preset};

fn main() {
    let p = Preset::cluster1();
    println!("Ablation 1 — the kvpairs clause (paper §3.2): store occupancy & sort time");
    println!(
        "{:<6}{:>14}{:>14}{:>14}{:>14}",
        "app", "occ(hint)", "occ(no hint)", "sort(hint)", "sort(none)"
    );
    for code in ["WC", "HR", "GR"] {
        let app = hetero_apps::app_by_code(code).unwrap();
        let hinted = measure_task(app.as_ref(), &p, OptFlags::all(), 3000, 1).unwrap();
        // No-hint run: over-allocate all free memory (Fig. 1 default).
        let split = app.generate_split(3000, 1);
        let mut cfg = task_config(app.as_ref(), &p, OptFlags::all());
        cfg.kvpairs_hint = None;
        let dev = Device::new(p.gpu.clone());
        let no_hint = hetero_runtime::task::run_gpu_task(
            &dev,
            &p.env,
            &split,
            app.mapper().as_ref(),
            app.combiner().as_deref(),
            &cfg,
        )
        .unwrap();
        println!(
            "{:<6}{:>13.1}%{:>13.2}%{:>11.3} ms{:>11.3} ms",
            code,
            100.0 * hinted.kv_occupancy,
            100.0 * no_hint.kv_occupancy,
            hinted.gpu.sort_s * 1e3,
            no_hint.breakdown.sort_s * 1e3,
        );
    }

    println!("\nAblation 2 — shared vs global atomics (why stealing is per-threadblock, §4.1)");
    for spec in [GpuSpec::tesla_k40(), GpuSpec::tesla_m2090()] {
        let dev = Device::new(spec.clone());
        let shared = dev
            .launch(32, vec![(); 8], |blk, _| {
                blk.warp_round(|_, t| {
                    for _ in 0..1000 {
                        t.shared_atomic();
                    }
                });
                Ok(())
            })
            .unwrap();
        let global = dev
            .launch(32, vec![(); 8], |blk, _| {
                blk.warp_round(|_, t| {
                    for _ in 0..1000 {
                        t.global_atomic();
                    }
                });
                Ok(())
            })
            .unwrap();
        println!(
            "  {}: global atomic steal would be {:.1}x slower than shared",
            spec.name,
            global.cycles / shared.cycles
        );
    }
}
