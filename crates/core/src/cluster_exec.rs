//! Cluster-placement-driven functional execution: the DES decides *where*
//! each map task runs (GPU or CPU slot, under the configured scheduler
//! and fault plan), and the functional runner then executes the tasks
//! bit-for-real on that placement via the worker pool.
//!
//! This closes the control-plane/data-plane loop: `hetero-cluster` alone
//! schedules opaque durations, `run_functional_job` alone uses a fixed
//! modulo placement. Here the placement comes out of the simulated
//! schedule (each task's winning attempt in [`JobStats::tasks`]) and the data plane
//! reproduces it, so experiments can ask "what would this cluster
//! actually have computed, and on which devices?"

use crate::job_runner::{run_functional_job_placed, FunctionalJob};
use crate::presets::Preset;
use hetero_apps::App;
use hetero_cluster::{simulate, ClusterConfig, JobSpec, JobStats, ParallelRunner};
use hetero_gpusim::{Device, GpuError};
use hetero_runtime::OptFlags;
use hetero_trace::Tracer;

/// Nominal per-map durations fed to the DES (seconds). The schedule only
/// needs plausible relative costs to pick slots; the data plane then
/// computes real results and real simulated task times.
const NOMINAL_CPU_S: f64 = 8.0;
const NOMINAL_GPU_S: f64 = 2.0;

/// Outcome of a cluster-driven functional job.
#[derive(Debug)]
pub struct ClusterFunctionalJob {
    /// The functionally executed job (bit-real output, task seconds).
    pub job: FunctionalJob,
    /// Control-plane statistics of the DES run that chose the placement.
    pub stats: JobStats,
    /// Per-map-task device placement the DES settled on (`true` = GPU).
    pub gpu_placed: Vec<bool>,
}

/// Simulate `app`'s job on the cluster described by `cfg` (scheduler,
/// slots, fault plan), then functionally execute every map task on the
/// device class the winning attempt used, fanned across `pool`. Output is
/// byte-identical for any pool width.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_functional_job(
    app: &dyn App,
    preset: &Preset,
    input: &[u8],
    cfg: &ClusterConfig,
    opts: OptFlags,
    dev: &Device,
    tracer: &Tracer,
    pool: &ParallelRunner,
) -> Result<ClusterFunctionalJob, GpuError> {
    let mut des = None;
    // The functional runner splits the input; the DES then places the
    // maps it found.
    let place = |n_maps: usize| {
        let spec = JobSpec::uniform(
            &format!("{}-cluster-exec", app.spec().code),
            n_maps as u32,
            cfg.num_slaves,
            preset.replication.min(cfg.num_slaves),
            NOMINAL_CPU_S,
            NOMINAL_GPU_S,
        );
        let stats = simulate(cfg, &spec);
        // A task's placement is the device of its last winning attempt. A
        // re-execution (node loss invalidating a finished map) starts after
        // the winner it replaces finished, so record order is completion
        // order and the last `Success` overwrites.
        debug_assert_eq!(
            stats.completed_maps(),
            n_maps,
            "DES must complete every map"
        );
        let mut gpu_placed = vec![false; n_maps];
        for r in stats.tasks.iter().filter(|r| r.succeeded()) {
            gpu_placed[r.id as usize] = r.device == hetero_cluster::Device::Gpu;
        }
        des = Some((stats, gpu_placed.clone()));
        gpu_placed
    };
    let job = run_functional_job_placed(app, preset, input, place, opts, dev, tracer, pool)?;
    let (stats, gpu_placed) = des.expect("the runner asks for its placement");
    Ok(ClusterFunctionalJob {
        job,
        stats,
        gpu_placed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_functional_job;
    use hetero_cluster::Scheduler;

    #[test]
    fn des_placement_drives_functional_execution() {
        let app = hetero_apps::app_by_code("WC").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(6000, 11);
        let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
        cfg.gpus_per_node = 1;
        let dev = Device::new(p.gpu.clone());
        let r = run_cluster_functional_job(
            app.as_ref(),
            &p,
            &input,
            &cfg,
            OptFlags::all(),
            &dev,
            &Tracer::off(),
            &ParallelRunner::new(4),
        )
        .unwrap();
        // No lost task: every split was placed and executed.
        assert_eq!(r.gpu_placed.len(), r.job.map_tasks);
        // GPU-first scheduling on a healthy cluster puts work on GPUs,
        // and the data plane mirrors it exactly.
        let on_gpu = r.gpu_placed.iter().filter(|&&g| g).count();
        assert!(on_gpu > 0, "GpuFirst should place maps on GPUs");
        assert_eq!(r.job.gpu_tasks, on_gpu);
        assert_eq!(r.job.gpu_tasks + r.job.gpu_fallbacks, on_gpu);

        // The answer matches a plain modulo-placement run byte for byte
        // (placement independence, end to end).
        let plain = run_functional_job(app.as_ref(), &p, &input, 2, OptFlags::all()).unwrap();
        assert_eq!(r.job.output, plain.output);
    }

    #[test]
    fn faulty_cluster_still_computes_the_right_answer() {
        let app = hetero_apps::app_by_code("HS").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(3000, 5);
        let mut cfg = ClusterConfig::small(4, Scheduler::TailScheduling);
        cfg.gpus_per_node = 1;
        cfg.faults.seed = 7;
        cfg.faults.transient_fail_p = 0.2;
        cfg.faults.gpu_faults = vec![(1, 0, 10.0)];
        let dev = Device::new(p.gpu.clone());
        let r = run_cluster_functional_job(
            app.as_ref(),
            &p,
            &input,
            &cfg,
            OptFlags::all(),
            &dev,
            &Tracer::off(),
            &ParallelRunner::new(4),
        )
        .unwrap();
        let plain = run_functional_job(app.as_ref(), &p, &input, 0, OptFlags::all()).unwrap();
        assert_eq!(r.job.output, plain.output);
    }

    /// ISSUE 7 acceptance: a JobTracker crash mid-job recovers and the
    /// final job output is byte-identical to an uninterrupted run — the
    /// restarted master kept every completed map and the re-resolved
    /// in-flight attempts changed scheduling, not data.
    #[test]
    fn jobtracker_crash_preserves_output_bytes() {
        let app = hetero_apps::app_by_code("WC").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(6000, 23);
        let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
        cfg.gpus_per_node = 1;
        let dev = Device::new(p.gpu.clone());
        let pool = ParallelRunner::new(4);
        let run = |cfg: &ClusterConfig| {
            run_cluster_functional_job(
                app.as_ref(),
                &p,
                &input,
                cfg,
                OptFlags::all(),
                &dev,
                &Tracer::off(),
                &pool,
            )
            .unwrap()
        };
        let clean = run(&cfg);
        assert!(!clean.stats.aborted);
        // Crash the master at several points across the clean makespan
        // (including during the heavy map phase) plus a node loss.
        for frac in [0.2, 0.5, 0.8] {
            let mut faulty = cfg.clone();
            faulty.faults = hetero_cluster::FaultPlan::seeded(13)
                .with_jobtracker_crash(frac * clean.stats.makespan_s)
                .with_node_crash(2, 0.7 * clean.stats.makespan_s);
            let r = run(&faulty);
            assert_eq!(r.stats.jobtracker_crashes_seen, 1, "crash@{frac}");
            assert_eq!(r.stats.jobtracker_recoveries.len(), 1, "crash@{frac}");
            assert!(!r.stats.aborted, "crash@{frac}");
            assert_eq!(
                r.job.output, clean.job.output,
                "crash@{frac}: output bytes diverged after master recovery"
            );
        }
    }
}
