//! The measurement and job-execution pipeline tying the stack together:
//!
//! * [`measure_task`] runs one representative fileSplit through both the
//!   simulated GPU task (Fig. 1 flow) and the CPU streaming task,
//!   yielding the Fig. 5 speedups and Fig. 6 breakdowns;
//! * [`build_job`] turns a benchmark + per-task measurement into a
//!   cluster [`JobSpec`] at the paper's task counts (Table 2);
//! * [`job_speedup`] runs the job under CPU-only Hadoop and under a
//!   HeteroDoop scheduler, producing the Fig. 4 end-to-end speedups.

use crate::presets::Preset;
use hetero_apps::App;
use hetero_cluster::{simulate, JobSpec, JobStats, MapTaskSpec, ReduceTaskSpec, Scheduler};
use hetero_gpusim::{Device, GpuError};
use hetero_hdfs::NodeId;
use hetero_runtime::cpu::run_cpu_task;
use hetero_runtime::task::{run_gpu_task, GpuTaskConfig};
use hetero_runtime::{OptFlags, TaskBreakdown};

/// Per-task measurement of one benchmark on one platform.
#[derive(Debug, Clone)]
pub struct TaskMeasurement {
    /// GPU task per-stage times (Fig. 6).
    pub gpu: TaskBreakdown,
    /// CPU task per-stage times.
    pub cpu: TaskBreakdown,
    /// GPU-task speedup over one CPU core (Fig. 5).
    pub speedup: f64,
    /// Records in the measured split.
    pub records: usize,
    /// KV-store occupancy of the GPU task.
    pub kv_occupancy: f64,
    /// Device-wide counter totals the GPU task accumulated.
    pub gpu_counters: hetero_gpusim::Counters,
    /// Kernels the GPU task launched.
    pub gpu_kernels: u64,
    /// Simulated device time (kernels + PCIe transfers) of the GPU task.
    pub gpu_device_s: f64,
}

/// Records per fileSplit used for task measurements. Scaled stand-in for
/// a 256 MB split (DESIGN.md §2).
pub const DEFAULT_SPLIT_RECORDS: usize = 3000;

/// Data-scaling factor: measured splits are 1:1024 of the paper's 256 MB
/// fileSplits, so task durations are scaled back up when building
/// cluster jobs. This puts task times (tens of seconds) back in their
/// real relation to the 0.3 s heartbeat.
pub const SCALE_UP: f64 = 1024.0;

/// Build the GPU task configuration for an app on a preset.
pub fn task_config(app: &dyn App, preset: &Preset, opts: OptFlags) -> GpuTaskConfig {
    let spec = app.spec();
    let reducers = if preset.name == "Cluster2" {
        spec.reduce_tasks.1
    } else {
        spec.reduce_tasks.0
    };
    let mut cfg = GpuTaskConfig::new(spec.key_len, spec.val_len, reducers.max(1));
    cfg.blocks = 60;
    cfg.threads_per_block = 128;
    cfg.comb_key_len = spec.key_len.max(8);
    cfg.comb_val_len = spec.val_len.max(8);
    cfg.opts = opts;
    // The benchmark sources carry the kvpairs clause (§3.2).
    cfg.kvpairs_hint = Some(spec.kvpairs_per_record.max(1));
    cfg.ro_bytes = spec.ro_bytes;
    cfg.map_only = spec.map_only;
    cfg
}

/// Measure one representative map(+combine) task on GPU and CPU.
pub fn measure_task(
    app: &dyn App,
    preset: &Preset,
    opts: OptFlags,
    records: usize,
    seed: u64,
) -> Result<TaskMeasurement, GpuError> {
    let split = app.generate_split(records, seed);
    let cfg = task_config(app, preset, opts);
    let dev = Device::new(preset.gpu.clone());
    let mapper = app.mapper();
    let combiner = app.combiner();

    let gpu = run_gpu_task(
        &dev,
        &preset.env,
        &split,
        mapper.as_ref(),
        combiner.as_deref(),
        &cfg,
    )?;
    let cpu = run_cpu_task(
        &preset.env,
        &preset.cpu,
        &split,
        mapper.as_ref(),
        combiner.as_deref(),
        cfg.num_reducers,
        cfg.map_only,
    );
    let speedup = cpu.breakdown.total_s() / gpu.breakdown.total_s().max(1e-12);
    Ok(TaskMeasurement {
        gpu: gpu.breakdown,
        cpu: cpu.breakdown,
        speedup,
        gpu_counters: dev.totals(),
        gpu_kernels: dev.kernels_launched(),
        gpu_device_s: dev.sim_time_s(),
        records: gpu.records,
        kv_occupancy: gpu.kv_occupancy,
    })
}

/// Deterministic per-task jitter in `[1-a, 1+a]` derived from the task id.
fn jitter(id: u32, amplitude: f64) -> f64 {
    let h = (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    1.0 + amplitude * ((h % 2001) as f64 / 1000.0 - 1.0)
}

/// Build a cluster job from an app and its per-task measurement.
///
/// Reduce-task durations are sized so that the map+combine phases cover
/// the benchmark's Table 2 `%Exec` share of the CPU-only job.
pub fn build_job(app: &dyn App, preset: &Preset, m: &TaskMeasurement, n_maps: u32) -> JobSpec {
    let spec = app.spec();
    let n_nodes = preset.cluster.num_slaves;
    let repl = preset.replication.min(n_nodes);
    let maps: Vec<MapTaskSpec> = (0..n_maps)
        .map(|i| {
            let j = jitter(i, 0.08);
            MapTaskSpec {
                id: i,
                replicas: (0..repl)
                    .map(|r| NodeId((i.wrapping_mul(2654435761) + r * 13) % n_nodes))
                    .collect(),
                cpu_s: m.cpu.total_s() * j * SCALE_UP,
                gpu_s: m.gpu.total_s() * j * SCALE_UP,
                output_bytes: 64 * 1024 * 1024,
            }
        })
        .collect();

    let n_reduces = if preset.name == "Cluster2" {
        spec.reduce_tasks.1
    } else {
        spec.reduce_tasks.0
    };
    let reduces: Vec<ReduceTaskSpec> = if n_reduces == 0 {
        Vec::new()
    } else {
        // CPU-only map phase estimate.
        let cpu_slots = (preset.cluster.num_slaves * preset.cluster.map_slots_per_node) as f64;
        let map_phase = m.cpu.total_s() * SCALE_UP * n_maps as f64 / cpu_slots;
        let pct = spec.pct_map_combine.clamp(1, 100) as f64;
        let reduce_phase = map_phase * (100.0 - pct) / pct;
        let reduce_slots =
            (preset.cluster.num_slaves * preset.cluster.reduce_slots_per_node) as f64;
        let waves = (n_reduces as f64 / reduce_slots).ceil().max(1.0);
        let per_reduce = (reduce_phase / waves).max(0.01);
        (0..n_reduces)
            .map(|id| ReduceTaskSpec {
                id,
                compute_s: per_reduce,
            })
            .collect()
    };

    JobSpec {
        name: format!("{}-{}", spec.code, preset.name),
        maps,
        reduces,
    }
}

/// Result of a Fig. 4-style end-to-end comparison.
#[derive(Debug, Clone)]
pub struct JobComparison {
    /// CPU-only Hadoop makespan.
    pub cpu_only_s: f64,
    /// HeteroDoop makespan under the requested scheduler.
    pub hetero_s: f64,
    /// End-to-end speedup.
    pub speedup: f64,
    /// Stats of the HeteroDoop run.
    pub stats: JobStats,
}

/// Run the job CPU-only and under `scheduler` with `gpus` GPUs per node.
pub fn job_speedup(
    app: &dyn App,
    preset: &Preset,
    scheduler: Scheduler,
    gpus: u32,
    n_maps: u32,
    m: &TaskMeasurement,
) -> JobComparison {
    let job = build_job(app, preset, m, n_maps);

    let mut cpu_cfg = preset.cluster.clone();
    cpu_cfg.scheduler = Scheduler::CpuOnly;
    let cpu_stats = simulate(&cpu_cfg, &job);

    let mut het_cfg = preset.cluster.clone();
    het_cfg.scheduler = scheduler;
    het_cfg.gpus_per_node = gpus;
    let het_stats = simulate(&het_cfg, &job);

    JobComparison {
        cpu_only_s: cpu_stats.makespan_s,
        hetero_s: het_stats.makespan_s,
        speedup: cpu_stats.makespan_s / het_stats.makespan_s.max(1e-12),
        stats: het_stats,
    }
}

/// Ratio of a stage's time without an optimization over with it — the
/// Fig. 7 per-optimization effects. `stage` selects which breakdown
/// component the optimization targets.
pub fn optimization_effect(
    app: &dyn App,
    preset: &Preset,
    toggle: impl Fn(&mut OptFlags),
    stage: impl Fn(&TaskBreakdown) -> f64,
    records: usize,
) -> Result<f64, GpuError> {
    let on = measure_task(app, preset, OptFlags::all(), records, 42)?;
    let mut flags = OptFlags::all();
    toggle(&mut flags);
    let off = measure_task(app, preset, flags, records, 42)?;
    Ok(stage(&off.gpu) / stage(&on.gpu).max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_apps::app_by_code;

    #[test]
    fn wc_task_measures_and_gpu_wins() {
        let app = app_by_code("WC").unwrap();
        let p = Preset::cluster1();
        let m = measure_task(app.as_ref(), &p, OptFlags::all(), 2000, 1).unwrap();
        assert_eq!(m.records, 2000);
        assert!(
            m.speedup > 1.0,
            "GPU task should beat one core: {}",
            m.speedup
        );
        assert!(m.gpu.total_s() > 0.0 && m.cpu.total_s() > 0.0);
    }

    #[test]
    fn compute_apps_speed_up_more_than_io_apps() {
        let p = Preset::cluster1();
        let gr = measure_task(
            app_by_code("GR").unwrap().as_ref(),
            &p,
            OptFlags::all(),
            2000,
            1,
        )
        .unwrap();
        let bs = measure_task(
            app_by_code("BS").unwrap().as_ref(),
            &p,
            OptFlags::all(),
            2000,
            1,
        )
        .unwrap();
        assert!(
            bs.speedup > 2.0 * gr.speedup,
            "BS {} should far exceed GR {}",
            bs.speedup,
            gr.speedup
        );
    }

    #[test]
    fn build_job_respects_task_counts_and_replication() {
        let app = app_by_code("WC").unwrap();
        let p = Preset::cluster1();
        let m = measure_task(app.as_ref(), &p, OptFlags::all(), 500, 1).unwrap();
        let job = build_job(app.as_ref(), &p, &m, 576);
        assert_eq!(job.maps.len(), 576);
        assert!(job.maps.iter().all(|t| t.replicas.len() == 3));
        assert_eq!(job.reduces.len(), 48);
        // Jitter keeps durations near the measurement.
        let mean: f64 = job.maps.iter().map(|t| t.cpu_s).sum::<f64>() / job.maps.len() as f64;
        assert!((mean / (m.cpu.total_s() * SCALE_UP) - 1.0).abs() < 0.05);
    }

    #[test]
    fn job_speedup_gpu_helps_compute_app() {
        let app = app_by_code("CL").unwrap();
        let p = Preset::cluster1();
        let m = measure_task(app.as_ref(), &p, OptFlags::all(), 1000, 1).unwrap();
        // Table 2 task count: enough queue depth for the GPU to matter.
        let cmp = job_speedup(app.as_ref(), &p, Scheduler::GpuFirst, 1, 4800, &m);
        assert!(
            cmp.speedup > 1.1,
            "CL with a GPU should beat CPU-only: {}",
            cmp.speedup
        );
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        for id in 0..500 {
            let j = jitter(id, 0.08);
            assert!((0.92..=1.08).contains(&j));
            assert_eq!(j, jitter(id, 0.08));
        }
    }

    #[test]
    fn map_only_app_builds_no_reduces() {
        let app = app_by_code("BS").unwrap();
        let p = Preset::cluster1();
        let m = measure_task(app.as_ref(), &p, OptFlags::all(), 300, 1).unwrap();
        let job = build_job(app.as_ref(), &p, &m, 100);
        assert!(job.reduces.is_empty());
    }
}
