//! Functional whole-job execution: HDFS input → per-split map(+combine)
//! tasks (GPU or CPU) → shuffle → reduce → HDFS output. This is the
//! *data-plane* counterpart of the DES in `hetero-cluster` (which models
//! the control plane: where and when tasks run); results are bit-real.

use crate::presets::Preset;
use hetero_apps::App;
use hetero_cluster::ParallelRunner;
use hetero_gpusim::{Device, GpuError, KernelLogEntry};
use hetero_hdfs::{reader, seqfile, Hdfs, Topology};
use hetero_runtime::cpu::run_cpu_task;
use hetero_runtime::reduce::run_reduce_task;
use hetero_runtime::task::run_gpu_task;
use hetero_runtime::{OptFlags, TaskBreakdown};
use hetero_trace::{Category, Tracer};

/// Trace lanes of the functional job's single process (pid 0).
mod lane {
    pub const HDFS: u32 = 0;
    pub const TASKS: u32 = 1;
    pub const STAGES: u32 = 2;
    pub const KERNELS: u32 = 3;
    pub const PCIE: u32 = 4;
}

/// Outcome of a functional job run.
#[derive(Debug)]
pub struct FunctionalJob {
    /// Final reduced output per reduce partition, key-sorted (for
    /// map-only jobs: the raw map output per partition).
    pub output: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    /// Map tasks executed.
    pub map_tasks: usize,
    /// Map tasks that ran on the GPU.
    pub gpu_tasks: usize,
    /// Map tasks meant for the GPU that fell back to the CPU because the
    /// device was faulted (graceful degradation, not job failure).
    pub gpu_fallbacks: usize,
    /// Total simulated task seconds (map + reduce; not a makespan —
    /// placement is the DES's job).
    pub task_seconds: f64,
}

/// Run `app` functionally over `input` stored in a fresh simulated HDFS.
/// Every `gpu_every`-th map task runs on the GPU (0 = all CPU), mimicking
/// a mixed CPU+GPU execution; correctness must not depend on placement.
///
/// Tasks execute on a default [`ParallelRunner`] (all cores, or
/// `HETERO_THREADS`) and a fresh, untraced device; results are
/// byte-identical at any thread count.
pub fn run_functional_job(
    app: &dyn App,
    preset: &Preset,
    input: &[u8],
    gpu_every: usize,
    opts: OptFlags,
) -> Result<FunctionalJob, GpuError> {
    run_functional_job_pooled(
        app,
        preset,
        input,
        gpu_every,
        opts,
        &Device::new(preset.gpu.clone()),
        &Tracer::off(),
        &ParallelRunner::default(),
    )
}

/// Emit the per-stage spans of one task's [`TaskBreakdown`], back to back
/// from `t0` on the stages lane. Returns the stage-sequence end time.
fn trace_stages(tracer: &Tracer, t0: f64, bd: &TaskBreakdown) -> f64 {
    let mut t = t0;
    for (name, dur) in bd.stages() {
        if dur > 0.0 {
            tracer.span(Category::Task, name, 0, lane::STAGES, t, t + dur, vec![]);
        }
        t += dur;
    }
    t
}

/// Emit kernel-launch and PCIe-transfer spans from a drained device
/// kernel log, re-based so the first entry starts at task time `t0`.
fn trace_kernel_log(tracer: &Tracer, t0: f64, log: &[hetero_gpusim::KernelLogEntry]) {
    let Some(base) = log.first().map(|e| e.start_s) else {
        return;
    };
    for e in log {
        let start = t0 + (e.start_s - base);
        let end = start + e.stats.time_s;
        if e.name.starts_with("[memcpy") {
            let args = vec![("bytes", e.stats.counters.dram_bytes.into())];
            tracer.span(Category::Pcie, e.name, 0, lane::PCIE, start, end, args);
        } else {
            let args = vec![
                ("cycles", e.stats.cycles.into()),
                ("dram_bytes", e.stats.counters.dram_bytes.into()),
            ];
            tracer.span(Category::Kernel, e.name, 0, lane::KERNELS, start, end, args);
        }
    }
}

/// [`run_functional_job`] with everything caller-supplied: the
/// [`Device`] (so a fault can be injected with `Device::inject_fault` to
/// exercise the GPU→CPU degradation path), the tracer and the worker
/// pool.
///
/// A live `tracer` records the run as a simulated-time event log: one
/// span per HDFS split read, per task, per pipeline stage, and — for GPU
/// tasks — per kernel launch and PCIe transfer (drained from the device's
/// kernel log). Tasks are laid out back to back on one timeline: the
/// functional runner models the data plane, so the trace shows *work
/// composition*, not cluster concurrency (that is
/// [`hetero_cluster::simulate_traced`]'s job).
///
/// Output, stats, and trace are byte-identical for any pool width —
/// workers only *compute* tasks; all merging (counter aggregation,
/// kernel-log replay, trace emission, the simulated-time cursor) happens
/// on the caller's thread in task-index order.
#[allow(clippy::too_many_arguments)]
pub fn run_functional_job_pooled(
    app: &dyn App,
    preset: &Preset,
    input: &[u8],
    gpu_every: usize,
    opts: OptFlags,
    dev: &Device,
    tracer: &Tracer,
    pool: &ParallelRunner,
) -> Result<FunctionalJob, GpuError> {
    let place = |n_maps: usize| {
        (0..n_maps)
            .map(|i| gpu_every > 0 && i.is_multiple_of(gpu_every))
            .collect()
    };
    run_functional_job_placed(app, preset, input, place, opts, dev, tracer, pool)
}

/// What one map task hands back from a worker thread: pure data plus the
/// per-task device fork, merged by the caller in task-index order.
struct MapRun {
    partitions: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    breakdown: TaskBreakdown,
    device: &'static str,
    fell_back: bool,
    kernel_log: Vec<KernelLogEntry>,
    fork: Option<Device>,
}

/// Shared implementation: `place(n_maps)`, called once when the input
/// has been split, says for every map task whether it is *designated*
/// for the GPU (a faulted device still degrades it to the CPU). Used by
/// [`run_functional_job_pooled`] (modulo placement) and the
/// cluster-driven executor (DES placement).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_functional_job_placed(
    app: &dyn App,
    preset: &Preset,
    input: &[u8],
    place: impl FnOnce(usize) -> Vec<bool>,
    opts: OptFlags,
    dev: &Device,
    tracer: &Tracer,
    pool: &ParallelRunner,
) -> Result<FunctionalJob, GpuError> {
    let trace_on = tracer.is_enabled();
    if trace_on {
        tracer.name_process(0, "functional-job");
        tracer.name_lane(0, lane::HDFS, "hdfs");
        tracer.name_lane(0, lane::TASKS, "tasks");
        tracer.name_lane(0, lane::STAGES, "stages");
        tracer.name_lane(0, lane::KERNELS, "gpu-kernels");
        tracer.name_lane(0, lane::PCIE, "pcie");
        dev.enable_kernel_log();
    }
    let fs = Hdfs::new(
        Topology::new(preset.cluster.num_slaves, preset.cluster.nodes_per_rack),
        preset.hdfs_block,
        preset.replication.min(preset.cluster.num_slaves),
    )
    .expect("valid replication");
    fs.put("/job/input", input).expect("fresh fs");
    let file = fs.read_file("/job/input").expect("input readable");
    let splits = fs.splits("/job/input").expect("input exists");
    let gpu_placed = place(splits.len());

    let cfg = crate::pipeline::task_config(app, preset, opts);
    let mapper = app.mapper();
    let combiner = app.combiner();

    let nr = cfg.num_reducers.max(1) as usize;
    // Per-reduce-partition inputs: one sorted run per map task.
    type SortedRun = Vec<(Vec<u8>, Vec<u8>)>;
    let mut shuffle: Vec<Vec<SortedRun>> = vec![Vec::new(); nr];
    let mut task_seconds = 0.0;
    let mut gpu_tasks = 0usize;
    let mut gpu_fallbacks = 0usize;
    // Simulated-time cursor: tasks run back to back on one timeline.
    let mut t_cursor = 0.0f64;

    // --- Map phase: fan the tasks across the pool. Workers only compute;
    // each GPU-designated task runs on its own device fork so no mutable
    // state is shared between tasks. ---
    let env = &preset.env;
    let cpu = &preset.cpu;
    let mapper_ref: &dyn hetero_runtime::types::Mapper = mapper.as_ref();
    let combiner_ref = combiner.as_deref();
    let cfg_ref = &cfg;
    let file_ref = &file;
    let jobs: Vec<_> = splits
        .iter()
        .enumerate()
        .map(|(i, split)| {
            // Hadoop record semantics: a task reads past its split end to
            // finish the record that started inside it.
            let (lo, hi) = reader::fetch_range(file_ref, split.offset, split.len);
            let on_gpu = gpu_placed[i];
            move || -> Result<MapRun, GpuError> {
                let task_input = &file_ref[lo as usize..hi as usize];
                let run_cpu = |fell_back| {
                    let r = run_cpu_task(
                        env,
                        cpu,
                        task_input,
                        mapper_ref,
                        combiner_ref,
                        cfg_ref.num_reducers,
                        cfg_ref.map_only,
                    );
                    MapRun {
                        partitions: r.partitions,
                        breakdown: r.breakdown,
                        device: "cpu",
                        fell_back,
                        kernel_log: Vec::new(),
                        fork: None,
                    }
                };
                if !on_gpu {
                    return Ok(run_cpu(false));
                }
                let fork = dev.fork();
                // A faulted device degrades the task to the CPU path
                // instead of failing the job — output must stay identical
                // either way.
                match run_gpu_task(&fork, env, task_input, mapper_ref, combiner_ref, cfg_ref) {
                    Ok(r) => Ok(MapRun {
                        partitions: r.partitions,
                        breakdown: r.breakdown,
                        device: "gpu",
                        fell_back: false,
                        // Snapshot, not drain: merge_from moves the
                        // entries onto the parent device's clock so the
                        // shared device's log keeps accumulating exactly
                        // as a serial run's would.
                        kernel_log: fork.kernel_log_snapshot(),
                        fork: Some(fork),
                    }),
                    Err(GpuError::DeviceFault(_)) => Ok(MapRun {
                        fork: Some(fork),
                        ..run_cpu(true)
                    }),
                    Err(e) => Err(e),
                }
            }
        })
        .collect();

    // --- Deterministic merge, in task-index order: the trace, counter
    // totals and time cursor replay exactly as a serial run would.
    for ((i, split), run) in splits.iter().enumerate().zip(pool.run(jobs)) {
        let run = run?;
        if run.fell_back {
            gpu_fallbacks += 1;
            if trace_on {
                tracer.instant(
                    Category::Fault,
                    format!("map {i}: gpu fault, cpu fallback"),
                    0,
                    lane::TASKS,
                    t_cursor,
                    vec![],
                );
            }
        } else if run.fork.is_some() {
            gpu_tasks += 1;
            if trace_on {
                trace_kernel_log(tracer, t_cursor, &run.kernel_log);
            }
        }
        if let Some(fork) = &run.fork {
            dev.merge_from(fork);
        }
        let total = run.breakdown.total_s();
        if trace_on {
            tracer.span(
                Category::Hdfs,
                format!("split {i}"),
                0,
                lane::HDFS,
                t_cursor,
                t_cursor + run.breakdown.input_read_s,
                vec![("offset", split.offset.into()), ("len", split.len.into())],
            );
            tracer.span(
                Category::Task,
                format!("map {i}"),
                0,
                lane::TASKS,
                t_cursor,
                t_cursor + total,
                vec![("device", run.device.into())],
            );
            trace_stages(tracer, t_cursor, &run.breakdown);
        }
        t_cursor += total;
        task_seconds += total;
        for (p, pairs) in run.partitions.into_iter().enumerate() {
            if !pairs.is_empty() {
                shuffle[p % nr].push(pairs);
            }
        }
    }

    // Reduce phase (CPU-only, as in HeteroDoop). Map-only jobs write the
    // map output directly. Partitions are independent, so they fan across
    // the pool too; spans and time bookkeeping replay in partition order.
    let mut output = Vec::with_capacity(nr);
    match app.reducer() {
        Some(red) if !cfg.map_only => {
            let red_ref: &dyn hetero_runtime::types::Reducer = red.as_ref();
            let jobs: Vec<_> = shuffle
                .into_iter()
                .map(|part_inputs| move || run_reduce_task(env, cpu, part_inputs, red_ref))
                .collect();
            for (p, r) in pool.run(jobs).into_iter().enumerate() {
                if trace_on {
                    tracer.span(
                        Category::Task,
                        format!("reduce {p}"),
                        0,
                        lane::TASKS,
                        t_cursor,
                        t_cursor + r.time_s,
                        vec![("device", "cpu".into())],
                    );
                }
                t_cursor += r.time_s;
                task_seconds += r.time_s;
                output.push(r.output);
            }
        }
        _ => {
            let jobs: Vec<_> = shuffle
                .into_iter()
                .map(|part_inputs| {
                    move || {
                        let mut flat: Vec<(Vec<u8>, Vec<u8>)> =
                            part_inputs.into_iter().flatten().collect();
                        flat.sort_by(|a, b| a.0.cmp(&b.0));
                        flat
                    }
                })
                .collect();
            output.extend(pool.run(jobs));
        }
    }

    // Persist the result as SequenceFiles (one per partition).
    for (p, pairs) in output.iter().enumerate() {
        let enc = seqfile::encode(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
        fs.put(&format!("/job/output/part-{p:05}"), &enc)
            .expect("fresh output path");
    }

    Ok(FunctionalJob {
        output,
        map_tasks: splits.len(),
        gpu_tasks,
        gpu_fallbacks,
        task_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn word_totals(job: &FunctionalJob) -> BTreeMap<String, i64> {
        let mut m = BTreeMap::new();
        for part in &job.output {
            for (k, v) in part {
                let key = String::from_utf8_lossy(hetero_runtime::types::trim_key(k)).to_string();
                let val: i64 = String::from_utf8_lossy(hetero_runtime::types::trim_key(v))
                    .trim()
                    .parse()
                    .unwrap_or(0);
                *m.entry(key).or_insert(0) += val;
            }
        }
        m
    }

    fn direct_counts(input: &[u8]) -> BTreeMap<String, i64> {
        let mut m = BTreeMap::new();
        for line in input.split(|&b| b == b'\n') {
            for w in line
                .split(|&b: &u8| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'\''))
                .filter(|w| !w.is_empty())
            {
                *m.entry(String::from_utf8_lossy(w).to_string()).or_insert(0) += 1;
            }
        }
        m
    }

    #[test]
    fn wordcount_job_matches_direct_counting() {
        let app = hetero_apps::app_by_code("WC").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(16000, 31); // ~515 KB: spans multiple 256 KB fileSplits
        let job = run_functional_job(app.as_ref(), &p, &input, 2, OptFlags::all()).unwrap();
        assert!(job.map_tasks > 1, "input must span several fileSplits");
        assert!(job.gpu_tasks > 0, "some tasks must run on the GPU");
        assert_eq!(word_totals(&job), direct_counts(&input));
    }

    #[test]
    fn placement_does_not_change_the_answer() {
        // All-CPU, all-GPU, and mixed placements must agree — the paper's
        // single-source portability claim, end to end.
        let app = hetero_apps::app_by_code("HR").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(600, 7);
        let all_cpu = run_functional_job(app.as_ref(), &p, &input, 0, OptFlags::all()).unwrap();
        let all_gpu = run_functional_job(app.as_ref(), &p, &input, 1, OptFlags::all()).unwrap();
        let mixed = run_functional_job(app.as_ref(), &p, &input, 3, OptFlags::all()).unwrap();
        assert_eq!(word_totals(&all_cpu), word_totals(&all_gpu));
        assert_eq!(word_totals(&all_cpu), word_totals(&mixed));
        assert_eq!(all_cpu.gpu_tasks, 0);
        assert_eq!(all_gpu.gpu_tasks, all_gpu.map_tasks);
    }

    #[test]
    fn optimizations_do_not_change_the_answer() {
        let app = hetero_apps::app_by_code("WC").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(400, 9);
        let on = run_functional_job(app.as_ref(), &p, &input, 1, OptFlags::all()).unwrap();
        let off = run_functional_job(app.as_ref(), &p, &input, 1, OptFlags::none()).unwrap();
        assert_eq!(word_totals(&on), word_totals(&off));
    }

    #[test]
    fn shared_device_kernel_log_accumulates_across_pooled_tasks() {
        // Regression: forks must hand their log entries back to the
        // parent device (snapshot for tracing, *move* on merge), so an
        // nvprof-style profile drained after the job sees every launch —
        // at any worker count.
        let app = hetero_apps::app_by_code("WC").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(2000, 13);
        let logs: Vec<Vec<hetero_gpusim::KernelLogEntry>> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let dev = Device::new(p.gpu.clone());
                dev.enable_kernel_log();
                run_functional_job_pooled(
                    app.as_ref(),
                    &p,
                    &input,
                    1,
                    OptFlags::all(),
                    &dev,
                    &Tracer::off(),
                    &ParallelRunner::new(threads),
                )
                .unwrap();
                dev.take_kernel_log()
            })
            .collect();
        assert!(
            !logs[0].is_empty(),
            "the parent device's log must keep accumulating"
        );
        let names = |l: &[hetero_gpusim::KernelLogEntry]| -> Vec<&'static str> {
            l.iter().map(|e| e.name).collect()
        };
        assert_eq!(names(&logs[0]), names(&logs[1]));
        assert!(
            logs[0].iter().any(|e| e.name.contains("memcpy")),
            "PCIe transfers must be logged too"
        );
    }

    #[test]
    fn device_fault_degrades_to_cpu_with_identical_output() {
        let app = hetero_apps::app_by_code("WC").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(2000, 13);
        let clean = run_functional_job(app.as_ref(), &p, &input, 2, OptFlags::all()).unwrap();
        assert!(clean.gpu_tasks > 0);
        assert_eq!(clean.gpu_fallbacks, 0);

        let dev = Device::new(p.gpu.clone());
        dev.inject_fault("xid 62: uncorrectable ECC error");
        let run_on = |dev: &Device| {
            run_functional_job_pooled(
                app.as_ref(),
                &p,
                &input,
                2,
                OptFlags::all(),
                dev,
                &Tracer::off(),
                &ParallelRunner::default(),
            )
            .unwrap()
        };
        let faulted = run_on(&dev);
        assert_eq!(faulted.gpu_tasks, 0, "faulted device runs nothing");
        assert_eq!(
            faulted.gpu_fallbacks, clean.gpu_tasks,
            "every GPU-designated task must fall back to the CPU"
        );
        // Byte-identical output, not just equal word totals.
        assert_eq!(clean.output, faulted.output);

        // A revived device stops degrading.
        dev.revive();
        let healed = run_on(&dev);
        assert_eq!(healed.gpu_fallbacks, 0);
        assert_eq!(healed.gpu_tasks, clean.gpu_tasks);
        assert_eq!(healed.output, clean.output);
    }

    #[test]
    fn traced_run_is_observation_only_and_exports_valid_json() {
        let app = hetero_apps::app_by_code("WC").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(800, 5);
        let dev = Device::new(p.gpu.clone());
        let tracer = Tracer::new();
        let traced = run_functional_job_pooled(
            app.as_ref(),
            &p,
            &input,
            2,
            OptFlags::all(),
            &dev,
            &tracer,
            &ParallelRunner::default(),
        )
        .unwrap();
        let plain = run_functional_job(app.as_ref(), &p, &input, 2, OptFlags::all()).unwrap();
        // Tracing is pure observation: bit-identical output and identical
        // simulated task time.
        assert_eq!(traced.output, plain.output);
        assert_eq!(traced.task_seconds, plain.task_seconds);

        let evs = tracer.events();
        assert!(!evs.is_empty());
        for cat in [
            Category::Task,
            Category::Hdfs,
            Category::Kernel,
            Category::Pcie,
        ] {
            assert!(evs.iter().any(|e| e.cat == cat), "missing category {cat:?}");
        }
        // Named kernels (not "[unnamed kernel]") and both copy directions.
        assert!(evs.iter().any(|e| e.name == "map_kernel"));
        assert!(evs.iter().any(|e| e.name == "[memcpy HtoD]"));
        assert!(evs.iter().any(|e| e.name == "[memcpy DtoH]"));
        hetero_trace::json::validate(&tracer.to_chrome_json()).unwrap();
    }

    #[test]
    fn map_only_job_skips_reduce() {
        let app = hetero_apps::app_by_code("BS").unwrap();
        let p = Preset::cluster1();
        let input = app.generate_split(200, 3);
        let job = run_functional_job(app.as_ref(), &p, &input, 2, OptFlags::all()).unwrap();
        let total: usize = job.output.iter().map(|p| p.len()).sum();
        assert_eq!(total, 200, "one priced option per input record");
    }
}
