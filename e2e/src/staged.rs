//! The staged driver: the traced rep's second half.
//!
//! `run_functional_job_pooled` is one opaque call from outside, so the
//! runtime's stages cannot be timed through it. This module replays the
//! same job over the crates' *public* stage functions — the order
//! `hetero_runtime::task::run_gpu_task` and
//! `heterodoop::run_functional_job_pooled` call them in — with a span
//! around each. It is a bench-owned copy of that order, so
//! [`check_parity`] compares every task it stages against what
//! `run_gpu_task` / `run_cpu_task` return for the same split, and the
//! caller compares the replay's final output against the real job's:
//! the copy cannot drift silently.

use crate::decor::{Acc, Snap};
use crate::spans::SpanLog;
use crate::verify::Pairs;
use hetero_apps::App;
use hetero_gpusim::{Device, GpuError};
use hetero_hdfs::{reader, seqfile, Hdfs, Topology};
use hetero_runtime::aggregate::{aggregate, unaggregated_partitions};
use hetero_runtime::combine_kernel::{run_combine, CombineConfig};
use hetero_runtime::cpu::run_cpu_task;
use hetero_runtime::map_kernel::{run_map, MapConfig};
use hetero_runtime::record::locate_records;
use hetero_runtime::reduce::run_reduce_task;
use hetero_runtime::sort::sort_partition;
use hetero_runtime::task::{run_gpu_task, GpuTaskConfig};
use hetero_runtime::types::{trim_key, Combiner, Mapper};
use hetero_runtime::{OptFlags, TaskBreakdown, TaskEnv};
use heterodoop::Preset;

/// One staged map task: what `run_gpu_task` / `run_cpu_task` would have
/// returned for the split.
pub struct StagedTask {
    pub on_gpu: bool,
    /// Byte range of the task's input within the file.
    pub range: (usize, usize),
    pub partitions: Vec<Pairs>,
    pub breakdown: TaskBreakdown,
    pub records: usize,
}

/// Exact counts gathered while staging.
#[derive(Default)]
pub struct Tally {
    pub records: u64,
    pub pairs_sorted: u64,
    pub pairs_out: u64,
    pub gpu_tasks: u64,
    pub kv_occupancy_sum: f64,
    pub splits: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

pub struct Replay {
    pub tasks: Vec<StagedTask>,
    pub output: Vec<Pairs>,
    pub task_seconds: f64,
    pub tally: Tally,
}

/// The file system a job on `preset` runs over, as
/// `run_functional_job_pooled` builds it.
pub fn hdfs_for(preset: &Preset) -> Hdfs {
    Hdfs::new(
        Topology::new(preset.cluster.num_slaves, preset.cluster.nodes_per_rack),
        preset.hdfs_block,
        preset.replication.min(preset.cluster.num_slaves),
    )
    .expect("preset replication is valid")
}

/// Attach what the decorators accumulated since `before` to `parent`,
/// one busy child per user function that was called.
pub fn busy_children(log: &mut SpanLog, parent: u32, acc: &Acc, before: Snap) {
    let d = acc.snap() - before;
    if d.map_calls > 0 {
        log.busy_child(parent, "cc.map", "hetero-cc", d.map_ns, d.map_calls);
    }
    if d.combine_calls > 0 {
        log.busy_child(
            parent,
            "cc.combine",
            "hetero-cc",
            d.combine_ns,
            d.combine_calls,
        );
    }
    if d.reduce_calls > 0 {
        log.busy_child(
            parent,
            "apps.reduce",
            "hetero-apps",
            d.reduce_ns,
            d.reduce_calls,
        );
    }
}

/// `run_gpu_task`'s body, stage by stage. Every formula below is the
/// runtime's; `check_parity` fails the rep if one of them goes stale.
#[allow(clippy::too_many_arguments)]
fn stage_gpu_task(
    log: &mut SpanLog,
    dev: &Device,
    env: &TaskEnv,
    split: &[u8],
    mapper: &dyn Mapper,
    combiner: Option<&dyn Combiner>,
    cfg: &GpuTaskConfig,
    acc: &Acc,
    tally: &mut Tally,
) -> Result<(Vec<Pairs>, TaskBreakdown, usize), GpuError> {
    let mut bd = TaskBreakdown {
        input_read_s: env.io_latency_s + split.len() as f64 / env.read_bw,
        ..Default::default()
    };
    let (_, input) = log.scope("gpusim.h2d", "hetero-gpusim", |_| {
        let buf = dev.alloc(split.len() as u64)?;
        Ok::<_, GpuError>((buf, dev.h2d(split.len() as u64)?))
    });
    let (input_buf, h2d_s) = input?;
    bd.input_read_s += h2d_s;

    let (_, loc) = log.scope("runtime.locate", "hetero-runtime", |_| {
        locate_records(dev, split)
    });
    let loc = loc?;
    bd.record_count_s = loc.stats.time_s;
    let records = loc.records.len();

    let slot_bytes = (cfg.key_len + cfg.val_len + 4) as u64 + 1;
    let max_slots = (dev.available() / slot_bytes) as usize;
    let mut blocks = cfg.blocks;
    let mut threads = (blocks * cfg.threads_per_block) as usize;
    let slots = match cfg.kvpairs_hint {
        Some(kv) => (records * kv * 2).max(threads).min(max_slots),
        None => max_slots,
    };
    let stores_per_thread = (slots / threads.max(1))
        .max(4 * cfg.kvpairs_hint.unwrap_or(1))
        .max(1);
    while blocks > 1
        && u64::from(blocks * cfg.threads_per_block) * stores_per_thread as u64 * slot_bytes
            > dev.available()
    {
        blocks /= 2;
    }
    threads = (blocks * cfg.threads_per_block) as usize;
    let store_alloc = dev.alloc((threads * stores_per_thread) as u64 * slot_bytes)?;

    let map_cfg = MapConfig {
        blocks,
        threads_per_block: cfg.threads_per_block,
        stores_per_thread,
        key_len: cfg.key_len,
        val_len: cfg.val_len,
        num_reducers: cfg.num_reducers.max(1),
        opts: cfg.opts,
        ro_bytes: cfg.ro_bytes,
        kvpairs_per_record: cfg.kvpairs_hint.unwrap_or(1),
    };
    let before = acc.snap();
    let (map_span, mapped) = log.scope("runtime.map", "hetero-runtime", |_| {
        run_map(dev, split, &loc.records, mapper, &map_cfg)
    });
    busy_children(log, map_span, acc, before);
    let mapped = mapped?;
    if mapped.dropped_records > 0 {
        return Err(GpuError::DeviceFault(format!(
            "global KV store exhausted: {} records dropped",
            mapped.dropped_records
        )));
    }
    let store = mapped.store;
    bd.map_s = mapped.stats.time_s;
    tally.kv_occupancy_sum += store.occupancy();

    let per_partition: Vec<Vec<u32>> = if cfg.opts.aggregate_before_sort {
        let (_, agg) = log.scope("runtime.aggregate", "hetero-runtime", |_| {
            aggregate(dev, &store)
        });
        let agg = agg?;
        bd.aggregate_s = agg.stats.time_s;
        agg.per_partition
    } else {
        unaggregated_partitions(&store)
    };

    let comb_cfg = CombineConfig {
        blocks: cfg.blocks.min(16),
        threads_per_block: cfg.threads_per_block,
        opts: cfg.opts,
        key_len: cfg.comb_key_len,
        val_len: cfg.comb_val_len,
    };
    let mut partitions = Vec::with_capacity(per_partition.len());
    for idxs in &per_partition {
        tally.pairs_sorted += idxs.len() as u64;
        let (_, sorted) = log.scope("runtime.sort", "hetero-runtime", |_| {
            sort_partition(dev, &store, idxs)
        });
        let sorted = sorted?;
        bd.sort_s += sorted.stats.time_s;
        match combiner {
            Some(c) => {
                let before = acc.snap();
                let (span, combined) = log.scope("runtime.combine", "hetero-runtime", |_| {
                    run_combine(dev, &store, &sorted.order, c, &comb_cfg)
                });
                busy_children(log, span, acc, before);
                let combined = combined?;
                bd.combine_s += combined.stats.time_s;
                partitions.push(combined.pairs);
            }
            None => partitions.push(
                sorted
                    .order
                    .iter()
                    .filter(|&&i| i != u32::MAX)
                    .map(|&i| {
                        (
                            trim_key(store.key(i as usize)).to_vec(),
                            store.val(i as usize).to_vec(),
                        )
                    })
                    .collect(),
            ),
        }
    }

    let out_bytes: u64 = partitions
        .iter()
        .flatten()
        .map(|(k, v)| (k.len() + v.len() + 8) as u64)
        .sum();
    let (_, d2h_s) = log.scope("gpusim.d2h", "hetero-gpusim", |_| dev.d2h(out_bytes));
    bd.output_write_s = d2h_s?
        + out_bytes as f64 / env.format_bw
        + env.io_latency_s
        + out_bytes as f64 / env.write_bw;
    if cfg.map_only {
        bd.output_write_s += out_bytes as f64 / env.write_bw;
    }
    dev.free(input_buf)?;
    dev.free(store_alloc)?;
    Ok((partitions, bd, records))
}

/// Replay the whole job under a `staged.replay` root span: HDFS put and
/// split read, every map task on the placement the real job uses, the
/// shuffle, the reduce (or the map-only merge), and output persistence.
/// Runs on the caller's thread, one task at a time.
pub fn replay(
    log: &mut SpanLog,
    app: &dyn App,
    acc: &Acc,
    preset: &Preset,
    input: &[u8],
    gpu_every: usize,
    dev: &Device,
) -> Result<Replay, GpuError> {
    let (_, r) = log.scope("staged.replay", "heterodoop", |log| {
        let mut tally = Tally::default();
        let fs = hdfs_for(preset);
        log.scope("hdfs.put", "hetero-hdfs", |_| {
            fs.put("/job/input", input).expect("fresh fs");
        });
        let (_, (file, ranges)) = log.scope("hdfs.read", "hetero-hdfs", |_| {
            let file = fs.read_file("/job/input").expect("input readable");
            let splits = fs.splits("/job/input").expect("input exists");
            let ranges: Vec<(usize, usize)> = splits
                .iter()
                .map(|s| {
                    let (lo, hi) = reader::fetch_range(&file, s.offset, s.len);
                    (lo as usize, hi as usize)
                })
                .collect();
            (file, ranges)
        });
        tally.splits = ranges.len() as u64;
        tally.bytes_in = file.len() as u64;

        let cfg = heterodoop::task_config(app, preset, OptFlags::all());
        let mapper = app.mapper();
        let combiner = app.combiner();
        let nr = cfg.num_reducers.max(1) as usize;
        let mut shuffle: Vec<Vec<Pairs>> = vec![Vec::new(); nr];
        let mut task_seconds = 0.0;
        let mut tasks = Vec::with_capacity(ranges.len());

        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let split = &file[lo..hi];
            let on_gpu = gpu_every > 0 && i.is_multiple_of(gpu_every);
            let (partitions, breakdown, records) = if on_gpu {
                let fork = dev.fork();
                let (span, r) = log.scope("runtime.gpu_task", "hetero-runtime", |log| {
                    stage_gpu_task(
                        log,
                        &fork,
                        &preset.env,
                        split,
                        mapper.as_ref(),
                        combiner.as_deref(),
                        &cfg,
                        acc,
                        &mut tally,
                    )
                });
                dev.merge_from(&fork);
                tally.gpu_tasks += 1;
                let r = r?;
                log.count(span, "records", r.2 as u64);
                r
            } else {
                let before = acc.snap();
                let (span, r) = log.scope("runtime.cpu_task", "hetero-runtime", |_| {
                    run_cpu_task(
                        &preset.env,
                        &preset.cpu,
                        split,
                        mapper.as_ref(),
                        combiner.as_deref(),
                        cfg.num_reducers,
                        cfg.map_only,
                    )
                });
                busy_children(log, span, acc, before);
                log.count(span, "records", r.records as u64);
                (r.partitions, r.breakdown, r.records)
            };
            tally.records += records as u64;
            tally.pairs_out += partitions.iter().map(|p| p.len() as u64).sum::<u64>();
            task_seconds += breakdown.total_s();
            for (p, pairs) in partitions.iter().enumerate() {
                if !pairs.is_empty() {
                    shuffle[p % nr].push(pairs.clone());
                }
            }
            tasks.push(StagedTask {
                on_gpu,
                range: (lo, hi),
                partitions,
                breakdown,
                records,
            });
        }

        let mut output: Vec<Pairs> = Vec::with_capacity(nr);
        match app.reducer() {
            Some(red) if !cfg.map_only => {
                for part_inputs in shuffle {
                    let before = acc.snap();
                    let (span, r) = log.scope("runtime.reduce", "hetero-runtime", |_| {
                        run_reduce_task(&preset.env, &preset.cpu, part_inputs, red.as_ref())
                    });
                    busy_children(log, span, acc, before);
                    task_seconds += r.time_s;
                    output.push(r.output);
                }
            }
            _ => {
                for part_inputs in shuffle {
                    let mut flat: Pairs = part_inputs.into_iter().flatten().collect();
                    flat.sort_by(|a, b| a.0.cmp(&b.0));
                    output.push(flat);
                }
            }
        }

        for (p, pairs) in output.iter().enumerate() {
            let (_, enc) = log.scope("hdfs.seqfile_encode", "hetero-hdfs", |_| {
                seqfile::encode(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
            });
            tally.bytes_out += enc.len() as u64;
            log.scope("hdfs.put_output", "hetero-hdfs", |_| {
                fs.put(&format!("/job/output/part-{p:05}"), &enc)
                    .expect("fresh output path");
            });
        }
        Ok(Replay {
            tasks,
            output,
            task_seconds,
            tally,
        })
    });
    r
}

fn same_bits(a: &TaskBreakdown, b: &TaskBreakdown) -> bool {
    a.stages()
        .iter()
        .zip(b.stages().iter())
        .all(|((_, x), (_, y))| x.to_bits() == y.to_bits())
}

/// Run every staged task's split through `run_gpu_task` / `run_cpu_task`
/// and require byte-equal partitions and bit-equal breakdowns. Returns
/// the first divergence as text.
pub fn check_parity(
    app: &dyn App,
    preset: &Preset,
    input: &[u8],
    dev: &Device,
    staged: &[StagedTask],
) -> Result<(), String> {
    let cfg = heterodoop::task_config(app, preset, OptFlags::all());
    let mapper = app.mapper();
    let combiner = app.combiner();
    for (i, t) in staged.iter().enumerate() {
        let split = &input[t.range.0..t.range.1];
        let (partitions, breakdown, records) = if t.on_gpu {
            let r = run_gpu_task(
                &dev.fork(),
                &preset.env,
                split,
                mapper.as_ref(),
                combiner.as_deref(),
                &cfg,
            )
            .map_err(|e| format!("task {i}: run_gpu_task failed: {e}"))?;
            (r.partitions, r.breakdown, r.records)
        } else {
            let r = run_cpu_task(
                &preset.env,
                &preset.cpu,
                split,
                mapper.as_ref(),
                combiner.as_deref(),
                cfg.num_reducers,
                cfg.map_only,
            );
            (r.partitions, r.breakdown, r.records)
        };
        if records != t.records {
            return Err(format!(
                "task {i}: staged {} records, runtime {records}",
                t.records
            ));
        }
        if partitions != t.partitions {
            return Err(format!("task {i}: staged partitions differ from runtime's"));
        }
        if !same_bits(&breakdown, &t.breakdown) {
            return Err(format!(
                "task {i}: staged breakdown {:?} != runtime {breakdown:?}",
                t.breakdown
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decor::TimedApp;
    use hetero_trace::Tracer;
    use heterodoop::{run_functional_job_pooled, CompiledApp, ParallelRunner};

    /// The satellite's guard: the bench's copy of the stage order equals
    /// `hetero-runtime`'s on every task of a mixed-placement job with a
    /// combiner and reducer, and of a map-only all-GPU job.
    #[test]
    fn staged_replay_matches_the_runtime_and_the_real_job() {
        // Small blocks, so that small inputs still span several splits.
        let mut preset = Preset::cluster1();
        preset.hdfs_block = 32 * 1024;
        for (code, compiled, records, gpu_every) in [
            ("WC", true, 6_000, 2),
            ("WC", false, 6_000, 1),
            ("BS", true, 2_500, 1),
        ] {
            let base = hetero_apps::app_by_code(code).unwrap();
            let input = base.generate_split(records, 11);
            let app: Box<dyn App> = if compiled {
                Box::new(CompiledApp::new(base).unwrap())
            } else {
                base
            };
            let timed = TimedApp::new(app.as_ref());
            let mut log = SpanLog::new();
            let dev = Device::new(preset.gpu.clone());
            let r = replay(
                &mut log,
                &timed,
                timed.acc(),
                &preset,
                &input,
                gpu_every,
                &dev,
            )
            .unwrap();
            assert!(r.tasks.len() > 1, "{code}: input must span several splits");
            check_parity(app.as_ref(), &preset, &input, &dev, &r.tasks)
                .unwrap_or_else(|e| panic!("{code}: {e}"));

            let real_dev = Device::new(preset.gpu.clone());
            let job = run_functional_job_pooled(
                app.as_ref(),
                &preset,
                &input,
                gpu_every,
                OptFlags::all(),
                &real_dev,
                &Tracer::off(),
                &ParallelRunner::new(2),
            )
            .unwrap();
            assert_eq!(r.output, job.output, "{code}: replay output differs");
            assert_eq!(r.task_seconds.to_bits(), job.task_seconds.to_bits());
            assert_eq!(r.tally.gpu_tasks as usize, job.gpu_tasks);
            assert_eq!(dev.totals(), real_dev.totals());
            assert_eq!(dev.kernels_launched(), real_dev.kernels_launched());
            assert_eq!(dev.transfer_bytes(), real_dev.transfer_bytes());
            assert_eq!(r.tally.records as usize, records);

            // Every stage got a span, and the decorators' time sits
            // under the stage that called them.
            let totals = log.totals();
            for name in [
                "staged.replay",
                "hdfs.put",
                "hdfs.read",
                "runtime.map",
                "cc.map",
            ] {
                assert!(totals.contains_key(name), "{code}: no {name} span");
            }
            let map = totals["runtime.map"];
            assert!(map.self_s <= map.dur_s);
        }
    }

    #[test]
    fn parity_check_catches_a_stale_copy() {
        let preset = Preset::cluster1();
        let app = hetero_apps::app_by_code("WC").unwrap();
        let input = app.generate_split(3_000, 5);
        let timed = TimedApp::new(app.as_ref());
        let dev = Device::new(preset.gpu.clone());
        let mut r = replay(
            &mut SpanLog::new(),
            &timed,
            timed.acc(),
            &preset,
            &input,
            1,
            &dev,
        )
        .unwrap();
        r.tasks[0].breakdown.sort_s *= 1.0 + 1e-15;
        let err = check_parity(app.as_ref(), &preset, &input, &dev, &r.tasks).unwrap_err();
        assert!(err.contains("task 0") && err.contains("breakdown"), "{err}");
    }
}
