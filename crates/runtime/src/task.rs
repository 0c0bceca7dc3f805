//! The complete GPU map+combine task — the host driver flow of Fig. 1 —
//! and its execution-time breakdown (Fig. 6).

use crate::aggregate::{aggregate, unaggregated_partitions};
use crate::combine_kernel::{run_combine, CombineConfig};
use crate::map_kernel::{run_map, MapConfig, MapOutcome};
use crate::opts::OptFlags;
use crate::record::locate_records;
use crate::sort::sort_partition;
use crate::types::{trim_key, Combiner, Mapper};
use hetero_gpusim::{Device, GpuError};

/// Storage/IO environment of the node executing tasks (Table 3: Cluster1
/// has 500 GB disks; Cluster2 is in-memory).
#[derive(Debug, Clone)]
pub struct TaskEnv {
    /// Sequential read bandwidth of input storage, bytes/s.
    pub read_bw: f64,
    /// Sequential write bandwidth of output storage, bytes/s.
    pub write_bw: f64,
    /// Fixed per-file IO latency, seconds.
    pub io_latency_s: f64,
    /// Host-side byte-processing rate for formatting + checksumming the
    /// output (SequenceFileFormat, §5.2), bytes/s.
    pub format_bw: f64,
}

impl TaskEnv {
    /// Disk-backed node (Cluster1-like). The per-file latency is scaled
    /// down with the 1:1024 workload scaling (DESIGN.md §2) so that fixed
    /// costs keep the same *relative* weight they have at paper scale.
    pub fn disk() -> Self {
        TaskEnv {
            read_bw: 400e6,
            write_bw: 250e6,
            io_latency_s: 30e-6,
            format_bw: 800e6,
        }
    }

    /// In-memory node (Cluster2-like): storage is RAM.
    pub fn in_memory() -> Self {
        TaskEnv {
            read_bw: 6e9,
            write_bw: 4e9,
            io_latency_s: 1e-6,
            format_bw: 800e6,
        }
    }
}

/// Per-stage execution time of one GPU task, the categories of Fig. 6.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskBreakdown {
    /// Reading the fileSplit from HDFS + copying it to the device.
    pub input_read_s: f64,
    /// The record-locator kernel.
    pub record_count_s: f64,
    /// The map kernel.
    pub map_s: f64,
    /// KV-pair aggregation (scan + compaction).
    pub aggregate_s: f64,
    /// Per-partition intermediate sort.
    pub sort_s: f64,
    /// Per-partition combine kernel.
    pub combine_s: f64,
    /// Formatting (SequenceFile + checksum), D2H copy, and storage write.
    pub output_write_s: f64,
}

impl TaskBreakdown {
    /// Total task time.
    pub fn total_s(&self) -> f64 {
        self.input_read_s
            + self.record_count_s
            + self.map_s
            + self.aggregate_s
            + self.sort_s
            + self.combine_s
            + self.output_write_s
    }

    /// The stages as (name, seconds) pairs, in pipeline order.
    pub fn stages(&self) -> [(&'static str, f64); 7] {
        [
            ("input read", self.input_read_s),
            ("record count", self.record_count_s),
            ("map", self.map_s),
            ("aggregate", self.aggregate_s),
            ("sort", self.sort_s),
            ("combine", self.combine_s),
            ("output write", self.output_write_s),
        ]
    }
}

/// Configuration of a GPU task.
#[derive(Debug, Clone)]
pub struct GpuTaskConfig {
    /// Threadblocks for the map kernel.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Emitted key slot width (mapper's `keylength`).
    pub key_len: usize,
    /// Emitted value slot width.
    pub val_len: usize,
    /// Combiner output key width (defaults to `key_len`).
    pub comb_key_len: usize,
    /// Combiner output value width.
    pub comb_val_len: usize,
    /// Reduce partition count.
    pub num_reducers: u32,
    /// Optimization switches.
    pub opts: OptFlags,
    /// `kvpairs` clause value, if the user supplied one (§3.2): caps the
    /// global-KV-store allocation at `records × kvpairs` slots.
    pub kvpairs_hint: Option<usize>,
    /// Shared read-only data footprint in bytes.
    pub ro_bytes: u64,
    /// Whether this is a map-only job (output goes straight to HDFS).
    pub map_only: bool,
}

impl GpuTaskConfig {
    /// Reasonable defaults for the given KV geometry.
    pub fn new(key_len: usize, val_len: usize, num_reducers: u32) -> Self {
        GpuTaskConfig {
            blocks: 60,
            threads_per_block: 128,
            key_len,
            val_len,
            comb_key_len: key_len,
            comb_val_len: val_len.max(8),
            num_reducers,
            opts: OptFlags::all(),
            kvpairs_hint: None,
            ro_bytes: 0,
            map_only: false,
        }
    }
}

/// Result of a GPU task.
#[derive(Debug)]
pub struct GpuTaskResult {
    /// Combined pairs per partition (or raw mapped pairs per partition
    /// for map-only jobs).
    pub partitions: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    /// Per-stage times (Fig. 6).
    pub breakdown: TaskBreakdown,
    /// Global-KV-store occupancy (aggregation-efficiency metric, §3.2).
    pub kv_occupancy: f64,
    /// Total records processed.
    pub records: usize,
}

/// Execute one map(+combine) task on the device, following Fig. 1:
/// copy input → locate records → allocate KV store → map → aggregate →
/// sort → combine → write output → free.
///
/// The whole task runs as one *attempt*: if it fails partway (device
/// fault, KV-store exhaustion, OOM), every side effect it had on the
/// device — PCIe byte totals, counters, clock, kernel-log entries,
/// allocations — is rolled back, so a TaskTracker retry accounts exactly
/// like a clean first run instead of double-counting the aborted work.
pub fn run_gpu_task(
    dev: &Device,
    env: &TaskEnv,
    split: &[u8],
    mapper: &dyn Mapper,
    combiner: Option<&dyn Combiner>,
    cfg: &GpuTaskConfig,
) -> Result<GpuTaskResult, GpuError> {
    let mark = dev.begin_attempt();
    let r = run_gpu_task_attempt(dev, env, split, mapper, combiner, cfg);
    if r.is_err() {
        dev.rollback_attempt(&mark);
    }
    r
}

fn run_gpu_task_attempt(
    dev: &Device,
    env: &TaskEnv,
    split: &[u8],
    mapper: &dyn Mapper,
    combiner: Option<&dyn Combiner>,
    cfg: &GpuTaskConfig,
) -> Result<GpuTaskResult, GpuError> {
    // --- Input read: storage → host → device. ---
    let mut bd = TaskBreakdown {
        input_read_s: env.io_latency_s + split.len() as f64 / env.read_bw,
        ..Default::default()
    };
    let input_buf = dev.alloc(split.len() as u64)?;
    bd.input_read_s += dev.h2d(split.len() as u64)?;

    // --- Record locator kernel. ---
    let loc = locate_records(dev, split)?;
    bd.record_count_s = loc.stats.time_s;
    let records = loc.records.len();

    // --- Allocate the global KV store (Fig. 1: all free memory unless
    // the kvpairs clause bounds it). ---
    let slot_bytes = (cfg.key_len + cfg.val_len + 4) as u64 + 1;
    let max_slots = (dev.available() / slot_bytes) as usize;
    let mut blocks = cfg.blocks;
    let threads = (blocks * cfg.threads_per_block) as usize;
    let slots = match cfg.kvpairs_hint {
        // 2x headroom over the hint: per-thread regions are uniform while
        // record-to-block assignment is not. A product past `usize` is
        // past `max_slots` too.
        Some(kv) => records
            .saturating_mul(kv)
            .saturating_mul(2)
            .max(threads)
            .min(max_slots),
        None => max_slots, // over-allocation: all remaining device memory
    };
    // A thread must be able to hold at least one full record's pairs
    // (the kvpairs clause bounds them); when that per-thread requirement
    // does not fit the device for the full grid, the driver launches a
    // smaller grid rather than overflowing mid-record.
    // 4x the per-record bound so the stop-stealing rule (a thread will
    // not steal once its region cannot fit a worst-case record) leaves
    // each thread useful capacity.
    let stores_per_thread = (slots / threads.max(1))
        .max(cfg.kvpairs_hint.unwrap_or(1).saturating_mul(4))
        .max(1);
    // The store's bytes for a grid of `blocks`; `None` past `u64`.
    let store_bytes = |blocks: u32| {
        (blocks as u64 * cfg.threads_per_block as u64)
            .checked_mul(stores_per_thread as u64)?
            .checked_mul(slot_bytes)
    };
    while blocks > 1 && store_bytes(blocks).is_none_or(|b| b > dev.available()) {
        blocks /= 2;
    }
    let store_bytes = store_bytes(blocks).ok_or(GpuError::OutOfMemory {
        requested: u64::MAX,
        available: dev.available(),
    })?;
    let store_alloc = dev.alloc(store_bytes)?;

    // --- Map kernel. ---
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
    let MapOutcome {
        store,
        stats: map_stats,
        dropped_records,
    } = run_map(dev, split, &loc.records, mapper, &map_cfg)?;
    if dropped_records > 0 {
        // The global KV store was too small: this is a task failure the
        // TaskTracker will observe and reschedule (paper §5.1). The
        // attempt rollback in run_gpu_task releases the buffers.
        return Err(GpuError::DeviceFault(format!(
            "global KV store exhausted: {dropped_records} records dropped"
        )));
    }
    bd.map_s = map_stats.time_s;
    let kv_occupancy = store.occupancy();

    // --- Aggregate (or skip, leaving whitespace for the sort). ---
    let per_partition: Vec<Vec<u32>> = if cfg.opts.aggregate_before_sort {
        let agg = aggregate(dev, &store)?;
        bd.aggregate_s = agg.stats.time_s;
        agg.per_partition
    } else {
        unaggregated_partitions(&store)
    };

    // --- Per-partition sort + combine. ---
    let comb_cfg = CombineConfig {
        blocks: cfg.blocks.min(16),
        threads_per_block: cfg.threads_per_block,
        opts: cfg.opts,
        key_len: cfg.comb_key_len,
        val_len: cfg.comb_val_len,
    };
    let mut partitions = Vec::with_capacity(per_partition.len());
    for idxs in &per_partition {
        let sorted = sort_partition(dev, &store, idxs)?;
        bd.sort_s += sorted.stats.time_s;
        match combiner {
            Some(c) => {
                let combined = run_combine(dev, &store, &sorted.order, c, &comb_cfg)?;
                bd.combine_s += combined.stats.time_s;
                partitions.push(combined.pairs);
            }
            None => {
                let pairs: Vec<(Vec<u8>, Vec<u8>)> = sorted
                    .order
                    .iter()
                    .filter(|&&i| i != u32::MAX)
                    .map(|&i| {
                        (
                            trim_key(store.key(i as usize)).to_vec(),
                            store.val(i as usize).to_vec(),
                        )
                    })
                    .collect();
                partitions.push(pairs);
            }
        }
    }

    // --- Output write: D2H + SequenceFile formatting + checksum +
    // storage write (Fig. 6's dominant stage for BlackScholes). ---
    let out_bytes: u64 = partitions
        .iter()
        .flatten()
        .map(|(k, v)| (k.len() + v.len() + 8) as u64)
        .sum();
    bd.output_write_s = dev.d2h(out_bytes)?
        + out_bytes as f64 / env.format_bw
        + env.io_latency_s
        + out_bytes as f64 / env.write_bw;
    if cfg.map_only {
        // Map-only jobs write straight to HDFS: one extra replication hop.
        bd.output_write_s += out_bytes as f64 / env.write_bw;
    }

    // --- Free device memory (Fig. 1, last box). ---
    dev.free(input_buf)?;
    dev.free(store_alloc)?;

    Ok(GpuTaskResult {
        partitions,
        breakdown: bd,
        kv_occupancy,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{SumComb, WcMap};
    use hetero_gpusim::GpuSpec;
    use std::collections::BTreeMap;

    fn split_text(n: usize) -> Vec<u8> {
        let mut s = Vec::new();
        for i in 0..n {
            s.extend_from_slice(format!("the quick word{} fox the {}\n", i % 23, i % 7).as_bytes());
        }
        s
    }

    fn word_totals(res: &GpuTaskResult) -> BTreeMap<String, i64> {
        let mut m = BTreeMap::new();
        for p in &res.partitions {
            for (k, v) in p {
                let key = String::from_utf8_lossy(k).to_string();
                let val: i64 = String::from_utf8_lossy(trim_key(v)).trim().parse().unwrap();
                *m.entry(key).or_insert(0) += val;
            }
        }
        m
    }

    fn cfg() -> GpuTaskConfig {
        let mut c = GpuTaskConfig::new(16, 8, 4);
        c.blocks = 8;
        c.threads_per_block = 64;
        c
    }

    #[test]
    fn full_task_produces_correct_wordcount() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let split = split_text(500);
        let res = run_gpu_task(
            &dev,
            &TaskEnv::disk(),
            &split,
            &WcMap,
            Some(&SumComb),
            &cfg(),
        )
        .unwrap();
        assert_eq!(res.records, 500);
        let t = word_totals(&res);
        assert_eq!(t["the"], 1000);
        assert_eq!(t["quick"], 500);
        assert_eq!(t["fox"], 500);
        // Device memory must be fully released afterwards.
        assert_eq!(dev.used(), 0);
    }

    #[test]
    fn breakdown_stages_all_populated() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let split = split_text(800);
        let res = run_gpu_task(
            &dev,
            &TaskEnv::disk(),
            &split,
            &WcMap,
            Some(&SumComb),
            &cfg(),
        )
        .unwrap();
        let bd = res.breakdown;
        for (name, t) in bd.stages() {
            assert!(t > 0.0, "stage {name} should have nonzero time");
        }
        assert!((bd.total_s() - bd.stages().iter().map(|(_, t)| t).sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn kvpairs_hint_shrinks_allocation_and_improves_occupancy() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let split = split_text(400);
        let mut hinted = cfg();
        hinted.kvpairs_hint = Some(8);
        let a = run_gpu_task(
            &dev,
            &TaskEnv::disk(),
            &split,
            &WcMap,
            Some(&SumComb),
            &hinted,
        )
        .unwrap();
        let b = run_gpu_task(
            &dev,
            &TaskEnv::disk(),
            &split,
            &WcMap,
            Some(&SumComb),
            &cfg(),
        )
        .unwrap();
        assert!(a.kv_occupancy > b.kv_occupancy);
        assert_eq!(word_totals(&a), word_totals(&b));
    }

    #[test]
    fn aggregation_speeds_up_sort() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let split = split_text(600);
        let mut no_agg = cfg();
        no_agg.opts.aggregate_before_sort = false;
        let a = run_gpu_task(
            &dev,
            &TaskEnv::disk(),
            &split,
            &WcMap,
            Some(&SumComb),
            &cfg(),
        )
        .unwrap();
        let b = run_gpu_task(
            &dev,
            &TaskEnv::disk(),
            &split,
            &WcMap,
            Some(&SumComb),
            &no_agg,
        )
        .unwrap();
        assert!(
            b.breakdown.sort_s > 2.0 * a.breakdown.sort_s,
            "unaggregated sort {} should far exceed aggregated {}",
            b.breakdown.sort_s,
            a.breakdown.sort_s
        );
        assert_eq!(word_totals(&a), word_totals(&b));
    }

    #[test]
    fn map_only_task_skips_combine() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let split = split_text(100);
        let mut c = cfg();
        c.map_only = true;
        let res = run_gpu_task(&dev, &TaskEnv::disk(), &split, &WcMap, None, &c).unwrap();
        assert_eq!(res.breakdown.combine_s, 0.0);
        let total_pairs: usize = res.partitions.iter().map(|p| p.len()).sum();
        assert_eq!(total_pairs, 600); // 6 words per line x 100
    }

    #[test]
    fn in_memory_env_has_faster_io() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let split = split_text(1000);
        let a = run_gpu_task(
            &dev,
            &TaskEnv::disk(),
            &split,
            &WcMap,
            Some(&SumComb),
            &cfg(),
        )
        .unwrap();
        let b = run_gpu_task(
            &dev,
            &TaskEnv::in_memory(),
            &split,
            &WcMap,
            Some(&SumComb),
            &cfg(),
        )
        .unwrap();
        assert!(b.breakdown.input_read_s < a.breakdown.input_read_s);
        assert!(b.breakdown.output_write_s < a.breakdown.output_write_s);
    }

    #[test]
    fn retried_task_does_not_double_count_pcie_bytes() {
        // Regression: a task dying mid-attempt (after real PCIe traffic)
        // used to leave its partial transfers in the device totals, so a
        // TaskTracker retry double-counted them.
        let split = split_text(500);
        let run = |dev: &Device| {
            run_gpu_task(
                dev,
                &TaskEnv::disk(),
                &split,
                &WcMap,
                Some(&SumComb),
                &cfg(),
            )
        };
        let clean = Device::new(GpuSpec::tesla_k40());
        let expect = run(&clean).unwrap();

        let dev = Device::new(GpuSpec::tesla_k40());
        // Two operations (input H2D + record-locator kernel) succeed,
        // then the device dies mid-task.
        dev.inject_fault_after(2, "xid 62: mid-task ECC error");
        assert!(matches!(run(&dev), Err(GpuError::DeviceFault(_))));
        assert_eq!(
            dev.transfer_bytes(),
            (0, 0),
            "aborted attempt must leave no PCIe residue"
        );
        assert_eq!(dev.used(), 0);

        // Retry on the revived device: totals pin to a clean single run.
        dev.revive();
        let retried = run(&dev).unwrap();
        assert_eq!(dev.transfer_bytes(), clean.transfer_bytes());
        assert_eq!(dev.totals(), clean.totals());
        assert_eq!(dev.kernels_launched(), clean.kernels_launched());
        assert_eq!(word_totals(&retried), word_totals(&expect));
    }

    #[test]
    fn oversized_kvpairs_hints_fail_as_out_of_memory() {
        // A store sized from these hints does not fit `usize`/`u64`: every
        // profile must report the allocation it cannot make, not panic on
        // the product or wrap it to a tiny store.
        let dev = Device::new(GpuSpec::tesla_k40());
        let split = split_text(100);
        for hint in [1 << 40, 1 << 62, usize::MAX / 3] {
            let mut c = cfg();
            c.kvpairs_hint = Some(hint);
            let r = run_gpu_task(&dev, &TaskEnv::disk(), &split, &WcMap, Some(&SumComb), &c);
            assert!(
                matches!(r, Err(GpuError::OutOfMemory { .. })),
                "hint {hint}: {r:?}"
            );
            assert_eq!(dev.used(), 0);
        }
    }

    #[test]
    fn oom_when_split_exceeds_device_memory() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let huge = vec![b'x'; 13 * 1024 * 1024]; // > 12 MB device
        let err = run_gpu_task(&dev, &TaskEnv::disk(), &huge, &WcMap, None, &cfg());
        assert!(matches!(err, Err(GpuError::OutOfMemory { .. })));
    }
}
