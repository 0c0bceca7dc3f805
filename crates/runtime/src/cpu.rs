//! The CPU streaming task path: the unmodified Hadoop Streaming pipeline
//! a single CPU core runs (map | sort | combine), with a calibrated time
//! model.
//!
//! HeteroDoop keeps the default per-fileSplit processing scheme on the
//! CPU (paper §1, challenge 2): one sequential task per core. The cost
//! model charges per abstract operation and per byte so that GPU:CPU
//! single-task speedups land in the paper's reported bands (Fig. 5).

use crate::sort::{key_head, sort_by_key_head};
use crate::task::{TaskBreakdown, TaskEnv};
use crate::types::{default_partition, Combiner, Emit, Mapper, OpCount, VecEmit};

/// Time model of one CPU core running a streaming task.
#[derive(Debug, Clone)]
pub struct CpuCostModel {
    /// Seconds per plain ALU operation (includes the streaming-pipe and
    /// interpreter-free gcc-compiled-C overheads).
    pub alu_s: f64,
    /// Seconds per special-function operation.
    pub sfu_s: f64,
    /// Seconds per byte streamed through the map/combine filters
    /// (parsing, pipe copies).
    pub byte_s: f64,
    /// Seconds per key comparison during the sort, per byte compared.
    pub sort_cmp_byte_s: f64,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        // Calibrated against a ~2.8 GHz Xeon core running streaming
        // filters: ~1.4e9 effective ops/s, ~450 MB/s through the pipes.
        CpuCostModel {
            alu_s: 0.7e-9,
            sfu_s: 20e-9, // libm exp/log/sqrt class
            byte_s: 3.0e-9,
            sort_cmp_byte_s: 1.2e-9,
        }
    }
}

/// Result of a CPU task.
#[derive(Debug)]
pub struct CpuTaskResult {
    /// Combined pairs per partition.
    pub partitions: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    /// Stage times (same categories as the GPU breakdown; record_count
    /// and aggregate are zero — the CPU path has no such stages).
    pub breakdown: TaskBreakdown,
    /// Records processed.
    pub records: usize,
}

/// The CPU task's map sink, shaped like Hadoop's map output buffer:
/// every emitted pair's key and value back to back in one byte arena, and
/// per pair its `(start, key_end, end)` there. The partition and sort
/// phases then move pair indices, and the combiner borrows slices of the
/// arena; no pair gets an allocation of its own.
#[derive(Default)]
struct MapArena {
    bytes: Vec<u8>,
    spans: Vec<(usize, usize, usize)>,
    ops: OpCount,
    ro_bytes: u64,
}

impl MapArena {
    fn key(&self, i: usize) -> &[u8] {
        let (start, key_end, _) = self.spans[i];
        &self.bytes[start..key_end]
    }

    fn value(&self, i: usize) -> &[u8] {
        let (_, key_end, end) = self.spans[i];
        &self.bytes[key_end..end]
    }
}

impl Emit for MapArena {
    fn emit(&mut self, key: &[u8], value: &[u8]) -> bool {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(key);
        let key_end = self.bytes.len();
        self.bytes.extend_from_slice(value);
        self.spans.push((start, key_end, self.bytes.len()));
        true
    }
    fn charge(&mut self, ops: OpCount) {
        self.ops += ops;
    }
    fn read_ro(&mut self, bytes: u64) {
        self.ro_bytes += bytes;
    }
}

/// Run the full CPU streaming task over a fileSplit.
pub fn run_cpu_task(
    env: &TaskEnv,
    model: &CpuCostModel,
    split: &[u8],
    mapper: &dyn Mapper,
    combiner: Option<&dyn Combiner>,
    num_reducers: u32,
    map_only: bool,
) -> CpuTaskResult {
    let mut bd = TaskBreakdown {
        input_read_s: env.io_latency_s + split.len() as f64 / env.read_bw,
        ..Default::default()
    };

    // --- Map phase: stream records through the map filter. ---
    let mut em = MapArena::default();
    let mut records = 0usize;
    for rec in split.split(|&b| b == b'\n') {
        if rec.is_empty() {
            continue;
        }
        records += 1;
        mapper.map(rec, &mut em);
    }
    let emitted_bytes: u64 = em.spans.iter().map(|&(s, _, e)| (e - s + 2) as u64).sum();
    bd.map_s = em.ops.alu as f64 * model.alu_s
        + em.ops.sfu as f64 * model.sfu_s
        + (split.len() as u64 + emitted_bytes + em.ro_bytes) as f64 * model.byte_s;

    // --- Partition + sort phase: pair indices, stably sorted by key. ---
    let nr = num_reducers.max(1);
    let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); nr as usize];
    for i in 0..em.spans.len() {
        partitions[default_partition(em.key(i), nr) as usize].push(i);
    }
    // Hadoop spills map output to local disk before sorting — a cost
    // the GPU path avoids by keeping KV pairs in device memory.
    let mut sort_time = emitted_bytes as f64 * (1.0 / env.write_bw + model.byte_s);
    // Each partition sorts by integer key heads. The three buffers serve
    // every partition in turn and are gone before the combine phase.
    let (mut heads, mut order, mut sorted) = (Vec::new(), Vec::new(), Vec::new());
    for part in &mut partitions {
        let n = part.len().max(1) as f64;
        let avg_key: f64 = part.iter().map(|&i| em.key(i).len() as f64).sum::<f64>() / n;
        // Arena keys are not padded: two keys share a head only when one
        // is longer than 16 bytes or ends in NUL.
        let mut refine = false;
        heads.clear();
        heads.extend(part.iter().map(|&i| {
            let key = em.key(i);
            refine |= key.len() > 16 || key.last() == Some(&0);
            key_head(key)
        }));
        let len = u32::try_from(part.len()).expect("a partition holds under 2^32 pairs");
        order.clear();
        order.extend(0..len);
        sort_by_key_head(&mut order, &heads, refine, |at| em.key(part[at as usize]));
        sorted.clear();
        sorted.extend(order.iter().map(|&at| part[at as usize]));
        std::mem::swap(part, &mut sorted);
        sort_time += n * n.log2().max(1.0) * avg_key.max(1.0) * model.sort_cmp_byte_s;
    }
    drop((heads, order, sorted));
    bd.sort_s = sort_time;

    // --- Combine phase. ---
    let mut combine_time = 0.0;
    let out_parts: Vec<Vec<(Vec<u8>, Vec<u8>)>> = match combiner {
        Some(c) if !map_only => {
            let mut run: Vec<(&[u8], &[u8])> = Vec::new();
            let mut out_parts = Vec::with_capacity(partitions.len());
            for part in &partitions {
                run.clear();
                run.extend(part.iter().map(|&i| (em.key(i), em.value(i))));
                let mut cem = VecEmit::default();
                c.combine(&run, &mut cem);
                let in_bytes: u64 = run.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
                combine_time += cem.ops.alu as f64 * model.alu_s
                    + cem.ops.sfu as f64 * model.sfu_s
                    + in_bytes as f64 * model.byte_s;
                out_parts.push(cem.pairs);
            }
            out_parts
        }
        _ => partitions
            .iter()
            .map(|part| {
                part.iter()
                    .map(|&i| (em.key(i).to_vec(), em.value(i).to_vec()))
                    .collect()
            })
            .collect(),
    };
    bd.combine_s = combine_time;

    // --- Output write. ---
    let out_bytes: u64 = out_parts
        .iter()
        .flatten()
        .map(|(k, v)| (k.len() + v.len() + 8) as u64)
        .sum();
    bd.output_write_s = out_bytes as f64 / env.format_bw
        + env.io_latency_s
        + out_bytes as f64 / env.write_bw
        + if map_only {
            out_bytes as f64 / env.write_bw
        } else {
            0.0
        };

    CpuTaskResult {
        partitions: out_parts,
        breakdown: bd,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{SumComb, WcMap};
    use crate::types::trim_key;
    use std::collections::BTreeMap;

    fn split_text(n: usize) -> Vec<u8> {
        let mut s = Vec::new();
        for i in 0..n {
            s.extend_from_slice(format!("alpha beta w{} alpha\n", i % 5).as_bytes());
        }
        s
    }

    fn totals(parts: &[Vec<(Vec<u8>, Vec<u8>)>]) -> BTreeMap<String, i64> {
        let mut m = BTreeMap::new();
        for p in parts {
            for (k, v) in p {
                let key = String::from_utf8_lossy(k).to_string();
                let val: i64 = String::from_utf8_lossy(v).trim().parse().unwrap();
                *m.entry(key).or_insert(0) += val;
            }
        }
        m
    }

    /// The CPU task as it was before the map arena: every emitted pair
    /// its own two `Vec`s. The pin test holds `run_cpu_task` to it.
    fn reference_cpu_task(
        env: &TaskEnv,
        model: &CpuCostModel,
        split: &[u8],
        mapper: &dyn Mapper,
        combiner: Option<&dyn Combiner>,
        num_reducers: u32,
        map_only: bool,
    ) -> CpuTaskResult {
        let mut bd = TaskBreakdown {
            input_read_s: env.io_latency_s + split.len() as f64 / env.read_bw,
            ..Default::default()
        };
        let mut em = VecEmit::default();
        let mut records = 0usize;
        for rec in split.split(|&b| b == b'\n') {
            if rec.is_empty() {
                continue;
            }
            records += 1;
            mapper.map(rec, &mut em);
        }
        let emitted_bytes: u64 = em
            .pairs
            .iter()
            .map(|(k, v)| (k.len() + v.len() + 2) as u64)
            .sum();
        bd.map_s = em.ops.alu as f64 * model.alu_s
            + em.ops.sfu as f64 * model.sfu_s
            + (split.len() as u64 + emitted_bytes + em.ro_bytes) as f64 * model.byte_s;
        let nr = num_reducers.max(1);
        let mut partitions: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); nr as usize];
        for (k, v) in em.pairs {
            let p = default_partition(&k, nr) as usize;
            partitions[p].push((k, v));
        }
        let mut sort_time = emitted_bytes as f64 * (1.0 / env.write_bw + model.byte_s);
        for part in &mut partitions {
            let n = part.len().max(1) as f64;
            let avg_key: f64 = part.iter().map(|(k, _)| k.len() as f64).sum::<f64>() / n;
            part.sort_by(|a, b| a.0.cmp(&b.0));
            sort_time += n * n.log2().max(1.0) * avg_key.max(1.0) * model.sort_cmp_byte_s;
        }
        bd.sort_s = sort_time;
        let mut out_parts = Vec::with_capacity(partitions.len());
        let mut combine_time = 0.0;
        match combiner {
            Some(c) if !map_only => {
                for part in &partitions {
                    let run: Vec<(&[u8], &[u8])> = part
                        .iter()
                        .map(|(k, v)| (k.as_slice(), v.as_slice()))
                        .collect();
                    let mut cem = VecEmit::default();
                    c.combine(&run, &mut cem);
                    let in_bytes: u64 = part.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
                    combine_time += cem.ops.alu as f64 * model.alu_s
                        + cem.ops.sfu as f64 * model.sfu_s
                        + in_bytes as f64 * model.byte_s;
                    out_parts.push(cem.pairs);
                }
            }
            _ => out_parts = partitions,
        }
        bd.combine_s = combine_time;
        let out_bytes: u64 = out_parts
            .iter()
            .flatten()
            .map(|(k, v)| (k.len() + v.len() + 8) as u64)
            .sum();
        bd.output_write_s = out_bytes as f64 / env.format_bw
            + env.io_latency_s
            + out_bytes as f64 / env.write_bw
            + if map_only {
                out_bytes as f64 / env.write_bw
            } else {
                0.0
            };
        CpuTaskResult {
            partitions: out_parts,
            breakdown: bd,
            records,
        }
    }

    /// Emits every space-separated field, empty ones too, with its
    /// position as the value; charges SFU work and read-only bytes, so
    /// every term of the breakdown is non-zero.
    struct Fields;

    impl Mapper for Fields {
        fn map(&self, record: &[u8], out: &mut dyn Emit) {
            out.read_ro(record.len() as u64);
            for (i, f) in record.split(|&b| b == b' ').enumerate() {
                out.charge(OpCount::new(f.len() as u64 + 1, i as u64 % 3));
                out.emit(f, i.to_string().as_bytes());
            }
        }
    }

    #[test]
    fn arena_task_matches_the_per_pair_reference_bit_for_bit() {
        // Duplicate keys within and across records, empty lines, empty
        // keys, and 64 distinct words so every partition gets keys.
        let mut split = Vec::new();
        for i in 0..300 {
            let line = match i % 5 {
                0 => String::new(),
                1 => format!("w{} dup dup  w{}", i % 64, (i * 7) % 64),
                2 => "dup w1 w1 ".to_string(),
                _ => format!("w{} w{} x", (i * 3) % 64, i % 11),
            };
            split.extend_from_slice(line.as_bytes());
            split.extend_from_slice(b"\n\n");
        }
        let model = CpuCostModel::default();
        let mappers: [&dyn Mapper; 2] = [&WcMap, &Fields];
        for (m, mapper) in mappers.into_iter().enumerate() {
            for nr in [1, 7] {
                for combiner in [None, Some(&SumComb as &dyn Combiner)] {
                    for map_only in [false, true] {
                        let env = TaskEnv::disk();
                        let got =
                            run_cpu_task(&env, &model, &split, mapper, combiner, nr, map_only);
                        let want = reference_cpu_task(
                            &env, &model, &split, mapper, combiner, nr, map_only,
                        );
                        let case = format!(
                            "mapper {m}, {nr} reducers, combiner {}, map_only {map_only}",
                            combiner.is_some()
                        );
                        assert_eq!(got.records, want.records, "{case}");
                        assert_eq!(got.partitions, want.partitions, "{case}");
                        let (g, w) = (got.breakdown.stages(), want.breakdown.stages());
                        for ((name, g), (_, w)) in g.iter().zip(&w) {
                            assert_eq!(g.to_bits(), w.to_bits(), "{case}: {name}");
                        }
                        if nr == 7 && (combiner.is_none() || map_only) {
                            assert!(got.partitions.iter().all(|p| !p.is_empty()), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cpu_task_computes_correct_wordcount() {
        let r = run_cpu_task(
            &TaskEnv::disk(),
            &CpuCostModel::default(),
            &split_text(100),
            &WcMap,
            Some(&SumComb),
            4,
            false,
        );
        assert_eq!(r.records, 100);
        let t = totals(&r.partitions);
        assert_eq!(t["alpha"], 200);
        assert_eq!(t["beta"], 100);
    }

    #[test]
    fn cpu_combiner_fully_aggregates_each_partition() {
        // Unlike the GPU's chunked combiner, the CPU path combines each
        // partition completely: every key appears at most once per
        // partition.
        let r = run_cpu_task(
            &TaskEnv::disk(),
            &CpuCostModel::default(),
            &split_text(200),
            &WcMap,
            Some(&SumComb),
            4,
            false,
        );
        for p in &r.partitions {
            let mut seen = std::collections::HashSet::new();
            for (k, _) in p {
                assert!(seen.insert(k.clone()), "duplicate key in partition");
            }
        }
    }

    #[test]
    fn task_time_scales_with_input() {
        let m = CpuCostModel::default();
        let a = run_cpu_task(
            &TaskEnv::disk(),
            &m,
            &split_text(100),
            &WcMap,
            None,
            2,
            false,
        );
        let b = run_cpu_task(
            &TaskEnv::disk(),
            &m,
            &split_text(1000),
            &WcMap,
            None,
            2,
            false,
        );
        // Fixed IO latencies mask small inputs; compare the compute
        // stages, which must scale superlinearly-free (map linear, sort
        // n log n).
        let compute = |r: &CpuTaskResult| r.breakdown.map_s + r.breakdown.sort_s;
        assert!(compute(&b) > 5.0 * compute(&a));
    }

    #[test]
    fn gpu_and_cpu_agree_on_totals() {
        use crate::task::{run_gpu_task, GpuTaskConfig};
        use hetero_gpusim::{Device, GpuSpec};
        let split = split_text(300);
        let cpu = run_cpu_task(
            &TaskEnv::disk(),
            &CpuCostModel::default(),
            &split,
            &WcMap,
            Some(&SumComb),
            4,
            false,
        );
        let dev = Device::new(GpuSpec::tesla_k40());
        let mut cfg = GpuTaskConfig::new(16, 8, 4);
        cfg.blocks = 8;
        cfg.threads_per_block = 64;
        let gpu =
            run_gpu_task(&dev, &TaskEnv::disk(), &split, &WcMap, Some(&SumComb), &cfg).unwrap();
        let mut gpu_totals = BTreeMap::new();
        for p in &gpu.partitions {
            for (k, v) in p {
                let key = String::from_utf8_lossy(trim_key(k)).to_string();
                let val: i64 = String::from_utf8_lossy(trim_key(v)).trim().parse().unwrap();
                *gpu_totals.entry(key).or_insert(0) += val;
            }
        }
        assert_eq!(totals(&cpu.partitions), gpu_totals);
    }
}
