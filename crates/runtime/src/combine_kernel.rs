//! The combine kernel driver (paper §4.2, Listing 4).
//!
//! The combiner has no explicit record-level parallelism, so HeteroDoop
//! exploits **in-partition, reduction-style parallelism**: each warp
//! processes a chunk of `kvsPerThread` sorted pairs independently,
//! emitting *partially* combined output (the global reducer restores
//! exact results — the legal trade-off of §4.2).
//!
//! All threads of a warp execute the combine function **redundantly** to
//! eliminate intra-warp divergence; the payoff is that `getKV`/`storeKV`
//! can switch to *vectorized* mode where the 32 lanes cooperatively load
//! one KV pair with coalesced accesses (Fig. 7b). Without vectorization a
//! single lane per warp does word-wise scattered accesses.

use crate::kvstore::KvStore;
use crate::opts::OptFlags;
use crate::types::{trim_key, Combiner, Emit, OpCount};
use hetero_gpusim::{Access, Device, GpuError, KernelStats, LaneCtx};
use std::borrow::Cow;

/// Configuration for a combine-kernel launch over one partition.
#[derive(Debug, Clone)]
pub struct CombineConfig {
    /// Threadblocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Optimization flags (vectorize_combine is the relevant one).
    pub opts: OptFlags,
    /// Output key slot width (`keylength` of the combiner directive).
    pub key_len: usize,
    /// Output value slot width.
    pub val_len: usize,
}

/// Result of combining one partition.
#[derive(Debug)]
pub struct CombineOutcome {
    /// Combined pairs, in input order of the chunks.
    pub pairs: Vec<(Vec<u8>, Vec<u8>)>,
    /// Kernel statistics.
    pub stats: KernelStats,
}

/// Emitter that buffers combined pairs and charges storeKV costs.
struct CombineEmit<'a, 'b> {
    out: &'a mut Vec<(Vec<u8>, Vec<u8>)>,
    lane: &'a mut LaneCtx<'b>,
    key_len: usize,
    val_len: usize,
    vectorize: bool,
    ops: OpCount,
}

impl Emit for CombineEmit<'_, '_> {
    fn emit(&mut self, key: &[u8], value: &[u8]) -> bool {
        self.out.push((key.to_vec(), value.to_vec()));
        let bytes = (self.key_len + self.val_len) as u64;
        if self.vectorize {
            // Lanes cooperatively store: per-lane share, coalesced.
            self.lane.gst(bytes.div_ceil(32).max(1), Access::Coalesced);
            self.lane.alu(1);
        } else {
            // One active lane stores everything in 32-byte granules
            // (uncoalesced but merged in L2/write buffers).
            for _ in 0..bytes.div_ceil(32) {
                self.lane.gst(32, Access::Random);
            }
            self.lane.alu(bytes);
        }
        true
    }

    fn charge(&mut self, ops: OpCount) {
        self.ops += ops;
    }

    fn read_ro(&mut self, bytes: u64) {
        self.lane.gld(bytes, Access::Random);
    }
}

/// Run the combiner over one partition's sorted indirection array.
pub fn run_combine(
    dev: &Device,
    store: &KvStore,
    sorted: &[u32],
    combiner: &dyn Combiner,
    cfg: &CombineConfig,
) -> Result<CombineOutcome, GpuError> {
    // An aggregated partition holds no whitespace: borrow it as it is.
    let live: Cow<'_, [u32]> = if sorted.contains(&u32::MAX) {
        sorted.iter().copied().filter(|&i| i != u32::MAX).collect()
    } else {
        Cow::Borrowed(sorted)
    };
    if live.is_empty() {
        return Ok(CombineOutcome {
            pairs: Vec::new(),
            stats: KernelStats::default(),
        });
    }
    let warps_per_block = (cfg.threads_per_block / 32).max(1) as usize;
    let total_warps = cfg.blocks as usize * warps_per_block;
    let kvs_per_warp = live.len().div_ceil(total_warps).max(1);
    let chunks: Vec<&[u32]> = live.chunks(kvs_per_warp).collect();

    // Distribute warp chunks over blocks.
    let block_chunks: Vec<&[&[u32]]> = chunks.chunks(warps_per_block).collect();

    // Blocks run in order and warps within a block in order, so the
    // partially combined pairs land here in partition order (reserved
    // for one pair a chunk, the least a non-empty run combines to).
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(chunks.len());
    let mut run: Vec<(&[u8], &[u8])> = Vec::with_capacity(kvs_per_warp);
    let vectorize = cfg.opts.vectorize_combine;
    let (key_len, val_len) = (cfg.key_len, cfg.val_len);
    let in_key = store.key_len;
    let in_val = store.val_len;

    let stats = dev.launch_named(
        "combine_kernel",
        cfg.threads_per_block,
        block_chunks,
        |blk, warp_chunks| {
            // Per-warp shared-memory buffers for the private arrays
            // (Listing 4 lines 9–10).
            blk.alloc_shared((warps_per_block * (key_len + in_key)) as u32)?;
            for chunk in warp_chunks {
                run.clear();
                run.extend(
                    chunk
                        .iter()
                        .map(|&i| (trim_key(store.key(i as usize)), store.val(i as usize))),
                );
                let load_bytes = (in_key + in_val) as u64;
                if vectorize {
                    // All 32 lanes active: redundant compute, cooperative
                    // vectorized getKV (coalesced per-lane shares).
                    let get_kvs = |t: &mut LaneCtx<'_>| {
                        for _ in 0..chunk.len() {
                            t.gld(load_bytes.div_ceil(32).max(1), Access::Coalesced);
                            t.alu(2); // loop + compare bookkeeping
                        }
                    };
                    let followers = blk.warp_size() - 1;
                    let mut ops = OpCount::default();
                    blk.round()
                        // Functional execution once, on the lane whose
                        // storeKV charges count.
                        .class(1, |t| {
                            get_kvs(t);
                            let mut em = CombineEmit {
                                out: &mut pairs,
                                lane: t,
                                key_len,
                                val_len,
                                vectorize,
                                ops: OpCount::default(),
                            };
                            combiner.combine(&run, &mut em);
                            ops = em.ops;
                        })
                        // The redundant lanes charge the same user-compute
                        // cost so the warp max reflects it.
                        .class(followers, |t| {
                            get_kvs(t);
                            t.alu(ops.alu);
                            t.sfu(ops.sfu);
                        })
                        .fold(1);
                } else {
                    // Only one lane per warp is active (paper: single
                    // active thread for non-array KV or the baseline); the
                    // other lanes idle, counted as divergent.
                    blk.round()
                        .class(1, |t| {
                            for _ in 0..chunk.len() {
                                for _ in 0..load_bytes.div_ceil(32) {
                                    t.gld(32, Access::Random);
                                }
                                t.alu(load_bytes);
                            }
                            let mut em = CombineEmit {
                                out: &mut pairs,
                                lane: t,
                                key_len,
                                val_len,
                                vectorize,
                                ops: OpCount::default(),
                            };
                            combiner.combine(&run, &mut em);
                            let o = em.ops;
                            t.alu(o.alu);
                            t.sfu(o.sfu);
                        })
                        .fold(1);
                }
            }
            Ok(())
        },
    )?;

    Ok(CombineOutcome { pairs, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::SumComb;

    fn sorted_store(keys: &[&str]) -> (KvStore, Vec<u32>) {
        let mut s = KvStore::new(1, keys.len().max(1), 16, 8, 1);
        let mut sorted: Vec<&str> = keys.to_vec();
        sorted.sort();
        for k in &sorted {
            assert!(s.emit(0, k.as_bytes(), b"1"));
        }
        let idx: Vec<u32> = (0..keys.len() as u32).collect();
        (s, idx)
    }

    fn cfg() -> CombineConfig {
        CombineConfig {
            blocks: 2,
            threads_per_block: 64,
            opts: OptFlags::all(),
            key_len: 16,
            val_len: 8,
        }
    }

    fn totals(pairs: &[(Vec<u8>, Vec<u8>)]) -> std::collections::BTreeMap<String, i64> {
        let mut m = std::collections::BTreeMap::new();
        for (k, v) in pairs {
            let key = String::from_utf8_lossy(k).to_string();
            let val: i64 = String::from_utf8_lossy(v).trim().parse().unwrap();
            *m.entry(key).or_insert(0) += val;
        }
        m
    }

    #[test]
    fn combiner_aggregates_within_chunks() {
        let dev = Device::new(hetero_gpusim::GpuSpec::tesla_k40());
        let keys = vec!["a"; 10]
            .into_iter()
            .chain(vec!["b"; 5])
            .chain(vec!["c"; 7])
            .collect::<Vec<_>>();
        let (s, idx) = sorted_store(&keys);
        let out = run_combine(&dev, &s, &idx, &SumComb, &cfg()).unwrap();
        // Chunk boundaries may split a key's run (partial combining is
        // legal, §4.2) but totals must be preserved.
        let t = totals(&out.pairs);
        assert_eq!(t["a"], 10);
        assert_eq!(t["b"], 5);
        assert_eq!(t["c"], 7);
        // And it must actually combine: far fewer pairs than inputs.
        assert!(out.pairs.len() <= 3 * (2 * 2) as usize);
    }

    #[test]
    fn partial_combining_bounded_by_chunk_count() {
        // At most one extra boundary pair per key per chunk.
        let dev = Device::new(hetero_gpusim::GpuSpec::tesla_k40());
        let keys: Vec<String> = (0..500).map(|i| format!("k{:02}", i % 4)).collect();
        let refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
        let (s, idx) = sorted_store(&refs);
        let c = cfg();
        let out = run_combine(&dev, &s, &idx, &SumComb, &c).unwrap();
        let total_warps = (c.blocks * c.threads_per_block / 32) as usize;
        assert!(out.pairs.len() <= 4 * total_warps + 4);
        let t = totals(&out.pairs);
        assert_eq!(t.values().sum::<i64>(), 500);
    }

    #[test]
    fn vectorized_combine_is_faster() {
        let dev = Device::new(hetero_gpusim::GpuSpec::tesla_k40());
        let keys: Vec<String> = (0..2000).map(|i| format!("key-{:04}", i % 50)).collect();
        let refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
        let (s, idx) = sorted_store(&refs);
        let mut v = cfg();
        v.opts.vectorize_combine = true;
        let mut nv = cfg();
        nv.opts.vectorize_combine = false;
        let a = run_combine(&dev, &s, &idx, &SumComb, &v).unwrap();
        let b = run_combine(&dev, &s, &idx, &SumComb, &nv).unwrap();
        assert!(
            b.stats.cycles > 1.5 * a.stats.cycles,
            "non-vectorized {} should far exceed vectorized {}",
            b.stats.cycles,
            a.stats.cycles
        );
        assert_eq!(totals(&a.pairs), totals(&b.pairs));
    }

    #[test]
    fn empty_partition_is_free() {
        let dev = Device::new(hetero_gpusim::GpuSpec::tesla_k40());
        let (s, _) = sorted_store(&[]);
        let out = run_combine(&dev, &s, &[], &SumComb, &cfg()).unwrap();
        assert!(out.pairs.is_empty());
        assert_eq!(out.stats.cycles, 0.0);
    }

    #[test]
    fn whitespace_entries_ignored() {
        let dev = Device::new(hetero_gpusim::GpuSpec::tesla_k40());
        let (s, _) = sorted_store(&["x", "x", "y"]);
        let idx = vec![0u32, 1, 2, u32::MAX, u32::MAX];
        let out = run_combine(&dev, &s, &idx, &SumComb, &cfg()).unwrap();
        let t = totals(&out.pairs);
        assert_eq!(t["x"], 2);
        assert_eq!(t["y"], 1);
    }
}
