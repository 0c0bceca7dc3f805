//! The map kernel driver (paper §4.1, Listing 3).
//!
//! Each GPU thread fetches a record, applies the elementary map operation
//! and deposits the resulting KV pairs in its region of the global KV
//! store, repeating until the block's record pool is drained.
//!
//! Two record-distribution modes:
//! * **record stealing** (default): records are statically split across
//!   threadblocks, and threads of a block steal the next record from the
//!   block's pool via a *shared-memory* atomic counter — cheap, unlike a
//!   global work queue (Fig. 7d);
//! * **static**: each thread owns a contiguous chunk of the block's
//!   records, so a run of large records makes one lane the straggler of
//!   its warp.

use crate::kvstore::KvStore;
use crate::opts::OptFlags;
use crate::record::Record;
use crate::types::{default_partition, Emit, Mapper, OpCount};
use hetero_gpusim::{Access, Device, GpuError, KernelStats, LaneCtx, TexBinding};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One thread's mutable view of the KV store: key bytes, value bytes,
/// partition ids, and the thread's emitted-pair counter.
type Region<'a> = (&'a mut [u8], &'a mut [u8], &'a mut [u32], &'a mut u32);

/// Configuration for one map-kernel launch.
#[derive(Debug, Clone)]
pub struct MapConfig {
    /// Threadblocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Slots each thread owns in the global KV store.
    pub stores_per_thread: usize,
    /// Emitted key slot width.
    pub key_len: usize,
    /// Emitted value slot width.
    pub val_len: usize,
    /// Reduce partition count.
    pub num_reducers: u32,
    /// Optimization switches.
    pub opts: OptFlags,
    /// Footprint of the mapper's shared read-only data (centroids,
    /// model...); bound to texture when the texture optimization is on.
    pub ro_bytes: u64,
    /// Maximum KV pairs one record can emit (the `kvpairs` clause): a
    /// thread stops stealing once its region cannot fit another record
    /// (paper §4.1: "The maximum record stealing that a thread can
    /// perform is limited by the storesPerThread").
    pub kvpairs_per_record: usize,
}

/// Outcome of the map kernel.
#[derive(Debug)]
pub struct MapOutcome {
    /// The filled global KV store.
    pub store: KvStore,
    /// Kernel statistics.
    pub stats: KernelStats,
    /// Records that could not be processed because every thread's KV
    /// region filled up (a task-level failure condition).
    pub dropped_records: usize,
}

/// Per-thread emitter used inside the kernel: writes to the thread's KV
/// region while charging lane costs.
struct GpuEmit<'a, 'b, 'c> {
    lane: &'a mut LaneCtx<'c>,
    keys: &'a mut [u8],
    vals: &'a mut [u8],
    part: &'a mut [u32],
    count: &'a mut u32,
    key_len: usize,
    val_len: usize,
    num_reducers: u32,
    stores_per_thread: usize,
    vectorize: bool,
    texture: Option<TexBinding>,
    /// Set when an emit was rejected because the region filled mid-record
    /// (that record's output is incomplete -> the record counts as
    /// dropped).
    hit_full: bool,
    /// Bytes of the longest key this emitter stored.
    longest_key: usize,
    _marker: std::marker::PhantomData<&'b ()>,
}

impl Emit for GpuEmit<'_, '_, '_> {
    fn emit(&mut self, key: &[u8], value: &[u8]) -> bool {
        let c = *self.count as usize;
        if c >= self.stores_per_thread {
            self.hit_full = true;
            return false;
        }
        // Functional store.
        let kd = &mut self.keys[c * self.key_len..(c + 1) * self.key_len];
        kd.fill(0);
        let n = key.len().min(self.key_len);
        kd[..n].copy_from_slice(&key[..n]);
        let vd = &mut self.vals[c * self.val_len..(c + 1) * self.val_len];
        vd.fill(0);
        let m = value.len().min(self.val_len);
        vd[..m].copy_from_slice(&value[..m]);
        self.part[c] = default_partition(&key[..n], self.num_reducers);
        *self.count += 1;
        self.longest_key = self.longest_key.max(n);

        // Cost: emitKV writes key_len + val_len bytes. Vectorized mode
        // uses char4 stores that coalesce across the warp; scalar mode
        // writes word-by-word to scattered addresses (paper §4.1,
        // Fig. 7c).
        let bytes = (self.key_len + self.val_len) as u64;
        if self.vectorize {
            self.lane.gst(bytes, Access::Coalesced);
            self.lane.alu(bytes.div_ceil(4));
        } else {
            // Scalar stores merge in L2/write buffers at ~32 B granules
            // but stay uncoalesced across lanes.
            for _ in 0..bytes.div_ceil(32) {
                self.lane.gst(32, Access::Random);
            }
            self.lane.alu(bytes);
        }
        true
    }

    fn charge(&mut self, ops: OpCount) {
        self.lane.alu(ops.alu);
        self.lane.sfu(ops.sfu);
    }

    fn read_ro(&mut self, bytes: u64) {
        match self.texture {
            Some(tex) => {
                // Texture path; errors are impossible here because the
                // driver bound the texture before launch.
                let _ = self.lane.tex(tex, bytes);
            }
            None => self.lane.gld(bytes, Access::Random),
        }
    }
}

/// The greedy schedule that stands for record stealing: each of `n_recs`
/// records, in order, goes to the lane with the smallest virtual clock
/// among those with room (lowest thread id on a tie), which yields the
/// balanced totals real stealing achieves. `run(rec, tid)` maps the
/// record on that lane and returns the cycles it cost and whether the
/// lane has room for another worst-case record. Returns every lane's
/// final clock and the number of records left when no lane had room.
///
/// The pick is a min-heap on `(clock bits, tid)`: only the lane that just
/// ran changes its clock or fill level, so it alone is re-keyed, and a
/// lane without room is simply not pushed back. Clocks are sums of
/// non-negative cycles, for which `f64::to_bits` is order-preserving.
fn steal_records(
    has_room: &[bool],
    n_recs: usize,
    mut run: impl FnMut(usize, usize) -> (f64, bool),
) -> (Vec<f64>, usize) {
    let mut lane_clock = vec![0.0f64; has_room.len()];
    let mut idle: BinaryHeap<Reverse<(u64, usize)>> = (0..has_room.len())
        .filter(|&tid| has_room[tid])
        .map(|tid| Reverse((0.0f64.to_bits(), tid)))
        .collect();
    for rec in 0..n_recs {
        let Some(Reverse((_, tid))) = idle.pop() else {
            // Every thread is full; remaining records drop.
            return (lane_clock, n_recs - rec);
        };
        let (cost, room_left) = run(rec, tid);
        lane_clock[tid] += cost;
        if room_left {
            idle.push(Reverse((lane_clock[tid].to_bits(), tid)));
        }
    }
    (lane_clock, 0)
}

/// Run the map kernel over `records` of `input` with `mapper`.
pub fn run_map(
    dev: &Device,
    input: &[u8],
    records: &[Record],
    mapper: &dyn Mapper,
    cfg: &MapConfig,
) -> Result<MapOutcome, GpuError> {
    let threads_total = (cfg.blocks * cfg.threads_per_block) as usize;
    let mut store = KvStore::new(
        threads_total,
        cfg.stores_per_thread,
        cfg.key_len,
        cfg.val_len,
        cfg.num_reducers,
    );
    let texture = if cfg.opts.texture && cfg.ro_bytes > 0 {
        Some(dev.bind_texture(cfg.ro_bytes))
    } else {
        None
    };

    // Static, equal split of records across threadblocks (paper §4.1).
    let per_block = records.len().div_ceil(cfg.blocks as usize).max(1);
    let record_chunks: Vec<&[Record]> = (0..cfg.blocks as usize)
        .map(|b| {
            let lo = (b * per_block).min(records.len());
            let hi = ((b + 1) * per_block).min(records.len());
            &records[lo..hi]
        })
        .collect();

    let dropped = Cell::new(0usize);
    let longest_key = Cell::new(0usize);
    let tpb = cfg.threads_per_block as usize;
    let spt = cfg.stores_per_thread;
    let (key_len, val_len) = (cfg.key_len, cfg.val_len);
    let num_reducers = cfg.num_reducers;
    let opts = cfg.opts;
    let kv_max = cfg.kvpairs_per_record.max(1);

    let stats = {
        let block_views = store.split_blocks(tpb);
        let payloads: Vec<_> = record_chunks.into_iter().zip(block_views).collect();
        dev.launch_named(
            "map_kernel",
            cfg.threads_per_block,
            payloads,
            |blk, (recs, view)| {
                // The shared-memory record counter of Listing 3 line 9.
                blk.alloc_shared(4)?;
                let (keys, vals, parts, counts) = view;

                // Per-thread region views.
                let mut regions: Vec<Region<'_>> = {
                    let mut v = Vec::with_capacity(tpb);
                    let mut k_rest = keys;
                    let mut v_rest = vals;
                    let mut p_rest = parts;
                    let mut c_rest = counts;
                    for _ in 0..tpb.min(c_rest.len()) {
                        let (k, kr) = k_rest.split_at_mut(spt * key_len);
                        let (va, vr) = v_rest.split_at_mut(spt * val_len);
                        let (p, pr) = p_rest.split_at_mut(spt);
                        let (c, cr) = c_rest.split_at_mut(1);
                        v.push((k, va, p, &mut c[0]));
                        k_rest = kr;
                        v_rest = vr;
                        p_rest = pr;
                        c_rest = cr;
                    }
                    v
                };
                let n_threads = regions.len();
                let warps = blk.num_warps();
                let ws = blk.warp_size() as usize;

                // Map one record on a lane; `false` once its region cannot
                // take another pair.
                let map_one =
                    |lane: &mut LaneCtx<'_>, rec: &Record, region: &mut Region<'_>| -> bool {
                        let data = &input[rec.start..rec.start + rec.len];
                        // Fetching the record: streamed bytes + per-byte scan work
                        // (getRecord + the mapper's own parsing loop).
                        lane.gld(rec.len.max(1) as u64, Access::Coalesced);
                        lane.alu((rec.len as u64) / 4 + 1);
                        let (k, v, p, c) = region;
                        let mut em = GpuEmit {
                            lane,
                            keys: k,
                            vals: v,
                            part: p,
                            count: c,
                            key_len,
                            val_len,
                            num_reducers,
                            stores_per_thread: spt,
                            vectorize: opts.vectorize_map,
                            texture,
                            hit_full: false,
                            longest_key: 0,
                            _marker: std::marker::PhantomData,
                        };
                        mapper.map(data, &mut em);
                        if em.hit_full {
                            dropped.set(dropped.get() + 1);
                        }
                        longest_key.set(longest_key.get().max(em.longest_key));
                        !em.hit_full && (*em.count as usize) < spt
                    };

                if opts.record_stealing {
                    // Dynamic distribution: a lane that finishes its record
                    // immediately steals the next one from the block pool via
                    // the shared-memory counter (SIMT divergence lets lanes
                    // progress through different record counts). A lane
                    // stops stealing once its region cannot fit a worst-case
                    // record. Warp chains are the max lane clock per warp.
                    let room = |region: &Region<'_>| spt - *region.3 as usize >= kv_max;
                    let has_room: Vec<bool> = regions.iter().map(room).collect();
                    let (lane_clock, unmapped) =
                        steal_records(&has_room, recs.len(), |rec, tid| {
                            let region = &mut regions[tid];
                            let mut mapped = false;
                            let cost = blk.with_lane(|t| {
                                t.shared_atomic(); // the steal
                                mapped = map_one(t, &recs[rec], region);
                            });
                            (cost, mapped && room(region))
                        });
                    dropped.set(dropped.get() + unmapped);
                    for w in 0..warps {
                        let lo = w as usize * ws;
                        let hi = (lo + ws).min(n_threads);
                        let chain = lane_clock[lo..hi].iter().cloned().fold(0.0f64, f64::max);
                        blk.charge_warp_chain(w, chain);
                    }
                } else {
                    // Static contiguous chunks per thread.
                    let per_thread = recs.len().div_ceil(n_threads.max(1)).max(1);
                    for w in 0..warps {
                        blk.warp_round_for(w, |lane_id, t| {
                            let tid = w as usize * ws + lane_id as usize;
                            if tid >= n_threads {
                                return;
                            }
                            let lo = (tid * per_thread).min(recs.len());
                            let hi = ((tid + 1) * per_thread).min(recs.len());
                            for rec in &recs[lo..hi] {
                                // map_one counts truncated records itself; a
                                // false return just means the region is full.
                                let _ = map_one(t, rec, &mut regions[tid]);
                            }
                        });
                    }
                }

                // mapFinish: write per-thread counts (Listing 3 line 25).
                blk.uniform_rounds(warps, |t| t.gst(4, Access::Coalesced));
                Ok(())
            },
        )?
    };
    store.longest_key = longest_key.get();

    Ok(MapOutcome {
        store,
        stats,
        dropped_records: dropped.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::WcMap;
    use crate::types::trim_key;
    use hetero_gpusim::GpuSpec;
    use std::collections::BTreeMap;

    fn cfg() -> MapConfig {
        MapConfig {
            blocks: 4,
            threads_per_block: 64,
            stores_per_thread: 64,
            key_len: 16,
            val_len: 4,
            num_reducers: 4,
            opts: OptFlags::all(),
            ro_bytes: 0,
            kvpairs_per_record: 16,
        }
    }

    fn make_input(lines: &[&str]) -> (Vec<u8>, Vec<Record>) {
        let mut buf = Vec::new();
        let mut recs = Vec::new();
        for l in lines {
            recs.push(Record {
                start: buf.len(),
                len: l.len(),
            });
            buf.extend_from_slice(l.as_bytes());
            buf.push(b'\n');
        }
        (buf, recs)
    }

    fn histogram(out: &MapOutcome) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for tid in 0..out.store.threads {
            for slot in out.store.live_slots_of(tid) {
                let k = String::from_utf8_lossy(trim_key(out.store.key(slot))).to_string();
                *h.entry(k).or_insert(0) += 1;
            }
        }
        h
    }

    #[test]
    fn map_kernel_produces_correct_kv_pairs() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let (buf, recs) =
            make_input(&["the quick brown fox", "jumps over the lazy dog", "the end"]);
        let out = run_map(&dev, &buf, &recs, &WcMap, &cfg()).unwrap();
        assert_eq!(out.dropped_records, 0);
        let h = histogram(&out);
        assert_eq!(h["the"], 3);
        assert_eq!(h["quick"], 1);
        assert_eq!(h["dog"], 1);
        let total: usize = h.values().sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn stealing_and_static_agree_functionally() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let lines: Vec<String> = (0..200)
            .map(|i| format!("word{} common {}", i % 17, "x ".repeat(i % 13)))
            .collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let (buf, recs) = make_input(&refs);
        let mut c1 = cfg();
        c1.record_stealing_mut(true);
        let mut c2 = cfg();
        c2.record_stealing_mut(false);
        let a = run_map(&dev, &buf, &recs, &WcMap, &c1).unwrap();
        let b = run_map(&dev, &buf, &recs, &WcMap, &c2).unwrap();
        assert_eq!(histogram(&a), histogram(&b));
    }

    /// Compute-heavy mapper: per-record work proportional to record
    /// length (the kmeans situation — distance computation over a
    /// variable-length ratings list, paper §4.1).
    struct ComputeMap;
    impl Mapper for ComputeMap {
        fn map(&self, record: &[u8], out: &mut dyn Emit) {
            out.charge(OpCount::new(40 * record.len() as u64, record.len() as u64));
            out.emit(&record[..record.len().min(8)], b"1");
        }
    }

    #[test]
    fn stealing_beats_static_on_skewed_records() {
        // Skewed record sizes clustered together: with static contiguous
        // partitioning one warp's lanes own all the big records and that
        // warp becomes the block's critical chain; stealing spreads the
        // big records across all lanes and warps (Fig. 7d).
        let dev = Device::new(GpuSpec::tesla_k40());
        let lines: Vec<String> = (0..2048)
            .map(|i| {
                if i < 256 {
                    // One dense run of big records.
                    format!("r{} {}", i, "rating ".repeat(60))
                } else {
                    format!("r{} rating", i)
                }
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let (buf, recs) = make_input(&refs);
        let mut steal = cfg();
        steal.record_stealing_mut(true);
        let mut stat = steal.clone();
        stat.record_stealing_mut(false);
        let a = run_map(&dev, &buf, &recs, &ComputeMap, &steal).unwrap();
        let b = run_map(&dev, &buf, &recs, &ComputeMap, &stat).unwrap();
        assert_eq!(a.dropped_records, 0);
        assert_eq!(b.dropped_records, 0);
        assert!(
            b.stats.cycles > a.stats.cycles * 1.05,
            "static {} should exceed stealing {}",
            b.stats.cycles,
            a.stats.cycles
        );
    }

    #[test]
    fn vectorized_map_emits_fewer_transactions() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let lines: Vec<String> = (0..500).map(|i| format!("alpha beta gamma {i}")).collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let (buf, recs) = make_input(&refs);
        let mut v = cfg();
        v.opts.vectorize_map = true;
        let mut nv = cfg();
        nv.opts.vectorize_map = false;
        let a = run_map(&dev, &buf, &recs, &WcMap, &v).unwrap();
        let b = run_map(&dev, &buf, &recs, &WcMap, &nv).unwrap();
        assert!(b.stats.counters.gst_txns() > 2.0 * a.stats.counters.gst_txns());
        assert!(b.stats.cycles > a.stats.cycles);
        assert_eq!(histogram(&a), histogram(&b));
    }

    #[test]
    fn overflow_drops_records_and_reports() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let lines: Vec<String> = (0..2000).map(|i| format!("w{i} w{i} w{i}")).collect();
        let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
        let (buf, recs) = make_input(&refs);
        let mut c = cfg();
        c.blocks = 1;
        c.threads_per_block = 32;
        c.stores_per_thread = 2; // way too small
        let out = run_map(&dev, &buf, &recs, &WcMap, &c).unwrap();
        assert!(out.dropped_records > 0);
    }

    /// The O(threads) scan `steal_records`' heap replaced, kept as the
    /// model it must replay: every record rescans all lanes for the
    /// smallest clock among those with room, lowest thread id on a tie.
    fn steal_records_by_scan(
        has_room: &[bool],
        n_recs: usize,
        mut run: impl FnMut(usize, usize) -> (f64, bool),
    ) -> (Vec<f64>, usize) {
        let mut lane_clock = vec![0.0f64; has_room.len()];
        let mut full: Vec<bool> = has_room.iter().map(|&r| !r).collect();
        for rec in 0..n_recs {
            let mut pick: Option<usize> = None;
            for tid in 0..full.len() {
                if !full[tid] && pick.is_none_or(|p| lane_clock[tid] < lane_clock[p]) {
                    pick = Some(tid);
                }
            }
            let Some(tid) = pick else {
                return (lane_clock, n_recs - rec);
            };
            let (cost, room_left) = run(rec, tid);
            lane_clock[tid] += cost;
            full[tid] = !room_left;
        }
        (lane_clock, 0)
    }

    /// `steal_records` or its model, behind one signature.
    type Schedule = fn(&[bool], usize, &mut dyn FnMut(usize, usize) -> (f64, bool)) -> Stolen;
    type Stolen = (Vec<f64>, usize);

    proptest::proptest! {
        /// The heap pick is the linear scan: same record → lane
        /// assignment, same dropped records, same lane clocks by bits —
        /// with regions small enough that lanes fill up mid-run, records
        /// truncate and the tail of the pool drops, and record lengths
        /// from a small set so that clocks tie.
        #[test]
        fn heap_pick_replays_the_linear_scan(
            recs in proptest::collection::vec((0u64..6, 0usize..7), 0..200),
            n_threads in 1usize..40,
            spt in 1usize..80,
            kv_max in 1usize..6,
            prefilled in proptest::collection::vec(0usize..40, 40),
        ) {
            // One lane model, run under each scheduler: a record costs a
            // non-dyadic function of its length and emits `pairs` pairs
            // into the lane's `spt`-slot region; the lane keeps stealing
            // while a worst-case (`kv_max`-pair) record still fits.
            let replay = |schedule: Schedule| {
                let mut used: Vec<usize> =
                    prefilled[..n_threads].iter().map(|&u| u.min(spt)).collect();
                let has_room: Vec<bool> = used.iter().map(|&u| spt - u >= kv_max).collect();
                let mut assignment = Vec::new();
                let mut truncated = 0usize;
                let (clock, unmapped) = schedule(&has_room, recs.len(), &mut |rec, tid| {
                    assignment.push(tid);
                    let (len, pairs) = recs[rec];
                    let cost = 14.0 + 1.2 * len as f64 + 0.1 * pairs as f64;
                    if used[tid] + pairs > spt {
                        used[tid] = spt;
                        truncated += 1;
                        return (cost, false);
                    }
                    used[tid] += pairs;
                    (cost, spt - used[tid] >= kv_max)
                });
                let bits: Vec<u64> = clock.iter().map(|c| c.to_bits()).collect();
                (assignment, bits, unmapped + truncated, used)
            };
            let heap = replay(|room, n, run| steal_records(room, n, run));
            let scan = replay(|room, n, run| steal_records_by_scan(room, n, run));
            proptest::prop_assert_eq!(heap, scan);
        }
    }

    impl MapConfig {
        fn record_stealing_mut(&mut self, on: bool) -> &mut Self {
            self.opts.record_stealing = on;
            self
        }
    }
}
