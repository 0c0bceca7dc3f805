//! The **global KV store**: the statically-allocated device buffer where
//! map-kernel threads deposit their KV pairs (paper §4.1, §4.3).
//!
//! Each GPU thread owns a fixed region of `stores_per_thread` slots. Keys
//! and values are fixed-width (the `keylength`/`vallength` clauses), so a
//! slot's position is computable without pointers. Threads that emit
//! fewer pairs than their region holds leave *whitespace* — empty slots —
//! which the aggregation pass removes before sorting (§5.3).
//!
//! The store also records the longest key it holds, `longest_key`. Only
//! [`KvStore::emit`] and the map kernel write slots, each zeroing a slot
//! before filling it, so every key byte at or past `longest_key` is 0 —
//! which lets the sort compare short keys as integers (`sort.rs`).

use crate::types::default_partition;

/// The global KV store for one map-kernel launch.
#[derive(Debug)]
pub struct KvStore {
    /// Fixed key slot width in bytes.
    pub key_len: usize,
    /// Fixed value slot width in bytes.
    pub val_len: usize,
    /// Slots per thread.
    pub stores_per_thread: usize,
    /// Total threads.
    pub threads: usize,
    /// Number of reduce partitions.
    pub num_reducers: u32,
    /// Flat key storage: `threads * stores_per_thread * key_len` bytes.
    pub(crate) keys: Vec<u8>,
    /// Flat value storage.
    pub(crate) vals: Vec<u8>,
    /// Partition of each slot (computed at emit time).
    pub(crate) partition: Vec<u32>,
    /// KV pairs emitted by each thread (`devKvCount` in Listing 3).
    pub(crate) counts: Vec<u32>,
    /// Bytes of the longest key stored (after truncation to `key_len`).
    pub(crate) longest_key: usize,
}

impl KvStore {
    /// Allocate a store with the given geometry.
    pub fn new(
        threads: usize,
        stores_per_thread: usize,
        key_len: usize,
        val_len: usize,
        num_reducers: u32,
    ) -> Self {
        let slots = threads * stores_per_thread;
        KvStore {
            key_len,
            val_len,
            stores_per_thread,
            threads,
            num_reducers,
            keys: vec![0; slots * key_len],
            vals: vec![0; slots * val_len],
            partition: vec![u32::MAX; slots],
            counts: vec![0; threads],
            longest_key: 0,
        }
    }

    /// Total slots in the store.
    pub fn total_slots(&self) -> usize {
        self.threads * self.stores_per_thread
    }

    /// Bytes of device memory this store occupies (what the host driver
    /// allocates in Fig. 1).
    pub fn bytes(&self) -> u64 {
        (self.keys.len() + self.vals.len() + self.partition.len() * 4 + self.counts.len() * 4)
            as u64
    }

    /// Store one pair into thread `tid`'s region. Returns `false` when
    /// the region is full — the caller must stop stealing records
    /// (paper: "maximum record stealing ... is limited by the
    /// storesPerThread").
    pub fn emit(&mut self, tid: usize, key: &[u8], val: &[u8]) -> bool {
        let c = self.counts[tid] as usize;
        if c >= self.stores_per_thread {
            return false;
        }
        let slot = tid * self.stores_per_thread + c;
        let kdst = &mut self.keys[slot * self.key_len..(slot + 1) * self.key_len];
        kdst.fill(0);
        let n = key.len().min(self.key_len);
        kdst[..n].copy_from_slice(&key[..n]);
        let vdst = &mut self.vals[slot * self.val_len..(slot + 1) * self.val_len];
        vdst.fill(0);
        let m = val.len().min(self.val_len);
        vdst[..m].copy_from_slice(&val[..m]);
        self.partition[slot] = default_partition(&key[..n], self.num_reducers);
        self.counts[tid] += 1;
        self.longest_key = self.longest_key.max(n);
        true
    }

    /// Key bytes of a slot.
    pub fn key(&self, slot: usize) -> &[u8] {
        &self.keys[slot * self.key_len..(slot + 1) * self.key_len]
    }

    /// Value bytes of a slot.
    pub fn val(&self, slot: usize) -> &[u8] {
        &self.vals[slot * self.val_len..(slot + 1) * self.val_len]
    }

    /// Total pairs emitted across all threads.
    pub fn total_pairs(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// Fraction of allocated slots actually used — the aggregation
    /// efficiency the `kvpairs` clause improves (§3.2).
    pub fn occupancy(&self) -> f64 {
        if self.total_slots() == 0 {
            return 0.0;
        }
        self.total_pairs() as f64 / self.total_slots() as f64
    }

    /// Slot indices owned by thread `tid` that hold live pairs.
    pub fn live_slots_of(&self, tid: usize) -> impl Iterator<Item = usize> + '_ {
        let base = tid * self.stores_per_thread;
        (0..self.counts[tid] as usize).map(move |i| base + i)
    }

    /// Per-thread mutable view for one block's threads: returns
    /// disjoint (keys, vals, partition, counts) chunks for the thread
    /// range of a block, enabling data-race-free parallel blocks.
    #[allow(clippy::type_complexity)]
    pub(crate) fn split_blocks(
        &mut self,
        threads_per_block: usize,
    ) -> Vec<(&mut [u8], &mut [u8], &mut [u32], &mut [u32])> {
        let kchunk = threads_per_block * self.stores_per_thread * self.key_len;
        let vchunk = threads_per_block * self.stores_per_thread * self.val_len;
        let pchunk = threads_per_block * self.stores_per_thread;
        let keys = self.keys.chunks_mut(kchunk.max(1));
        let vals = self.vals.chunks_mut(vchunk.max(1));
        let parts = self.partition.chunks_mut(pchunk.max(1));
        let counts = self.counts.chunks_mut(threads_per_block.max(1));
        keys.zip(vals)
            .zip(parts.zip(counts))
            .map(|((k, v), (p, c))| (k, v, p, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_fills_thread_region_in_order() {
        let mut s = KvStore::new(2, 3, 8, 4, 4);
        assert!(s.emit(0, b"alpha", b"1"));
        assert!(s.emit(0, b"beta", b"2"));
        assert!(s.emit(1, b"gamma", b"3"));
        assert_eq!(s.total_pairs(), 3);
        assert_eq!(&s.key(0)[..5], b"alpha");
        assert_eq!(&s.key(1)[..4], b"beta");
        // Thread 1's region starts at slot 3.
        assert_eq!(&s.key(3)[..5], b"gamma");
        assert_eq!(s.counts, vec![2, 1]);
    }

    #[test]
    fn region_overflow_returns_false() {
        let mut s = KvStore::new(1, 2, 4, 4, 1);
        assert!(s.emit(0, b"a", b"1"));
        assert!(s.emit(0, b"b", b"2"));
        assert!(!s.emit(0, b"c", b"3"), "third emit must fail");
        assert_eq!(s.total_pairs(), 2);
    }

    #[test]
    fn keys_are_truncated_and_padded() {
        let mut s = KvStore::new(1, 1, 4, 2, 1);
        s.emit(0, b"toolongkey", b"v");
        assert_eq!(s.key(0), b"tool");
        assert_eq!(s.val(0), b"v\0");
    }

    #[test]
    fn longest_key_counts_stored_bytes() {
        let mut s = KvStore::new(1, 4, 6, 2, 1);
        assert_eq!(s.longest_key, 0);
        s.emit(0, b"abc", b"1");
        s.emit(0, b"a", b"1");
        assert_eq!(s.longest_key, 3);
        // A truncated key counts only the bytes the slot holds.
        s.emit(0, b"toolongkey", b"1");
        assert_eq!(s.longest_key, 6);
    }

    #[test]
    fn occupancy_reflects_whitespace() {
        let mut s = KvStore::new(4, 10, 4, 4, 1);
        s.emit(0, b"a", b"1");
        s.emit(2, b"b", b"1");
        assert!((s.occupancy() - 2.0 / 40.0).abs() < 1e-9);
    }

    #[test]
    fn partition_assigned_at_emit() {
        let mut s = KvStore::new(1, 4, 8, 4, 7);
        s.emit(0, b"hello", b"1");
        assert_eq!(s.partition[0], default_partition(b"hello", 7));
    }

    #[test]
    fn split_blocks_covers_whole_store_disjointly() {
        let mut s = KvStore::new(8, 2, 4, 4, 2);
        let blocks = s.split_blocks(4);
        assert_eq!(blocks.len(), 2);
        let total_counts: usize = blocks.iter().map(|(_, _, _, c)| c.len()).sum();
        assert_eq!(total_counts, 8);
        let total_keys: usize = blocks.iter().map(|(k, _, _, _)| k.len()).sum();
        assert_eq!(total_keys, 8 * 2 * 4);
    }

    #[test]
    fn live_slots_iterates_only_emitted() {
        let mut s = KvStore::new(2, 4, 4, 4, 1);
        s.emit(1, b"x", b"1");
        s.emit(1, b"y", b"2");
        let live: Vec<usize> = s.live_slots_of(1).collect();
        assert_eq!(live, vec![4, 5]);
        assert_eq!(s.live_slots_of(0).count(), 0);
    }
}
