//! Device global-memory accounting.
//!
//! The simulator does not shadow actual byte contents (kernels operate on
//! host-side Rust data); what matters architecturally is *capacity*: GPU
//! memory is statically allocated and non-virtual, which is why the paper's
//! runtime must size the global KV store up front (§4.3) and why
//! over-allocation has real costs. `MemTracker` provides cudaMalloc /
//! cudaFree semantics with hard capacity limits.

use crate::error::GpuError;
use std::collections::BTreeMap;

/// Handle to a device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DevPtr(pub u64);

/// Tracks allocations against the device's fixed capacity.
#[derive(Debug, Clone)]
pub struct MemTracker {
    capacity: u64,
    used: u64,
    next_id: u64,
    allocs: BTreeMap<u64, u64>, // id -> size
}

impl MemTracker {
    /// New tracker with `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        MemTracker {
            capacity,
            used: 0,
            next_id: 1,
            allocs: BTreeMap::new(),
        }
    }

    /// Allocate `bytes`; fails with [`GpuError::OutOfMemory`] when the
    /// device cannot satisfy the request (no virtual memory to fall back
    /// on).
    pub fn alloc(&mut self, bytes: u64) -> Result<DevPtr, GpuError> {
        if bytes > self.capacity - self.used {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available: self.capacity - self.used,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.used += bytes;
        self.allocs.insert(id, bytes);
        Ok(DevPtr(id))
    }

    /// Release a previous allocation.
    pub fn free(&mut self, ptr: DevPtr) -> Result<(), GpuError> {
        match self.allocs.remove(&ptr.0) {
            Some(sz) => {
                self.used -= sz;
                Ok(())
            }
            None => Err(GpuError::InvalidFree(ptr.0)),
        }
    }

    /// Free every allocation (end-of-task cleanup, Fig. 1 last box).
    pub fn free_all(&mut self) {
        self.allocs.clear();
        self.used = 0;
    }

    /// Bytes currently free. The paper's host driver allocates *all* free
    /// memory for the global KV store when no `kvpairs` hint is given
    /// (§4.3) — this is the number it reads.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Total device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Size of one live allocation, if it exists.
    pub fn size_of(&self, ptr: DevPtr) -> Option<u64> {
        self.allocs.get(&ptr.0).copied()
    }

    /// Allocation watermark: every allocation made after this call gets an
    /// id `>=` the returned mark, so a failed task attempt can be undone
    /// with [`MemTracker::free_since`].
    pub fn mark(&self) -> u64 {
        self.next_id
    }

    /// Free every live allocation with id `>=` mark (attempt rollback).
    /// Allocations already freed are unaffected.
    pub fn free_since(&mut self, mark: u64) {
        let dead = self.allocs.split_off(&mark);
        self.used -= dead.values().sum::<u64>();
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> usize {
        self.allocs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut m = MemTracker::new(1000);
        let a = m.alloc(400).unwrap();
        let b = m.alloc(600).unwrap();
        assert_eq!(m.available(), 0);
        assert!(matches!(m.alloc(1), Err(GpuError::OutOfMemory { .. })));
        m.free(a).unwrap();
        assert_eq!(m.available(), 400);
        m.free(b).unwrap();
        assert_eq!(m.used(), 0);
        assert_eq!(m.live_allocs(), 0);
    }

    #[test]
    fn a_request_near_u64_max_is_out_of_memory() {
        // `used + bytes` would overflow `u64`: the check must not add.
        let mut m = MemTracker::new(100);
        m.alloc(70).unwrap();
        for bytes in [u64::MAX, u64::MAX - 50] {
            assert!(matches!(m.alloc(bytes), Err(GpuError::OutOfMemory { .. })));
        }
        assert_eq!(m.used(), 70);
    }

    #[test]
    fn oom_reports_exact_availability() {
        let mut m = MemTracker::new(100);
        m.alloc(70).unwrap();
        match m.alloc(40) {
            Err(GpuError::OutOfMemory {
                requested,
                available,
            }) => {
                assert_eq!(requested, 40);
                assert_eq!(available, 30);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn double_free_is_an_error() {
        let mut m = MemTracker::new(100);
        let a = m.alloc(10).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.free(a), Err(GpuError::InvalidFree(a.0)));
    }

    #[test]
    fn free_all_resets() {
        let mut m = MemTracker::new(100);
        m.alloc(30).unwrap();
        m.alloc(30).unwrap();
        m.free_all();
        assert_eq!(m.available(), 100);
        assert_eq!(m.live_allocs(), 0);
    }

    #[test]
    fn free_since_undoes_only_newer_allocations() {
        let mut m = MemTracker::new(100);
        let old = m.alloc(10).unwrap();
        let mark = m.mark();
        m.alloc(20).unwrap();
        let freed_before = m.alloc(30).unwrap();
        m.free(freed_before).unwrap();
        m.free_since(mark);
        assert_eq!(m.used(), 10);
        assert_eq!(m.live_allocs(), 1);
        assert_eq!(m.size_of(old), Some(10));
    }

    #[test]
    fn size_of_live_allocation() {
        let mut m = MemTracker::new(100);
        let a = m.alloc(42).unwrap();
        assert_eq!(m.size_of(a), Some(42));
        m.free(a).unwrap();
        assert_eq!(m.size_of(a), None);
    }
}
