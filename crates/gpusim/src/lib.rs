//! # hetero-gpusim
//!
//! An execution-driven GPU architecture simulator — the accelerator
//! substrate for the HeteroDoop reproduction.
//!
//! The paper evaluates on Tesla K40 and M2090 devices; here kernels run
//! *functionally* on the host (real data, real results, one block after
//! another) while a cycle-cost model charges for the architectural
//! mechanisms the paper's optimizations exploit:
//!
//! * warp-lockstep SIMD execution (warp cost = slowest lane),
//! * global-memory coalescing (vectorized access → fewer transactions),
//! * shared- vs global-memory atomics (threadblock-local record stealing),
//! * the texture cache (read-only random-access data),
//! * fixed, non-virtual device memory (static KV-store allocation, OOM),
//! * PCIe transfer costs and kernel launch overhead.
//!
//! Entry points: build a [`Device`] from a [`GpuSpec`] preset, `alloc`
//! buffers, `bind_texture` read-only footprints, then [`Device::launch`]
//! kernels whose bodies call the [`LaneCtx`] cost hooks while computing.

#![warn(missing_docs)]

mod counters;
mod ctx;
mod device;
mod error;
mod mem;
mod spec;

pub use counters::{Counters, KernelStats};
pub use ctx::{Access, BlockCtx, ClassRound, LaneCtx, TexBinding};
pub use device::{AttemptMark, Device, KernelLogEntry};
pub use error::GpuError;
pub use mem::{DevPtr, MemTracker};
pub use spec::{Arch, CostParams, GpuSpec};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Memory accounting never leaks or double counts.
        #[test]
        fn mem_tracker_conserves_bytes(sizes in proptest::collection::vec(1u64..10_000, 1..40)) {
            let cap: u64 = sizes.iter().sum::<u64>() + 1;
            let mut m = MemTracker::new(cap);
            let ptrs: Vec<_> = sizes.iter().map(|&s| m.alloc(s).unwrap()).collect();
            prop_assert_eq!(m.used(), cap - 1);
            for p in ptrs {
                m.free(p).unwrap();
            }
            prop_assert_eq!(m.used(), 0);
            prop_assert_eq!(m.available(), cap);
        }

        /// Warp max-lane folding: round cost equals the largest per-lane
        /// cost, regardless of which lane carries it.
        #[test]
        fn warp_round_is_max_lane(work in proptest::collection::vec(0u64..500, 32)) {
            let spec = GpuSpec::tesla_k40();
            let dev = Device::new(spec);
            let w = work.clone();
            let stats = dev.launch(32, vec![()], move |blk, _| {
                blk.warp_round(|lane, t| t.alu(w[lane as usize]));
                Ok(())
            }).unwrap();
            let max = *work.iter().max().unwrap() as f64;
            prop_assert!((stats.compute_cycles - max).abs() < 1e-6);
            let sum: u64 = work.iter().sum();
            prop_assert_eq!(stats.counters.alu_ops, sum);
        }

        /// Coalesced traffic never costs more transactions than random
        /// traffic for the same bytes.
        #[test]
        fn coalescing_never_hurts(bytes in 1u64..4096) {
            let dev = Device::new(GpuSpec::tesla_k40());
            let s1 = dev.launch(32, vec![()], |blk, _| {
                blk.warp_round(|_, t| t.gld(bytes, Access::Coalesced));
                Ok(())
            }).unwrap();
            let s2 = dev.launch(32, vec![()], |blk, _| {
                blk.warp_round(|_, t| t.gld(bytes, Access::Random));
                Ok(())
            }).unwrap();
            prop_assert!(s1.counters.gld_txns() <= s2.counters.gld_txns() + 1e-9);
            prop_assert!(s1.counters.dram_bytes <= s2.counters.dram_bytes);
        }

        /// Kernel time grows monotonically with per-block work.
        #[test]
        fn time_monotone_in_work(n in 1u64..2000) {
            let dev = Device::new(GpuSpec::tesla_k40());
            let a = dev.launch(32, vec![()], move |blk, _| {
                blk.warp_round(|_, t| t.alu(n));
                Ok(())
            }).unwrap();
            let b = dev.launch(32, vec![()], move |blk, _| {
                blk.warp_round(|_, t| t.alu(2 * n));
                Ok(())
            }).unwrap();
            prop_assert!(b.cycles >= a.cycles);
        }
    }
}
