//! Performance counters accumulated during kernel execution.
//!
//! Counters are kept per threadblock during execution (so the block loop
//! touches no shared state) and merged into kernel-level and device-level
//! totals afterwards.

use std::ops::AddAssign;

/// Event counts observed while executing simulated GPU code.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Warp-wide ALU instructions issued.
    pub alu_ops: u64,
    /// Warp-wide special-function (exp/log/sqrt/div) instructions issued.
    pub sfu_ops: u64,
    /// Global-memory load transactions (128 B each), scaled ×1000 to keep
    /// fractional per-lane contributions exact in integer arithmetic.
    pub gld_txn_milli: u64,
    /// Global-memory store transactions, ×1000.
    pub gst_txn_milli: u64,
    /// Shared-memory accesses.
    pub shared_ops: u64,
    /// Shared-memory atomic operations (lane-serialized).
    pub shared_atomics: u64,
    /// Global-memory atomic operations (lane-serialized).
    pub global_atomics: u64,
    /// Texture fetches that hit the texture cache.
    pub tex_hits: u64,
    /// Texture fetches that missed and went to DRAM.
    pub tex_misses: u64,
    /// Bytes moved to/from global memory (for the bandwidth floor).
    pub dram_bytes: u64,
    /// Global transactions (×1000) caused by `Access::Random` requests —
    /// the non-coalesced share of `gld_txn_milli + gst_txn_milli`.
    pub random_txn_milli: u64,
    /// Lanes idle in SIMD lockstep (branch divergence), by three rules:
    /// a `warp_round_for` counts its lanes that finish before its slowest
    /// lane; a `ClassRound::fold(warps)` counts `(warp_size − Σ class
    /// lanes) × warps`, the lanes no class covers; and `warp_round`,
    /// `uniform_rounds` and warp chains charged through `with_lane` /
    /// `charge_warp_chain` (record stealing) count none.
    pub divergent_lanes: u64,
}

impl Counters {
    /// Global load transactions as a real number.
    pub fn gld_txns(&self) -> f64 {
        self.gld_txn_milli as f64 / 1000.0
    }

    /// Global store transactions as a real number.
    pub fn gst_txns(&self) -> f64 {
        self.gst_txn_milli as f64 / 1000.0
    }

    /// Total global transactions (loads + stores).
    pub fn global_txns(&self) -> f64 {
        self.gld_txns() + self.gst_txns()
    }

    /// Global transactions caused by uncoalesced (`Access::Random`) requests.
    pub fn random_txns(&self) -> f64 {
        self.random_txn_milli as f64 / 1000.0
    }

    /// Global transactions from coalesced/broadcast requests
    /// (total − random).
    pub fn coalesced_txns(&self) -> f64 {
        (self.global_txns() - self.random_txns()).max(0.0)
    }

    /// These counts `n` times over: what `n` lanes (or warps) doing the
    /// same thing add up to.
    pub fn times(self, n: u64) -> Counters {
        Counters {
            alu_ops: self.alu_ops * n,
            sfu_ops: self.sfu_ops * n,
            gld_txn_milli: self.gld_txn_milli * n,
            gst_txn_milli: self.gst_txn_milli * n,
            shared_ops: self.shared_ops * n,
            shared_atomics: self.shared_atomics * n,
            global_atomics: self.global_atomics * n,
            tex_hits: self.tex_hits * n,
            tex_misses: self.tex_misses * n,
            dram_bytes: self.dram_bytes * n,
            random_txn_milli: self.random_txn_milli * n,
            divergent_lanes: self.divergent_lanes * n,
        }
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, o: Self) {
        self.alu_ops += o.alu_ops;
        self.sfu_ops += o.sfu_ops;
        self.gld_txn_milli += o.gld_txn_milli;
        self.gst_txn_milli += o.gst_txn_milli;
        self.shared_ops += o.shared_ops;
        self.shared_atomics += o.shared_atomics;
        self.global_atomics += o.global_atomics;
        self.tex_hits += o.tex_hits;
        self.tex_misses += o.tex_misses;
        self.dram_bytes += o.dram_bytes;
        self.random_txn_milli += o.random_txn_milli;
        self.divergent_lanes += o.divergent_lanes;
    }
}

/// Result of one kernel launch: simulated time plus merged counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Simulated kernel execution time in seconds (includes launch
    /// overhead, excludes PCIe transfers — those are separate events).
    pub time_s: f64,
    /// Critical-path cycles (max over SMs), before launch overhead.
    pub cycles: f64,
    /// Cycles attributable to compute on the critical SM.
    pub compute_cycles: f64,
    /// Cycles attributable to the memory pipe on the critical SM.
    pub memory_cycles: f64,
    /// Number of threadblocks executed.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Merged event counters.
    pub counters: Counters,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_merges_all_fields() {
        let mut a = Counters {
            alu_ops: 1,
            sfu_ops: 2,
            gld_txn_milli: 3,
            gst_txn_milli: 4,
            shared_ops: 5,
            shared_atomics: 6,
            global_atomics: 7,
            tex_hits: 8,
            tex_misses: 9,
            dram_bytes: 10,
            random_txn_milli: 11,
            divergent_lanes: 12,
        };
        let one = a;
        a += a;
        assert_eq!(a, one.times(2));
        assert_eq!(a.alu_ops, 2);
        assert_eq!(a.dram_bytes, 20);
        assert_eq!(a.tex_misses, 18);
        assert_eq!(a.random_txn_milli, 22);
        assert_eq!(a.divergent_lanes, 24);
    }

    #[test]
    fn txn_milli_round_trips() {
        let c = Counters {
            gld_txn_milli: 1500,
            gst_txn_milli: 250,
            ..Default::default()
        };
        assert!((c.gld_txns() - 1.5).abs() < 1e-12);
        assert!((c.gst_txns() - 0.25).abs() < 1e-12);
        assert!((c.global_txns() - 1.75).abs() < 1e-12);
    }
}
