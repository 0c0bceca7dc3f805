//! GPU hardware specifications and the cycle-cost parameters of the
//! simulator's timing model.
//!
//! Two presets mirror the devices used in the paper's evaluation (Table 3):
//! the Tesla K40 (Kepler) of Cluster1 and the Tesla M2090 (Fermi) of
//! Cluster2. Capacities are scaled down together with the workloads (see
//! DESIGN.md §2) so that the *ratios* that drive behaviour — KV-store
//! over-allocation, texture working sets, out-of-memory boundaries — are
//! preserved at laptop scale.

use crate::error::GpuError;

/// GPU micro-architecture family. Affects a handful of cost parameters
/// (Fermi has slower atomics and a smaller texture cache than Kepler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Tesla K40-class device (Compute Capability 3.5).
    Kepler,
    /// Tesla M2090-class device (Compute Capability 2.0).
    Fermi,
}

/// Static description of a simulated GPU device.
#[derive(Debug, Clone)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"Tesla K40"`.
    pub name: String,
    /// Architecture family.
    pub arch: Arch,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Warp schedulers per SM: how many warp instructions can issue per
    /// cycle. Warps on different schedulers overlap; a block is limited
    /// by max(total work / issue width, its longest single warp chain).
    pub issue_width: u32,
    /// Core clock in GHz; converts cycles to seconds.
    pub clock_ghz: f64,
    /// Global (device) memory capacity in bytes.
    pub global_mem_bytes: u64,
    /// Shared memory per SM in bytes (user-managed cache).
    pub shared_mem_per_sm: u32,
    /// Constant memory in bytes.
    pub constant_mem_bytes: u32,
    /// Texture cache per SM in bytes.
    pub tex_cache_bytes: u32,
    /// Peak global-memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// PCIe host<->device bandwidth in GB/s.
    pub pcie_bandwidth_gbps: f64,
    /// PCIe transfer setup latency in microseconds.
    pub pcie_latency_us: f64,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// SIMD width of a warp (32 on all NVIDIA parts).
    pub warp_size: u32,
    /// Maximum threads per threadblock.
    pub max_threads_per_block: u32,
    /// Cycle costs of individual operations.
    pub costs: CostParams,
}

/// Cycle costs charged by the execution engine. All values are per-warp
/// unless stated otherwise; the engine aggregates lane activity into warp
/// events (see [`crate::warp`]).
#[derive(Debug, Clone)]
pub struct CostParams {
    /// One warp-wide ALU instruction (int/fp add, compare, shift...).
    pub alu_cycles: f64,
    /// One warp-wide special-function instruction (exp, log, sqrt, div).
    pub sfu_cycles: f64,
    /// Memory-pipe occupancy of one 128-byte global-memory transaction.
    pub global_txn_cycles: f64,
    /// Size of a global memory transaction in bytes.
    pub txn_bytes: u32,
    /// Conflict-free shared-memory access (per warp).
    pub shared_cycles: f64,
    /// One shared-memory atomic by one lane (serialized when contended).
    pub shared_atomic_cycles: f64,
    /// One global-memory atomic by one lane. On the real hardware this is
    /// an order of magnitude more expensive than a shared atomic — the
    /// reason the paper's record stealing is per-threadblock (§4.1).
    pub global_atomic_cycles: f64,
    /// Texture fetch that hits the per-SM texture cache.
    pub tex_hit_cycles: f64,
}

/// Widest warp the engine's per-lane bookkeeping holds.
pub(crate) const MAX_WARP_SIZE: u32 = 64;

impl GpuSpec {
    /// Refuse a spec the block loop would divide by or index past. The
    /// fields are public, so a hand-built spec can hold such values.
    pub(crate) fn check_launchable(&self) -> Result<(), GpuError> {
        let why = if self.num_sms == 0 {
            "num_sms is 0".to_string()
        } else if self.warp_size == 0 || self.warp_size > MAX_WARP_SIZE {
            format!("warp_size {} outside 1..={MAX_WARP_SIZE}", self.warp_size)
        } else if self.costs.txn_bytes == 0 {
            "costs.txn_bytes is 0".to_string()
        } else {
            return Ok(());
        };
        Err(GpuError::BadLaunch(format!("GpuSpec: {why}")))
    }

    /// Tesla K40 (Kepler) — the one-per-node GPU of Cluster1 (Table 3).
    ///
    /// Memory capacity is scaled 1:1024 versus the physical 12 GB so that
    /// the scaled-down fileSplits (DESIGN.md §2) exercise the same
    /// allocation pressure.
    pub fn tesla_k40() -> Self {
        GpuSpec {
            name: "Tesla K40".to_string(),
            arch: Arch::Kepler,
            num_sms: 15,
            issue_width: 4, // Kepler: 4 warp schedulers per SMX
            clock_ghz: 0.745,
            global_mem_bytes: 12 * 1024 * 1024, // 12 MB stands in for 12 GB
            shared_mem_per_sm: 48 * 1024,
            constant_mem_bytes: 64 * 1024,
            tex_cache_bytes: 48 * 1024,
            mem_bandwidth_gbps: 288.0,
            pcie_bandwidth_gbps: 12.0,
            // Fixed latencies scaled with the 1:1024 workload scaling.
            pcie_latency_us: 0.2,
            launch_overhead_us: 0.05,
            warp_size: 32,
            max_threads_per_block: 1024,
            costs: CostParams {
                alu_cycles: 1.0,
                sfu_cycles: 8.0,
                global_txn_cycles: 16.0,
                txn_bytes: 128,
                shared_cycles: 1.0,
                shared_atomic_cycles: 6.0,
                global_atomic_cycles: 160.0,
                tex_hit_cycles: 4.0,
            },
        }
    }

    /// Tesla M2090 (Fermi) — three per node on Cluster2 (Table 3).
    ///
    /// Fermi's atomics and caches are slower than Kepler's; memory is 6 GB
    /// physically, scaled 1:1024 here. The smaller capacity is what makes
    /// the KM benchmark infeasible on Cluster2 in the paper (Fig. 4b).
    pub fn tesla_m2090() -> Self {
        GpuSpec {
            name: "Tesla M2090".to_string(),
            arch: Arch::Fermi,
            num_sms: 16,
            issue_width: 2, // Fermi: 2 warp schedulers per SM
            clock_ghz: 0.65,
            global_mem_bytes: 6 * 1024 * 1024, // 6 MB stands in for 6 GB
            shared_mem_per_sm: 48 * 1024,
            constant_mem_bytes: 64 * 1024,
            tex_cache_bytes: 12 * 1024,
            mem_bandwidth_gbps: 177.0,
            pcie_bandwidth_gbps: 8.0,
            pcie_latency_us: 0.3,
            launch_overhead_us: 0.08,
            warp_size: 32,
            max_threads_per_block: 1024,
            costs: CostParams {
                alu_cycles: 1.0,
                sfu_cycles: 10.0,
                global_txn_cycles: 22.0,
                txn_bytes: 128,
                shared_cycles: 1.2,
                shared_atomic_cycles: 14.0,
                global_atomic_cycles: 340.0,
                tex_hit_cycles: 6.0,
            },
        }
    }

    /// Seconds represented by `cycles` at this device's clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// Time to move `bytes` across PCIe (one direction), in seconds.
    pub fn pcie_transfer_seconds(&self, bytes: u64) -> f64 {
        self.pcie_latency_us * 1e-6 + bytes as f64 / (self.pcie_bandwidth_gbps * 1e9)
    }

    /// Lower bound on kernel time imposed by the device-wide DRAM
    /// bandwidth, in seconds, for `bytes` of global traffic.
    pub fn bandwidth_floor_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.mem_bandwidth_gbps * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_preset_sane() {
        let s = GpuSpec::tesla_k40();
        assert_eq!(s.arch, Arch::Kepler);
        assert_eq!(s.warp_size, 32);
        assert_eq!(s.num_sms, 15);
        assert!(s.global_mem_bytes > s.shared_mem_per_sm as u64);
    }

    #[test]
    fn m2090_has_less_memory_and_slower_atomics_than_k40() {
        let k = GpuSpec::tesla_k40();
        let m = GpuSpec::tesla_m2090();
        assert!(m.global_mem_bytes < k.global_mem_bytes);
        assert!(m.costs.global_atomic_cycles > k.costs.global_atomic_cycles);
        assert!(m.costs.shared_atomic_cycles > k.costs.shared_atomic_cycles);
    }

    #[test]
    fn cycles_to_seconds_scales_with_clock() {
        let s = GpuSpec::tesla_k40();
        let one_second = s.clock_ghz * 1e9;
        assert!((s.cycles_to_seconds(one_second) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pcie_transfer_includes_latency() {
        let s = GpuSpec::tesla_k40();
        let t0 = s.pcie_transfer_seconds(0);
        assert!((t0 - s.pcie_latency_us * 1e-6).abs() < 1e-15);
        let t1 = s.pcie_transfer_seconds(12_000_000);
        assert!(t1 > t0 + 0.9e-3); // 12 MB at 12 GB/s = 1 ms
    }

    #[test]
    fn global_atomics_much_costlier_than_shared() {
        // This ratio is the architectural reason for threadblock-level
        // record stealing (paper §4.1).
        for s in [GpuSpec::tesla_k40(), GpuSpec::tesla_m2090()] {
            assert!(s.costs.global_atomic_cycles >= 10.0 * s.costs.shared_atomic_cycles);
        }
    }
}
