//! Work-efficient parallel prefix sum (exclusive scan) on the simulated
//! GPU — the Sengupta et al. scan primitive the paper's aggregation pass
//! uses (§5.3, reference [22]).
//!
//! Three phases, as on real hardware:
//! 1. per-block Blelloch upsweep/downsweep in shared memory,
//! 2. scan of the per-block sums,
//! 3. uniform add of block offsets.

use hetero_gpusim::{Access, Device, GpuError, KernelStats};

/// Items each threadblock scans (2 elements per thread at 128 threads).
const BLOCK_ITEMS: usize = 256;

/// Result of a device scan.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Exclusive prefix sums of the input.
    pub prefix: Vec<u64>,
    /// Total of all inputs.
    pub total: u64,
    /// Combined kernel statistics (all three phases).
    pub stats: KernelStats,
}

/// Exclusive scan of `input` on `dev`.
pub fn exclusive_scan(dev: &Device, input: &[u32]) -> Result<ScanResult, GpuError> {
    if input.is_empty() {
        return Ok(ScanResult {
            prefix: Vec::new(),
            total: 0,
            stats: KernelStats::default(),
        });
    }
    let threads_per_block = (BLOCK_ITEMS / 2) as u32;

    // Phase 1: per-block Blelloch scan. Each payload is a chunk copy;
    // `per_block` collects, in block order, the scanned chunk and its
    // total.
    let chunks: Vec<Vec<u32>> = input.chunks(BLOCK_ITEMS).map(|c| c.to_vec()).collect();
    let n_blocks = chunks.len();
    let mut per_block: Vec<(Vec<u64>, u64)> = Vec::with_capacity(n_blocks);
    let stats1 = dev.launch_named(
        "scan_reduce_kernel",
        threads_per_block,
        chunks,
        |blk, chunk| {
            let n = chunk.len();
            // Load phase: each thread loads two adjacent elements —
            // coalesced.
            blk.uniform_rounds(1, |t| t.gld(8, Access::Coalesced));
            // Blelloch tree: 2*log2(n) sweep steps of shared-memory
            // adds; the actual arithmetic below mirrors the hardware
            // algorithm.
            let mut buf: Vec<u64> = chunk.iter().map(|&x| x as u64).collect();
            buf.resize(n.next_power_of_two(), 0);
            let m = buf.len();
            let mut d = 1;
            while d < m {
                // One tree level: m/(2d) active adds.
                blk.uniform_rounds(1, |t| {
                    t.shared(2);
                    t.alu(1);
                });
                let mut i2 = 0;
                while i2 + 2 * d <= m {
                    buf[i2 + 2 * d - 1] += buf[i2 + d - 1];
                    i2 += 2 * d;
                }
                d *= 2;
            }
            let total = buf[m - 1];
            buf[m - 1] = 0;
            let mut d = m / 2;
            while d >= 1 {
                blk.uniform_rounds(1, |t| {
                    t.shared(2);
                    t.alu(1);
                });
                let mut i2 = 0;
                while i2 + 2 * d <= m {
                    let tmp = buf[i2 + d - 1];
                    buf[i2 + d - 1] = buf[i2 + 2 * d - 1];
                    buf[i2 + 2 * d - 1] += tmp;
                    i2 += 2 * d;
                }
                d /= 2;
            }
            buf.truncate(n);
            // Store phase.
            blk.uniform_rounds(1, |t| t.gst(8, Access::Coalesced));
            per_block.push((buf, total));
            Ok(())
        },
    )?;

    // Phase 2: scan of block totals (tiny; single block on device).
    let block_totals: Vec<u64> = per_block.iter().map(|(_, t)| *t).collect();
    let mut block_offsets = vec![0u64; n_blocks];
    let mut acc = 0u64;
    for (i, t) in block_totals.iter().enumerate() {
        block_offsets[i] = acc;
        acc += t;
    }
    let stats2 = dev.launch_named(
        "scan_spine_kernel",
        threads_per_block.min(32),
        vec![()],
        |blk, _| {
            blk.uniform_rounds(1, |t| {
                t.gld(8, Access::Coalesced);
                t.alu(2);
                t.gst(8, Access::Coalesced);
            });
            Ok(())
        },
    )?;

    // Phase 3: uniform add of each block's offset.
    let stats3 = dev.launch_named(
        "scan_add_kernel",
        threads_per_block,
        vec![(); n_blocks],
        |blk, _| {
            blk.uniform_rounds(1, |t| {
                t.gld(8, Access::Coalesced);
                t.alu(2);
                t.gst(8, Access::Coalesced);
            });
            Ok(())
        },
    )?;

    let mut prefix = Vec::with_capacity(input.len());
    for (i, (chunk, _)) in per_block.iter().enumerate() {
        for v in chunk {
            prefix.push(v + block_offsets[i]);
        }
    }
    let total = acc;

    let mut stats = stats1;
    stats.time_s += stats2.time_s + stats3.time_s;
    stats.cycles += stats2.cycles + stats3.cycles;
    let mut c = stats.counters;
    c += stats2.counters;
    c += stats3.counters;
    stats.counters = c;
    Ok(ScanResult {
        prefix,
        total,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_gpusim::GpuSpec;

    fn reference(input: &[u32]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0u64;
        for &x in input {
            out.push(acc);
            acc += x as u64;
        }
        (out, acc)
    }

    #[test]
    fn matches_reference_on_small_inputs() {
        let dev = Device::new(GpuSpec::tesla_k40());
        for input in [vec![], vec![5], vec![1, 2, 3, 4, 5], vec![0, 0, 7, 0, 0, 3]] {
            let r = exclusive_scan(&dev, &input).unwrap();
            let (expect, total) = reference(&input);
            assert_eq!(r.prefix, expect, "input {input:?}");
            assert_eq!(r.total, total);
        }
    }

    #[test]
    fn matches_reference_across_block_boundaries() {
        let dev = Device::new(GpuSpec::tesla_k40());
        // 1000 items spans multiple 256-item blocks, non-power-of-two tail.
        let input: Vec<u32> = (0..1000u32).map(|i| (i * 7 + 3) % 23).collect();
        let r = exclusive_scan(&dev, &input).unwrap();
        let (expect, total) = reference(&input);
        assert_eq!(r.prefix, expect);
        assert_eq!(r.total, total);
        assert!(r.stats.time_s > 0.0);
    }

    #[test]
    fn scan_cost_grows_with_input() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let small = exclusive_scan(&dev, &vec![1u32; 256]).unwrap();
        let large = exclusive_scan(&dev, &vec![1u32; 256 * 64]).unwrap();
        assert!(large.stats.cycles > small.stats.cycles);
    }
}
