//! Execution contexts: the cost-accounting API that simulated kernels call
//! while doing their real work.
//!
//! # Execution & timing model
//!
//! Kernels execute *functionally* in plain Rust, block by block on the
//! launching host thread. Inside a block, work is expressed in
//! **warp rounds**, and a round is a list of **lane classes**: `lanes`
//! lanes that all do what one closure does. The closure of a class runs
//! *once*; its event counts are added `lanes` times and the round costs
//! the SIMD rule
//!
//! > warp cycles = max over lanes
//!
//! which captures the lockstep property that a warp only advances when its
//! slowest lane has finished (paper §2.1). Most kernels of the runtime are
//! one class of 32 ([`BlockCtx::uniform_rounds`]); the redundantly
//! executed combiner is a leader and 31 followers
//! ([`BlockCtx::round`]); a kernel whose lanes really differ asks for the
//! closure to run per lane ([`BlockCtx::warp_round`]). Host time follows
//! the number of *distinct* lanes, simulated cost does not change: see
//! the exactness contract on [`ClassRound`]. The combiner's single
//! active lane (paper §4.2) is a round of one class of one lane.
//!
//! `Counters::divergent_lanes` counts lanes idle in lockstep by three
//! rules: [`BlockCtx::warp_round_for`] counts the lanes that finish
//! before its slowest lane; [`ClassRound::fold`] counts the lanes no
//! class covers, once per folded warp; [`BlockCtx::warp_round`],
//! [`BlockCtx::uniform_rounds`] and warp chains charged through
//! [`BlockCtx::with_lane`] (record stealing) count none.
//!
//! Per-block totals are then
//!
//! * compute cycles  = Σ over warp rounds of max-lane cycles,
//! * memory cycles   = global transactions × transaction cost,
//! * block cycles    = max(compute, memory)  — multithreading overlaps the
//!   two pipes.
//!
//! Global-memory **coalescing** is modelled through [`Access`]: a fully
//! coalesced warp access touches `warp_bytes / 128` transactions, while a
//! random (scattered) access costs one full 128-byte transaction per lane —
//! and wastes the corresponding DRAM bandwidth. This is the mechanism
//! behind the paper's vectorization optimization (Figs. 7b, 7c).

use crate::counters::Counters;
use crate::error::GpuError;
use crate::spec::{GpuSpec, MAX_WARP_SIZE};

/// Warp-level global-memory access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Adjacent lanes touch adjacent addresses; the hardware merges the
    /// warp's requests into `ceil(bytes/128)` transactions.
    Coalesced,
    /// Every lane touches an unrelated address: one transaction per lane,
    /// moving a full 128-byte line for however few bytes were wanted.
    Random,
    /// All lanes read the same address (one transaction serves the warp).
    Broadcast,
}

/// Per-lane accounting handle passed to kernel closures.
///
/// All methods are cheap counter bumps; the expensive folding happens once
/// per warp round.
pub struct LaneCtx<'a> {
    pub(crate) lane: u32,
    pub(crate) cycles: f64,
    pub(crate) counters: Counters,
    /// Fractional texture-miss accumulator (deterministic miss emission).
    pub(crate) tex_miss_accum: f64,
    pub(crate) spec: &'a GpuSpec,
    pub(crate) tex_sizes: &'a [u64],
}

impl<'a> LaneCtx<'a> {
    /// Lane index within the warp, `0..32`.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Charge `n` plain ALU instructions.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.cycles += n as f64 * self.spec.costs.alu_cycles;
        self.counters.alu_ops += n;
    }

    /// Charge `n` special-function instructions (exp, log, sqrt, div).
    #[inline]
    pub fn sfu(&mut self, n: u64) {
        self.cycles += n as f64 * self.spec.costs.sfu_cycles;
        self.counters.sfu_ops += n;
    }

    /// Global-memory load of `bytes` by this lane with the given warp
    /// access pattern.
    #[inline]
    pub fn gld(&mut self, bytes: u64, access: Access) {
        let (txn_milli, dram) = self.txn_cost(bytes, access);
        self.counters.gld_txn_milli += txn_milli;
        self.counters.dram_bytes += dram;
        // Issue slot for the load instruction itself.
        self.cycles += self.spec.costs.alu_cycles;
    }

    /// Global-memory store of `bytes` by this lane.
    #[inline]
    pub fn gst(&mut self, bytes: u64, access: Access) {
        let (txn_milli, dram) = self.txn_cost(bytes, access);
        self.counters.gst_txn_milli += txn_milli;
        self.counters.dram_bytes += dram;
        self.cycles += self.spec.costs.alu_cycles;
    }

    fn txn_cost(&mut self, bytes: u64, access: Access) -> (u64, u64) {
        let line = self.spec.costs.txn_bytes as u64;
        match access {
            // Per-lane fractional share of the warp's merged transactions.
            Access::Coalesced => (bytes * 1000 / line, bytes),
            // A full line per lane-access regardless of useful bytes.
            Access::Random => {
                let accesses = bytes.div_ceil(line).max(1);
                self.counters.random_txn_milli += accesses * 1000;
                (accesses * 1000, accesses * line)
            }
            // One transaction shared by the whole warp.
            Access::Broadcast => (1000 / self.spec.warp_size as u64, bytes),
        }
    }

    /// `n` conflict-free shared-memory accesses.
    #[inline]
    pub fn shared(&mut self, n: u64) {
        self.cycles += n as f64 * self.spec.costs.shared_cycles;
        self.counters.shared_ops += n;
    }

    /// One shared-memory atomic (e.g. the record-stealing counter bump,
    /// paper §4.1). Contended lane-serialized cost.
    #[inline]
    pub fn shared_atomic(&mut self) {
        self.cycles += self.spec.costs.shared_atomic_cycles;
        self.counters.shared_atomics += 1;
    }

    /// One global-memory atomic — an order of magnitude costlier than a
    /// shared atomic, which is why HeteroDoop avoids global work stealing.
    #[inline]
    pub fn global_atomic(&mut self) {
        self.cycles += self.spec.costs.global_atomic_cycles;
        self.counters.global_atomics += 1;
    }

    /// Texture fetch of `bytes` from the binding `tex`.
    ///
    /// The texture unit has a small per-SM cache; a binding whose footprint
    /// fits the cache hits after warm-up, a larger binding hits with
    /// probability `cache/footprint`. Misses are emitted deterministically
    /// through a fractional accumulator so runs are reproducible.
    #[inline]
    pub fn tex(&mut self, tex: TexBinding, bytes: u64) -> Result<(), GpuError> {
        let size = *self
            .tex_sizes
            .get(tex.0 as usize)
            .ok_or(GpuError::UnboundTexture(tex.0))?;
        let cache = self.spec.tex_cache_bytes as u64;
        let miss_frac = if size <= cache {
            0.02 // cold misses only
        } else {
            1.0 - cache as f64 / size as f64
        };
        self.tex_miss_accum += miss_frac;
        if self.tex_miss_accum >= 1.0 {
            self.tex_miss_accum -= 1.0;
            self.counters.tex_misses += 1;
            let line = self.spec.costs.txn_bytes as u64;
            self.counters.gld_txn_milli += 1000;
            self.counters.dram_bytes += line.max(bytes);
            self.cycles += self.spec.costs.alu_cycles;
        } else {
            self.counters.tex_hits += 1;
            self.cycles += self.spec.costs.tex_hit_cycles;
        }
        Ok(())
    }
}

/// Identifier of a texture binding created by
/// [`crate::device::Device::bind_texture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TexBinding(pub u32);

/// Per-threadblock execution context.
pub struct BlockCtx<'a> {
    pub(crate) block_idx: u32,
    pub(crate) threads_per_block: u32,
    pub(crate) spec: &'a GpuSpec,
    pub(crate) tex_sizes: &'a [u64],
    pub(crate) compute_cycles: f64,
    pub(crate) counters: Counters,
    pub(crate) shared_used: u32,
    /// Accumulated cycles per warp (round-robin attribution of
    /// warp_round calls), for the longest-chain term of the block time.
    pub(crate) warp_totals: Vec<f64>,
    pub(crate) rr: usize,
}

impl<'a> BlockCtx<'a> {
    /// Index of this block within the grid.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// Threads per block of the launch.
    pub fn threads_per_block(&self) -> u32 {
        self.threads_per_block
    }

    /// Number of warps in this block.
    pub fn num_warps(&self) -> u32 {
        self.threads_per_block.div_ceil(self.spec.warp_size)
    }

    /// Warp width (32).
    pub fn warp_size(&self) -> u32 {
        self.spec.warp_size
    }

    /// Reserve `bytes` of the per-SM shared memory for this block (e.g. the
    /// record-stealing counter or the combiner's per-warp string buffers).
    pub fn alloc_shared(&mut self, bytes: u32) -> Result<(), GpuError> {
        if self.shared_used + bytes > self.spec.shared_mem_per_sm {
            return Err(GpuError::SharedMemExceeded {
                requested: self.shared_used + bytes,
                capacity: self.spec.shared_mem_per_sm,
            });
        }
        self.shared_used += bytes;
        Ok(())
    }

    fn lane_ctx(&self) -> LaneCtx<'a> {
        LaneCtx {
            lane: 0,
            cycles: 0.0,
            counters: Counters::default(),
            tex_miss_accum: 0.0,
            spec: self.spec,
            tex_sizes: self.tex_sizes,
        }
    }

    /// Run `f` on every lane of one warp, each starting from zero cycles,
    /// and merge their event counters into the block. Returns the slowest
    /// lane's cycles; `each` sees every lane's.
    fn run_lanes<F>(&mut self, mut f: F, mut each: impl FnMut(u32, f64)) -> f64
    where
        F: FnMut(u32, &mut LaneCtx<'_>),
    {
        // One context for the round: the counters are integers, so adding
        // them to the block once is what adding them lane by lane gave.
        let mut ctx = self.lane_ctx();
        let mut max_cycles = 0.0f64;
        for lane in 0..self.spec.warp_size {
            ctx.lane = lane;
            ctx.cycles = 0.0;
            ctx.tex_miss_accum = 0.0;
            f(lane, &mut ctx);
            each(lane, ctx.cycles);
            max_cycles = max_cycles.max(ctx.cycles);
        }
        self.counters += ctx.counters;
        max_cycles
    }

    /// The block's warp chains, sized to its warp count.
    fn chains(&mut self) -> &mut [f64] {
        let w = self.num_warps().max(1) as usize;
        if self.warp_totals.len() != w {
            self.warp_totals.resize(w, 0.0);
        }
        &mut self.warp_totals
    }

    /// Fold one round of `cycles` into the block, attributed to the next
    /// warp in round-robin order.
    fn fold_round(&mut self, cycles: f64) {
        self.compute_cycles += cycles;
        let rr = self.rr;
        let chains = self.chains();
        chains[rr % chains.len()] += cycles;
        self.rr += 1;
    }

    /// Execute one **warp round** whose lanes differ: `f` runs once per
    /// lane and the round costs the warp `max(lane cycles)` — the SIMD
    /// lockstep rule. Returns the folded warp cycles for this round. When
    /// `f` ignores its lane id, [`BlockCtx::uniform_rounds`] charges the
    /// same for one call of it.
    pub fn warp_round<F>(&mut self, f: F) -> f64
    where
        F: FnMut(u32, &mut LaneCtx<'_>),
    {
        let max_cycles = self.run_lanes(f, |_, _| {});
        self.fold_round(max_cycles);
        max_cycles
    }

    /// Start a round described by lane classes; see [`ClassRound`].
    pub fn round(&mut self) -> ClassRound<'_, 'a> {
        ClassRound {
            blk: self,
            max_cycles: 0.0,
            counters: Counters::default(),
            lanes: 0,
        }
    }

    /// `warps` identical rounds in which every lane does what `f` does:
    /// `f` runs once. Charges exactly what `warps` calls of
    /// [`BlockCtx::warp_round`] with a lane-blind closure charge. Returns
    /// the cycles of one round.
    pub fn uniform_rounds<F>(&mut self, warps: u32, f: F) -> f64
    where
        F: FnOnce(&mut LaneCtx<'_>),
    {
        let lanes = self.spec.warp_size;
        self.round().class(lanes, f).fold(warps)
    }

    /// Run `f` with a fresh lane context, merging its event counters into
    /// the block but **not** charging any compute time — the caller
    /// attributes the returned lane cycles itself (see
    /// [`BlockCtx::charge_warp_chain`]). Used by schedulers that track
    /// per-lane virtual clocks, e.g. record stealing.
    pub fn with_lane<F>(&mut self, f: F) -> f64
    where
        F: FnOnce(&mut LaneCtx<'_>),
    {
        let mut ctx = self.lane_ctx();
        f(&mut ctx);
        self.counters += ctx.counters;
        ctx.cycles
    }

    /// Charge `cycles` of lockstep execution to warp `w`'s chain (its
    /// lanes ran in parallel for this long; the warp occupied an issue
    /// slot throughout).
    pub fn charge_warp_chain(&mut self, w: u32, cycles: f64) {
        self.compute_cycles += cycles;
        let chains = self.chains();
        chains[(w as usize) % chains.len()] += cycles;
    }

    /// Like [`BlockCtx::warp_round`] but attributes the round to an
    /// explicit warp `w` — required when warps make uneven progress
    /// (e.g. record stealing, where fast warps take more rounds).
    pub fn warp_round_for<F>(&mut self, w: u32, f: F) -> f64
    where
        F: FnMut(u32, &mut LaneCtx<'_>),
    {
        let mut lane_cycles = [0.0f64; MAX_WARP_SIZE as usize];
        let lanes = self.spec.warp_size;
        let max_cycles = self.run_lanes(f, |lane, c| lane_cycles[lane as usize] = c);
        // Lanes that finish before the slowest lane idle in SIMD
        // lockstep for the rest of the round; count them as divergent
        // (time accounting is unchanged — the round already costs
        // max-lane cycles).
        if max_cycles > 0.0 {
            self.counters.divergent_lanes += lane_cycles[..lanes as usize]
                .iter()
                .filter(|&&c| c < max_cycles)
                .count() as u64;
        }
        self.charge_warp_chain(w, max_cycles);
        max_cycles
    }

    /// Memory-pipe cycles implied by the counters accumulated so far.
    pub(crate) fn memory_cycles(&self) -> f64 {
        self.counters.global_txns() * self.spec.costs.global_txn_cycles
    }

    /// Block time under the compute/memory overlap model: warps on
    /// different schedulers overlap, so the block is bounded below by
    /// total work / issue width AND by its longest single warp chain
    /// (an unbalanced warp cannot be hidden), AND by the memory pipe.
    pub(crate) fn block_cycles(&self) -> f64 {
        let issue = self.spec.issue_width.max(1) as f64;
        let chain = self.warp_totals.iter().cloned().fold(0.0f64, f64::max);
        (self.compute_cycles / issue)
            .max(chain)
            .max(self.memory_cycles())
    }
}

/// A warp round described by **lane classes** (built by
/// [`BlockCtx::round`]): each [`ClassRound::class`] stands for `lanes`
/// lanes that do identical work, and its closure runs once instead of
/// once per lane.
///
/// # Exactness contract
///
/// A class round charges, bit for bit, what the per-lane spelling
/// charges — no `f64` is multiplied or re-associated:
///
/// * a class's cycles are the sequence of additions one lane performs,
///   so the round's `max` sees the same values;
/// * event counters are integers, and `lanes × warps` of them are added
///   by multiplication;
/// * [`ClassRound::fold`] repeats the per-round fold (`compute_cycles +=`,
///   round-robin warp chain `+=`) once per simulated round, in order,
///   and never replaces it by `warps × cycles` — the M2090's 1.2-cycle
///   shared access is not dyadic, so a closed form would round
///   differently.
///
/// Lanes no class covers idle through the round: they cost nothing, and
/// [`ClassRound::fold`] counts them in `divergent_lanes`.
pub struct ClassRound<'b, 'a> {
    blk: &'b mut BlockCtx<'a>,
    max_cycles: f64,
    counters: Counters,
    /// Lanes the classes so far cover.
    lanes: u32,
}

impl ClassRound<'_, '_> {
    /// Add a class: `lanes` lanes that each do what `f` does. `f` runs
    /// now, once, on a fresh lane context (lane id 0) — or not at all for
    /// a class of no lanes.
    pub fn class<F>(mut self, lanes: u32, f: F) -> Self
    where
        F: FnOnce(&mut LaneCtx<'_>),
    {
        if lanes == 0 {
            return self;
        }
        let mut ctx = self.blk.lane_ctx();
        f(&mut ctx);
        self.max_cycles = self.max_cycles.max(ctx.cycles);
        self.counters += ctx.counters.times(lanes as u64);
        self.lanes += lanes;
        self
    }

    /// Charge the round to the block as `warps` consecutive, identical
    /// warp rounds, the lanes no class covers counted as divergent.
    /// Returns the cycles of one round.
    pub fn fold(mut self, warps: u32) -> f64 {
        let idle = self.blk.spec.warp_size.saturating_sub(self.lanes);
        self.counters.divergent_lanes += idle as u64;
        self.blk.counters += self.counters.times(warps as u64);
        for _ in 0..warps {
            self.blk.fold_round(self.max_cycles);
        }
        self.max_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block<'a>(spec: &'a GpuSpec, tex: &'a [u64]) -> BlockCtx<'a> {
        block_of(spec, tex, 64)
    }

    fn block_of<'a>(spec: &'a GpuSpec, tex: &'a [u64], threads: u32) -> BlockCtx<'a> {
        BlockCtx {
            block_idx: 0,
            threads_per_block: threads,
            spec,
            tex_sizes: tex,
            compute_cycles: 0.0,
            counters: Counters::default(),
            shared_used: 0,
            warp_totals: Vec::new(),
            rr: 0,
        }
    }

    #[test]
    fn warp_round_costs_max_lane() {
        let spec = GpuSpec::tesla_k40();
        let mut b = block(&spec, &[]);
        let c = b.warp_round(|lane, t| {
            t.alu(lane as u64); // lane 31 does the most work
        });
        assert!((c - 31.0).abs() < 1e-9);
        assert!((b.compute_cycles - 31.0).abs() < 1e-9);
        // counters sum over all lanes: 0+1+...+31 = 496
        assert_eq!(b.counters.alu_ops, 496);
    }

    #[test]
    fn coalesced_vs_random_transactions() {
        let spec = GpuSpec::tesla_k40();
        let mut b = block(&spec, &[]);
        // 32 lanes each loading 4 coalesced bytes = 128 bytes = 1 txn.
        b.warp_round(|_, t| t.gld(4, Access::Coalesced));
        let coalesced = b.counters.gld_txns();
        assert!((coalesced - 1.0).abs() < 0.04, "got {coalesced}");

        let mut b2 = block(&spec, &[]);
        // Same bytes accessed randomly: one txn per lane = 32 txns.
        b2.warp_round(|_, t| t.gld(4, Access::Random));
        assert!((b2.counters.gld_txns() - 32.0).abs() < 1e-9);
        // Random access wastes DRAM bandwidth: full line per lane.
        assert_eq!(b2.counters.dram_bytes, 32 * 128);
        // All of those transactions are attributed to the random counter;
        // the coalesced round contributed none.
        assert!((b2.counters.random_txns() - 32.0).abs() < 1e-9);
        assert_eq!(b.counters.random_txn_milli, 0);
    }

    #[test]
    fn broadcast_costs_one_transaction_per_warp() {
        let spec = GpuSpec::tesla_k40();
        let mut b = block(&spec, &[]);
        b.warp_round(|_, t| t.gld(4, Access::Broadcast));
        let txns = b.counters.gld_txns();
        assert!(txns <= 1.0 + 1e-9, "broadcast should merge, got {txns}");
    }

    #[test]
    fn texture_fit_hits_texture_overflow_misses() {
        let spec = GpuSpec::tesla_k40();
        let small = [1024u64]; // fits 48 KB cache
        let mut b = block(&spec, &small);
        b.warp_round(|_, t| {
            for _ in 0..100 {
                t.tex(TexBinding(0), 4).unwrap();
            }
        });
        let hits = b.counters.tex_hits;
        let misses = b.counters.tex_misses;
        assert!(hits > 90 * 32, "small binding should mostly hit: {hits}");
        assert!(misses < 4 * 32);

        let big = [10 * 1024 * 1024u64]; // 10 MB >> 48 KB cache
        let mut b2 = block(&spec, &big);
        b2.warp_round(|_, t| {
            for _ in 0..100 {
                t.tex(TexBinding(0), 4).unwrap();
            }
        });
        assert!(
            b2.counters.tex_misses > b2.counters.tex_hits,
            "large binding should mostly miss"
        );
    }

    #[test]
    fn unbound_texture_is_an_error() {
        let spec = GpuSpec::tesla_k40();
        let mut b = block(&spec, &[]);
        b.warp_round(|_, t| {
            assert_eq!(t.tex(TexBinding(7), 4), Err(GpuError::UnboundTexture(7)));
        });
    }

    #[test]
    fn shared_alloc_respects_capacity() {
        let spec = GpuSpec::tesla_k40();
        let mut b = block(&spec, &[]);
        b.alloc_shared(40 * 1024).unwrap();
        assert!(matches!(
            b.alloc_shared(20 * 1024),
            Err(GpuError::SharedMemExceeded { .. })
        ));
    }

    #[test]
    fn shared_atomic_cheaper_than_global_atomic() {
        let spec = GpuSpec::tesla_k40();
        let mut b = block(&spec, &[]);
        let c_shared = b.warp_round(|_, t| t.shared_atomic());
        let c_global = b.warp_round(|_, t| t.global_atomic());
        assert!(c_global > 10.0 * c_shared);
    }

    #[test]
    fn partial_round_only_runs_active_lanes() {
        let spec = GpuSpec::tesla_k40();
        let mut b = block(&spec, &[]);
        let mut ran = 0;
        b.round()
            .class(1, |t| {
                ran += 1;
                t.alu(5);
            })
            .fold(1);
        assert_eq!(ran, 1);
        assert_eq!(b.counters.alu_ops, 5);
        // The other 31 lanes idled through the round: branch divergence.
        assert_eq!(b.counters.divergent_lanes, 31);
    }

    /// One lane-uniform charge, decoded from a `(kind, n)` draw. Textures:
    /// binding 0 fits both presets' caches, binding 1 overflows both.
    fn charge(t: &mut LaneCtx<'_>, (kind, n): (u8, u64)) {
        const ACCESS: [Access; 3] = [Access::Coalesced, Access::Random, Access::Broadcast];
        match kind {
            0 => t.alu(n),
            1 => t.sfu(n),
            2..=4 => t.gld(n, ACCESS[kind as usize - 2]),
            5..=7 => t.gst(n, ACCESS[kind as usize - 5]),
            8 => t.shared(n),
            9 => t.shared_atomic(),
            10 => t.global_atomic(),
            11 => t.tex(TexBinding(0), n).unwrap(),
            _ => t.tex(TexBinding(1), n).unwrap(),
        }
    }

    /// Everything a block's cost is made of, floats by bits.
    fn books(b: &BlockCtx<'_>) -> (u64, Vec<u64>, u64, Counters) {
        (
            b.compute_cycles.to_bits(),
            b.warp_totals.iter().map(|c| c.to_bits()).collect(),
            b.block_cycles().to_bits(),
            b.counters,
        )
    }

    proptest::proptest! {
        /// The exactness contract of [`ClassRound`]: a class round charges
        /// the bits of the per-lane spelling it replaces — `lead` lanes
        /// doing one op list and the rest another, folded for 1..n warps,
        /// on both presets (the M2090's costs are not dyadic).
        #[test]
        fn class_round_charges_what_the_per_lane_round_charges(
            lead_ops in proptest::collection::vec((0u8..13, 0u64..300), 0..40),
            rest_ops in proptest::collection::vec((0u8..13, 0u64..300), 0..40),
            lead in 0u32..=32,
            warps in 1u32..7,
            block_warps in 1u32..6,
            fermi in proptest::prelude::any::<bool>(),
        ) {
            let spec = if fermi { GpuSpec::tesla_m2090() } else { GpuSpec::tesla_k40() };
            let tex = [1024u64, 10 << 20];
            let run = |t: &mut LaneCtx<'_>, ops: &[(u8, u64)]| {
                for &op in ops {
                    charge(t, op);
                }
            };

            let mut per_lane = block_of(&spec, &tex, 32 * block_warps);
            let mut classes = block_of(&spec, &tex, 32 * block_warps);
            // A round before, so the fold starts mid round-robin.
            per_lane.warp_round(|_, t| t.alu(3));
            classes.warp_round(|_, t| t.alu(3));
            let mut want = 0.0;
            for _ in 0..warps {
                want = per_lane.warp_round(|lane, t| {
                    run(t, if lane < lead { &lead_ops } else { &rest_ops })
                });
            }
            let got = classes
                .round()
                .class(lead, |t| run(t, &lead_ops))
                .class(32 - lead, |t| run(t, &rest_ops))
                .fold(warps);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
            proptest::prop_assert_eq!(books(&classes), books(&per_lane));

            // The one-class shorthand against a lane-blind closure.
            for _ in 0..warps {
                per_lane.warp_round(|_, t| run(t, &rest_ops));
            }
            classes.uniform_rounds(warps, |t| run(t, &rest_ops));
            proptest::prop_assert_eq!(books(&classes), books(&per_lane));
        }
    }

    #[test]
    fn block_time_is_max_of_compute_and_memory() {
        let spec = GpuSpec::tesla_k40();
        let mut b = block(&spec, &[]);
        b.warp_round(|_, t| {
            t.alu(1);
            t.gld(128, Access::Coalesced); // 32 txns for the warp
        });
        let mem = b.memory_cycles();
        let comp = b.compute_cycles;
        assert!(mem > comp, "this round is memory-bound");
        assert!((b.block_cycles() - mem).abs() < 1e-9);
    }
}
