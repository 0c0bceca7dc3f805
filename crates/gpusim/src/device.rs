//! The simulated GPU device: memory, texture bindings, kernel launches and
//! host<->device transfers.

use crate::counters::{Counters, KernelStats};
use crate::ctx::{BlockCtx, TexBinding};
use crate::error::GpuError;
use crate::mem::{DevPtr, MemTracker};
use crate::spec::GpuSpec;
use std::sync::{Arc, Mutex, MutexGuard};

/// One entry in the device's optional kernel log: a named launch (or
/// memcpy) with its start time on the device clock and full stats.
/// Consumed by the observability layer to build timelines and
/// nvprof-style profiles.
#[derive(Debug, Clone)]
pub struct KernelLogEntry {
    /// Kernel name (memcpys log as `"[memcpy HtoD]"` / `"[memcpy DtoH]"`).
    pub name: &'static str,
    /// Device-clock time when the operation started, seconds.
    pub start_s: f64,
    /// Timing and counters for the operation. For memcpys only `time_s`
    /// and `counters.dram_bytes` are populated.
    pub stats: KernelStats,
}

#[derive(Debug)]
struct DevState {
    mem: MemTracker,
    /// Bound read-only texture footprints. Behind `Arc` so each launch
    /// shares the current snapshot with its blocks via a refcount bump
    /// instead of cloning the vector out of the mutex; mutators copy on
    /// write only while a launch still holds the old snapshot.
    tex_sizes: Arc<Vec<u64>>,
    totals: Counters,
    kernels_launched: u64,
    sim_time_s: f64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    fault: Option<String>,
    fault_fuse: Option<(u64, String)>,
    kernel_log: Option<Vec<KernelLogEntry>>,
}

/// Snapshot of a device's accounting at the start of a task attempt.
/// Handed back to [`Device::rollback_attempt`] when the attempt fails, so
/// a retry does not double-count the aborted work (PCIe bytes, counters,
/// clock, kernel log) or leak its allocations.
#[derive(Debug, Clone)]
pub struct AttemptMark {
    totals: Counters,
    kernels_launched: u64,
    sim_time_s: f64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    log_len: usize,
    mem_mark: u64,
    tex_len: usize,
}

/// A simulated GPU. Cheap to share behind `&self`; all mutability is
/// interior so the runtime's GPU driver can hold one handle per device.
#[derive(Debug)]
pub struct Device {
    spec: GpuSpec,
    state: Mutex<DevState>,
}

impl Device {
    /// Lock the device state. Every critical section in this file is a
    /// few field updates with no call that can panic (kernel bodies run
    /// outside the lock), so the mutex is never poisoned.
    fn st(&self) -> MutexGuard<'_, DevState> {
        self.state.lock().expect("device state lock poisoned")
    }

    /// Create a device from a hardware spec.
    pub fn new(spec: GpuSpec) -> Self {
        let mem = MemTracker::new(spec.global_mem_bytes);
        Device {
            spec,
            state: Mutex::new(DevState {
                mem,
                tex_sizes: Arc::new(Vec::new()),
                totals: Counters::default(),
                kernels_launched: 0,
                sim_time_s: 0.0,
                h2d_bytes: 0,
                d2h_bytes: 0,
                fault: None,
                fault_fuse: None,
                kernel_log: None,
            }),
        }
    }

    /// A fresh device with the same hardware spec, fault status, and
    /// kernel-log setting but zeroed memory, clock and counters: the
    /// per-task execution context used by the parallel runner so tasks
    /// never share mutable device state. Fold a finished fork back with
    /// [`Device::merge_from`].
    pub fn fork(&self) -> Device {
        let st = self.st();
        Device {
            spec: self.spec.clone(),
            state: Mutex::new(DevState {
                mem: MemTracker::new(self.spec.global_mem_bytes),
                tex_sizes: Arc::new(Vec::new()),
                totals: Counters::default(),
                kernels_launched: 0,
                sim_time_s: 0.0,
                h2d_bytes: 0,
                d2h_bytes: 0,
                fault: st.fault.clone(),
                fault_fuse: st.fault_fuse.clone(),
                kernel_log: st.kernel_log.as_ref().map(|_| Vec::new()),
            }),
        }
    }

    /// Fold a finished fork's accounting into this device in task order:
    /// counters, launch counts and PCIe bytes add up, the clock advances
    /// by the fork's elapsed time, and undrained kernel-log entries are
    /// appended re-based onto this device's clock. The fork is drained, so
    /// merging twice cannot double-count.
    pub fn merge_from(&self, child: &Device) {
        assert!(
            !std::ptr::eq(self, child),
            "cannot merge a device into itself"
        );
        let mut c = child.st();
        let mut st = self.st();
        st.totals += c.totals;
        st.kernels_launched += c.kernels_launched;
        st.h2d_bytes += c.h2d_bytes;
        st.d2h_bytes += c.d2h_bytes;
        let base = st.sim_time_s;
        if let (Some(log), Some(clog)) = (st.kernel_log.as_mut(), c.kernel_log.as_mut()) {
            for mut e in clog.drain(..) {
                e.start_s += base;
                log.push(e);
            }
        }
        st.sim_time_s += c.sim_time_s;
        c.totals = Counters::default();
        c.kernels_launched = 0;
        c.h2d_bytes = 0;
        c.d2h_bytes = 0;
        c.sim_time_s = 0.0;
    }

    /// The hardware description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// cudaMalloc: reserve `bytes` of device memory.
    pub fn alloc(&self, bytes: u64) -> Result<DevPtr, GpuError> {
        self.check_fault()?;
        self.st().mem.alloc(bytes)
    }

    /// cudaFree.
    pub fn free(&self, ptr: DevPtr) -> Result<(), GpuError> {
        self.st().mem.free(ptr)
    }

    /// Free all allocations and texture bindings (end-of-task cleanup).
    pub fn reset(&self) {
        let mut st = self.st();
        st.mem.free_all();
        Arc::make_mut(&mut st.tex_sizes).clear();
    }

    /// Free device memory in bytes — what the host driver grabs for the
    /// global KV store when no `kvpairs` hint exists (paper §4.3).
    pub fn available(&self) -> u64 {
        self.st().mem.available()
    }

    /// Bytes currently allocated on the device.
    pub fn used(&self) -> u64 {
        self.st().mem.used()
    }

    /// cudaBindTexture: register a read-only footprint of `bytes` with the
    /// texture unit (Algorithm 1, lines 11–15).
    pub fn bind_texture(&self, bytes: u64) -> TexBinding {
        let mut st = self.st();
        Arc::make_mut(&mut st.tex_sizes).push(bytes);
        TexBinding((st.tex_sizes.len() - 1) as u32)
    }

    /// Simulate a host→device copy; returns elapsed seconds and advances
    /// the device clock.
    pub fn h2d(&self, bytes: u64) -> Result<f64, GpuError> {
        self.memcpy("[memcpy HtoD]", bytes, true)
    }

    /// Simulate a device→host copy.
    pub fn d2h(&self, bytes: u64) -> Result<f64, GpuError> {
        self.memcpy("[memcpy DtoH]", bytes, false)
    }

    fn memcpy(&self, name: &'static str, bytes: u64, to_device: bool) -> Result<f64, GpuError> {
        let t = self.spec.pcie_transfer_seconds(bytes);
        let mut st = self.st();
        if let Some(msg) = &st.fault {
            return Err(GpuError::DeviceFault(msg.clone()));
        }
        Self::spend_fuse(&mut st)?;
        if to_device {
            st.h2d_bytes += bytes;
        } else {
            st.d2h_bytes += bytes;
        }
        let start_s = st.sim_time_s;
        st.sim_time_s += t;
        if let Some(log) = st.kernel_log.as_mut() {
            log.push(KernelLogEntry {
                name,
                start_s,
                stats: KernelStats {
                    time_s: t,
                    counters: Counters {
                        dram_bytes: bytes,
                        ..Counters::default()
                    },
                    ..KernelStats::default()
                },
            });
        }
        Ok(t)
    }

    /// Start recording every launch and transfer into an in-device log,
    /// retrievable with [`Device::take_kernel_log`]. Off by default — the
    /// log is pure observability and never affects timing.
    pub fn enable_kernel_log(&self) {
        let mut st = self.st();
        if st.kernel_log.is_none() {
            st.kernel_log = Some(Vec::new());
        }
    }

    /// Clone the accumulated kernel log without draining it (empty if
    /// logging was never enabled). The parallel runner reads a fork's
    /// log this way for tracing, leaving the entries in place for
    /// [`Device::merge_from`] to move onto the parent's clock.
    pub fn kernel_log_snapshot(&self) -> Vec<KernelLogEntry> {
        self.st().kernel_log.clone().unwrap_or_default()
    }

    /// Drain and return the accumulated kernel log (empty if logging was
    /// never enabled). Logging stays enabled once turned on.
    pub fn take_kernel_log(&self) -> Vec<KernelLogEntry> {
        let mut st = self.st();
        match st.kernel_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Inject a device fault: every subsequent operation fails until
    /// [`Device::revive`] — exercising the paper's GPU-driver fault
    /// tolerance (§5.1).
    pub fn inject_fault(&self, reason: impl Into<String>) {
        self.st().fault = Some(reason.into());
    }

    /// Arm a delayed fault: the next `ops` transfers/launches succeed and
    /// the one after trips a [`Device::inject_fault`]-style fault. This
    /// reproduces a device dying *mid-task*, after some PCIe traffic and
    /// kernels already executed — the scenario where attempt rollback
    /// matters.
    pub fn inject_fault_after(&self, ops: u64, reason: impl Into<String>) {
        self.st().fault_fuse = Some((ops, reason.into()));
    }

    fn spend_fuse(st: &mut DevState) -> Result<(), GpuError> {
        match st.fault_fuse.take() {
            None => Ok(()),
            Some((0, reason)) => {
                st.fault = Some(reason.clone());
                Err(GpuError::DeviceFault(reason))
            }
            Some((n, reason)) => {
                st.fault_fuse = Some((n - 1, reason));
                Ok(())
            }
        }
    }

    /// Clear an injected fault (the driver "revives" the GPU); also
    /// disarms a pending [`Device::inject_fault_after`] fuse.
    pub fn revive(&self) {
        let mut st = self.st();
        st.fault = None;
        st.fault_fuse = None;
    }

    /// Snapshot the device accounting at the start of a task attempt.
    pub fn begin_attempt(&self) -> AttemptMark {
        let st = self.st();
        AttemptMark {
            totals: st.totals,
            kernels_launched: st.kernels_launched,
            sim_time_s: st.sim_time_s,
            h2d_bytes: st.h2d_bytes,
            d2h_bytes: st.d2h_bytes,
            log_len: st.kernel_log.as_ref().map_or(0, Vec::len),
            mem_mark: st.mem.mark(),
            tex_len: st.tex_sizes.len(),
        }
    }

    /// Discard everything a failed attempt did since `mark`: counters,
    /// launch counts, PCIe bytes, the clock, kernel-log entries, texture
    /// bindings and allocations. A retried task then accounts exactly
    /// like a clean first run.
    pub fn rollback_attempt(&self, mark: &AttemptMark) {
        let mut st = self.st();
        st.totals = mark.totals;
        st.kernels_launched = mark.kernels_launched;
        st.sim_time_s = mark.sim_time_s;
        st.h2d_bytes = mark.h2d_bytes;
        st.d2h_bytes = mark.d2h_bytes;
        if let Some(log) = st.kernel_log.as_mut() {
            log.truncate(mark.log_len);
        }
        Arc::make_mut(&mut st.tex_sizes).truncate(mark.tex_len);
        st.mem.free_since(mark.mem_mark);
    }

    /// Whether the device currently has an injected fault.
    pub fn is_faulted(&self) -> bool {
        self.st().fault.is_some()
    }

    fn check_fault(&self) -> Result<(), GpuError> {
        match &self.st().fault {
            Some(msg) => Err(GpuError::DeviceFault(msg.clone())),
            None => Ok(()),
        }
    }

    /// Launch a kernel: `body` runs once per threadblock, receiving the
    /// block's [`BlockCtx`] and its element of `payloads` (per-block
    /// mutable work — typically disjoint output slices). `payloads.len()`
    /// defines the grid size.
    ///
    /// Blocks execute one after another on the calling host thread (host
    /// parallelism is across tasks, in the core's worker pool); the timing
    /// model assigns blocks round-robin to the device's SMs and takes the
    /// critical path:
    ///
    /// ```text
    /// kernel time = max( max_sm Σ block_cycles , DRAM bandwidth floor )
    ///             + launch overhead
    /// ```
    pub fn launch<T, F>(
        &self,
        threads_per_block: u32,
        payloads: Vec<T>,
        body: F,
    ) -> Result<KernelStats, GpuError>
    where
        F: FnMut(&mut BlockCtx<'_>, T) -> Result<(), GpuError>,
    {
        self.launch_named("[unnamed kernel]", threads_per_block, payloads, body)
    }

    /// [`Device::launch`] with a kernel name attached, so the launch shows
    /// up under `name` in the kernel log and downstream profiles.
    pub fn launch_named<T, F>(
        &self,
        name: &'static str,
        threads_per_block: u32,
        payloads: Vec<T>,
        mut body: F,
    ) -> Result<KernelStats, GpuError>
    where
        F: FnMut(&mut BlockCtx<'_>, T) -> Result<(), GpuError>,
    {
        {
            let mut st = self.st();
            if let Some(msg) = &st.fault {
                return Err(GpuError::DeviceFault(msg.clone()));
            }
            Self::spend_fuse(&mut st)?;
        }
        self.spec.check_launchable()?;
        if threads_per_block == 0 || threads_per_block > self.spec.max_threads_per_block {
            return Err(GpuError::BadLaunch(format!(
                "threads_per_block {} outside 1..={}",
                threads_per_block, self.spec.max_threads_per_block
            )));
        }
        if payloads.is_empty() {
            return Err(GpuError::BadLaunch("empty grid".to_string()));
        }
        let blocks = payloads.len() as u32;
        // Refcount bump, not a Vec clone: the launch keeps this snapshot
        // alive even if a concurrent bind copy-on-writes a new one.
        let tex_sizes = Arc::clone(&self.st().tex_sizes);

        let per_block: Vec<Result<(f64, f64, Counters), GpuError>> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| {
                let mut ctx = BlockCtx {
                    block_idx: i as u32,
                    threads_per_block,
                    spec: &self.spec,
                    tex_sizes: &tex_sizes,
                    compute_cycles: 0.0,
                    counters: Counters::default(),
                    shared_used: 0,
                    warp_totals: Vec::new(),
                    rr: 0,
                };
                body(&mut ctx, payload)?;
                Ok((ctx.block_cycles(), ctx.compute_cycles, ctx.counters))
            })
            .collect();

        // Round-robin blocks onto SMs, take the busiest SM as critical path.
        let mut sm_cycles = vec![0.0f64; self.spec.num_sms as usize];
        let mut sm_compute = vec![0.0f64; self.spec.num_sms as usize];
        let mut totals = Counters::default();
        for (i, r) in per_block.into_iter().enumerate() {
            let (cycles, compute, counters) = r?;
            let sm = i % self.spec.num_sms as usize;
            sm_cycles[sm] += cycles;
            sm_compute[sm] += compute;
            totals += counters;
        }
        let crit = sm_cycles.iter().cloned().fold(0.0f64, f64::max);
        let crit_compute = sm_compute.iter().cloned().fold(0.0f64, f64::max);
        let exec_s = self
            .spec
            .cycles_to_seconds(crit)
            .max(self.spec.bandwidth_floor_seconds(totals.dram_bytes));
        let time_s = exec_s + self.spec.launch_overhead_us * 1e-6;

        let stats = KernelStats {
            time_s,
            cycles: crit,
            compute_cycles: crit_compute,
            memory_cycles: crit - crit_compute.min(crit),
            blocks,
            threads_per_block,
            counters: totals,
        };
        let mut st = self.st();
        st.totals += totals;
        st.kernels_launched += 1;
        let start_s = st.sim_time_s;
        st.sim_time_s += time_s;
        if let Some(log) = st.kernel_log.as_mut() {
            log.push(KernelLogEntry {
                name,
                start_s,
                stats,
            });
        }
        Ok(stats)
    }

    /// Cumulative counters across all launches on this device.
    pub fn totals(&self) -> Counters {
        self.st().totals
    }

    /// Number of kernels launched so far.
    pub fn kernels_launched(&self) -> u64 {
        self.st().kernels_launched
    }

    /// Total simulated time spent on this device (kernels + transfers).
    pub fn sim_time_s(&self) -> f64 {
        self.st().sim_time_s
    }

    /// Cumulative PCIe traffic as `(host→device, device→host)` bytes.
    /// Failed attempts that were rolled back contribute nothing.
    pub fn transfer_bytes(&self) -> (u64, u64) {
        let st = self.st();
        (st.h2d_bytes, st.d2h_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Access;

    #[test]
    fn launch_runs_every_block_and_sums_counters() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let payloads: Vec<u32> = (0..30).collect();
        let stats = dev
            .launch(64, payloads, |blk, p| {
                blk.warp_round(|_, t| t.alu(p as u64 + 1));
                Ok(())
            })
            .unwrap();
        assert_eq!(stats.blocks, 30);
        // Each block: 32 lanes × (p+1) alu ops, p = 0..30.
        let expected: u64 = (0..30u64).map(|p| 32 * (p + 1)).sum();
        assert_eq!(stats.counters.alu_ops, expected);
        assert!(stats.time_s > 0.0);
    }

    #[test]
    fn more_blocks_than_sms_serialize() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let sms = dev.spec().num_sms;
        let one_wave = dev
            .launch(32, vec![(); sms as usize], |blk, _| {
                blk.warp_round(|_, t| t.alu(1000));
                Ok(())
            })
            .unwrap();
        let two_waves = dev
            .launch(32, vec![(); 2 * sms as usize], |blk, _| {
                blk.warp_round(|_, t| t.alu(1000));
                Ok(())
            })
            .unwrap();
        assert!(
            two_waves.cycles > 1.9 * one_wave.cycles,
            "two waves {} vs one {}",
            two_waves.cycles,
            one_wave.cycles
        );
    }

    #[test]
    fn bandwidth_floor_applies_to_streaming_kernels() {
        let dev = Device::new(GpuSpec::tesla_k40());
        // One block streaming lots of coalesced data: cheap in cycles but
        // limited by the 288 GB/s DRAM interface.
        let bytes_per_lane: u64 = 1 << 20;
        let stats = dev
            .launch(32, vec![()], |blk, _| {
                blk.warp_round(|_, t| t.gld(bytes_per_lane, Access::Coalesced));
                Ok(())
            })
            .unwrap();
        let floor = dev
            .spec()
            .bandwidth_floor_seconds(stats.counters.dram_bytes);
        assert!(stats.time_s >= floor);
    }

    #[test]
    fn launch_validates_config() {
        let dev = Device::new(GpuSpec::tesla_k40());
        assert!(matches!(
            dev.launch(0, vec![()], |_, _| Ok(())),
            Err(GpuError::BadLaunch(_))
        ));
        assert!(matches!(
            dev.launch(4096, vec![()], |_, _| Ok(())),
            Err(GpuError::BadLaunch(_))
        ));
        let empty: Vec<()> = vec![];
        assert!(matches!(
            dev.launch(32, empty, |_, _| Ok(())),
            Err(GpuError::BadLaunch(_))
        ));
    }

    /// A spec field the block loop divides by or indexes with holds a
    /// value it cannot use: the launch is refused, naming the field.
    fn assert_spec_refused(edit: fn(&mut GpuSpec), field: &str) {
        let mut spec = GpuSpec::tesla_k40();
        edit(&mut spec);
        let dev = Device::new(spec);
        let r = dev.launch(32, vec![(); 3], |blk, _| {
            blk.warp_round_for(0, |_, t| t.gld(4, Access::Coalesced));
            Ok(())
        });
        match r {
            Err(GpuError::BadLaunch(msg)) => {
                assert!(msg.contains(field), "{msg:?} should name {field}")
            }
            other => panic!("{field}: expected BadLaunch, got {other:?}"),
        }
        assert_eq!(dev.kernels_launched(), 0);
    }

    #[test]
    fn zero_sms_is_a_bad_launch() {
        assert_spec_refused(|s| s.num_sms = 0, "num_sms");
    }

    #[test]
    fn zero_warp_size_is_a_bad_launch() {
        assert_spec_refused(|s| s.warp_size = 0, "warp_size");
    }

    #[test]
    fn zero_txn_bytes_is_a_bad_launch() {
        assert_spec_refused(|s| s.costs.txn_bytes = 0, "txn_bytes");
    }

    #[test]
    fn warp_wider_than_the_lane_bookkeeping_is_a_bad_launch() {
        assert_spec_refused(|s| s.warp_size = 65, "warp_size");
        // The widest warp it holds still launches and counts every lane.
        let mut wide = GpuSpec::tesla_k40();
        wide.warp_size = 64;
        let stats = Device::new(wide)
            .launch(64, vec![()], |blk, _| {
                blk.warp_round_for(0, |lane, t| t.alu(lane as u64));
                Ok(())
            })
            .unwrap();
        assert_eq!(stats.counters.divergent_lanes, 63);
    }

    #[test]
    fn fault_injection_blocks_operations_until_revive() {
        let dev = Device::new(GpuSpec::tesla_k40());
        dev.inject_fault("xid 62");
        assert!(dev.is_faulted());
        assert!(matches!(dev.alloc(16), Err(GpuError::DeviceFault(_))));
        assert!(matches!(dev.h2d(16), Err(GpuError::DeviceFault(_))));
        assert!(matches!(
            dev.launch(32, vec![()], |_, _| Ok(())),
            Err(GpuError::DeviceFault(_))
        ));
        dev.revive();
        assert!(dev.alloc(16).is_ok());
    }

    #[test]
    fn transfers_advance_sim_time() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let before = dev.sim_time_s();
        let t = dev.h2d(1 << 20).unwrap();
        assert!(t > 0.0);
        assert!(dev.sim_time_s() > before);
    }

    #[test]
    fn body_errors_propagate() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let r = dev.launch(32, vec![(), ()], |blk, _| {
            if blk.block_idx() == 1 {
                Err(GpuError::DeviceFault("boom".to_string()))
            } else {
                Ok(())
            }
        });
        assert!(matches!(r, Err(GpuError::DeviceFault(_))));
    }

    #[test]
    fn kernel_log_records_launches_and_transfers_in_device_time() {
        let dev = Device::new(GpuSpec::tesla_k40());
        dev.enable_kernel_log();
        dev.h2d(1 << 16).unwrap();
        dev.launch_named("test_kernel", 64, vec![(); 4], |blk, _| {
            blk.warp_round(|_, t| t.alu(10));
            Ok(())
        })
        .unwrap();
        dev.d2h(1 << 10).unwrap();
        let log = dev.take_kernel_log();
        let names: Vec<_> = log.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["[memcpy HtoD]", "test_kernel", "[memcpy DtoH]"]);
        // Entries are back-to-back on the device clock.
        for w in log.windows(2) {
            assert!((w[0].start_s + w[0].stats.time_s - w[1].start_s).abs() < 1e-12);
        }
        // Drained: a second take is empty, but logging stays on.
        assert!(dev.take_kernel_log().is_empty());
        dev.h2d(16).unwrap();
        assert_eq!(dev.take_kernel_log().len(), 1);
    }

    #[test]
    fn kernel_log_disabled_by_default() {
        let dev = Device::new(GpuSpec::tesla_k40());
        dev.h2d(1 << 16).unwrap();
        assert!(dev.take_kernel_log().is_empty());
    }

    #[test]
    fn texture_binding_ids_are_stable() {
        let dev = Device::new(GpuSpec::tesla_k40());
        let a = dev.bind_texture(100);
        let b = dev.bind_texture(200);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn launch_shares_tex_bindings_by_refcount() {
        let dev = Device::new(GpuSpec::tesla_k40());
        // A footprint much larger than the texture cache, so fetches
        // produce misses — proof the kernel saw the binding.
        let big = dev.bind_texture(512 << 20);
        let stats = dev
            .launch_named("texread", 128, vec![(); 4], |ctx, _| {
                ctx.warp_round(|_, lane| {
                    for _ in 0..8 {
                        let _ = lane.tex(big, 4096);
                    }
                });
                Ok(())
            })
            .unwrap();
        assert!(stats.counters.tex_misses > 0, "tex reads went uncounted");
        // Idle device: the state holds the only reference (the launch's
        // snapshot was a refcount bump that has since been dropped).
        assert_eq!(Arc::strong_count(&dev.st().tex_sizes), 1);
        // Copy-on-write: a bind while a snapshot is outstanding must not
        // disturb the snapshot, and later binds must not keep copying.
        let snapshot = Arc::clone(&dev.st().tex_sizes);
        dev.bind_texture(123);
        assert_eq!(snapshot.len(), 1, "outstanding snapshot was mutated");
        assert_eq!(dev.st().tex_sizes.len(), 2);
        assert_eq!(Arc::strong_count(&snapshot), 1, "state still aliases it");
        // Rollback and reset still manage bindings exactly as before.
        let mark = dev.begin_attempt();
        dev.bind_texture(55);
        dev.rollback_attempt(&mark);
        assert_eq!(dev.st().tex_sizes.len(), 2);
        dev.reset();
        assert!(dev.st().tex_sizes.is_empty());
    }

    #[test]
    fn device_is_send_and_sync() {
        // The parallel runner moves per-task forks across worker threads
        // and shares the parent device behind `&Device`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Device>();
    }

    #[test]
    fn transfers_accumulate_pcie_byte_totals() {
        let dev = Device::new(GpuSpec::tesla_k40());
        dev.h2d(1000).unwrap();
        dev.h2d(24).unwrap();
        dev.d2h(512).unwrap();
        assert_eq!(dev.transfer_bytes(), (1024, 512));
    }

    #[test]
    fn fork_runs_independently_and_merge_folds_back() {
        let dev = Device::new(GpuSpec::tesla_k40());
        dev.enable_kernel_log();
        dev.h2d(100).unwrap();
        let parent_t = dev.sim_time_s();

        let fork = dev.fork();
        assert_eq!(fork.sim_time_s(), 0.0);
        assert_eq!(fork.available(), dev.spec().global_mem_bytes);
        fork.h2d(200).unwrap();
        fork.launch_named("k", 32, vec![()], |blk, _| {
            blk.warp_round(|_, t| t.alu(10));
            Ok(())
        })
        .unwrap();
        let fork_t = fork.sim_time_s();

        dev.merge_from(&fork);
        assert_eq!(dev.transfer_bytes(), (300, 0));
        assert_eq!(dev.kernels_launched(), 1);
        assert!((dev.sim_time_s() - (parent_t + fork_t)).abs() < 1e-15);
        // Fork log entries land re-based after the parent's own history.
        let log = dev.take_kernel_log();
        assert_eq!(log.len(), 3);
        assert!((log[1].start_s - parent_t).abs() < 1e-15);
        // The fork was drained: merging again adds nothing.
        dev.merge_from(&fork);
        assert_eq!(dev.transfer_bytes(), (300, 0));
        assert_eq!(dev.kernels_launched(), 1);
    }

    #[test]
    fn fork_inherits_fault_state() {
        let dev = Device::new(GpuSpec::tesla_k40());
        dev.inject_fault("xid 79");
        assert!(dev.fork().is_faulted());
        dev.revive();
        assert!(!dev.fork().is_faulted());
    }

    #[test]
    fn fault_fuse_trips_mid_task() {
        let dev = Device::new(GpuSpec::tesla_k40());
        dev.inject_fault_after(2, "xid 62 mid-task");
        dev.h2d(100).unwrap();
        dev.h2d(100).unwrap();
        assert!(matches!(dev.h2d(100), Err(GpuError::DeviceFault(_))));
        // The fuse leaves a sticky fault until revive.
        assert!(dev.is_faulted());
        dev.revive();
        assert!(dev.h2d(100).is_ok());
    }

    #[test]
    fn rollback_attempt_discards_partial_work() {
        let dev = Device::new(GpuSpec::tesla_k40());
        dev.enable_kernel_log();
        dev.h2d(1000).unwrap();
        let before_log = dev.take_kernel_log().len();
        assert_eq!(before_log, 1);

        let mark = dev.begin_attempt();
        let _buf = dev.alloc(4096).unwrap();
        dev.h2d(4096).unwrap();
        dev.launch_named("k", 32, vec![()], |blk, _| {
            blk.warp_round(|_, t| t.alu(5));
            Ok(())
        })
        .unwrap();
        dev.rollback_attempt(&mark);

        assert_eq!(dev.transfer_bytes(), (1000, 0));
        assert_eq!(dev.kernels_launched(), 0);
        assert_eq!(dev.used(), 0, "attempt allocations are released");
        assert!(dev.take_kernel_log().is_empty());
        let clean = Device::new(GpuSpec::tesla_k40());
        clean.h2d(1000).unwrap();
        assert_eq!(dev.sim_time_s(), clean.sim_time_s());
    }
}
