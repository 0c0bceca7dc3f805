//! The discrete-event cluster simulator: JobTracker, TaskTrackers,
//! heartbeats, the GPU driver queue, the three schedulers, and the
//! fault-tolerance machinery (attempt retry, TaskTracker expiry,
//! speculative execution, fault injection from a [`FaultPlan`]).
//!
//! The JobTracker assigns map tasks to TaskTrackers on heartbeats,
//! preferring data-local placements (node > rack > any, Hadoop's FCFS
//! locality order). Each TaskTracker owns `map_slots_per_node` CPU slots
//! plus one reserved slot per GPU; the GPU driver runs one task per GPU
//! at a time and queues forced tasks (paper §5.1, §6).
//!
//! **Tail scheduling** implements Algorithm 2. Note: the comparison
//! directions printed in the paper's pseudocode are inverted relative to
//! the Fig. 3 walkthrough (forcing would begin at the *start* of the job
//! as printed); we implement the semantics of Fig. 3: forcing begins when
//! the remaining work per node drops to what the GPUs could finish within
//! one CPU-task time. Both tail thresholds are computed from the *live*
//! cluster, so losing a node mid-job shrinks the forcing window instead
//! of leaving it sized for hardware that no longer heartbeats.
//!
//! **Fault model** (Hadoop 1.x semantics):
//! * Every map execution is an *attempt*. Transient failures and corrupt
//!   input reads fail the attempt; the task is re-queued until it
//!   succeeds or `max_attempts` failures abort the job.
//! * A TaskTracker silent for `heartbeat_timeout_s` is declared dead and
//!   blacklisted; its running/queued attempts are lost (re-queued without
//!   charging `max_attempts` — the task did nothing wrong), and its
//!   *completed* map outputs are re-executed when the job still has
//!   unfinished reduces, because map outputs live on the tracker's local
//!   disk. Map-only jobs write straight to HDFS and lose nothing.
//! * A GPU device fault kills the attempt on the device and retires the
//!   GPU; the node degrades to its CPU slots.
//! * Speculative execution (off by default, as in the paper's runs)
//!   launches a backup attempt on another node when a task's progress
//!   falls [`ClusterConfig::speculative_lag`] (default 0.2) below the
//!   job average; the first finisher wins and the losers are killed
//!   immediately.
//!
//! **One core, two indexes.** Everything above is one event loop,
//! [`Sim`], over plain [`Tables`] (nodes, tasks, attempts, running
//! reduces). What a scheduler has to *look up* — the next pending task
//! for a node, a free slot, the live-cluster census, a node's live
//! attempts and winning outputs, the speculation pool, the trackers that
//! just expired — it asks a [`SchedIndex`]. [`simulate`] runs the loop
//! over the incremental structures of `crate::index`;
//! [`crate::reference::simulate_reference`] runs the same loop over an
//! index that answers every question by scanning the tables, and the
//! differential suites require the two to agree bit for bit.

use crate::config::{ClusterConfig, Scheduler};
use crate::index::Indexed;
use crate::job::JobSpec;
use crate::queue::{Entry, EventQueue};
use crate::stats::{Device, JobStats, Outcome};
use hetero_hdfs::{Locality, NodeId, Topology};
use hetero_trace::{ArgValue, Category, Tracer};
use std::collections::{HashSet, VecDeque};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Heartbeat(u32),
    ExpiryCheck,
    NodeCrash(u32),
    GpuFault {
        node: u32,
        gpu: u32,
    },
    MapDone {
        attempt: usize,
    },
    MapFail {
        attempt: usize,
        outcome: Outcome,
    },
    ReduceDone {
        node: u32,
        task: u32,
        epoch: u32,
    },
    /// The master crash-stops (`FaultPlan::jobtracker_crashes`).
    JobTrackerCrash,
    /// The master restarts: trackers re-register and the buffered
    /// reports drain.
    JobTrackerRecover,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AttemptState {
    /// Waiting in a GPU driver queue.
    Queued,
    Running,
    Succeeded,
    Failed,
    /// Node declared dead under it.
    Lost,
    /// Another attempt of the task finished first.
    Killed,
}

/// One execution attempt of a map task.
pub(crate) struct Attempt {
    task: u32,
    pub(crate) node: u32,
    pub(crate) device: Device,
    /// Slot index on the node: CPU-slot index for CPU attempts, GPU
    /// index for GPU attempts.
    pub(crate) slot: u32,
    /// Effective duration (straggler factor applied).
    dur: f64,
    start: f64,
    /// When the attempt actually began executing (for GPU-queued
    /// attempts this is later than `start`). Tracing only.
    run_start: Option<f64>,
    /// Pre-drawn fault: fail at `start + frac * dur` with this outcome.
    fail_frac: Option<(f64, Outcome)>,
    pub(crate) state: AttemptState,
    /// Index of the stats record.
    rec: u32,
    /// The task's next attempt in launch order ([`NO_ATTEMPT`] on its
    /// newest): each task's attempts are a chain through this slab, so a
    /// task owns no list of its own.
    next: u32,
}

/// End of a task's attempt chain.
const NO_ATTEMPT: u32 = u32::MAX;

/// Records a write-ahead journal of the master's transitions would
/// compact into one snapshot; [`JobStats::journal_snapshots`] is
/// `journal_records / JOURNAL_SNAPSHOT_EVERY`.
const JOURNAL_SNAPSHOT_EVERY: u64 = 256;

/// An attempt or stats-record index as the slab stores it.
fn slab_index(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&l| l != NO_ATTEMPT)
        .expect("more attempts than a u32 link can address")
}

// The per-task footprint of a run: one `Attempt` and one `TaskState` a
// task, and at the peak one queue `Entry<Event>` an attempt in flight.
const _: () = assert!(std::mem::size_of::<Attempt>() <= 72);
const _: () = assert!(std::mem::size_of::<TaskState>() <= 28);
const _: () = assert!(std::mem::size_of::<Entry<Event>>() <= 24);

impl Attempt {
    pub(crate) fn live(&self) -> bool {
        matches!(self.state, AttemptState::Running | AttemptState::Queued)
    }
}

pub(crate) struct TaskState {
    pub(crate) done: bool,
    /// Node that ran the winning attempt (for output-loss re-execution).
    pub(crate) winner_node: Option<u32>,
    /// Failures charged against `max_attempts`.
    failed_count: u32,
    /// Oldest and newest attempt (slab indices, [`NO_ATTEMPT`] before the
    /// first launch) and how many there are; [`Attempt::next`] links them
    /// in launch order.
    first_attempt: u32,
    last_attempt: u32,
    n_attempts: u32,
}

impl Default for TaskState {
    fn default() -> Self {
        TaskState {
            done: false,
            winner_node: None,
            failed_count: 0,
            first_attempt: NO_ATTEMPT,
            last_attempt: NO_ATTEMPT,
            n_attempts: 0,
        }
    }
}

pub(crate) struct NodeState {
    /// Ground truth: false once the crash event fires.
    pub(crate) alive: bool,
    /// JobTracker's view: declared dead + blacklisted after expiry.
    pub(crate) dead_declared: bool,
    pub(crate) last_heartbeat: f64,
    pub(crate) gpu_dead: Vec<bool>,
    /// Queued attempt indices (forced tasks waiting on the GPU driver).
    pub(crate) gpu_queue: VecDeque<usize>,
    cpu_samples: (f64, u32), // (total task seconds, count)
    gpu_samples: (f64, u32),
}

impl NodeState {
    fn ave_speedup(&self, fallback: f64) -> f64 {
        if self.cpu_samples.1 > 0 && self.gpu_samples.1 > 0 {
            let cpu = self.cpu_samples.0 / self.cpu_samples.1 as f64;
            let gpu = self.gpu_samples.0 / self.gpu_samples.1 as f64;
            if gpu > 0.0 {
                cpu / gpu
            } else {
                fallback
            }
        } else {
            fallback
        }
    }

    pub(crate) fn usable(&self) -> bool {
        self.alive && !self.dead_declared
    }

    pub(crate) fn live_gpus(&self) -> u32 {
        self.gpu_dead.iter().filter(|d| !**d).count() as u32
    }
}

/// A reduce task currently holding a slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunningReduce {
    task: u32,
    pub(crate) node: u32,
    pub(crate) slot: u32,
    start: f64,
}

/// The plain tables of the simulation — the ground truth. A
/// [`SchedIndex`] never owns facts, only faster routes to them: each of
/// its answers must equal what a scan of these tables gives.
pub(crate) struct Tables<'a> {
    pub(crate) cfg: &'a ClusterConfig,
    pub(crate) job: &'a JobSpec,
    pub(crate) topo: Topology,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) tasks: Vec<TaskState>,
    pub(crate) attempts: Vec<Attempt>,
    /// Reduces holding a slot, in assignment order.
    pub(crate) running_reduces: Vec<RunningReduce>,
}

impl<'a> Tables<'a> {
    /// The tables at time zero: every node up, nothing launched.
    pub(crate) fn new(cfg: &'a ClusterConfig, job: &'a JobSpec) -> Self {
        let node = || NodeState {
            alive: true,
            dead_declared: false,
            last_heartbeat: 0.0,
            gpu_dead: vec![false; cfg.effective_gpus() as usize],
            gpu_queue: VecDeque::new(),
            cpu_samples: (0.0, 0),
            gpu_samples: (0.0, 0),
        };
        Tables {
            cfg,
            job,
            topo: Topology::new(cfg.num_slaves, cfg.nodes_per_rack),
            nodes: (0..cfg.num_slaves).map(|_| node()).collect(),
            tasks: (0..job.maps.len()).map(|_| TaskState::default()).collect(),
            // One attempt per map unless something fails: reserved
            // exactly, so a fault-free run never reallocates the slab.
            attempts: Vec::with_capacity(job.maps.len()),
            running_reduces: Vec::new(),
        }
    }

    /// `task`'s attempts (slab indices), in launch order.
    fn attempts_of(&self, task: u32) -> impl Iterator<Item = usize> + '_ {
        let mut next = self.tasks[task as usize].first_attempt;
        std::iter::from_fn(move || {
            (next != NO_ATTEMPT).then(|| {
                let ai = next as usize;
                next = self.attempts[ai].next;
                ai
            })
        })
    }

    /// Whether `task` has a queued or running attempt.
    pub(crate) fn has_live(&self, task: u32) -> bool {
        self.attempts_of(task).any(|ai| self.attempts[ai].live())
    }

    /// The replicas of `task`'s split that can still be read: those on
    /// in-range nodes that have not crashed.
    pub(crate) fn live_replicas(&self, task: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.job.maps[task as usize]
            .replicas
            .iter()
            .copied()
            .filter(|r| self.nodes.get(r.0 as usize).is_some_and(|nd| nd.alive))
    }
}

/// The three per-node slot pools.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Slot {
    /// CPU map slots, `map_slots_per_node` of them.
    Cpu,
    /// One slot per GPU; a dead GPU's slot is never free.
    Gpu,
    /// Reduce slots.
    Reduce,
}

impl Slot {
    /// The pool a map attempt on `device` runs in.
    pub(crate) fn of(device: Device) -> Slot {
        match device {
            Device::Cpu => Slot::Cpu,
            Device::Gpu => Slot::Gpu,
        }
    }
}

/// The questions the event loop asks about its own [`Tables`], and the
/// notices it gives so an implementation can keep its answers current.
/// Every notice is given right after the tables changed.
///
/// The contract is the scan: [`crate::reference::ScanIndex`] answers each
/// question by walking the tables, and any other implementation must
/// return the same values in the same order (orders are part of the
/// answers — slot identity reaches the trace, and float sums over
/// candidates are not associative).
pub(crate) trait SchedIndex: Default {
    /// The index of `t` as it stands. Pending maps are the undone tasks
    /// with no live attempt, in task order; running attempts and reduces
    /// hold their slots. Used at time zero and again at JobTracker
    /// recovery, which rebuilds the master's books from the tables.
    fn build(t: &Tables) -> Self;

    // ------------------------------------------- the pending-map queue
    fn pending_len(&self) -> usize;
    fn is_pending(&self, task: u32) -> bool;
    /// Append `task` at the tail.
    fn push_pending(&mut self, t: &Tables, task: u32);
    fn remove_pending(&mut self, task: u32);
    /// The locality-aware FCFS pick for `node`: its oldest node-local
    /// task, else the oldest rack-local one, else the queue head; only
    /// [`Tables::live_replicas`] count. The queue is not empty. (`&mut`:
    /// an index may discard entries it finds stale on the way.)
    fn pick(&mut self, t: &Tables, node: u32) -> (u32, Locality);

    // ------------------------------------------------------ slot pools
    /// Free slots of `kind` on `n`.
    fn free(&self, kind: Slot, t: &Tables, n: u32) -> u32;
    /// Claim the lowest-numbered free slot.
    fn grab(&mut self, kind: Slot, t: &Tables, n: u32) -> u32;
    fn release(&mut self, kind: Slot, n: u32, slot: u32);

    // ---------------------------------------------------------- census
    /// Usable nodes (alive and not blacklisted), and the live GPUs on them.
    fn census(&self, t: &Tables) -> (u32, u32);
    fn live_gpus(&self, t: &Tables, n: u32) -> u32;
    /// Trackers to declare dead at `now`: not yet declared, silent for
    /// longer than the timeout; ascending node id.
    fn expired(&mut self, t: &Tables, now: f64) -> Vec<u32>;

    // ------------------------------------------------ attempts and tasks
    /// Live attempts placed on `n`, in attempt order.
    fn live_attempts(&self, t: &Tables, n: u32) -> Vec<usize>;
    /// Done tasks whose winning output sits on `n`, in task order. The
    /// caller invalidates every one of them.
    fn take_winners(&mut self, t: &Tables, n: u32) -> Vec<u32>;
    /// Undone tasks with a live attempt, in task order. A `Vec`, not an
    /// iterator: the walk over it is the hottest loop of a speculative
    /// run, and a slice keeps the index's cursor code out of that loop.
    fn spec_candidates(&self, t: &Tables) -> Vec<u32>;

    // --------------------------------------------------------- notices
    /// `n` was re-admitted: all its slots are free again.
    fn node_readmitted(&mut self, t: &Tables, n: u32);
    fn node_crashed(&mut self, _t: &Tables, _n: u32) {}
    fn node_declared_dead(&mut self, _t: &Tables, _n: u32) {}
    fn gpu_died(&mut self, _t: &Tables, _n: u32, _g: u32) {}
    fn attempt_started(&mut self, _task: u32, _n: u32, _aidx: usize) {}
    /// The attempt left the live states (any way).
    fn attempt_ended(&mut self, _n: u32, _aidx: usize) {}
    fn task_won(&mut self, _task: u32, _n: u32) {}
    /// `task`'s last live attempt is gone and it did not win.
    fn task_idle(&mut self, _task: u32) {}

    /// Whether audited builds re-check the run after every event. Not
    /// for the scan index: it is the ground truth, an audit of it would
    /// compare each answer with itself.
    #[cfg(any(debug_assertions, feature = "audit"))]
    const AUDITED: bool = false;
    /// Cross-check whatever state the index keeps against the tables;
    /// panics through [`crate::audit::check`] on drift.
    #[cfg(any(debug_assertions, feature = "audit"))]
    fn audit(&self, _t: &Tables, _ctx: &str) {}
}

/// splitmix64 finalizer — the deterministic fault die.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in [0, 1) hashed from the fault seed and attempt identity.
fn fault_unit(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let h = mix64(seed ^ mix64(a ^ mix64(b ^ mix64(c))));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

struct Sim<'a, I> {
    t: Tables<'a>,
    ix: I,
    pending_reduces: VecDeque<u32>,
    maps_done: usize,
    /// Bumped whenever a completed map is invalidated (node loss), so
    /// stale scheduled ReduceDone events are ignored on pop.
    maps_epoch: u32,
    reduces_done: usize,
    last_map_done_t: f64,
    max_speedup: f64,
    shuffle_per_reduce_s: f64,
    planned_crashes: u32,
    /// Whether the master is currently crash-stopped.
    jt_down: bool,
    /// TaskTracker reports (map/reduce completions, failures, GPU
    /// faults) that arrived while the master was down, in their original
    /// `(time, seq)` order; drained at recovery.
    deferred: Vec<Event>,
    /// [`Sim::logical_digest`] when the master last crashed; recovery
    /// audits that the outage left it unchanged.
    #[cfg(any(debug_assertions, feature = "audit"))]
    crash_digest: [u64; 4],
    /// Per-node heartbeat counter — the identity the loss/jitter dice
    /// are drawn from.
    hb_beat: Vec<u64>,
    /// The plan injects faults that can silence a live tracker (or the
    /// master), so expiry checks must keep running even after every
    /// planned node crash has been detected.
    silencing_faults: bool,
    /// Whether this run is audited event by event: always under the
    /// `audit` feature; in a debug build without it only on small runs,
    /// since the per-event ground-truth rebuild is O(cluster state) and
    /// would slow the paper-scale sims (48 nodes × ~1k maps) by orders of
    /// magnitude.
    #[cfg(any(debug_assertions, feature = "audit"))]
    audit_run: bool,
    events: EventQueue<Event>,
    now: f64,
    stats: JobStats,
    tracer: &'a Tracer,
    /// `tracer.is_enabled()`, cached.
    trace_on: bool,
}

/// Run `job` on a cluster described by `cfg`; returns the job statistics.
pub fn simulate(cfg: &ClusterConfig, job: &JobSpec) -> JobStats {
    simulate_traced(cfg, job, &Tracer::off())
}

/// [`simulate`], recording a simulated-time event log into `tracer`
/// (nothing when it is `Tracer::off()`); either way the schedule is
/// identical to an untraced run.
pub fn simulate_traced(cfg: &ClusterConfig, job: &JobSpec, tracer: &Tracer) -> JobStats {
    run::<Indexed>(cfg, job, tracer)
}

/// Run the event loop over index `I`.
pub(crate) fn run<I: SchedIndex>(cfg: &ClusterConfig, job: &JobSpec, tracer: &Tracer) -> JobStats {
    let mut sim = Sim::<I>::new(cfg, job, tracer);
    sim.run();
    sim.stats
}

impl<'a, I: SchedIndex> Sim<'a, I> {
    fn new(cfg: &'a ClusterConfig, job: &'a JobSpec, tracer: &'a Tracer) -> Self {
        // Full input validation: cluster shape, the fault plan (against
        // the physical GPU count: a fault on a GPU the scheduler ignores
        // is valid, but a fault on hardware that does not exist is a plan
        // bug) and the job's durations. Direct callers keep the fail-fast
        // panic; the service admission path runs the same checks itself
        // and turns an `Err` into a rejection.
        if let Err(e) = cfg.validate().and_then(|()| job.validate()) {
            panic!("{e}");
        }
        let total_shuffle_bytes: u64 = job.maps.iter().map(|m| m.output_bytes).sum();
        let shuffle_per_reduce_s = if job.reduces.is_empty() {
            0.0
        } else {
            total_shuffle_bytes as f64 / job.reduces.len() as f64 / cfg.shuffle_bw
        };

        let t = Tables::new(cfg, job);
        let mut stats = JobStats::new(&job.name);
        stats.tasks.reserve_exact(job.maps.len());
        let mut sim = Sim {
            ix: I::build(&t),
            t,
            pending_reduces: (0..job.reduces.len() as u32).collect(),
            maps_done: 0,
            maps_epoch: 0,
            reduces_done: 0,
            last_map_done_t: 0.0,
            max_speedup: 1.0,
            shuffle_per_reduce_s,
            planned_crashes: 0,
            jt_down: false,
            deferred: Vec::new(),
            #[cfg(any(debug_assertions, feature = "audit"))]
            crash_digest: [0; 4],
            hb_beat: vec![0; cfg.num_slaves as usize],
            silencing_faults: !cfg.faults.partitions.is_empty()
                || cfg.faults.heartbeat_loss_p > 0.0
                || cfg.faults.heartbeat_jitter_s > 0.0
                || !cfg.faults.jobtracker_crashes.is_empty(),
            #[cfg(any(debug_assertions, feature = "audit"))]
            audit_run: cfg!(feature = "audit")
                || (cfg.num_slaves as usize).saturating_mul(job.maps.len()) <= 16_384,
            events: EventQueue::new(),
            now: 0.0,
            stats,
            tracer,
            trace_on: tracer.is_enabled(),
        };
        sim.trace_name_lanes();

        // Stagger initial heartbeats so nodes do not thundering-herd the JT.
        for n in 0..cfg.num_slaves {
            sim.events.push(
                (n as f64 / cfg.num_slaves as f64) * cfg.heartbeat_s,
                Event::Heartbeat(n),
            );
        }
        // Inject the fault plan as first-class events. Rack failures are
        // correlated node crashes: they expand to one crash event per
        // member node, after the singleton crashes, sharing the dedup set
        // so a node named both ways crashes exactly once (first event
        // wins, as in the physical world).
        let mut crash_nodes = HashSet::new();
        for &(n, t) in &cfg.faults.node_crashes {
            if n < cfg.num_slaves && crash_nodes.insert(n) {
                sim.events.push(t, Event::NodeCrash(n));
            }
        }
        for &(r, t) in &cfg.faults.rack_failures {
            for n in 0..cfg.num_slaves {
                if sim.t.topo.rack_of(NodeId(n)).0 == r && crash_nodes.insert(n) {
                    sim.events.push(t, Event::NodeCrash(n));
                }
            }
        }
        sim.planned_crashes = crash_nodes.len() as u32;
        for &(n, g, t) in &cfg.faults.gpu_faults {
            sim.events.push(t, Event::GpuFault { node: n, gpu: g });
        }
        for &t in &cfg.faults.jobtracker_crashes {
            sim.events.push(t, Event::JobTrackerCrash);
        }
        if sim.planned_crashes > 0 || sim.silencing_faults {
            sim.events.push(cfg.heartbeat_s, Event::ExpiryCheck);
        }
        sim
    }

    // ---------------------------------------------------------- tracing
    //
    // Lane layout: pid = node id, one pid past the last node = the
    // JobTracker. Within a node, tids are CPU map slots, then GPUs, then
    // reduce slots, then one "events" lane for instants.

    fn lane_cpu(&self, slot: u32) -> u32 {
        slot
    }

    fn lane_gpu(&self, g: u32) -> u32 {
        self.t.cfg.map_slots_per_node + g
    }

    fn lane_reduce(&self, slot: u32) -> u32 {
        self.t.cfg.map_slots_per_node + self.t.cfg.effective_gpus() + slot
    }

    fn lane_events(&self) -> u32 {
        self.lane_reduce(self.t.cfg.reduce_slots_per_node)
    }

    fn jobtracker_pid(&self) -> u32 {
        self.t.cfg.num_slaves
    }

    fn trace_name_lanes(&self) {
        if !self.trace_on {
            return;
        }
        let cfg = self.t.cfg;
        for n in 0..cfg.num_slaves {
            self.tracer.name_process(n, format!("node {n}"));
            for s in 0..cfg.map_slots_per_node {
                self.tracer
                    .name_lane(n, self.lane_cpu(s), format!("cpu slot {s}"));
            }
            for g in 0..cfg.effective_gpus() {
                self.tracer
                    .name_lane(n, self.lane_gpu(g), format!("gpu {g}"));
            }
            for r in 0..cfg.reduce_slots_per_node {
                self.tracer
                    .name_lane(n, self.lane_reduce(r), format!("reduce slot {r}"));
            }
            self.tracer.name_lane(n, self.lane_events(), "events");
        }
        self.tracer
            .name_process(self.jobtracker_pid(), "jobtracker");
        self.tracer.name_lane(self.jobtracker_pid(), 0, "events");
    }

    /// The lane an attempt executes on.
    fn attempt_lane(&self, a: &Attempt) -> u32 {
        match a.device {
            Device::Cpu => self.lane_cpu(a.slot),
            Device::Gpu => self.lane_gpu(a.slot),
        }
    }

    /// Emit the execution span of a finished attempt (however it ended).
    fn trace_attempt_end(&self, aidx: usize, outcome: Outcome) {
        if !self.trace_on {
            return;
        }
        let a = &self.t.attempts[aidx];
        let Some(run_start) = a.run_start else {
            return; // never executed (died in a GPU queue)
        };
        let attempt_no = self.stats.tasks[a.rec as usize].attempt;
        let cat = match outcome {
            Outcome::Success => Category::Task,
            Outcome::SpeculativeKilled => Category::Speculation,
            _ => Category::Fault,
        };
        self.tracer.span(
            cat,
            format!("map {} a{}", a.task, attempt_no),
            a.node,
            self.attempt_lane(a),
            run_start,
            self.now,
            vec![
                ("task", ArgValue::from(a.task)),
                ("attempt", ArgValue::from(attempt_no)),
                (
                    "device",
                    ArgValue::from(match a.device {
                        Device::Cpu => "cpu",
                        Device::Gpu => "gpu",
                    }),
                ),
                ("outcome", ArgValue::from(format!("{outcome:?}"))),
            ],
        );
    }

    /// Emit an instant on a node's events lane.
    fn trace_node_instant(&self, cat: Category, name: &str, node: u32) {
        if !self.trace_on {
            return;
        }
        self.tracer
            .instant(cat, name, node, self.lane_events(), self.now, vec![]);
    }

    /// Emit an instant on the JobTracker lane.
    fn trace_jt_instant(&self, cat: Category, name: String, args: Vec<(&'static str, ArgValue)>) {
        if !self.trace_on {
            return;
        }
        self.tracer
            .instant(cat, name, self.jobtracker_pid(), 0, self.now, args);
    }

    fn work_remains(&self) -> bool {
        self.maps_done < self.t.job.maps.len() || self.reduces_done < self.t.job.reduces.len()
    }

    fn run(&mut self) {
        // A cluster with zero capacity for a task kind the job needs can
        // never finish: heartbeats would re-arm forever while
        // `work_remains()` stays true. Abort up front instead of hanging.
        let (cfg, job) = (self.t.cfg, self.t.job);
        let map_capacity = cfg.map_slots_per_node + cfg.effective_gpus();
        let starved = (!job.maps.is_empty() && map_capacity == 0)
            || (!job.reduces.is_empty() && cfg.reduce_slots_per_node == 0);
        if !starved {
            self.event_loop();
        }
        if self.work_remains() {
            self.stats.aborted = true;
        }
        self.stats.makespan_s = self.now;
        self.stats.map_phase_s = self.last_map_done_t;
        self.stats.max_speedup_seen = self.max_speedup;
        self.stats.journal_snapshots = self.stats.journal_records / JOURNAL_SNAPSHOT_EVERY;
        // A faulted run outgrows the exact reservation and doubles; the
        // record outlives the run (the service keeps one per job), so it
        // must not keep the slack.
        self.stats.tasks.shrink_to_fit();
    }

    fn event_loop(&mut self) {
        while let Some((time, event)) = self.events.pop() {
            self.now = time;
            if self.jt_down {
                match event {
                    // TaskTracker reports cannot reach a dead master: the
                    // trackers buffer them and re-deliver after recovery,
                    // in their original order.
                    Event::MapDone { .. }
                    | Event::MapFail { .. }
                    | Event::ReduceDone { .. }
                    | Event::GpuFault { .. } => {
                        self.deferred.push(event);
                        continue;
                    }
                    // The master's expiry timer died with it; recovery
                    // re-arms it.
                    Event::ExpiryCheck => continue,
                    // Heartbeats (unanswered but re-arming), node crashes
                    // (physical), and the master's own crash/recover
                    // events proceed.
                    _ => {}
                }
            }
            self.handle(event);
            #[cfg(any(debug_assertions, feature = "audit"))]
            if I::AUDITED && self.audit_run && crate::audit::enabled() && !self.stats.aborted {
                self.audit_invariants(&event);
            }
            if self.stats.aborted || !self.work_remains() {
                break;
            }
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Heartbeat(n) => self.heartbeat(n),
            Event::ExpiryCheck => self.expiry_check(),
            Event::NodeCrash(n) => self.node_crash(n),
            Event::GpuFault { node, gpu } => self.gpu_fault(node, gpu),
            Event::MapDone { attempt } => self.map_done(attempt),
            Event::MapFail { attempt, outcome } => self.map_fail(attempt, outcome),
            Event::ReduceDone { node, task, epoch } => self.reduce_done_ev(node, task, epoch),
            Event::JobTrackerCrash => self.jobtracker_crash(),
            Event::JobTrackerRecover => self.jobtracker_recover(),
        }
    }

    /// The node falls silent. Its replicas are unreadable from now on;
    /// the JobTracker only learns of the loss through expiry.
    fn node_crash(&mut self, n: u32) {
        self.t.nodes[n as usize].alive = false;
        self.ix.node_crashed(&self.t, n);
        self.trace_node_instant(Category::Fault, "node crash", n);
    }

    // ---------------------------------------------------------- heartbeats

    /// Whether `node` sits inside an active partition window right now.
    /// Windows are half-open `[start, end)`: the first beat at or after
    /// `end` is the one that heals the partition.
    fn partitioned(&self, node: u32) -> bool {
        self.t
            .cfg
            .faults
            .partitions
            .iter()
            .any(|(nodes, start, end)| {
                self.now >= *start && self.now < *end && nodes.contains(&node)
            })
    }

    fn heartbeat(&mut self, n: u32) {
        let ni = n as usize;
        if !self.t.nodes[ni].alive {
            return; // crashed: the tracker falls silent
        }
        let cfg = self.t.cfg;
        let fp = &cfg.faults;
        let beat = self.hb_beat[ni];
        self.hb_beat[ni] += 1;
        // Delivery: a beat is dropped inside a partition window or by the
        // per-beat loss die, and goes unanswered while the master is down
        // (the tracker keeps beating either way).
        let lost = self.partitioned(n)
            || (fp.heartbeat_loss_p > 0.0
                && fault_unit(fp.seed ^ 0x4C4F_5353_4C4F_5353, n as u64, beat, 0)
                    < fp.heartbeat_loss_p);
        if lost {
            self.stats.heartbeats_lost += 1;
            self.trace_node_instant(Category::Partition, "heartbeat dropped", n);
        } else if !self.jt_down {
            self.t.nodes[ni].last_heartbeat = self.now;
            if self.t.nodes[ni].dead_declared {
                // A blacklisted tracker proved it is alive: the partition
                // healed (or the loss streak ended). Re-admit it.
                self.readmit(n);
            }
            if !self.t.nodes[ni].dead_declared {
                self.assign_reduces(n);
                self.assign_maps(n);
                if cfg.speculative {
                    self.try_speculate(n);
                }
            }
        }
        if self.work_remains() {
            let mut next = self.now + cfg.heartbeat_s;
            if fp.heartbeat_jitter_s > 0.0 {
                next += fp.heartbeat_jitter_s
                    * fault_unit(fp.seed ^ 0x4A49_5454_4A49_5454, n as u64, beat, 1);
            }
            self.events.push(next, Event::Heartbeat(n));
        }
    }

    /// Re-admit a falsely-expired, still-alive tracker on its first
    /// delivered heartbeat: lift the blacklist and reset its slots (the
    /// tracker killed its orphaned work when it learned it had been
    /// declared dead — its old attempts are already marked `Lost`).
    fn readmit(&mut self, n: u32) {
        let ni = n as usize;
        self.t.nodes[ni].dead_declared = false;
        self.t.nodes[ni].gpu_queue.clear();
        self.ix.node_readmitted(&self.t, n);
        self.stats.nodes_readmitted += 1;
        self.stats.journal_records += 1;
        self.trace_jt_instant(
            Category::Recovery,
            format!("node {n} re-admitted"),
            vec![("node", ArgValue::from(n))],
        );
    }

    // ------------------------------------------------- master recovery

    fn jobtracker_crash(&mut self) {
        if self.jt_down {
            return; // a crash scheduled inside another outage is moot
        }
        self.jt_down = true;
        self.stats.jobtracker_crashes_seen += 1;
        #[cfg(any(debug_assertions, feature = "audit"))]
        {
            self.crash_digest = self.logical_digest();
        }
        self.trace_jt_instant(Category::Fault, "jobtracker crash".to_string(), vec![]);
        self.events.push(
            self.now + self.t.cfg.jobtracker_recovery_s,
            Event::JobTrackerRecover,
        );
    }

    /// The master restarts. Its logical state — which maps are done and
    /// where, per-task charges, the blacklist, finished reduces — is the
    /// durable part (Hadoop 1.x's `mapred.jobtracker.restart.recover`
    /// reads it back from the job history) and is exactly what it was at
    /// the crash: while the master is down no report is handled, no
    /// expiry fires and no heartbeat is answered, so nothing logical
    /// moves (audited builds check this). What a restart loses is
    /// re-learned from the re-registration heartbeats of the trackers
    /// that can reach it: leases, running attempts, slot occupancy, and
    /// speedup samples. Trackers that are crashed or partitioned do not
    /// re-register; their assigned work stays on the books until the
    /// re-armed expiry path declares them dead, exactly as for a live
    /// master. Buffered TaskTracker reports are then drained in their
    /// original order (stale ones fall to the normal staleness guards).
    fn jobtracker_recover(&mut self) {
        #[cfg(any(debug_assertions, feature = "audit"))]
        if crate::audit::enabled() {
            let digest = self.logical_digest();
            crate::audit::check(
                digest == self.crash_digest,
                &format!("at jobtracker recovery @ t={}", self.now),
                || {
                    format!(
                        "logical state [maps done, reduces done, charged failures, \
                         blacklisted] moved during the outage: {:?} at the crash, {digest:?} now",
                        self.crash_digest
                    )
                },
            );
        }
        let records = self.stats.journal_records;

        // Re-registration: alive, reachable trackers report in now;
        // silent ones keep their stale heartbeat and face expiry.
        for n in 0..self.t.cfg.num_slaves {
            if self.t.nodes[n as usize].alive && !self.partitioned(n) {
                self.t.nodes[n as usize].last_heartbeat = self.now;
            }
        }
        // A reduce can finish through a late report from a falsely
        // expired tracker while its re-run sits on another node; that
        // re-run's entry holds no slot on the rebuilt books.
        let stats = &self.stats;
        self.t
            .running_reduces
            .retain(|rr| !stats.reduce_done(rr.task));

        // Slot occupancy, the map queue (undone maps with no live
        // attempt, in task-id order) and every per-node set, from the
        // re-reported tables. Queued GPU attempts hold no slot (they wait
        // in the tracker-side driver queue, which survives).
        // The old books go first: on a large job the pending views are
        // the biggest structure there is, and two copies alive at once
        // would set the run's memory peak.
        drop(std::mem::take(&mut self.ix));
        self.ix = I::build(&self.t);
        // Unfinished reduces not currently holding a slot, likewise.
        let running: HashSet<u32> = self.t.running_reduces.iter().map(|rr| rr.task).collect();
        self.pending_reduces = (0..self.t.job.reduces.len() as u32)
            .filter(|&r| !self.stats.reduce_done(r) && !running.contains(&r))
            .collect();

        // The speedup census, from the re-registration reports.
        self.max_speedup = 1.0;
        for nd in self.t.nodes.iter().filter(|nd| nd.alive) {
            let ave = nd.ave_speedup(1.0);
            if ave > self.max_speedup {
                self.max_speedup = ave;
            }
        }

        self.stats.jobtracker_recoveries.push((self.now, records));
        self.trace_jt_instant(
            Category::Recovery,
            "jobtracker recovered".to_string(),
            vec![
                ("journal_records", ArgValue::from(records)),
                ("deferred_reports", ArgValue::from(self.deferred.len())),
            ],
        );

        // Back in business: re-arm the expiry timer and drain the
        // buffered tracker reports in their original (time, seq) order.
        self.jt_down = false;
        self.events
            .push(self.now + self.t.cfg.heartbeat_s, Event::ExpiryCheck);
        for event in std::mem::take(&mut self.deferred) {
            self.handle(event);
        }
    }

    fn assign_reduces(&mut self, n: u32) {
        let job = self.t.job;
        if (self.maps_done as f64) < self.t.cfg.reduce_start_frac * job.maps.len() as f64 {
            return;
        }
        while self.ix.free(Slot::Reduce, &self.t, n) > 0 {
            let Some(r) = self.pending_reduces.pop_front() else {
                break;
            };
            let slot = self.ix.grab(Slot::Reduce, &self.t, n);
            self.t.running_reduces.push(RunningReduce {
                task: r,
                node: n,
                slot,
                start: self.now,
            });
            if self.maps_done == job.maps.len() {
                let done_t = reduce_finish_time(
                    self.now,
                    self.now,
                    self.shuffle_per_reduce_s,
                    job.reduces[r as usize].compute_s,
                );
                self.events.push(
                    done_t,
                    Event::ReduceDone {
                        node: n,
                        task: r,
                        epoch: self.maps_epoch,
                    },
                );
            }
            // Otherwise the completion is scheduled when the last map
            // finishes.
        }
    }

    /// Map assignment (Algorithm 2, JobTracker side), with both tail
    /// thresholds derived from the surviving cluster.
    fn assign_maps(&mut self, n: u32) {
        let ni = n as usize;
        if self.ix.pending_len() == 0 {
            return;
        }
        let scheduler = self.t.cfg.scheduler;
        let (usable_nodes, cluster_live_gpus) = self.ix.census(&self.t);
        let live_nodes = usable_nodes.max(1) as f64;
        let remaining = self.ix.pending_len() as f64;
        let job_tail = cluster_live_gpus as f64 * self.max_speedup;
        let in_job_tail = scheduler == Scheduler::TailScheduling && remaining <= job_tail;
        let node_live_gpus = self.ix.live_gpus(&self.t, n);
        let free_gpus = self.ix.free(Slot::Gpu, &self.t, n);
        // scheduleNumGPUTasksAtMax vs default (fill all slots).
        let max_assign = if in_job_tail {
            if node_live_gpus > 0 {
                node_live_gpus.min(free_gpus.max(1))
            } else {
                self.ix.free(Slot::Cpu, &self.t, n)
            }
        } else {
            self.ix.free(Slot::Cpu, &self.t, n) + free_gpus
        };
        let remaining_per_node = remaining / live_nodes;

        for _ in 0..max_assign {
            if self.ix.pending_len() == 0 {
                break;
            }
            // Locality-aware FCFS pick.
            let (task, loc) = self.ix.pick(&self.t, n);
            self.ix.remove_pending(task);
            self.stats.record_locality(loc);

            // --- TaskTracker side placement. ---
            let ave = self.t.nodes[ni].ave_speedup(self.max_speedup);
            let task_tail = node_live_gpus as f64 * ave;
            let force_gpu = scheduler == Scheduler::TailScheduling
                && node_live_gpus > 0
                && remaining_per_node <= task_tail;
            let gpu_free = self.ix.free(Slot::Gpu, &self.t, n) > 0;

            let placed = match (scheduler, gpu_free) {
                (Scheduler::CpuOnly, _) => Device::Cpu,
                (_, true) => Device::Gpu,
                (Scheduler::GpuFirst, false) => Device::Cpu,
                (Scheduler::TailScheduling, false) => {
                    if force_gpu {
                        Device::Gpu // queued on the driver
                    } else {
                        Device::Cpu
                    }
                }
            };
            if placed == Device::Cpu && self.ix.free(Slot::Cpu, &self.t, n) == 0 {
                // No CPU slot after all: requeue task (at the back).
                self.ix.push_pending(&self.t, task);
                continue;
            }
            self.launch(task, n, placed, false);
        }
    }

    // ---------------------------------------------------------- attempts

    /// Start a new attempt of `task` on `n`: it takes a free slot of
    /// `device`, or — a GPU attempt finding every GPU busy — waits in the
    /// driver queue. Fault decisions are drawn deterministically from the
    /// plan seed here.
    fn launch(&mut self, task: u32, n: u32, device: Device, speculative: bool) {
        let ni = n as usize;
        let ti = task as usize;
        let attempt_no = self.t.tasks[ti].n_attempts;
        let spec = &self.t.job.maps[ti];
        let fp = &self.t.cfg.faults;
        let base = match device {
            Device::Cpu => spec.cpu_s,
            Device::Gpu => spec.gpu_s,
        };
        let dur = base * fp.straggler_factor(n);

        let fail_frac = if fp.corrupt_task_inputs.contains(&task) && attempt_no == 0 {
            // First read hits the corrupt replica: the CRC check fails
            // fast and the retry reads a healthy replica (the HDFS-level
            // behavior lives in `hetero-hdfs`; here only the schedule
            // effect is modeled).
            Some((0.05, Outcome::ChecksumFail))
        } else if fp.transient_fail_p > 0.0
            && fault_unit(fp.seed, task as u64, attempt_no as u64, n as u64) < fp.transient_fail_p
        {
            let frac = 0.1
                + 0.8
                    * fault_unit(
                        fp.seed ^ 0xA5A5_A5A5_A5A5_A5A5,
                        task as u64,
                        attempt_no as u64,
                        n as u64,
                    );
            Some((frac, Outcome::TransientFail))
        } else {
            None
        };

        let rec = self
            .stats
            .start_attempt(task, attempt_no, n, device, speculative, self.now);
        self.stats.journal_records += 1;
        if speculative {
            self.stats.speculative_attempts += 1;
        }
        let aidx = self.t.attempts.len();
        let link = slab_index(aidx);
        self.t.attempts.push(Attempt {
            task,
            node: n,
            device,
            slot: 0,
            dur,
            start: self.now,
            run_start: None,
            fail_frac,
            state: AttemptState::Queued,
            rec: slab_index(rec),
            next: NO_ATTEMPT,
        });
        let ts = &mut self.t.tasks[ti];
        match ts.last_attempt {
            NO_ATTEMPT => ts.first_attempt = link,
            last => self.t.attempts[last as usize].next = link,
        }
        ts.last_attempt = link;
        ts.n_attempts += 1;
        self.ix.attempt_started(task, n, aidx);
        if device == Device::Gpu && self.ix.free(Slot::Gpu, &self.t, n) == 0 {
            self.t.nodes[ni].gpu_queue.push_back(aidx);
        } else {
            self.t.attempts[aidx].slot = self.ix.grab(Slot::of(device), &self.t, n);
            self.ignite(aidx);
        }
    }

    /// Begin executing an attempt: schedule its completion or pre-drawn
    /// failure.
    fn ignite(&mut self, aidx: usize) {
        let a = &mut self.t.attempts[aidx];
        a.state = AttemptState::Running;
        a.run_start = Some(self.now);
        let (time, event) = match a.fail_frac {
            Some((frac, outcome)) => (
                self.now + frac * a.dur,
                Event::MapFail {
                    attempt: aidx,
                    outcome,
                },
            ),
            None => (self.now + a.dur, Event::MapDone { attempt: aidx }),
        };
        self.events.push(time, event);
    }

    /// Close attempt `aidx`: final state, stats record, trace span.
    fn end_attempt(&mut self, aidx: usize, state: AttemptState, outcome: Outcome) {
        let a = &mut self.t.attempts[aidx];
        a.state = state;
        let (n, rec) = (a.node, a.rec);
        self.ix.attempt_ended(n, aidx);
        self.stats.finish_attempt(rec as usize, self.now, outcome);
        self.trace_attempt_end(aidx, outcome);
    }

    /// Give back the slot a no-longer-running attempt held. A freed GPU
    /// starts the next still-valid queued attempt, else idles.
    fn release_slot(&mut self, aidx: usize) {
        let a = &self.t.attempts[aidx];
        let (n, ni, slot) = (a.node, a.node as usize, a.slot);
        if a.device == Device::Cpu {
            self.ix.release(Slot::Cpu, n, slot);
            return;
        }
        if self.t.nodes[ni].gpu_dead[slot as usize] {
            return;
        }
        while let Some(next) = self.t.nodes[ni].gpu_queue.pop_front() {
            if self.t.attempts[next].state == AttemptState::Queued {
                self.t.attempts[next].slot = slot;
                self.ignite(next);
                return;
            }
        }
        self.ix.release(Slot::Gpu, n, slot);
    }

    fn map_done(&mut self, aidx: usize) {
        // Stale-event validation: the attempt may have been killed, lost,
        // or its node crashed since this completion was scheduled.
        if self.t.attempts[aidx].state != AttemptState::Running {
            return;
        }
        let (task, n, device, dur) = {
            let a = &self.t.attempts[aidx];
            (a.task, a.node, a.device, a.dur)
        };
        let ni = n as usize;
        if !self.t.nodes[ni].alive {
            return; // died mid-run; the expiry check will reap it
        }
        if self.t.tasks[task as usize].done {
            return; // another attempt already won (guard; losers are killed)
        }
        self.end_attempt(aidx, AttemptState::Succeeded, Outcome::Success);
        self.t.tasks[task as usize].done = true;
        self.t.tasks[task as usize].winner_node = Some(n);
        self.stats.journal_records += 1;
        self.ix.task_won(task, n);
        self.maps_done += 1;
        self.last_map_done_t = self.now;
        self.kill_losers(task, aidx);
        let samples = match device {
            Device::Cpu => &mut self.t.nodes[ni].cpu_samples,
            Device::Gpu => {
                self.stats.gpu_busy_s += dur;
                &mut self.t.nodes[ni].gpu_samples
            }
        };
        samples.0 += dur;
        samples.1 += 1;
        self.release_slot(aidx);
        // TTs report their speedup; the JT remembers the max (§6.2).
        let ave = self.t.nodes[ni].ave_speedup(self.max_speedup);
        if ave > self.max_speedup {
            self.max_speedup = ave;
        }
        // When the final map finishes, running reduces can complete.
        if self.maps_done == self.t.job.maps.len() {
            self.schedule_running_reduce_completions();
        }
    }

    /// First finisher wins: kill every other live attempt of the task and
    /// free its slot right away.
    fn kill_losers(&mut self, task: u32, winner: usize) {
        // Almost always empty (it takes speculation to have a loser),
        // and an empty `Vec` allocates nothing.
        let losers: Vec<usize> = self
            .t
            .attempts_of(task)
            .filter(|&ai| ai != winner && self.t.attempts[ai].live())
            .collect();
        for ai in losers {
            let was_running = self.t.attempts[ai].state == AttemptState::Running;
            self.end_attempt(ai, AttemptState::Killed, Outcome::SpeculativeKilled);
            if was_running && self.t.nodes[self.t.attempts[ai].node as usize].alive {
                self.release_slot(ai);
            }
            // Queued losers stay in their gpu_queue; release_slot skips
            // non-Queued entries lazily.
        }
    }

    fn map_fail(&mut self, aidx: usize, outcome: Outcome) {
        let a = &self.t.attempts[aidx];
        if a.state != AttemptState::Running {
            return;
        }
        let task = a.task;
        if !self.t.nodes[a.node as usize].alive {
            return; // the node death supersedes the task failure
        }
        self.end_attempt(aidx, AttemptState::Failed, outcome);
        self.release_slot(aidx);
        if outcome == Outcome::ChecksumFail {
            self.stats.checksum_failures += 1;
        }
        self.task_attempt_failed(task, outcome);
    }

    /// Charge a failed attempt to its task and re-queue or abort.
    fn task_attempt_failed(&mut self, task: u32, outcome: Outcome) {
        let ti = task as usize;
        if self.t.tasks[ti].done {
            return;
        }
        // Task-caused failures count toward `max_attempts`; environment
        // faults (GPU death, node loss) do not — Hadoop charges those to
        // the tracker (blacklisting), not the task.
        let charged = matches!(outcome, Outcome::TransientFail | Outcome::ChecksumFail);
        self.stats.journal_records += 1;
        if charged {
            self.t.tasks[ti].failed_count += 1;
            if self.t.tasks[ti].failed_count >= self.t.cfg.max_attempts {
                // mapred.map.max.attempts exhausted: the job fails.
                self.stats.aborted = true;
                return;
            }
        }
        self.requeue_if_idle(task);
    }

    /// A task that just lost an attempt goes back to the pending queue
    /// unless another attempt is still live or it is already done.
    fn requeue_if_idle(&mut self, task: u32) {
        if self.t.has_live(task) {
            return;
        }
        self.ix.task_idle(task);
        if !self.t.tasks[task as usize].done && !self.ix.is_pending(task) {
            self.ix.push_pending(&self.t, task);
        }
    }

    // ---------------------------------------------------------- faults

    fn gpu_fault(&mut self, node: u32, gpu: u32) {
        let ni = node as usize;
        let g = gpu as usize;
        if ni >= self.t.nodes.len() || g >= self.t.nodes[ni].gpu_dead.len() {
            return;
        }
        if self.t.nodes[ni].gpu_dead[g] {
            return;
        }
        self.t.nodes[ni].gpu_dead[g] = true;
        self.ix.gpu_died(&self.t, node, gpu);
        self.stats.gpu_faults_seen += 1;
        if self.trace_on {
            self.tracer.instant(
                Category::Fault,
                "gpu fault",
                node,
                self.lane_gpu(gpu),
                self.now,
                vec![("gpu", ArgValue::from(gpu))],
            );
        }
        // The attempt on the device dies with it (at most one running
        // attempt occupies a given GPU).
        let victim = self
            .ix
            .live_attempts(&self.t, node)
            .into_iter()
            .find(|&ai| {
                let a = &self.t.attempts[ai];
                a.state == AttemptState::Running && a.device == Device::Gpu && a.slot == gpu
            });
        if let Some(ai) = victim {
            self.end_attempt(ai, AttemptState::Failed, Outcome::GpuFault);
            self.task_attempt_failed(self.t.attempts[ai].task, Outcome::GpuFault);
        }
        // With no GPU left on the node, queued-for-GPU attempts go back
        // to the JobTracker; the node degrades to its CPU slots.
        if self.ix.live_gpus(&self.t, node) == 0 {
            while let Some(ai) = self.t.nodes[ni].gpu_queue.pop_front() {
                if self.t.attempts[ai].state != AttemptState::Queued {
                    continue;
                }
                self.end_attempt(ai, AttemptState::Failed, Outcome::GpuFault);
                self.task_attempt_failed(self.t.attempts[ai].task, Outcome::GpuFault);
            }
        }
    }

    fn expiry_check(&mut self) {
        for n in self.ix.expired(&self.t, self.now) {
            self.declare_dead(n);
        }
        // Keep checking until every planned crash has been detected —
        // forever when the plan can silence a live tracker (partitions,
        // heartbeat loss/jitter) or the master itself (trackers may
        // still need expiring after any recovery).
        if (self.stats.nodes_lost < self.planned_crashes || self.silencing_faults)
            && !self.stats.aborted
        {
            self.events
                .push(self.now + self.t.cfg.heartbeat_s, Event::ExpiryCheck);
        }
    }

    /// The JobTracker declares a silent TaskTracker dead: blacklist it,
    /// lose its in-flight attempts, and re-execute its completed maps if
    /// reduces still need their outputs.
    fn declare_dead(&mut self, n: u32) {
        let ni = n as usize;
        self.t.nodes[ni].dead_declared = true;
        self.ix.node_declared_dead(&self.t, n);
        self.stats.journal_records += 1;
        self.stats.nodes_lost += 1;
        self.stats.node_loss_detected.push((n, self.now));
        self.trace_jt_instant(
            Category::Fault,
            format!("node {n} declared dead"),
            vec![("node", ArgValue::from(n))],
        );
        // Reap in-flight map attempts; node loss is not the task's fault,
        // so nothing is charged against max_attempts.
        for ai in self.ix.live_attempts(&self.t, n) {
            self.end_attempt(ai, AttemptState::Lost, Outcome::NodeLost);
            self.requeue_if_idle(self.t.attempts[ai].task);
        }
        self.t.nodes[ni].gpu_queue.clear();
        // Map outputs live on the tracker's local disk: completed maps
        // must re-run while reduces still need to fetch them. Map-only
        // jobs write straight to HDFS and lose nothing (Hadoop 1.x).
        if self.reduces_done < self.t.job.reduces.len() {
            let winners = self.ix.take_winners(&self.t, n);
            if !winners.is_empty() {
                self.maps_epoch += 1; // invalidate scheduled reduce finishes
            }
            for id in winners {
                let ts = &mut self.t.tasks[id as usize];
                debug_assert_eq!((ts.done, ts.winner_node), (true, Some(n)));
                ts.done = false;
                ts.winner_node = None;
                self.stats.journal_records += 1;
                self.maps_done -= 1;
                self.stats.re_executed += 1;
                if !self.ix.is_pending(id) {
                    self.ix.push_pending(&self.t, id);
                }
            }
        }
        // Reduces running on the dead node restart elsewhere. In-place,
        // order-preserving removal: the surviving entries keep their
        // relative order (which downstream event scheduling depends on
        // for determinism) and no per-declaration Vec is allocated.
        let mut i = 0;
        while i < self.t.running_reduces.len() {
            let rr = self.t.running_reduces[i];
            if rr.node == n && !self.stats.reduce_done(rr.task) {
                self.t.running_reduces.remove(i);
                self.pending_reduces.push_back(rr.task);
                self.stats.reduce_attempts_lost += 1;
                if self.trace_on {
                    self.tracer.instant(
                        Category::Fault,
                        format!("reduce {} lost", rr.task),
                        n,
                        self.lane_reduce(rr.slot),
                        self.now,
                        vec![("task", ArgValue::from(rr.task))],
                    );
                }
            } else {
                i += 1;
            }
        }
        // With nobody left the job can never finish. Declared-dead
        // trackers that are physically alive (false expiry under a
        // partition or loss streak) still count as a future: they will
        // re-register and be re-admitted — only an all-crashed cluster
        // is hopeless. (With legacy plans declared ⇒ crashed, so this is
        // the old "no usable node" abort exactly.)
        if self.work_remains()
            && self.ix.census(&self.t).0 == 0
            && self.t.nodes.iter().all(|nd| !nd.alive)
        {
            self.stats.aborted = true;
        }
    }

    // ---------------------------------------------------------- reduces

    fn schedule_running_reduce_completions(&mut self) {
        let epoch = self.maps_epoch;
        // Indexed iteration over Copy entries: this runs on the final
        // map-done heartbeat path and must not clone the whole vec.
        for i in 0..self.t.running_reduces.len() {
            let rr = self.t.running_reduces[i];
            if self.stats.reduce_done(rr.task) {
                continue;
            }
            let done_t = reduce_finish_time(
                rr.start,
                self.now,
                self.shuffle_per_reduce_s,
                self.t.job.reduces[rr.task as usize].compute_s,
            );
            self.events.push(
                done_t.max(self.now),
                Event::ReduceDone {
                    node: rr.node,
                    task: rr.task,
                    epoch,
                },
            );
        }
    }

    fn reduce_done_ev(&mut self, node: u32, task: u32, epoch: u32) {
        // Stale if a completed map was invalidated since scheduling, if
        // the map phase regressed, or if the node died under the reduce.
        if epoch != self.maps_epoch
            || self.maps_done != self.t.job.maps.len()
            || !self.t.nodes[node as usize].alive
        {
            return;
        }
        if self.stats.mark_reduce_done(task, self.now) {
            self.reduces_done += 1;
            self.stats.journal_records += 1;
            // Release the slot this reduce held (and drop its entry —
            // it no longer needs rescheduling or rescue).
            if let Some(i) = self
                .t
                .running_reduces
                .iter()
                .position(|rr| rr.task == task && rr.node == node)
            {
                let rr = self.t.running_reduces.remove(i);
                self.ix.release(Slot::Reduce, node, rr.slot);
                if self.trace_on {
                    let compute_s = self.t.job.reduces[task as usize].compute_s;
                    let shuffle_end =
                        (rr.start + self.shuffle_per_reduce_s).min(self.now - compute_s);
                    let lane = self.lane_reduce(rr.slot);
                    self.tracer.span(
                        Category::Shuffle,
                        format!("shuffle r{task}"),
                        node,
                        lane,
                        rr.start,
                        shuffle_end.max(rr.start),
                        vec![("task", ArgValue::from(task))],
                    );
                    self.tracer.span(
                        Category::Task,
                        format!("reduce {task}"),
                        node,
                        lane,
                        self.now - compute_s,
                        self.now,
                        vec![("task", ArgValue::from(task))],
                    );
                }
            }
        }
    }

    // ------------------------------------------------------- speculation

    /// Hadoop-style speculative execution: once no fresh work is pending,
    /// back up the slowest task whose progress trails the job average by
    /// more than `cfg.speculative_lag`, on a node other than the one
    /// running it.
    fn try_speculate(&mut self, n: u32) {
        if self.ix.pending_len() > 0 || self.maps_done == self.t.job.maps.len() {
            return;
        }
        loop {
            let device = if self.t.cfg.scheduler != Scheduler::CpuOnly
                && self.ix.free(Slot::Gpu, &self.t, n) > 0
            {
                Device::Gpu
            } else if self.ix.free(Slot::Cpu, &self.t, n) > 0 {
                Device::Cpu
            } else {
                return;
            };
            // Every done task contributes exactly 1.0 progress; seeding
            // the sum with their count and then adding the candidates in
            // task order fixes one summation order — float addition is
            // not associative, so the order is part of the spec (as is
            // the min-progress tie-break it implies).
            let mut sum = self.maps_done as f64;
            let mut cnt = self.maps_done as u32;
            // Slowest backup candidate: single live attempt, off-node.
            let mut cand: Option<(u32, f64)> = None;
            for t in self.ix.spec_candidates(&self.t) {
                let mut live_cnt = 0u32;
                let mut only_live: usize = 0;
                let mut p = 0.0f64;
                for ai in self.t.attempts_of(t) {
                    let a = &self.t.attempts[ai];
                    if !a.live() {
                        continue;
                    }
                    live_cnt += 1;
                    only_live = ai;
                    p = p.max(((self.now - a.start) / a.dur.max(1e-9)).clamp(0.0, 1.0));
                }
                debug_assert!(live_cnt > 0, "speculation candidate with no live attempt");
                sum += p;
                cnt += 1;
                if live_cnt == 1 && self.t.attempts[only_live].node != n {
                    match cand {
                        Some((_, cp)) if cp <= p => {}
                        _ => cand = Some((t, p)),
                    }
                }
            }
            if cnt == 0 {
                return;
            }
            let avg = sum / cnt as f64;
            let Some((t, p)) = cand else { return };
            if p >= avg - self.t.cfg.speculative_lag {
                return;
            }
            self.trace_jt_instant(
                Category::Speculation,
                format!("speculate map {t}"),
                vec![
                    ("task", ArgValue::from(t)),
                    ("progress", ArgValue::from(p)),
                    ("job_avg", ArgValue::from(avg)),
                ],
            );
            self.launch(t, n, device, true);
        }
    }

    // ------------------------------------------------------------ audit

    /// The master's logical state in four numbers: maps done, reduces
    /// done, charged failures, blacklisted trackers. Recovery keeps that
    /// state rather than rebuilding it, which is sound only because an
    /// outage leaves it alone; `jobtracker_crash` records the digest and
    /// `jobtracker_recover` checks it.
    #[cfg(any(debug_assertions, feature = "audit"))]
    fn logical_digest(&self) -> [u64; 4] {
        [
            self.maps_done as u64,
            self.reduces_done as u64,
            self.t.tasks.iter().map(|t| u64::from(t.failed_count)).sum(),
            self.t.nodes.iter().filter(|n| n.dead_declared).count() as u64,
        ]
    }

    /// Called after each DES event in audited builds: check the core's
    /// own counters against its tables, then let the index cross-check
    /// whatever it maintains. Panics (via [`crate::audit::violation`]) at
    /// the first drift.
    #[cfg(any(debug_assertions, feature = "audit"))]
    fn audit_invariants(&self, event: &Event) {
        use crate::audit::check;
        let ctx = format!("after {:?} @ t={}", event, self.now);
        for (ai, a) in self.t.attempts.iter().enumerate() {
            if a.state == AttemptState::Queued {
                check(
                    self.t.nodes[a.node as usize].gpu_queue.contains(&ai),
                    &ctx,
                    || format!("queued attempt {ai} missing from node {} gpu_queue", a.node),
                );
            }
        }
        let done_count = self.t.tasks.iter().filter(|t| t.done).count();
        check(self.maps_done == done_count, &ctx, || {
            format!("maps_done {} != census {done_count}", self.maps_done)
        });
        check(
            self.reduces_done == self.stats.completed_reduces(),
            &ctx,
            || {
                format!(
                    "reduces_done {} != stats {}",
                    self.reduces_done,
                    self.stats.completed_reduces()
                )
            },
        );
        for t in 0..self.t.tasks.len() as u32 {
            let done = self.t.tasks[t as usize].done;
            let has_live = self.t.has_live(t);
            if self.ix.is_pending(t) {
                check(!done && !has_live, &ctx, || {
                    format!("task {t} pending while done={done} live={has_live}")
                });
            } else if !self.jt_down {
                // Totality: an undone task with no live attempt must be
                // queued (while the master is up to queue it).
                check(done || has_live, &ctx, || {
                    format!("task {t} is neither done, live, nor pending")
                });
            }
        }
        self.ix.audit(&self.t, &ctx);
    }
}

/// A reduce that started shuffling at `start` completes its shuffle+merge
/// `shuffle_s` after start (overlapped with the map phase) but its compute
/// can only run once every map is done (`maps_done_t`).
fn reduce_finish_time(start: f64, maps_done_t: f64, shuffle_s: f64, compute_s: f64) -> f64 {
    (start + shuffle_s).max(maps_done_t) + compute_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultPlan;
    use crate::reference::ScanIndex;

    fn fig3_job() -> JobSpec {
        JobSpec::uniform("fig3", 19, 1, 1, 6.0, 1.0)
    }

    #[test]
    fn fig3_gpu_first_vs_tail_scheduling() {
        let gf = simulate(&ClusterConfig::fig3(Scheduler::GpuFirst), &fig3_job());
        let ts = simulate(&ClusterConfig::fig3(Scheduler::TailScheduling), &fig3_job());
        // GPU-first leaves the last CPU tasks running while the GPU
        // idles (~18s); tail scheduling forces the tail on the GPU
        // (~15s). Heartbeat granularity adds small slack.
        assert!(
            gf.makespan_s > 17.5 && gf.makespan_s < 19.5,
            "gpu-first makespan {}",
            gf.makespan_s
        );
        assert!(
            ts.makespan_s < gf.makespan_s - 1.0,
            "tail {} should beat gpu-first {}",
            ts.makespan_s,
            gf.makespan_s
        );
        assert_eq!(gf.completed_maps(), 19);
        assert_eq!(ts.completed_maps(), 19);
    }

    /// A [`SchedIndex`] that lies in one answer: `pick` ignores the
    /// node-local and rack-local tiers and hands out the lowest-numbered
    /// pending task as off-rack. Every other answer is the scan index's.
    #[derive(Default)]
    struct FifoPick(ScanIndex);

    impl SchedIndex for FifoPick {
        fn build(t: &Tables) -> Self {
            FifoPick(ScanIndex::build(t))
        }
        fn pick(&mut self, t: &Tables, _node: u32) -> (u32, Locality) {
            let head = (0..t.tasks.len() as u32).find(|&task| self.is_pending(task));
            (head.expect("pick from an empty queue"), Locality::OffRack)
        }
        fn pending_len(&self) -> usize {
            self.0.pending_len()
        }
        fn is_pending(&self, task: u32) -> bool {
            self.0.is_pending(task)
        }
        fn push_pending(&mut self, t: &Tables, task: u32) {
            self.0.push_pending(t, task)
        }
        fn remove_pending(&mut self, task: u32) {
            self.0.remove_pending(task)
        }
        fn free(&self, kind: Slot, t: &Tables, n: u32) -> u32 {
            self.0.free(kind, t, n)
        }
        fn grab(&mut self, kind: Slot, t: &Tables, n: u32) -> u32 {
            self.0.grab(kind, t, n)
        }
        fn release(&mut self, kind: Slot, n: u32, slot: u32) {
            self.0.release(kind, n, slot)
        }
        fn census(&self, t: &Tables) -> (u32, u32) {
            self.0.census(t)
        }
        fn live_gpus(&self, t: &Tables, n: u32) -> u32 {
            self.0.live_gpus(t, n)
        }
        fn expired(&mut self, t: &Tables, now: f64) -> Vec<u32> {
            self.0.expired(t, now)
        }
        fn live_attempts(&self, t: &Tables, n: u32) -> Vec<usize> {
            self.0.live_attempts(t, n)
        }
        fn take_winners(&mut self, t: &Tables, n: u32) -> Vec<u32> {
            self.0.take_winners(t, n)
        }
        fn spec_candidates(&self, t: &Tables) -> Vec<u32> {
            self.0.spec_candidates(t)
        }
        fn node_readmitted(&mut self, t: &Tables, n: u32) {
            self.0.node_readmitted(t, n)
        }
    }

    /// The differential suites compare the indexed run with the scan run.
    /// That comparison has teeth only if a wrong index changes the
    /// result: here one lying answer, on the Fig. 3 job, must show up in
    /// the fingerprint the suites compare — while the two honest indexes
    /// agree on it.
    #[test]
    fn differential_oracle_catches_a_lying_index() {
        let cfg = ClusterConfig::fig3(Scheduler::TailScheduling);
        let job = fig3_job();
        let tracer = Tracer::off();
        let scan = run::<ScanIndex>(&cfg, &job, &tracer).fingerprint();
        let indexed = run::<Indexed>(&cfg, &job, &tracer).fingerprint();
        let lying = run::<FifoPick>(&cfg, &job, &tracer).fingerprint();
        assert_eq!(indexed, scan);
        assert_ne!(lying, scan, "a wrong pick went unnoticed");
    }

    #[test]
    fn cpu_only_uses_no_gpu() {
        let st = simulate(&ClusterConfig::fig3(Scheduler::CpuOnly), &fig3_job());
        assert_eq!(st.gpu_tasks(), 0);
        assert_eq!(st.completed_maps(), 19);
        // 19 tasks on 2 slots at 6s: ceil(19/2)*6 = 60s.
        assert!(
            st.makespan_s >= 59.0 && st.makespan_s < 63.0,
            "{}",
            st.makespan_s
        );
    }

    #[test]
    fn gpu_first_beats_cpu_only() {
        let cpu = simulate(&ClusterConfig::fig3(Scheduler::CpuOnly), &fig3_job());
        let gf = simulate(&ClusterConfig::fig3(Scheduler::GpuFirst), &fig3_job());
        assert!(gf.makespan_s < cpu.makespan_s / 2.0);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for s in [
            Scheduler::CpuOnly,
            Scheduler::GpuFirst,
            Scheduler::TailScheduling,
        ] {
            let cfg = ClusterConfig::small(4, s);
            let job = JobSpec::uniform("j", 100, 4, 2, 3.0, 0.5);
            let st = simulate(&cfg, &job);
            assert_eq!(st.completed_maps(), 100, "scheduler {s:?}");
            let mut ids: Vec<u32> = st.tasks.iter().map(|t| t.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 100, "duplicate executions under {s:?}");
            assert_eq!(st.map_attempts(), 100, "extra attempts under {s:?}");
        }
    }

    #[test]
    fn multi_gpu_scales() {
        let mk = |g: u32| {
            let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
            cfg.gpus_per_node = g;
            cfg.map_slots_per_node = 4;
            simulate(&cfg, &JobSpec::uniform("j", 400, 4, 1, 8.0, 0.5)).makespan_s
        };
        let one = mk(1);
        let two = mk(2);
        let three = mk(3);
        assert!(two < one, "2 GPUs {two} should beat 1 GPU {one}");
        assert!(three < two, "3 GPUs {three} should beat 2 {two}");
    }

    #[test]
    fn reduces_finish_after_all_maps() {
        let mut cfg = ClusterConfig::small(2, Scheduler::GpuFirst);
        cfg.reduce_slots_per_node = 1;
        let mut job = JobSpec::uniform("j", 20, 2, 1, 2.0, 0.5);
        job.reduces = (0..2)
            .map(|id| crate::job::ReduceTaskSpec { id, compute_s: 1.0 })
            .collect();
        let st = simulate(&cfg, &job);
        assert_eq!(st.completed_reduces(), 2);
        assert!(st.makespan_s >= st.map_phase_s + 1.0);
    }

    #[test]
    fn locality_is_preferred() {
        let cfg = ClusterConfig::small(8, Scheduler::CpuOnly);
        let job = JobSpec::uniform("j", 160, 8, 3, 1.0, 1.0);
        let st = simulate(&cfg, &job);
        let local_frac =
            st.node_local as f64 / (st.node_local + st.rack_local + st.off_rack).max(1) as f64;
        assert!(
            local_frac > 0.5,
            "most tasks should be node-local, got {local_frac}"
        );
    }

    #[test]
    fn tail_never_much_worse_than_gpu_first() {
        // Across a spread of shapes, tail scheduling should match or
        // beat GPU-first (up to heartbeat noise).
        for (n_tasks, speedup) in [(50u32, 4.0), (97, 8.0), (200, 2.0)] {
            let mut cfg_g = ClusterConfig::small(4, Scheduler::GpuFirst);
            cfg_g.map_slots_per_node = 4;
            let mut cfg_t = cfg_g.clone();
            cfg_t.scheduler = Scheduler::TailScheduling;
            let job = JobSpec::uniform("j", n_tasks, 4, 2, 6.0, 6.0 / speedup);
            let g = simulate(&cfg_g, &job).makespan_s;
            let t = simulate(&cfg_t, &job).makespan_s;
            assert!(
                t <= g * 1.05 + 2.0 * cfg_g.heartbeat_s,
                "tail {t} much worse than gpu-first {g} for n={n_tasks} s={speedup}"
            );
        }
    }

    #[test]
    fn map_only_job_completes_without_reduces() {
        let cfg = ClusterConfig::small(2, Scheduler::GpuFirst);
        let job = JobSpec::uniform("bs", 40, 2, 1, 5.0, 0.2);
        let st = simulate(&cfg, &job);
        assert_eq!(st.completed_maps(), 40);
        assert_eq!(st.completed_reduces(), 0);
    }

    // ------------------------------------------------- fault tolerance

    #[test]
    fn transient_failures_retry_until_success() {
        let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
        cfg.faults.seed = 42;
        cfg.faults.transient_fail_p = 0.10;
        let job = JobSpec::uniform("j", 100, 4, 2, 3.0, 0.5);
        let st = simulate(&cfg, &job);
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 100);
        assert!(st.failed_attempts > 0, "10% of 100+ attempts should fail");
        assert_eq!(st.map_attempts(), 100 + st.failed_attempts as usize);
        assert!(st.wasted_work_s > 0.0);
    }

    /// The record outlives the run — the service keeps one per job — so
    /// it must hold exactly its attempts: neither the doubling a faulted
    /// run's overflow of the exact reservation causes, nor the unused
    /// part of the reservation of a job that aborts early.
    #[test]
    fn a_finished_run_keeps_no_slack_in_its_attempt_records() {
        let job = JobSpec::uniform("j", 100, 4, 2, 3.0, 0.5);
        let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
        let clean = simulate(&cfg, &job);
        assert_eq!(clean.tasks.len(), 100);
        assert_eq!(clean.tasks.capacity(), clean.tasks.len());
        cfg.faults = FaultPlan::seeded(42).with_transient_p(0.10);
        let faulted = simulate(&cfg, &job);
        assert!(
            faulted.tasks.len() > 100,
            "no retry overflowed the reservation"
        );
        assert_eq!(faulted.tasks.capacity(), faulted.tasks.len());
        (cfg.faults.transient_fail_p, cfg.max_attempts) = (1.0, 1);
        let aborted = simulate(&cfg, &job);
        assert!(aborted.aborted && aborted.tasks.len() < 100);
        assert_eq!(aborted.tasks.capacity(), aborted.tasks.len());
    }

    #[test]
    fn same_seed_reproduces_same_schedule() {
        let mut cfg = ClusterConfig::small(4, Scheduler::TailScheduling);
        cfg.faults.seed = 7;
        cfg.faults.transient_fail_p = 0.08;
        cfg.faults.node_crashes = vec![(2, 5.0)];
        cfg.faults.corrupt_task_inputs = vec![11];
        let job = JobSpec::uniform("j", 120, 4, 2, 2.0, 0.5);
        let a = simulate(&cfg, &job);
        let b = simulate(&cfg, &job);
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.map_attempts(), b.map_attempts());
        assert_eq!(a.failed_attempts, b.failed_attempts);
        assert_eq!(a.wasted_work_s, b.wasted_work_s);
        let key = |s: &JobStats| -> Vec<(u32, u32, u32)> {
            s.tasks.iter().map(|t| (t.id, t.attempt, t.node)).collect()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn corrupt_input_fails_fast_then_retries() {
        let mut cfg = ClusterConfig::small(2, Scheduler::CpuOnly);
        cfg.faults.corrupt_task_inputs = vec![3];
        let job = JobSpec::uniform("j", 10, 2, 2, 2.0, 1.0);
        let st = simulate(&cfg, &job);
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 10);
        assert_eq!(st.checksum_failures, 1);
        let t3: Vec<_> = st.tasks.iter().filter(|t| t.id == 3).collect();
        assert_eq!(t3.len(), 2, "one checksum failure + one retry");
        assert!(t3.iter().any(|t| t.outcome == Outcome::ChecksumFail));
        assert!(t3.iter().any(|t| t.outcome == Outcome::Success));
    }

    #[test]
    fn job_aborts_after_max_attempts() {
        let mut cfg = ClusterConfig::small(2, Scheduler::CpuOnly);
        cfg.faults.transient_fail_p = 1.0; // every attempt dies
        let job = JobSpec::uniform("j", 5, 2, 1, 2.0, 1.0);
        let st = simulate(&cfg, &job);
        assert!(st.aborted);
        assert!(st.completed_maps() < 5);
        assert!(st.failed_attempts >= cfg.max_attempts);
    }

    #[test]
    fn node_crash_is_detected_and_work_rescued() {
        let mut cfg = ClusterConfig::small(3, Scheduler::CpuOnly);
        cfg.faults.node_crashes = vec![(2, 3.0)];
        let job = JobSpec::uniform("j", 60, 3, 2, 1.0, 1.0);
        let st = simulate(&cfg, &job);
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 60);
        assert_eq!(st.nodes_lost, 1);
        let (n, detected) = st.node_loss_detected[0];
        assert_eq!(n, 2);
        // Detection fires a full expiry interval after the node's last
        // heartbeat, which lands within one heartbeat of the crash.
        assert!(
            detected >= 3.0 + cfg.heartbeat_timeout_s - 2.0 * cfg.heartbeat_s,
            "detection {detected} before the expiry interval elapsed"
        );
        // Nothing succeeds on the dead node after it crashed.
        assert!(st
            .tasks
            .iter()
            .filter(|t| t.node == 2 && t.succeeded())
            .all(|t| t.end_s.unwrap() <= 3.0));
        // Map-only job: completed maps on the dead node are NOT re-run.
        assert_eq!(st.re_executed, 0);
    }

    #[test]
    fn dead_node_completed_maps_rerun_when_reduces_pending() {
        let mut cfg = ClusterConfig::small(3, Scheduler::CpuOnly);
        cfg.faults.node_crashes = vec![(2, 3.0)];
        let mut job = JobSpec::uniform("j", 60, 3, 2, 1.0, 1.0);
        job.reduces = (0..2)
            .map(|id| crate::job::ReduceTaskSpec { id, compute_s: 1.0 })
            .collect();
        let st = simulate(&cfg, &job);
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 60);
        assert_eq!(st.completed_reduces(), 2);
        assert!(
            st.re_executed > 0,
            "maps completed on the dead node must re-run for the shuffle"
        );
    }

    #[test]
    fn all_nodes_dead_aborts_the_job() {
        let mut cfg = ClusterConfig::small(1, Scheduler::CpuOnly);
        cfg.faults.node_crashes = vec![(0, 1.0)];
        let job = JobSpec::uniform("j", 20, 1, 1, 2.0, 1.0);
        let st = simulate(&cfg, &job);
        assert!(st.aborted);
        assert_eq!(st.nodes_lost, 1);
    }

    #[test]
    fn gpu_fault_degrades_node_to_cpu() {
        let mut cfg = ClusterConfig::small(1, Scheduler::GpuFirst);
        cfg.faults.gpu_faults = vec![(0, 0, 3.0)];
        let job = JobSpec::uniform("j", 30, 1, 1, 2.0, 0.5);
        let st = simulate(&cfg, &job);
        assert!(!st.aborted);
        assert_eq!(st.completed_maps(), 30);
        assert_eq!(st.gpu_faults_seen, 1);
        // No GPU success after the fault; the job still finishes on CPUs.
        assert!(st
            .tasks
            .iter()
            .filter(|t| t.device == Device::Gpu && t.succeeded())
            .all(|t| t.end_s.unwrap() <= 3.0 + 1e-9));
        assert!(st.cpu_tasks() > 0);
    }

    #[test]
    fn trace_is_deterministic_for_the_same_fault_seed() {
        use hetero_trace::Tracer;
        let mut cfg = ClusterConfig::small(4, Scheduler::TailScheduling);
        cfg.faults = FaultPlan {
            seed: 42,
            node_crashes: vec![(2, 5.0)],
            transient_fail_p: 0.05,
            corrupt_task_inputs: vec![17],
            ..FaultPlan::default()
        };
        let mut job = JobSpec::uniform("j", 60, 4, 4, 2.0, 1.0);
        job.reduces = (0..8)
            .map(|id| crate::job::ReduceTaskSpec { id, compute_s: 2.0 })
            .collect();
        let t1 = Tracer::new();
        let t2 = Tracer::new();
        let s1 = simulate_traced(&cfg, &job, &t1);
        let s2 = simulate_traced(&cfg, &job, &t2);
        assert!(!t1.is_empty());
        let j1 = t1.to_chrome_json();
        assert_eq!(
            j1,
            t2.to_chrome_json(),
            "same seed must give identical bytes"
        );
        hetero_trace::json::validate(&j1).unwrap();
        assert_eq!(s1.makespan_s, s2.makespan_s);
        // The log saw the injected faults as first-class events.
        let evs = t1.events();
        assert!(evs.iter().any(|e| e.name == "node crash"));
        assert!(evs.iter().any(|e| e.cat == hetero_trace::Category::Shuffle));
    }

    #[test]
    fn tracing_does_not_perturb_the_schedule() {
        use hetero_trace::Tracer;
        let mut cfg = ClusterConfig::small(4, Scheduler::GpuFirst);
        cfg.faults = FaultPlan {
            seed: 7,
            transient_fail_p: 0.08,
            node_crashes: vec![(1, 10.0)],
            ..FaultPlan::default()
        };
        let job = JobSpec::uniform("j", 80, 4, 4, 2.0, 1.0);
        let untraced = simulate(&cfg, &job);
        let tracer = Tracer::new();
        let traced = simulate_traced(&cfg, &job, &tracer);
        assert!(!tracer.is_empty());
        // Bit-identical schedule: every attempt record, both phases.
        assert_eq!(
            format!("{:?}", untraced.tasks),
            format!("{:?}", traced.tasks)
        );
        assert_eq!(untraced.makespan_s, traced.makespan_s);
        assert_eq!(untraced.map_phase_s, traced.map_phase_s);
        // The tracer is the only switch: a disabled one records nothing
        // and changes nothing.
        let off = Tracer::off();
        let silent = simulate_traced(&cfg, &job, &off);
        assert!(off.is_empty());
        assert_eq!(silent.makespan_s, untraced.makespan_s);
    }

    #[test]
    fn speculative_execution_rescues_stragglers() {
        let mut cfg = ClusterConfig::small(2, Scheduler::CpuOnly);
        cfg.faults.stragglers = vec![(0, 20.0)];
        let job = JobSpec::uniform("j", 10, 2, 2, 2.0, 1.0);
        let base = simulate(&cfg, &job);
        cfg.speculative = true;
        let spec = simulate(&cfg, &job);
        assert_eq!(base.completed_maps(), 10);
        assert_eq!(spec.completed_maps(), 10);
        assert_eq!(base.speculative_attempts, 0);
        assert!(spec.speculative_attempts > 0);
        assert!(
            spec.makespan_s < base.makespan_s / 2.0,
            "speculation {specs} should rescue the straggler tail {bases}",
            specs = spec.makespan_s,
            bases = base.makespan_s
        );
        // First finisher wins exactly once per task.
        let mut winners: Vec<u32> = spec
            .tasks
            .iter()
            .filter(|t| t.succeeded())
            .map(|t| t.id)
            .collect();
        winners.sort_unstable();
        winners.dedup();
        assert_eq!(winners.len(), 10);

        // The lag is a real knob now: with the whole progress range (1.0)
        // as the required deficit, no attempt can ever qualify as slow,
        // so speculation stays armed but silent.
        cfg.speculative_lag = 1.0;
        let lagless = simulate(&cfg, &job);
        assert_eq!(lagless.speculative_attempts, 0);
        assert!((lagless.makespan_s - base.makespan_s).abs() < 1e-9);
        // ...and a tighter lag than the default 0.2 speculates at least
        // as eagerly.
        cfg.speculative_lag = 0.05;
        let eager = simulate(&cfg, &job);
        assert!(eager.speculative_attempts >= spec.speculative_attempts);
    }

    #[test]
    fn tail_forcing_threshold_tracks_surviving_nodes() {
        // Satellite: losing a node mid-job must shrink the tail forcing
        // threshold to the surviving cluster instead of stalling the job.
        let mut cfg_t = ClusterConfig::small(4, Scheduler::TailScheduling);
        cfg_t.map_slots_per_node = 4;
        cfg_t.faults.node_crashes = vec![(3, 8.0)];
        let mut cfg_g = cfg_t.clone();
        cfg_g.scheduler = Scheduler::GpuFirst;
        let job = JobSpec::uniform("j", 200, 4, 2, 4.0, 1.0);
        let t = simulate(&cfg_t, &job);
        let g = simulate(&cfg_g, &job);
        assert!(!t.aborted);
        assert_eq!(t.completed_maps(), 200);
        assert_eq!(t.nodes_lost, 1);
        // Recovery happened: work succeeded after the crash was detected.
        let detected = t.node_loss_detected[0].1;
        assert!(t
            .tasks
            .iter()
            .any(|r| r.succeeded() && r.end_s.unwrap() > detected));
        // With the threshold recomputed from 3 live nodes, tail stays
        // competitive with GPU-first under the same crash.
        assert!(
            t.makespan_s <= g.makespan_s * 1.10 + 2.0 * cfg_t.heartbeat_s,
            "tail-under-crash {t} vs gpu-first-under-crash {g}",
            t = t.makespan_s,
            g = g.makespan_s
        );
    }
}
