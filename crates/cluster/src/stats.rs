//! Job execution statistics gathered by the simulator, now tracking one
//! record per *attempt* so re-execution, speculation, and wasted work are
//! first-class measurements.

use hetero_hdfs::Locality;
use std::collections::HashSet;

/// Which device class executed a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// A CPU map slot.
    Cpu,
    /// A GPU (via the reserved GPU slot + driver).
    Gpu,
}

/// How a map-task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Still running when the simulation ended (aborted jobs).
    Running,
    /// Finished and won the task.
    Success,
    /// Died mid-run with a transient error (child JVM exit).
    TransientFail,
    /// Input read hit a corrupt replica; the attempt failed fast.
    ChecksumFail,
    /// The executing GPU faulted under the attempt.
    GpuFault,
    /// The executing TaskTracker was declared dead.
    NodeLost,
    /// Killed because another attempt of the task finished first.
    SpeculativeKilled,
}

/// Execution record of one map-task *attempt*.
#[derive(Debug, Clone, Copy)]
pub struct TaskRecord {
    /// Task id.
    pub id: u32,
    /// Attempt number for this task (0 = first attempt).
    pub attempt: u32,
    /// Executing node.
    pub node: u32,
    /// Device class.
    pub device: Device,
    /// Whether this was a speculative backup attempt.
    pub speculative: bool,
    /// Assignment time (for queued GPU tasks: when queued).
    pub start_s: f64,
    /// Completion time; `None` until the attempt ends. (A previous
    /// revision used an `f64::NAN` sentinel, which serializes to JSON
    /// `null` and breaks round-trips — hence the `Option`.)
    pub end_s: Option<f64>,
    /// How the attempt ended.
    pub outcome: Outcome,
}

impl TaskRecord {
    /// Whether this attempt completed successfully.
    pub fn succeeded(&self) -> bool {
        self.outcome == Outcome::Success
    }
}

/// Statistics of one simulated job run.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Job name.
    pub name: String,
    /// End-to-end job time.
    pub makespan_s: f64,
    /// Time the last map task finished.
    pub map_phase_s: f64,
    /// Total GPU busy seconds across the cluster.
    pub gpu_busy_s: f64,
    /// Maximum GPU speedup the JobTracker observed.
    pub max_speedup_seen: f64,
    /// Node-local map assignments.
    pub node_local: u32,
    /// Rack-local map assignments.
    pub rack_local: u32,
    /// Off-rack map assignments.
    pub off_rack: u32,
    /// Per-attempt execution records.
    pub tasks: Vec<TaskRecord>,
    /// Map attempts that failed (transient, checksum, or GPU fault; lost
    /// and speculatively killed attempts are not failures).
    pub failed_attempts: u32,
    /// Completed map tasks re-executed because their node was lost
    /// (their map outputs died with the TaskTracker).
    pub re_executed: u32,
    /// Speculative backup attempts launched.
    pub speculative_attempts: u32,
    /// Seconds burned by speculative attempts that lost the race.
    pub speculative_wasted_s: f64,
    /// Total seconds burned by attempts that did not win their task
    /// (failed, lost, and speculatively killed).
    pub wasted_work_s: f64,
    /// TaskTrackers declared dead and blacklisted.
    pub nodes_lost: u32,
    /// `(node, detected_at_s)` for each lost TaskTracker.
    pub node_loss_detected: Vec<(u32, f64)>,
    /// GPU device faults observed.
    pub gpu_faults_seen: u32,
    /// Corrupt-replica reads detected by checksum.
    pub checksum_failures: u32,
    /// Running reduce attempts lost to node death and re-queued.
    pub reduce_attempts_lost: u32,
    /// JobTracker crash-stops taken (master failures, not node failures).
    pub jobtracker_crashes_seen: u32,
    /// `(recovered_at_s, journal_records)` per master recovery: the
    /// second element is every journal record written from the start of
    /// the run to the recovery ([`JobStats::journal_records`] then).
    pub jobtracker_recoveries: Vec<(f64, u64)>,
    /// Falsely-expired trackers re-admitted after a partition healed.
    pub nodes_readmitted: u32,
    /// Heartbeats that never reached the JobTracker (partition window or
    /// the per-beat loss die).
    pub heartbeats_lost: u32,
    /// The master's state transitions over the run — attempts granted,
    /// maps completed, attempt failures (charged or not), completed maps
    /// invalidated, trackers declared dead and re-admitted, reduces
    /// completed: one record each in a write-ahead journal of the master.
    /// The simulator counts them and keeps no log.
    pub journal_records: u64,
    /// `journal_records / 256`: the snapshots a journal that compacts
    /// every 256 records would have taken.
    pub journal_snapshots: u64,
    /// Whether the job aborted (a task exhausted `max_attempts`, or no
    /// live node remained to finish the work).
    pub aborted: bool,
    reduces_finished: Vec<(u32, f64)>,
    reduce_done_set: HashSet<u32>,
}

impl JobStats {
    pub(crate) fn new(name: &str) -> Self {
        JobStats {
            name: name.to_string(),
            makespan_s: 0.0,
            map_phase_s: 0.0,
            gpu_busy_s: 0.0,
            max_speedup_seen: 1.0,
            node_local: 0,
            rack_local: 0,
            off_rack: 0,
            tasks: Vec::new(),
            failed_attempts: 0,
            re_executed: 0,
            speculative_attempts: 0,
            speculative_wasted_s: 0.0,
            wasted_work_s: 0.0,
            nodes_lost: 0,
            node_loss_detected: Vec::new(),
            gpu_faults_seen: 0,
            checksum_failures: 0,
            reduce_attempts_lost: 0,
            jobtracker_crashes_seen: 0,
            jobtracker_recoveries: Vec::new(),
            nodes_readmitted: 0,
            heartbeats_lost: 0,
            journal_records: 0,
            journal_snapshots: 0,
            aborted: false,
            reduces_finished: Vec::new(),
            reduce_done_set: HashSet::new(),
        }
    }

    pub(crate) fn record_locality(&mut self, l: Locality) {
        match l {
            Locality::NodeLocal => self.node_local += 1,
            Locality::RackLocal => self.rack_local += 1,
            Locality::OffRack => self.off_rack += 1,
        }
    }

    /// Record the start of an attempt; returns its record index.
    pub(crate) fn start_attempt(
        &mut self,
        id: u32,
        attempt: u32,
        node: u32,
        device: Device,
        speculative: bool,
        t: f64,
    ) -> usize {
        self.tasks.push(TaskRecord {
            id,
            attempt,
            node,
            device,
            speculative,
            start_s: t,
            end_s: None,
            outcome: Outcome::Running,
        });
        self.tasks.len() - 1
    }

    /// Record the end of an attempt (by record index).
    pub(crate) fn finish_attempt(&mut self, rec: usize, t: f64, outcome: Outcome) {
        let r = &mut self.tasks[rec];
        r.end_s = Some(t);
        r.outcome = outcome;
        let elapsed = (t - r.start_s).max(0.0);
        match outcome {
            Outcome::Success | Outcome::Running => {}
            Outcome::SpeculativeKilled => {
                self.wasted_work_s += elapsed;
                if r.speculative {
                    self.speculative_wasted_s += elapsed;
                }
            }
            Outcome::NodeLost => self.wasted_work_s += elapsed,
            Outcome::TransientFail | Outcome::ChecksumFail | Outcome::GpuFault => {
                self.failed_attempts += 1;
                self.wasted_work_s += elapsed;
            }
        }
    }

    pub(crate) fn reduce_done(&self, id: u32) -> bool {
        self.reduce_done_set.contains(&id)
    }

    pub(crate) fn mark_reduce_done(&mut self, id: u32, t: f64) -> bool {
        if self.reduce_done_set.insert(id) {
            self.reduces_finished.push((id, t));
            true
        } else {
            false
        }
    }

    /// Completed map tasks (unique tasks with a winning attempt).
    pub fn completed_maps(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.succeeded())
            .map(|t| t.id)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Completed reduce tasks.
    pub fn completed_reduces(&self) -> usize {
        self.reduces_finished.len()
    }

    /// Total map attempts started.
    pub fn map_attempts(&self) -> usize {
        self.tasks.len()
    }

    /// Map attempts beyond each task's first (the retry/recovery volume).
    pub fn extra_attempts(&self) -> usize {
        let unique: HashSet<u32> = self.tasks.iter().map(|t| t.id).collect();
        self.tasks.len() - unique.len()
    }

    /// Winning map attempts that ran on a GPU.
    pub fn gpu_tasks(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.device == Device::Gpu && t.succeeded())
            .count()
    }

    /// Flatten the run into a metrics-registry snapshot (the third
    /// observability exporter, next to the Chrome trace and the kernel
    /// profile). Keys are stable and sorted, so the JSON is deterministic.
    pub fn metrics(&self) -> hetero_trace::MetricsRegistry {
        let mut m = hetero_trace::MetricsRegistry::new();
        m.set("job.name", self.name.clone());
        m.set("job.makespan_s", self.makespan_s);
        m.set("job.map_phase_s", self.map_phase_s);
        m.set("job.aborted", u64::from(self.aborted));
        m.set("maps.completed", self.completed_maps() as u64);
        m.set("maps.attempts", self.map_attempts() as u64);
        m.set("maps.extra_attempts", self.extra_attempts() as u64);
        m.set("maps.gpu", self.gpu_tasks() as u64);
        m.set("maps.cpu", self.cpu_tasks() as u64);
        m.set("reduces.completed", self.completed_reduces() as u64);
        m.set("locality.node_local", u64::from(self.node_local));
        m.set("locality.rack_local", u64::from(self.rack_local));
        m.set("locality.off_rack", u64::from(self.off_rack));
        m.set("gpu.busy_s", self.gpu_busy_s);
        m.set("gpu.max_speedup_seen", self.max_speedup_seen);
        m.set("faults.failed_attempts", u64::from(self.failed_attempts));
        m.set("faults.re_executed", u64::from(self.re_executed));
        m.set("faults.nodes_lost", u64::from(self.nodes_lost));
        m.set("faults.gpu_faults_seen", u64::from(self.gpu_faults_seen));
        m.set(
            "faults.checksum_failures",
            u64::from(self.checksum_failures),
        );
        m.set(
            "faults.reduce_attempts_lost",
            u64::from(self.reduce_attempts_lost),
        );
        m.set(
            "faults.jobtracker_crashes",
            u64::from(self.jobtracker_crashes_seen),
        );
        m.set(
            "faults.jobtracker_recoveries",
            self.jobtracker_recoveries.len() as u64,
        );
        m.set("faults.nodes_readmitted", u64::from(self.nodes_readmitted));
        m.set("faults.heartbeats_lost", u64::from(self.heartbeats_lost));
        m.set("journal.records", self.journal_records);
        m.set("journal.snapshots", self.journal_snapshots);
        m.set("speculation.attempts", u64::from(self.speculative_attempts));
        m.set("speculation.wasted_s", self.speculative_wasted_s);
        m.set("waste.total_s", self.wasted_work_s);
        m
    }

    /// Canonical deterministic rendering of the full run record: every
    /// field, floats by their exact bits, set-valued state in insertion
    /// order. Two runs are bit-identical iff their fingerprints are
    /// byte-equal — unlike `Debug`, which leaks `HashSet` iteration
    /// order (randomized per instance by `RandomState`).
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "name={} makespan={:016x} map_phase={:016x} gpu_busy={:016x} max_speedup={:016x} \
             locality={}/{}/{} failed={} re_exec={} spec_attempts={} spec_wasted={:016x} \
             wasted={:016x} nodes_lost={} loss_detected={:?} gpu_faults={} checksum={} \
             reduce_lost={} jt_crashes={} jt_recoveries={:?} readmitted={} hb_lost={} \
             journal={}/{} aborted={}",
            self.name,
            self.makespan_s.to_bits(),
            self.map_phase_s.to_bits(),
            self.gpu_busy_s.to_bits(),
            self.max_speedup_seen.to_bits(),
            self.node_local,
            self.rack_local,
            self.off_rack,
            self.failed_attempts,
            self.re_executed,
            self.speculative_attempts,
            self.speculative_wasted_s.to_bits(),
            self.wasted_work_s.to_bits(),
            self.nodes_lost,
            self.node_loss_detected,
            self.gpu_faults_seen,
            self.checksum_failures,
            self.reduce_attempts_lost,
            self.jobtracker_crashes_seen,
            self.jobtracker_recoveries,
            self.nodes_readmitted,
            self.heartbeats_lost,
            self.journal_records,
            self.journal_snapshots,
            self.aborted,
        );
        for t in &self.tasks {
            let _ = write!(
                s,
                "\n task={} a={} n={} d={:?} spec={} start={:016x} end={:?} out={:?}",
                t.id,
                t.attempt,
                t.node,
                t.device,
                t.speculative,
                t.start_s.to_bits(),
                t.end_s.map(f64::to_bits),
                t.outcome,
            );
        }
        for (id, t) in &self.reduces_finished {
            let _ = write!(s, "\n reduce={id} t={:016x}", t.to_bits());
        }
        s
    }

    /// Total slot-seconds consumed by map attempts (winning or not) —
    /// the service layer's currency for per-tenant usage accounting.
    /// Attempts still running when the job ended contribute nothing.
    pub fn busy_slot_seconds(&self) -> f64 {
        self.tasks
            .iter()
            .filter_map(|t| t.end_s.map(|e| (e - t.start_s).max(0.0)))
            .sum()
    }

    /// Winning map attempts that ran on CPU slots.
    pub fn cpu_tasks(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.device == Device::Cpu && t.succeeded())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_lifecycle() {
        let mut s = JobStats::new("t");
        let a = s.start_attempt(0, 0, 1, Device::Cpu, false, 0.0);
        let b = s.start_attempt(1, 0, 1, Device::Gpu, false, 0.0);
        assert_eq!(s.completed_maps(), 0);
        s.finish_attempt(a, 5.0, Outcome::Success);
        assert_eq!(s.completed_maps(), 1);
        assert_eq!(s.cpu_tasks(), 1);
        assert_eq!(s.gpu_tasks(), 0);
        s.finish_attempt(b, 2.0, Outcome::Success);
        assert_eq!(s.gpu_tasks(), 1);
    }

    #[test]
    fn end_s_is_none_until_finished() {
        let mut s = JobStats::new("t");
        let a = s.start_attempt(0, 0, 1, Device::Cpu, false, 1.0);
        assert_eq!(s.tasks[a].end_s, None);
        s.finish_attempt(a, 4.0, Outcome::Success);
        assert_eq!(s.tasks[a].end_s, Some(4.0));
    }

    #[test]
    fn failures_and_waste_accounting() {
        let mut s = JobStats::new("t");
        let a = s.start_attempt(0, 0, 1, Device::Cpu, false, 0.0);
        s.finish_attempt(a, 3.0, Outcome::TransientFail);
        let b = s.start_attempt(0, 1, 2, Device::Cpu, false, 3.0);
        s.finish_attempt(b, 9.0, Outcome::Success);
        // A speculative backup that lost.
        let c = s.start_attempt(1, 0, 1, Device::Cpu, false, 0.0);
        let d = s.start_attempt(1, 1, 2, Device::Cpu, true, 4.0);
        s.finish_attempt(c, 8.0, Outcome::Success);
        s.finish_attempt(d, 8.0, Outcome::SpeculativeKilled);
        assert_eq!(s.failed_attempts, 1);
        assert_eq!(s.completed_maps(), 2);
        assert_eq!(s.extra_attempts(), 2);
        assert!((s.wasted_work_s - 7.0).abs() < 1e-9);
        assert!((s.speculative_wasted_s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reduce_done_is_idempotent() {
        let mut s = JobStats::new("t");
        assert!(s.mark_reduce_done(3, 1.0));
        assert!(!s.mark_reduce_done(3, 2.0));
        assert_eq!(s.completed_reduces(), 1);
    }

    #[test]
    fn busy_slot_seconds_sums_finished_attempts() {
        let mut s = JobStats::new("t");
        let a = s.start_attempt(0, 0, 1, Device::Cpu, false, 0.0);
        s.finish_attempt(a, 3.0, Outcome::Success);
        let b = s.start_attempt(1, 0, 2, Device::Gpu, false, 1.0);
        s.finish_attempt(b, 2.5, Outcome::TransientFail);
        // Still-running attempt: excluded.
        s.start_attempt(2, 0, 3, Device::Cpu, false, 2.0);
        assert!((s.busy_slot_seconds() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn locality_counters() {
        let mut s = JobStats::new("t");
        s.record_locality(Locality::NodeLocal);
        s.record_locality(Locality::NodeLocal);
        s.record_locality(Locality::OffRack);
        assert_eq!((s.node_local, s.rack_local, s.off_rack), (2, 0, 1));
    }
}
