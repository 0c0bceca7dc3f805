//! The **scan-based scheduler index** — the executable specification of
//! [`SchedIndex`]. There is one event loop ([`crate::sim`]); this module
//! only supplies the naive way to answer its questions: walk the whole
//! pending list, the whole attempt table, the whole task table or every
//! node, every time. [`simulate_reference`] runs the shared loop over
//! these scans, and the differential suites require every `JobStats`
//! field, per-task `(id, attempt, node, outcome)` tuple and trace JSON
//! byte to match [`crate::sim::simulate`], which runs it over the
//! incremental structures of `crate::index`. What that comparison can
//! catch is exactly an index that drifts from a scan; the event handlers
//! themselves exist once and are covered by the auditor, the recovery and
//! invariant suites and the figure tests.
//!
//! It is kept runnable (not `#[cfg(test)]`) so `hetero-bench`'s `chaos`
//! sweep can compare every faulted schedule against it and `micro` can
//! record the indexed-vs-scan DES throughput delta, but it is **not** a
//! production path: the scans are O(n·m) at the 10k-node / million-task
//! scale the indexed path targets. The only state here is what no table
//! records — the order of the pending queue and which slots are taken —
//! held in the plainest form (a `Vec` in queue order, busy flags).

use crate::config::ClusterConfig;
use crate::job::JobSpec;
use crate::sim::{run, AttemptState, SchedIndex, Slot, Tables};
use crate::stats::JobStats;
use hetero_hdfs::{Locality, NodeId};
use hetero_trace::Tracer;

/// Run `job` through the scan-based index; returns the job statistics.
/// Must stay bit-identical to [`crate::sim::simulate`].
pub fn simulate_reference(cfg: &ClusterConfig, job: &JobSpec) -> JobStats {
    simulate_reference_traced(cfg, job, &Tracer::off())
}

/// [`simulate_reference`], recording a simulated-time event log into
/// `tracer` — the byte-level comparison target for the indexed
/// scheduler's trace output.
pub fn simulate_reference_traced(cfg: &ClusterConfig, job: &JobSpec, tracer: &Tracer) -> JobStats {
    run::<ScanIndex>(cfg, job, tracer)
}

/// [`SchedIndex`] by full scans of the [`Tables`].
#[derive(Default)]
pub(crate) struct ScanIndex {
    /// Pending map tasks in queue order.
    pending: Vec<u32>,
    /// Busy flag per slot, by [`Slot`] kind then node (slot identity
    /// matters for the trace). A dead GPU's flag is left as it was.
    busy: [Vec<Vec<bool>>; 3],
}

impl ScanIndex {
    /// Free slots of `kind` on `n`, lowest-numbered first.
    fn free_slots<'s>(
        &'s self,
        kind: Slot,
        t: &'s Tables,
        n: u32,
    ) -> impl Iterator<Item = usize> + 's {
        let dead = &t.nodes[n as usize].gpu_dead;
        self.busy[kind as usize][n as usize]
            .iter()
            .enumerate()
            .filter(move |&(i, &taken)| !(taken || kind == Slot::Gpu && dead[i]))
            .map(|(i, _)| i)
    }
}

impl SchedIndex for ScanIndex {
    fn build(t: &Tables) -> Self {
        let flags = |slots: u32| vec![vec![false; slots as usize]; t.nodes.len()];
        let mut busy = [
            flags(t.cfg.map_slots_per_node),
            flags(t.cfg.effective_gpus()),
            flags(t.cfg.reduce_slots_per_node),
        ];
        for a in &t.attempts {
            if a.state == AttemptState::Running {
                busy[Slot::of(a.device) as usize][a.node as usize][a.slot as usize] = true;
            }
        }
        for rr in &t.running_reduces {
            busy[Slot::Reduce as usize][rr.node as usize][rr.slot as usize] = true;
        }
        ScanIndex {
            pending: (0..t.tasks.len() as u32)
                .filter(|&task| !t.tasks[task as usize].done && !t.has_live(task))
                .collect(),
            busy,
        }
    }

    fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn is_pending(&self, task: u32) -> bool {
        self.pending.contains(&task)
    }

    fn push_pending(&mut self, _t: &Tables, task: u32) {
        self.pending.push(task);
    }

    fn remove_pending(&mut self, task: u32) {
        if let Some(i) = self.pending.iter().position(|&p| p == task) {
            self.pending.remove(i);
        }
    }

    fn pick(&mut self, t: &Tables, node: u32) -> (u32, Locality) {
        let mut rack_pick: Option<u32> = None;
        let mut live_replicas: Vec<NodeId> = Vec::new();
        for &task in &self.pending {
            live_replicas.clear();
            live_replicas.extend(t.live_replicas(task));
            match t.topo.locality(NodeId(node), &live_replicas) {
                Locality::NodeLocal => return (task, Locality::NodeLocal),
                Locality::RackLocal if rack_pick.is_none() => rack_pick = Some(task),
                _ => {}
            }
        }
        match rack_pick {
            Some(task) => (task, Locality::RackLocal),
            None => (self.pending[0], Locality::OffRack),
        }
    }

    fn free(&self, kind: Slot, t: &Tables, n: u32) -> u32 {
        self.free_slots(kind, t, n).count() as u32
    }

    fn grab(&mut self, kind: Slot, t: &Tables, n: u32) -> u32 {
        let slot = self
            .free_slots(kind, t, n)
            .next()
            .expect("grab with no free slot");
        self.busy[kind as usize][n as usize][slot] = true;
        slot as u32
    }

    fn release(&mut self, kind: Slot, n: u32, slot: u32) {
        self.busy[kind as usize][n as usize][slot as usize] = false;
    }

    fn census(&self, t: &Tables) -> (u32, u32) {
        let usable = || t.nodes.iter().filter(|nd| nd.usable());
        (
            usable().count() as u32,
            usable().map(|nd| nd.live_gpus()).sum(),
        )
    }

    fn live_gpus(&self, t: &Tables, n: u32) -> u32 {
        t.nodes[n as usize].live_gpus()
    }

    fn expired(&mut self, t: &Tables, now: f64) -> Vec<u32> {
        (0..t.nodes.len() as u32)
            .filter(|&n| {
                let nd = &t.nodes[n as usize];
                !nd.dead_declared && now - nd.last_heartbeat > t.cfg.heartbeat_timeout_s
            })
            .collect()
    }

    fn live_attempts(&self, t: &Tables, n: u32) -> Vec<usize> {
        (0..t.attempts.len())
            .filter(|&ai| t.attempts[ai].node == n && t.attempts[ai].live())
            .collect()
    }

    fn take_winners(&mut self, t: &Tables, n: u32) -> Vec<u32> {
        (0..t.tasks.len() as u32)
            .filter(|&task| {
                let ts = &t.tasks[task as usize];
                ts.done && ts.winner_node == Some(n)
            })
            .collect()
    }

    fn spec_candidates(&self, t: &Tables) -> Vec<u32> {
        (0..t.tasks.len() as u32)
            .filter(|&task| !t.tasks[task as usize].done && t.has_live(task))
            .collect()
    }

    fn node_readmitted(&mut self, _t: &Tables, n: u32) {
        for pool in &mut self.busy {
            pool[n as usize].fill(false);
        }
    }
}
