//! The production [`SchedIndex`]: every answer the event loop needs,
//! kept current incrementally so no scheduling decision scans the pending
//! list, the attempt table, or the node table. This is what makes 10k
//! nodes / 1M tasks simulate in seconds; [`crate::reference::ScanIndex`]
//! is the specification it must agree with, and in audited builds
//! [`Indexed::audit`] re-derives every structure here from the tables
//! after each event.

use crate::sim::{AttemptState, SchedIndex, Slot, Tables};
use hetero_hdfs::{Locality, NodeId, Topology};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// The JobTracker's pending-map queue, indexed for O(log n) locality-aware
/// picks instead of the reference's full-queue scan.
///
/// Queue order is materialized as a monotonically increasing entry
/// sequence number, so "first task in queue order satisfying X" becomes
/// "smallest `(seq, task)` pair in the index for X". Three views are kept
/// in lockstep:
///
/// * `queue`   — every pending task in queue order (the off-rack pick and
///   the FIFO head);
/// * `by_node` — per node, the pending tasks with a readable replica on
///   it (that node's node-local candidates);
/// * `by_rack` — per rack, the pending tasks with a readable replica in
///   it (the rack-local candidates for every node of the rack).
///
/// Invariants: a task is in `queue` iff `seq_of[task]` is `Some`; its
/// `by_node` entries cover exactly its replicas on nodes that were alive
/// at enqueue time and have not crashed since; a `by_rack[r]` entry
/// exists iff the task still has a replica on an alive node in rack `r`.
/// Replicas on crashed nodes are unreadable, so [`PendingIndex::node_crashed`]
/// prunes them the moment the crash event fires — the same liveness
/// filter the reference scan applies on every pick, paid once per crash
/// instead of once per pick.
///
/// `push`/`remove`/`pick` (and the trait methods forwarding to them) are
/// `#[inline]`: they run once per assignment, called from the event loop
/// in another module; left out of line they cost `des_tail_8k` about 4 %.
#[derive(Default)]
struct PendingIndex {
    next_seq: u64,
    /// Per task: its live entry sequence, `None` when not pending.
    seq_of: Vec<Option<u64>>,
    queue: BTreeSet<(u64, u32)>,
    by_node: Vec<BTreeSet<(u64, u32)>>,
    by_rack: Vec<BTreeSet<(u64, u32)>>,
}

impl PendingIndex {
    fn new(num_tasks: usize, num_nodes: u32, num_racks: u32) -> Self {
        PendingIndex {
            next_seq: 0,
            seq_of: vec![None; num_tasks],
            queue: BTreeSet::new(),
            by_node: (0..num_nodes).map(|_| BTreeSet::new()).collect(),
            by_rack: (0..num_racks).map(|_| BTreeSet::new()).collect(),
        }
    }

    /// Append `task` at the queue tail. `live_replicas` must already be
    /// filtered to in-range, currently-alive nodes.
    #[inline]
    fn push(&mut self, task: u32, live_replicas: impl Iterator<Item = NodeId>, topo: &Topology) {
        debug_assert!(self.seq_of[task as usize].is_none(), "double-queued task");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seq_of[task as usize] = Some(seq);
        self.queue.insert((seq, task));
        for r in live_replicas {
            self.by_node[r.0 as usize].insert((seq, task));
            self.by_rack[topo.rack_of(r).0 as usize].insert((seq, task));
        }
    }

    /// Remove `task` from the queue (claimed, or no longer runnable).
    /// `replicas` may be the raw unfiltered replica list — removing an
    /// entry that was never inserted is a no-op.
    #[inline]
    fn remove(&mut self, task: u32, replicas: &[NodeId], topo: &Topology) {
        let Some(seq) = self.seq_of[task as usize].take() else {
            return;
        };
        self.queue.remove(&(seq, task));
        for &r in replicas {
            if (r.0 as usize) < self.by_node.len() {
                self.by_node[r.0 as usize].remove(&(seq, task));
                self.by_rack[topo.rack_of(r).0 as usize].remove(&(seq, task));
            }
        }
    }

    /// The locality-aware FCFS pick for `node`: its oldest node-local
    /// task, else the oldest task rack-local to it, else the queue head —
    /// the same task the reference scan returns, found in O(log n).
    /// Panics if the queue is empty.
    #[inline]
    fn pick(&self, node: NodeId, topo: &Topology) -> (u32, Locality) {
        if let Some(&(_, t)) = self.by_node[node.0 as usize].first() {
            return (t, Locality::NodeLocal);
        }
        if let Some(&(_, t)) = self.by_rack[topo.rack_of(node).0 as usize].first() {
            return (t, Locality::RackLocal);
        }
        let &(_, t) = self.queue.first().expect("pick from an empty queue");
        (t, Locality::OffRack)
    }

    /// Node `n` crashed: every replica it held is now unreadable. Its
    /// node-local index empties wholesale, and each of its pending tasks
    /// keeps its rack-local entry only while another alive replica
    /// remains in the rack (`t` already shows `n` as not alive).
    fn node_crashed(&mut self, n: u32, t: &Tables) {
        let entries = std::mem::take(&mut self.by_node[n as usize]);
        let rack = t.topo.rack_of(NodeId(n));
        for (seq, task) in entries {
            if !t.live_replicas(task).any(|r| t.topo.rack_of(r) == rack) {
                self.by_rack[rack.0 as usize].remove(&(seq, task));
            }
        }
    }
}

/// A TaskTracker expiry deadline in the lazy expiry heap (min-heap by
/// deadline, node id breaking ties).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ExpiryEntry {
    deadline: f64,
    node: u32,
}

impl Eq for ExpiryEntry {}
impl PartialOrd for ExpiryEntry {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for ExpiryEntry {
    fn cmp(&self, o: &Self) -> Ordering {
        // Min-heap: earliest deadline first.
        o.deadline
            .partial_cmp(&self.deadline)
            .unwrap_or(Ordering::Equal)
            .then(o.node.cmp(&self.node))
    }
}

/// One node's slot pools and GPU count.
struct NodeSlots {
    /// Free slots per [`Slot`] kind. Ascending order makes `grab` claim
    /// the lowest-numbered slot, exactly like the reference's
    /// left-to-right busy-flag scan (slot identity matters for the
    /// trace). The GPU pool holds GPUs that are both idle and alive.
    free: [BTreeSet<u32>; 3],
    /// Live GPU count, kept in sync with `gpu_dead`.
    gpu_live: u32,
}

/// The incremental index behind [`crate::sim::simulate`].
#[derive(Default)]
pub(crate) struct Indexed {
    pending: PendingIndex,
    slots: Vec<NodeSlots>,
    /// Nodes with `alive && !dead_declared`, maintained incrementally so
    /// heartbeats stop paying an O(nodes) census each.
    usable_nodes: u32,
    /// Live GPUs across usable nodes (the job-tail threshold input).
    cluster_live_gpus: u32,
    /// Tasks that are not done and have ≥1 live attempt — the speculation
    /// candidate pool, iterated in task order like the reference's full
    /// task-table scan.
    undone_live: BTreeSet<u32>,
    /// Live (queued or running) attempt indices per node, in attempt
    /// order: dead-node reaping and GPU-fault victim lookup read these
    /// instead of scanning the whole attempt table.
    node_attempts: Vec<BTreeSet<usize>>,
    /// Completed tasks whose winning map output lives on each node (the
    /// re-execution set when a tracker dies mid-shuffle).
    node_winners: Vec<BTreeSet<u32>>,
    /// Lazy min-heap of TaskTracker expiry deadlines; entries go stale
    /// when a node heartbeats and are refreshed on pop.
    expiry: BinaryHeap<ExpiryEntry>,
}

/// Every slot of `n` that nothing on the tables occupies.
fn all_free(t: &Tables, n: usize) -> [BTreeSet<u32>; 3] {
    let dead = &t.nodes[n].gpu_dead;
    [
        (0..t.cfg.map_slots_per_node).collect(),
        (0..t.cfg.effective_gpus())
            .filter(|&g| !dead[g as usize])
            .collect(),
        (0..t.cfg.reduce_slots_per_node).collect(),
    ]
}

fn expiry_entry(t: &Tables, n: u32) -> ExpiryEntry {
    ExpiryEntry {
        deadline: t.nodes[n as usize].last_heartbeat + t.cfg.heartbeat_timeout_s,
        node: n,
    }
}

impl SchedIndex for Indexed {
    fn build(t: &Tables) -> Self {
        let num_nodes = t.nodes.len();
        let mut ix = Indexed {
            pending: PendingIndex::new(t.tasks.len(), t.cfg.num_slaves, t.topo.num_racks()),
            slots: (0..num_nodes)
                .map(|n| NodeSlots {
                    free: all_free(t, n),
                    gpu_live: t.nodes[n].live_gpus(),
                })
                .collect(),
            usable_nodes: 0,
            cluster_live_gpus: 0,
            undone_live: BTreeSet::new(),
            node_attempts: vec![BTreeSet::new(); num_nodes],
            node_winners: vec![BTreeSet::new(); num_nodes],
            expiry: BinaryHeap::new(),
        };
        for (n, nd) in t.nodes.iter().enumerate() {
            if nd.usable() {
                ix.usable_nodes += 1;
                ix.cluster_live_gpus += ix.slots[n].gpu_live;
            }
            // Every tracker not yet declared dead is due one timeout past
            // its last heartbeat (time zero on a fresh cluster).
            if !nd.dead_declared {
                ix.expiry.push(expiry_entry(t, n as u32));
            }
        }
        // Queued GPU attempts hold no slot (they wait in the tracker-side
        // driver queue).
        for (ai, a) in t.attempts.iter().enumerate() {
            if !a.live() {
                continue;
            }
            ix.node_attempts[a.node as usize].insert(ai);
            if a.state == AttemptState::Running {
                ix.slots[a.node as usize].free[Slot::of(a.device) as usize].remove(&a.slot);
            }
        }
        for rr in &t.running_reduces {
            ix.slots[rr.node as usize].free[Slot::Reduce as usize].remove(&rr.slot);
        }
        for (task, ts) in t.tasks.iter().enumerate() {
            let task = task as u32;
            if ts.done {
                if let Some(w) = ts.winner_node {
                    ix.node_winners[w as usize].insert(task);
                }
            } else if t.has_live(task) {
                ix.undone_live.insert(task);
            } else {
                ix.push_pending(t, task);
            }
        }
        ix
    }

    fn pending_len(&self) -> usize {
        self.pending.queue.len()
    }

    fn is_pending(&self, task: u32) -> bool {
        self.pending.seq_of[task as usize].is_some()
    }

    #[inline]
    fn push_pending(&mut self, t: &Tables, task: u32) {
        self.pending.push(task, t.live_replicas(task), &t.topo);
    }

    #[inline]
    fn remove_pending(&mut self, t: &Tables, task: u32) {
        self.pending
            .remove(task, &t.job.maps[task as usize].replicas, &t.topo);
    }

    #[inline]
    fn pick(&self, t: &Tables, node: u32) -> (u32, Locality) {
        self.pending.pick(NodeId(node), &t.topo)
    }

    fn free(&self, kind: Slot, _t: &Tables, n: u32) -> u32 {
        self.slots[n as usize].free[kind as usize].len() as u32
    }

    fn grab(&mut self, kind: Slot, _t: &Tables, n: u32) -> u32 {
        self.slots[n as usize].free[kind as usize]
            .pop_first()
            .expect("grab with no free slot")
    }

    fn release(&mut self, kind: Slot, n: u32, slot: u32) {
        self.slots[n as usize].free[kind as usize].insert(slot);
    }

    fn census(&self, _t: &Tables) -> (u32, u32) {
        (self.usable_nodes, self.cluster_live_gpus)
    }

    fn live_gpus(&self, _t: &Tables, n: u32) -> u32 {
        self.slots[n as usize].gpu_live
    }

    fn expired(&mut self, t: &Tables, now: f64) -> Vec<u32> {
        // Lazy deadline heap instead of the reference's all-node sweep.
        // Entries go stale when a node heartbeats (its deadline moved
        // later); the heap is only a conservative candidate filter — the
        // reference's own expression decides, so floating-point rounding
        // between `last_heartbeat + timeout` (the key) and
        // `now - last_heartbeat > timeout` (the test) cannot change the
        // verdict. The half-heartbeat margin makes the filter inclusive.
        let horizon = now + 0.5 * t.cfg.heartbeat_s;
        let mut candidates: Vec<u32> = Vec::new();
        while self.expiry.peek().is_some_and(|e| e.deadline < horizon) {
            candidates.extend(self.expiry.pop().map(|e| e.node));
        }
        let mut expired: Vec<u32> = Vec::new();
        for n in candidates {
            let nd = &t.nodes[n as usize];
            if nd.dead_declared {
                continue; // entry retired with the node
            }
            if now - nd.last_heartbeat > t.cfg.heartbeat_timeout_s {
                expired.push(n);
            } else {
                // Stale or not-yet-expired: refresh from the current
                // heartbeat and re-arm (processed outside the pop loop,
                // so an unchanged deadline cannot spin).
                self.expiry.push(expiry_entry(t, n));
            }
        }
        // The reference sweeps nodes in ascending id order per tick.
        expired.sort_unstable();
        expired
    }

    fn live_attempts(&self, _t: &Tables, n: u32) -> Vec<usize> {
        self.node_attempts[n as usize].iter().copied().collect()
    }

    fn take_winners(&mut self, _t: &Tables, n: u32) -> Vec<u32> {
        std::mem::take(&mut self.node_winners[n as usize])
            .into_iter()
            .collect()
    }

    fn spec_candidates(&self, _t: &Tables) -> Vec<u32> {
        self.undone_live.iter().copied().collect()
    }

    fn node_readmitted(&mut self, t: &Tables, n: u32) {
        self.usable_nodes += 1;
        self.cluster_live_gpus += self.slots[n as usize].gpu_live;
        self.slots[n as usize].free = all_free(t, n as usize);
        // It just heartbeated: due one timeout from now.
        self.expiry.push(expiry_entry(t, n));
    }

    fn node_crashed(&mut self, t: &Tables, n: u32) {
        // The usable census excludes crashed-but-undeclared nodes
        // (`usable()` checks `alive`), so the aggregates drop here, not
        // at declaration time.
        if !t.nodes[n as usize].dead_declared {
            self.usable_nodes -= 1;
            self.cluster_live_gpus -= self.slots[n as usize].gpu_live;
        }
        self.pending.node_crashed(n, t);
    }

    fn node_declared_dead(&mut self, t: &Tables, n: u32) {
        // Declaration can precede the crash event (a still-alive node
        // falling silent); a crashed node already left the census.
        if t.nodes[n as usize].alive {
            self.usable_nodes -= 1;
            self.cluster_live_gpus -= self.slots[n as usize].gpu_live;
        }
    }

    fn gpu_died(&mut self, t: &Tables, n: u32, g: u32) {
        let slots = &mut self.slots[n as usize];
        slots.free[Slot::Gpu as usize].remove(&g);
        slots.gpu_live -= 1;
        if t.nodes[n as usize].usable() {
            self.cluster_live_gpus -= 1;
        }
    }

    fn attempt_started(&mut self, task: u32, n: u32, aidx: usize) {
        self.node_attempts[n as usize].insert(aidx);
        self.undone_live.insert(task);
    }

    fn attempt_ended(&mut self, n: u32, aidx: usize) {
        self.node_attempts[n as usize].remove(&aidx);
    }

    fn task_won(&mut self, task: u32, n: u32) {
        self.undone_live.remove(&task);
        self.node_winners[n as usize].insert(task);
    }

    fn task_idle(&mut self, task: u32) {
        self.undone_live.remove(&task);
    }

    #[cfg(any(debug_assertions, feature = "audit"))]
    const AUDITED: bool = true;

    /// Cross-check every incrementally-maintained structure against a
    /// ground-truth recomputation from the task/attempt/node tables.
    #[cfg(any(debug_assertions, feature = "audit"))]
    fn audit(&self, t: &Tables, ctx: &str) {
        use crate::audit::check;
        use std::collections::HashSet;

        // Node census and per-node slot free-lists.
        let mut usable = 0u32;
        let mut live_gpus = 0u32;
        for (n, nd) in t.nodes.iter().enumerate() {
            let gpu_live = self.slots[n].gpu_live;
            check(gpu_live == nd.live_gpus(), ctx, || {
                format!(
                    "node {n}: gpu_live {gpu_live} != live count {}",
                    nd.live_gpus()
                )
            });
            if nd.usable() {
                usable += 1;
                live_gpus += gpu_live;
                let mut truth = all_free(t, n);
                for &ai in &self.node_attempts[n] {
                    let a = &t.attempts[ai];
                    if a.state == AttemptState::Running {
                        truth[Slot::of(a.device) as usize].remove(&a.slot);
                    }
                }
                for rr in t.running_reduces.iter().filter(|rr| rr.node as usize == n) {
                    truth[Slot::Reduce as usize].remove(&rr.slot);
                }
                for kind in [Slot::Cpu, Slot::Gpu, Slot::Reduce] {
                    let (free, truth) = (&self.slots[n].free[kind as usize], &truth[kind as usize]);
                    check(free == truth, ctx, || {
                        format!("node {n}: free {kind:?} slots {free:?} != {truth:?}")
                    });
                }
            }
        }
        check(self.usable_nodes == usable, ctx, || {
            format!("usable_nodes {} != census {usable}", self.usable_nodes)
        });
        check(self.cluster_live_gpus == live_gpus, ctx, || {
            format!(
                "cluster_live_gpus {} != census {live_gpus}",
                self.cluster_live_gpus
            )
        });

        // Per-node live-attempt sets — one pass over the attempt table
        // builds every node's ground truth.
        let mut attempts_truth: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); t.nodes.len()];
        for (ai, a) in t.attempts.iter().enumerate() {
            if a.live() {
                attempts_truth[a.node as usize].insert(ai);
            }
        }
        for (n, set) in self.node_attempts.iter().enumerate() {
            check(*set == attempts_truth[n], ctx, || {
                format!("node {n}: node_attempts {set:?} != {:?}", attempts_truth[n])
            });
        }

        // Winner placement and the speculation pool.
        let mut winners_truth: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); t.nodes.len()];
        for (task, ts) in t.tasks.iter().enumerate() {
            if let (true, Some(w)) = (ts.done, ts.winner_node) {
                winners_truth[w as usize].insert(task as u32);
            }
        }
        for (n, nw) in self.node_winners.iter().enumerate() {
            check(*nw == winners_truth[n], ctx, || {
                format!("node {n}: node_winners {nw:?} != {:?}", winners_truth[n])
            });
        }
        let undone_truth: BTreeSet<u32> = (0..t.tasks.len() as u32)
            .filter(|&task| !t.tasks[task as usize].done && t.has_live(task))
            .collect();
        check(self.undone_live == undone_truth, ctx, || {
            format!("undone_live {:?} != {undone_truth:?}", self.undone_live)
        });

        // PendingIndex locality views against a fresh recomputation — one
        // pass over the queue × replicas builds every view's ground truth.
        let mut by_node_truth: Vec<BTreeSet<(u64, u32)>> =
            vec![BTreeSet::new(); self.pending.by_node.len()];
        let mut by_rack_truth: Vec<BTreeSet<(u64, u32)>> =
            vec![BTreeSet::new(); self.pending.by_rack.len()];
        for &(seq, task) in &self.pending.queue {
            for rep in t.live_replicas(task) {
                by_node_truth[rep.0 as usize].insert((seq, task));
                by_rack_truth[t.topo.rack_of(rep).0 as usize].insert((seq, task));
            }
        }
        for (n, view) in self.pending.by_node.iter().enumerate() {
            check(*view == by_node_truth[n], ctx, || {
                format!("pending.by_node[{n}] {view:?} != {:?}", by_node_truth[n])
            });
        }
        for (r, view) in self.pending.by_rack.iter().enumerate() {
            check(*view == by_rack_truth[r], ctx, || {
                format!("pending.by_rack[{r}] {view:?} != {:?}", by_rack_truth[r])
            });
        }
        for task in 0..t.tasks.len() as u32 {
            let in_queue = self.pending.seq_of[task as usize]
                .is_some_and(|s| self.pending.queue.contains(&(s, task)));
            check(in_queue == self.is_pending(task), ctx, || {
                format!("task {task}: seq_of/queue views disagree")
            });
        }

        // The lazy expiry heap must cover every not-yet-declared node, or
        // a silent tracker could escape detection forever.
        let covered: HashSet<u32> = self.expiry.iter().map(|e| e.node).collect();
        for (n, nd) in t.nodes.iter().enumerate() {
            if !nd.dead_declared {
                check(covered.contains(&(n as u32)), ctx, || {
                    format!("node {n} not covered by any expiry-heap entry")
                });
            }
        }
    }
}
