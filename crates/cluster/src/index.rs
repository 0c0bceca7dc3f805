//! The production [`SchedIndex`]: every answer the event loop needs,
//! kept current incrementally so no scheduling decision scans the pending
//! list, the attempt table, or the node table. This is what makes 10k
//! nodes / 1M tasks simulate in seconds; [`crate::reference::ScanIndex`]
//! is the specification it must agree with, and in audited builds
//! [`Indexed::audit`] re-derives every structure here from the tables
//! after each event.

use crate::sim::{AttemptState, SchedIndex, Slot, Tables};
use hetero_hdfs::{Locality, NodeId};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// `seq_of` of a task that is not pending.
const NOT_PENDING: u32 = u32::MAX;

/// One `(seq, task)` entry of a view.
type Entry = (u32, u32);
/// One view of the pending queue: entries in `seq` order, appended at the
/// back and discarded from the front.
type View = VecDeque<Entry>;

/// The JobTracker's pending-map queue, indexed for amortized O(1)
/// locality-aware picks instead of the reference's full-queue scan.
///
/// Queue order is materialized as an increasing entry sequence number, and
/// the queue is FIFO by construction — a task only ever enters at the tail
/// — so every view of it is an append-only list in `seq` order. Three are
/// kept:
///
/// * `queue`   — every pending task (the off-rack pick and the FIFO head);
/// * `by_node` — per node, the pending tasks with a readable replica on
///   it (that node's node-local candidates);
/// * `by_rack` — per rack, the pending tasks with a readable replica in
///   it (the rack-local candidates for every node of the rack).
///
/// **Validity.** Removing a task touches no view: it clears `seq_of[task]`
/// and the task's entries go *stale*. An entry `(seq, task)` is valid iff
/// `seq_of[task] == seq` — and, in a rack view, iff the task still has a
/// [`Tables::live_replicas`] node in that rack. Crashes are permanent and a
/// requeue draws a fresh `seq`, so an entry only ever goes valid → stale:
/// a stale head can be popped for good, and "first task in queue order
/// satisfying X" is the first valid entry of the view for X. A crashed
/// node's own view is dropped whole by [`PendingIndex::node_crashed`];
/// nothing is pushed to it afterwards, so in a node view `seq` alone
/// decides.
///
/// **Compaction.** Views that nobody picks from (a rack that lost every
/// node, the queue itself while locality holds) keep their stale entries,
/// and every requeue draws a new `seq`. A push therefore first checks the
/// books: once stale entries are certain to outnumber valid ones
/// ([`PendingIndex::overgrown`]) — or `seq` is about to run out — all
/// views are rebuilt from the valid queue entries, renumbered from zero.
/// That keeps memory O(pending + views) and the rebuild amortized O(1) a
/// push.
///
/// `push`/`remove`/`pick` (and the trait methods forwarding to them) are
/// `#[inline]`: they run once per assignment, called from the event loop
/// in another module; left out of line they cost `des_tail_8k` about 4 %.
#[derive(Default)]
struct PendingIndex {
    next_seq: u32,
    /// Per task: its live entry sequence, [`NOT_PENDING`] when not queued.
    seq_of: Vec<u32>,
    /// Pending tasks (= valid `queue` entries).
    len: usize,
    /// Entries held by all views together, stale ones included.
    entries: usize,
    /// The most entries one push has appended: no pending task has more.
    width: usize,
    queue: View,
    by_node: Vec<View>,
    by_rack: Vec<View>,
}

/// Pop stale entries off the front of `view`; the first valid one stays
/// and its task is returned.
#[inline]
fn first_valid(view: &mut View, entries: &mut usize, valid: impl Fn(Entry) -> bool) -> Option<u32> {
    while let Some(&e) = view.front() {
        if valid(e) {
            return Some(e.1);
        }
        view.pop_front();
        *entries -= 1;
    }
    None
}

impl PendingIndex {
    fn new(num_tasks: usize, num_nodes: u32, num_racks: u32) -> Self {
        PendingIndex {
            seq_of: vec![NOT_PENDING; num_tasks],
            by_node: (0..num_nodes).map(|_| View::new()).collect(),
            by_rack: (0..num_racks).map(|_| View::new()).collect(),
            ..PendingIndex::default()
        }
    }

    /// Whether the views certainly hold more stale entries than valid
    /// ones: `len * width` bounds the valid ones, and the allowance of
    /// one entry per view keeps a rebuild (which visits every view and
    /// every entry) within a constant factor of the stale entries it
    /// discards.
    fn overgrown(&self) -> bool {
        self.entries > 2 * self.len * self.width + 1 + self.by_node.len() + self.by_rack.len()
    }

    /// Append `task` at the queue tail, in the view of every node and
    /// rack that holds a live replica of it.
    #[inline]
    fn push(&mut self, task: u32, t: &Tables) {
        debug_assert!(
            self.seq_of[task as usize] == NOT_PENDING,
            "double-queued task"
        );
        if self.next_seq == NOT_PENDING || self.overgrown() {
            self.compact(t);
        }
        self.append(task, t);
    }

    fn append(&mut self, task: u32, t: &Tables) {
        let e = (self.next_seq, task);
        self.next_seq += 1;
        self.seq_of[task as usize] = e.0;
        self.len += 1;
        self.queue.push_back(e);
        let mut appended = 1;
        for r in t.live_replicas(task) {
            let rack = t.topo.rack_of(r).0 as usize;
            for view in [&mut self.by_node[r.0 as usize], &mut self.by_rack[rack]] {
                // A replica list can name a node twice and commonly
                // names a rack twice; `e` is the newest entry anywhere,
                // so a repeat shows as the view's last entry.
                if view.back() != Some(&e) {
                    view.push_back(e);
                    appended += 1;
                }
            }
        }
        self.entries += appended;
        self.width = self.width.max(appended);
    }

    /// Queue `tasks`, in order, into views sized for them first. An
    /// initial queue is the largest these books ever get: grown by
    /// doubling, the views' slack and the copies left behind would set
    /// the run's memory peak.
    fn extend(&mut self, tasks: &[u32], t: &Tables) {
        // Per view (nodes, then racks): the entries `append` will give
        // it, and the last task counted — `append`'s dedup, on counts.
        let nodes = self.by_node.len();
        let mut sized = vec![(0usize, NOT_PENDING); nodes + self.by_rack.len()];
        for &task in tasks {
            for r in t.live_replicas(task) {
                for view in [r.0 as usize, nodes + t.topo.rack_of(r).0 as usize] {
                    let (n, last) = &mut sized[view];
                    if *last != task {
                        (*n, *last) = (*n + 1, task);
                    }
                }
            }
        }
        self.queue.reserve_exact(tasks.len());
        let views = self.by_node.iter_mut().chain(&mut self.by_rack);
        for (view, (n, _)) in views.zip(sized) {
            view.reserve_exact(n);
        }
        for &task in tasks {
            self.append(task, t);
        }
    }

    /// Rebuild every view from the valid queue entries, in their order,
    /// numbered from zero.
    fn compact(&mut self, t: &Tables) {
        let seq_of = &self.seq_of;
        let order: Vec<u32> = self
            .queue
            .iter()
            .filter(|&&(seq, task)| seq_of[task as usize] == seq)
            .map(|&(_, task)| task)
            .collect();
        self.queue.clear();
        self.by_node.iter_mut().for_each(View::clear);
        self.by_rack.iter_mut().for_each(View::clear);
        (self.next_seq, self.len, self.entries) = (0, 0, 0);
        self.extend(&order, t);
    }

    /// Remove `task` from the queue (claimed, or no longer runnable): its
    /// entries turn stale where they lie.
    #[inline]
    fn remove(&mut self, task: u32) {
        let seq = &mut self.seq_of[task as usize];
        if *seq != NOT_PENDING {
            *seq = NOT_PENDING;
            self.len -= 1;
        }
    }

    /// The locality-aware FCFS pick for `node`: its oldest node-local
    /// task, else the oldest task rack-local to it, else the queue head —
    /// the same task the reference scan returns. Panics if the queue is
    /// empty.
    #[inline]
    fn pick(&mut self, node: NodeId, t: &Tables) -> (u32, Locality) {
        let seq_of = &self.seq_of;
        let valid = |(seq, task): Entry| seq_of[task as usize] == seq;
        let entries = &mut self.entries;
        if let Some(task) = first_valid(&mut self.by_node[node.0 as usize], entries, valid) {
            return (task, Locality::NodeLocal);
        }
        // No pending task has a live replica on `node`, so whatever the
        // rack view yields is rack-local, not node-local.
        let rack = t.topo.rack_of(node);
        let in_rack =
            |e: Entry| valid(e) && t.live_replicas(e.1).any(|r| t.topo.rack_of(r) == rack);
        if let Some(task) = first_valid(&mut self.by_rack[rack.0 as usize], entries, in_rack) {
            return (task, Locality::RackLocal);
        }
        let task = first_valid(&mut self.queue, entries, valid).expect("pick from an empty queue");
        (task, Locality::OffRack)
    }

    /// Node `n` crashed: every replica it held is now unreadable. Its
    /// node-local view goes wholesale (and stays empty: pushes skip dead
    /// replicas); rack entries it alone kept alive fail the rack view's
    /// validity test from now on.
    fn node_crashed(&mut self, n: u32) {
        self.entries -= std::mem::take(&mut self.by_node[n as usize]).len();
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
    /// Free slots per [`Slot`] kind, each a short list in *descending*
    /// order: `grab` pops the lowest-numbered slot off the end, exactly
    /// like the reference's left-to-right busy-flag scan (slot identity
    /// matters for the trace). The GPU pool holds GPUs that are both idle
    /// and alive.
    free: [Vec<u32>; 3],
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
    /// order (attempt indices only grow, so push order is that order):
    /// dead-node reaping and GPU-fault victim lookup read these instead
    /// of scanning the whole attempt table.
    node_attempts: Vec<Vec<usize>>,
    /// Completed tasks whose winning map output lives on each node (the
    /// re-execution set when a tracker dies mid-shuffle), in completion
    /// order; [`SchedIndex::take_winners`] sorts.
    node_winners: Vec<Vec<u32>>,
    /// Lazy min-heap of TaskTracker expiry deadlines; entries go stale
    /// when a node heartbeats and are refreshed on pop.
    expiry: BinaryHeap<ExpiryEntry>,
}

/// Every slot of `n` that nothing on the tables occupies.
fn all_free(t: &Tables, n: usize) -> [Vec<u32>; 3] {
    let dead = &t.nodes[n].gpu_dead;
    [
        (0..t.cfg.map_slots_per_node).rev().collect(),
        (0..t.cfg.effective_gpus())
            .rev()
            .filter(|&g| !dead[g as usize])
            .collect(),
        (0..t.cfg.reduce_slots_per_node).rev().collect(),
    ]
}

/// Take `slot` out of a free list, if it is there.
fn occupy(free: &mut Vec<u32>, slot: u32) {
    free.retain(|&s| s != slot);
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
            node_attempts: vec![Vec::new(); num_nodes],
            node_winners: vec![Vec::new(); num_nodes],
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
            ix.node_attempts[a.node as usize].push(ai);
            if a.state == AttemptState::Running {
                occupy(
                    &mut ix.slots[a.node as usize].free[Slot::of(a.device) as usize],
                    a.slot,
                );
            }
        }
        for rr in &t.running_reduces {
            occupy(
                &mut ix.slots[rr.node as usize].free[Slot::Reduce as usize],
                rr.slot,
            );
        }
        let mut pending = Vec::new();
        for (task, ts) in t.tasks.iter().enumerate() {
            let task = task as u32;
            if ts.done {
                if let Some(w) = ts.winner_node {
                    ix.node_winners[w as usize].push(task);
                }
            } else if t.has_live(task) {
                ix.undone_live.insert(task);
            } else {
                pending.push(task);
            }
        }
        ix.pending.extend(&pending, t);
        ix
    }

    fn pending_len(&self) -> usize {
        self.pending.len
    }

    fn is_pending(&self, task: u32) -> bool {
        self.pending.seq_of[task as usize] != NOT_PENDING
    }

    #[inline]
    fn push_pending(&mut self, t: &Tables, task: u32) {
        self.pending.push(task, t);
    }

    #[inline]
    fn remove_pending(&mut self, task: u32) {
        self.pending.remove(task);
    }

    #[inline]
    fn pick(&mut self, t: &Tables, node: u32) -> (u32, Locality) {
        self.pending.pick(NodeId(node), t)
    }

    fn free(&self, kind: Slot, _t: &Tables, n: u32) -> u32 {
        self.slots[n as usize].free[kind as usize].len() as u32
    }

    fn grab(&mut self, kind: Slot, _t: &Tables, n: u32) -> u32 {
        self.slots[n as usize].free[kind as usize]
            .pop()
            .expect("grab with no free slot")
    }

    fn release(&mut self, kind: Slot, n: u32, slot: u32) {
        let free = &mut self.slots[n as usize].free[kind as usize];
        // Descending order; releasing a slot that is already free (the
        // set this list replaces absorbed that) changes nothing.
        if let Err(at) = free.binary_search_by(|s| slot.cmp(s)) {
            free.insert(at, slot);
        }
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
        self.node_attempts[n as usize].clone()
    }

    fn take_winners(&mut self, _t: &Tables, n: u32) -> Vec<u32> {
        let mut winners = std::mem::take(&mut self.node_winners[n as usize]);
        winners.sort_unstable();
        winners
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
        self.pending.node_crashed(n);
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
        occupy(&mut slots.free[Slot::Gpu as usize], g);
        slots.gpu_live -= 1;
        if t.nodes[n as usize].usable() {
            self.cluster_live_gpus -= 1;
        }
    }

    fn attempt_started(&mut self, task: u32, n: u32, aidx: usize) {
        self.node_attempts[n as usize].push(aidx);
        self.undone_live.insert(task);
    }

    fn attempt_ended(&mut self, n: u32, aidx: usize) {
        let live = &mut self.node_attempts[n as usize];
        if let Some(at) = live.iter().position(|&ai| ai == aidx) {
            live.remove(at);
        }
    }

    fn task_won(&mut self, task: u32, n: u32) {
        self.undone_live.remove(&task);
        self.node_winners[n as usize].push(task);
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
                        occupy(&mut truth[Slot::of(a.device) as usize], a.slot);
                    }
                }
                for rr in t.running_reduces.iter().filter(|rr| rr.node as usize == n) {
                    occupy(&mut truth[Slot::Reduce as usize], rr.slot);
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

        // Per-node live-attempt lists — one pass over the attempt table
        // builds every node's ground truth, in attempt order.
        let mut attempts_truth: Vec<Vec<usize>> = vec![Vec::new(); t.nodes.len()];
        for (ai, a) in t.attempts.iter().enumerate() {
            if a.live() {
                attempts_truth[a.node as usize].push(ai);
            }
        }
        for (n, list) in self.node_attempts.iter().enumerate() {
            check(*list == attempts_truth[n], ctx, || {
                format!(
                    "node {n}: node_attempts {list:?} != {:?}",
                    attempts_truth[n]
                )
            });
        }

        // Winner placement (compared in task order, as `take_winners`
        // hands it out) and the speculation pool.
        let mut winners_truth: Vec<Vec<u32>> = vec![Vec::new(); t.nodes.len()];
        for (task, ts) in t.tasks.iter().enumerate() {
            if let (true, Some(w)) = (ts.done, ts.winner_node) {
                winners_truth[w as usize].push(task as u32);
            }
        }
        for (n, nw) in self.node_winners.iter().enumerate() {
            let mut nw = nw.clone();
            nw.sort_unstable();
            check(nw == winners_truth[n], ctx, || {
                format!("node {n}: node_winners {nw:?} != {:?}", winners_truth[n])
            });
        }
        let undone_truth: BTreeSet<u32> = (0..t.tasks.len() as u32)
            .filter(|&task| !t.tasks[task as usize].done && t.has_live(task))
            .collect();
        check(self.undone_live == undone_truth, ctx, || {
            format!("undone_live {:?} != {undone_truth:?}", self.undone_live)
        });

        // The pending views: the valid entries of each, in order, against
        // a recomputation from queue order — one pass over the valid
        // queue entries × live replicas builds every view's ground truth.
        let p = &self.pending;
        let valid = |&(seq, task): &Entry| p.seq_of[task as usize] == seq;
        let order: Vec<Entry> = p.queue.iter().copied().filter(valid).collect();
        check(order.windows(2).all(|w| w[0].0 < w[1].0), ctx, || {
            format!("pending.queue is not in seq order: {order:?}")
        });
        let queued = p.seq_of.iter().filter(|&&s| s != NOT_PENDING).count();
        check(order.len() == queued && p.len == queued, ctx, || {
            format!(
                "{queued} tasks hold a seq, {} valid queue entries, len {}",
                order.len(),
                p.len
            )
        });
        let mut by_node_truth: Vec<Vec<Entry>> = vec![Vec::new(); p.by_node.len()];
        let mut by_rack_truth: Vec<Vec<Entry>> = vec![Vec::new(); p.by_rack.len()];
        for &e in &order {
            for rep in t.live_replicas(e.1) {
                let rack = t.topo.rack_of(rep).0 as usize;
                for truth in [&mut by_node_truth[rep.0 as usize], &mut by_rack_truth[rack]] {
                    if truth.last() != Some(&e) {
                        truth.push(e);
                    }
                }
            }
        }
        for (n, view) in p.by_node.iter().enumerate() {
            let view: Vec<Entry> = view.iter().copied().filter(valid).collect();
            check(view == by_node_truth[n], ctx, || {
                format!("pending.by_node[{n}] {view:?} != {:?}", by_node_truth[n])
            });
        }
        for (r, view) in p.by_rack.iter().enumerate() {
            let in_rack = |e: &Entry| {
                valid(e)
                    && t.live_replicas(e.1)
                        .any(|rep| t.topo.rack_of(rep).0 as usize == r)
            };
            let view: Vec<Entry> = view.iter().copied().filter(in_rack).collect();
            check(view == by_rack_truth[r], ctx, || {
                format!("pending.by_rack[{r}] {view:?} != {:?}", by_rack_truth[r])
            });
        }
        let held = p.queue.len()
            + p.by_node.iter().map(View::len).sum::<usize>()
            + p.by_rack.iter().map(View::len).sum::<usize>();
        check(p.entries == held, ctx, || {
            format!("pending.entries {} != {held} held", p.entries)
        });

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, Scheduler};
    use crate::job::JobSpec;
    use crate::reference::ScanIndex;
    use crate::sim::mix64;

    fn cluster(nodes: u32, nodes_per_rack: u32) -> ClusterConfig {
        let mut cfg = ClusterConfig::small(nodes, Scheduler::TailScheduling);
        cfg.nodes_per_rack = nodes_per_rack;
        cfg
    }

    /// Drive [`Indexed`] and the model — [`ScanIndex`], a plain `Vec` in
    /// queue order answered by front-to-back scans — through the same
    /// seeded sequence of pick+remove / requeue / node crash, starting
    /// from every task queued. Returns how often the views were compacted.
    fn run_against_model(seed: u64, cfg: &ClusterConfig, job: &JobSpec, steps: u32) -> u32 {
        let mut t = Tables::new(cfg, job);
        let (mut ix, mut model) = (Indexed::build(&t), ScanIndex::build(&t));
        let mut idle: Vec<u32> = Vec::new(); // removed, free to requeue
        let (mut rng, mut compactions) = (seed, 0);
        for step in 0..steps {
            rng = mix64(rng);
            let (op, arg) = (rng % 16, (rng >> 8) as usize);
            let alive: Vec<u32> = (0..cfg.num_slaves)
                .filter(|&n| t.nodes[n as usize].alive)
                .collect();
            let seq_before = ix.pending.next_seq;
            if op < 8 && model.pending_len() > 0 {
                let node = alive[arg % alive.len()];
                let (task, loc) = ix.pick(&t, node);
                assert_eq!(
                    (task, loc),
                    model.pick(&t, node),
                    "seed {seed} step {step}: pick for node {node}"
                );
                ix.remove_pending(task);
                model.remove_pending(task);
                if op == 0 {
                    // `assign_maps` finding no CPU slot after all.
                    ix.push_pending(&t, task);
                    model.push_pending(&t, task);
                } else {
                    idle.push(task);
                }
            } else if op < 15 && !idle.is_empty() {
                let task = idle.swap_remove(arg % idle.len());
                ix.push_pending(&t, task);
                model.push_pending(&t, task);
            } else if op == 15 && alive.len() > 1 {
                let n = alive[arg % alive.len()];
                t.nodes[n as usize].alive = false;
                ix.node_crashed(&t, n);
                model.node_crashed(&t, n);
            }
            compactions += u32::from(ix.pending.next_seq < seq_before);
            assert_eq!(ix.pending_len(), model.pending_len(), "step {step}");
            for task in 0..job.maps.len() as u32 {
                assert_eq!(ix.is_pending(task), model.is_pending(task), "task {task}");
            }
            #[cfg(any(debug_assertions, feature = "audit"))]
            ix.audit(&t, &format!("seed {seed} step {step}"));
        }
        // Drain: the rest of the queue comes out in the model's order.
        while model.pending_len() > 0 {
            let node = (0..cfg.num_slaves)
                .find(|&n| t.nodes[n as usize].alive)
                .expect("one node is kept alive");
            let (task, loc) = ix.pick(&t, node);
            assert_eq!((task, loc), model.pick(&t, node), "seed {seed} drain");
            ix.remove_pending(task);
            model.remove_pending(task);
        }
        assert_eq!(ix.pending_len(), 0);
        compactions
    }

    #[test]
    fn every_pick_equals_a_front_to_back_scan_of_a_plain_vec() {
        // (nodes, nodes per rack, tasks, replication, nodes the job's
        // replicas are spread over).
        let shapes = [
            (8, 4, 40, 3, 8),   // replicas i, i+7, i+6: two in one rack
            (16, 4, 60, 3, 16), // three racks a task, crashes thin them out
            (9, 4, 30, 3, 7),   // all three replicas on one node (i % 7)
            (4, 2, 12, 2, 1),   // every replica on node 0
            (5, 1, 25, 2, 5),   // every node its own rack
            (6, 8, 20, 1, 6),   // one rack, replication 1
        ];
        let mut compactions = 0;
        for (i, &(nodes, per_rack, tasks, repl, spread)) in shapes.iter().enumerate() {
            let cfg = cluster(nodes, per_rack);
            let job = JobSpec::uniform("model", tasks, spread, repl, 1.0, 1.0);
            for seed in 0..6 {
                compactions += run_against_model(seed * 31 + i as u64, &cfg, &job, 700);
            }
        }
        assert!(compactions > 0, "no sequence exercised the compaction");
    }

    /// The queue discipline the FIFO views must keep: a requeued task
    /// goes *behind* tasks queued after its first entry, whose stale
    /// twin still sits in front of them.
    #[test]
    fn a_requeued_task_goes_behind_tasks_queued_after_its_first_entry() {
        let cfg = cluster(1, 1);
        let job = JobSpec::uniform("fifo", 3, 1, 1, 1.0, 1.0);
        let t = Tables::new(&cfg, &job);
        let mut ix = Indexed::build(&t);
        let take = |ix: &mut Indexed| {
            let (task, loc) = ix.pick(&t, 0);
            assert_eq!(loc, Locality::NodeLocal);
            ix.remove_pending(task);
            task
        };
        assert_eq!(take(&mut ix), 0);
        ix.push_pending(&t, 0);
        assert_eq!(ix.pending_len(), 3);
        // `seq` about to run out: the next push renumbers, order intact.
        ix.pending.next_seq = NOT_PENDING;
        assert_eq!(take(&mut ix), 1);
        ix.push_pending(&t, 1);
        assert!(ix.pending.next_seq <= 3, "seq was not renumbered");
        assert_eq!([take(&mut ix), take(&mut ix), take(&mut ix)], [2, 0, 1]);
        assert_eq!(ix.pending_len(), 0);
    }

    /// Requeue churn — `assign_maps`' "no CPU slot after all: requeue at
    /// the back" pushes without making progress, every heartbeat — must
    /// not grow the books: over 10⁶ rounds on a fixed live set the views
    /// never hold more than twice the live entries plus one per view.
    #[test]
    fn requeue_churn_keeps_the_views_within_twice_the_live_entries() {
        // Every node its own rack, three distinct replicas a task: each
        // pending task has exactly 1 + 3 + 3 entries.
        let (nodes, tasks) = (16u32, 64u32);
        let cfg = cluster(nodes, 1);
        let job = JobSpec::uniform("churn", tasks, nodes, 3, 1.0, 1.0);
        let t = Tables::new(&cfg, &job);
        let mut p = PendingIndex::new(tasks as usize, nodes, nodes);
        for task in 0..tasks {
            p.push(task, &t);
        }
        let live = p.entries;
        assert_eq!(live, tasks as usize * 7);
        let views = 1 + 2 * nodes as usize;
        let mut peak = 0;
        for round in 0..1_000_000u32 {
            // Only the first four nodes ever ask: the other views, and
            // mostly the queue, are never consumed from the front.
            let (task, _) = p.pick(NodeId(round % 4), &t);
            p.remove(task);
            p.push(task, &t);
            peak = peak.max(p.entries);
        }
        assert_eq!(p.len, tasks as usize);
        assert!(
            peak <= 2 * live + views,
            "views peaked at {peak} entries for {live} live ones"
        );
        assert!(peak > live, "the churn never left a stale entry behind");
    }
}
