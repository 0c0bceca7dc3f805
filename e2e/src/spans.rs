//! In-memory span log for the traced rep.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each crate; nothing inside the crates is instrumented. A span's
//! *self time* is its duration minus the part of that interval its
//! children cover. Per-record decorator time is never one span per
//! record: it is accumulated and attached as one *busy child* per
//! enclosing span (busy ns + calls).

use crate::json::Value;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// What [`SpanLog::totals`] reports per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub dur_s: f64,
    pub self_s: f64,
    pub spans: u64,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The crate the time is attributed to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
    /// Accumulated busy time, not a measured interval: laid out from the
    /// parent's start, back to back with the parent's other busy
    /// children, so that self-time arithmetic sees it exactly once.
    busy: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Where each parent's next busy child starts.
    busy_cursor: HashMap<u32, u64>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            busy_cursor: HashMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a new span whose parent is the innermost open one.
    /// Returns the span id with `f`'s result, so counts and busy
    /// children can be attached afterwards.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut SpanLog) -> R,
    ) -> (u32, R) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
            busy: false,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        (id, r)
    }

    pub fn count(&mut self, id: u32, key: &'static str, v: u64) {
        self.spans[id as usize].counts.push((key, v));
    }

    /// Attach accumulated decorator time to `parent` as one child span.
    /// Busy time summed over several worker threads can exceed the
    /// parent's wall; self-time clips it to the parent.
    pub fn busy_child(
        &mut self,
        parent: u32,
        name: &'static str,
        layer: &'static str,
        busy_ns: u64,
        calls: u64,
    ) {
        let cursor = self
            .busy_cursor
            .entry(parent)
            .or_insert(self.spans[parent as usize].start_ns);
        let start_ns = *cursor;
        *cursor += busy_ns;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            layer,
            start_ns,
            end_ns: start_ns + busy_ns,
            counts: vec![("calls", calls)],
            busy: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of `p` not covered by the spans in `kids` (its children:
    /// they may overlap each other and are clipped to the parent).
    fn uncovered_ns(&self, p: &Span, kids: &[u32]) -> u64 {
        let mut kids: Vec<(u64, u64)> = kids
            .iter()
            .map(|&k| &self.spans[k as usize])
            .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = p.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        p.dur_ns() - covered
    }

    /// Self time of every span, indexed by id.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push(s.id);
            }
        }
        self.spans
            .iter()
            .map(|s| self.uncovered_ns(s, &children[s.id as usize]))
            .collect()
    }

    /// Summed duration and summed self time per span name, in seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.dur_s += s.dur_ns() as f64 * 1e-9;
            t.self_s += own[s.id as usize] as f64 * 1e-9;
            t.spans += 1;
        }
        out
    }

    /// Summed duration of the root spans, in seconds.
    pub fn roots_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    pub fn to_json(&self) -> Value {
        let own = self.self_times();
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj()
                        .with("id", u64::from(s.id))
                        .with(
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                        )
                        .with("name", s.name)
                        .with("layer", s.layer)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("self_ns", own[s.id as usize])
                        .with("accumulated", s.busy)
                        .with(
                            "counts",
                            Value::Obj(
                                s.counts
                                    .iter()
                                    .map(|(k, v)| (k.to_string(), Value::from(*v)))
                                    .collect(),
                            ),
                        )
                })
                .collect(),
        )
    }

    #[cfg(test)]
    fn push_raw(&mut self, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            layer: "test",
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
            busy: false,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SpanLog {
        fn self_ns(&self, id: u32) -> u64 {
            self.self_times()[id as usize]
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        let mut log = SpanLog::new();
        let root = log.push_raw(None, "root", 0, 100);
        let a = log.push_raw(Some(root), "a", 10, 40);
        log.push_raw(Some(a), "a1", 15, 25);
        log.push_raw(Some(root), "b", 50, 70);
        assert_eq!(log.self_ns(root), 100 - 30 - 20);
        assert_eq!(log.self_ns(a), 30 - 10);
        // A grandchild never reduces the grandparent twice.
        assert!((log.totals()["root"].self_s - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_cover_their_union() {
        let mut log = SpanLog::new();
        let root = log.push_raw(None, "root", 0, 100);
        log.push_raw(Some(root), "x", 10, 60);
        log.push_raw(Some(root), "y", 40, 80);
        log.push_raw(Some(root), "inside-x", 20, 30);
        assert_eq!(log.self_ns(root), 100 - 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut log = SpanLog::new();
        let root = log.push_raw(None, "root", 100, 200);
        log.push_raw(Some(root), "early", 50, 120);
        log.push_raw(Some(root), "late", 190, 400);
        assert_eq!(log.self_ns(root), 100 - 20 - 10);
    }

    #[test]
    fn busy_children_stack_back_to_back() {
        let mut log = SpanLog::new();
        let root = log.push_raw(None, "task", 1000, 2000);
        log.busy_child(root, "map", "cc", 300, 7);
        log.busy_child(root, "combine", "cc", 200, 3);
        let kids: Vec<(u64, u64)> = log.spans()[1..]
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        assert_eq!(kids, vec![(1000, 1300), (1300, 1500)]);
        assert_eq!(log.self_ns(root), 500);
        // Multi-thread busy time larger than the parent clips to zero.
        log.busy_child(root, "reduce", "apps", 5000, 1);
        assert_eq!(log.self_ns(root), 0);
    }

    #[test]
    fn scope_nests_and_measures() {
        let mut log = SpanLog::new();
        let (outer, inner) = log.scope("outer", "core", |log| {
            log.scope("inner", "runtime", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            })
            .0
        });
        assert_eq!(log.spans()[inner as usize].parent, Some(outer));
        assert!(log.spans()[inner as usize].dur_ns() >= 2_000_000);
        assert!(log.spans()[outer as usize].dur_ns() >= log.spans()[inner as usize].dur_ns());
        assert!((log.roots_s() - log.totals()["outer"].dur_s).abs() < 1e-12);
        crate::json::parse(&log.to_json().render()).unwrap();
    }
}
