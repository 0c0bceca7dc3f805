//! The event sink threaded through the simulators.

use crate::event::{us, ArgValue, Category, EventKind, TraceEvent};
use std::sync::{Mutex, MutexGuard};

#[derive(Debug, Default)]
struct Inner {
    events: Vec<TraceEvent>,
    /// `(pid, name)` process-lane labels, in registration order.
    processes: Vec<(u32, String)>,
    /// `(pid, tid, name)` thread-lane labels, in registration order.
    lanes: Vec<(u32, u32, String)>,
}

/// A simulated-time event sink.
///
/// Cheap to consult: every record method first checks one boolean and
/// returns immediately when the tracer is disabled, so instrumented
/// hot paths pay (almost) nothing when tracing is off. All mutability is
/// interior (a `Mutex`), so a `&Tracer` can be threaded
/// through code that also holds `&mut` simulator state, and shared
/// across the worker pool's threads.
///
/// Timestamps are supplied by the **caller** in simulated seconds — the
/// tracer has no clock of its own, which is what keeps traces
/// deterministic and independent of host wall time.
///
/// The sink is `Send + Sync`: worker threads of the parallel task runner
/// may record into one tracer concurrently. For *byte-identical* trace
/// output across thread counts, though, the runner records nothing from
/// workers — it replays per-task results into the tracer from the merge
/// thread in task-index order (see `heterodoop::job_runner`), and the
/// service records on its caller's thread. Workers that do record
/// directly stay valid Chrome traces but may interleave differently run
/// to run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Lock the log. Every critical section here is a push, clone, clear
    /// or append on plain vectors — nothing that can panic while holding
    /// the guard — so the mutex is never poisoned.
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("trace log lock poisoned")
    }

    /// An enabled tracer with an empty event log.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A disabled tracer: every record call is a no-op early return.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.locked().events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Label a process lane (a simulated node, the JobTracker, …).
    pub fn name_process(&self, pid: u32, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        self.locked().processes.push((pid, name.into()));
    }

    /// Label a thread lane within a process (a CPU slot, a GPU, …).
    pub fn name_lane(&self, pid: u32, tid: u32, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        self.locked().lanes.push((pid, tid, name.into()));
    }

    /// Record a complete span `[start_s, end_s]` (simulated seconds).
    /// Spans may be emitted retroactively and in any order; viewers sort
    /// by timestamp.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        cat: Category,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        start_s: f64,
        end_s: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled {
            return;
        }
        let ts_us = us(start_s);
        let dur_us = us(end_s.max(start_s)) - ts_us;
        self.locked().events.push(TraceEvent {
            cat,
            name: name.into(),
            pid,
            tid,
            ts_us,
            kind: EventKind::Span { dur_us },
            args,
        });
    }

    /// Record an instant event at `t_s` (simulated seconds).
    pub fn instant(
        &self,
        cat: Category,
        name: impl Into<String>,
        pid: u32,
        tid: u32,
        t_s: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled {
            return;
        }
        self.locked().events.push(TraceEvent {
            cat,
            name: name.into(),
            pid,
            tid,
            ts_us: us(t_s),
            kind: EventKind::Instant,
            args,
        });
    }

    /// Snapshot of all recorded events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.locked().events.clone()
    }

    /// Drop all recorded events and lane labels (the tracer stays
    /// enabled/disabled as constructed).
    pub fn clear(&self) {
        let mut g = self.locked();
        g.events.clear();
        g.processes.clear();
        g.lanes.clear();
    }

    /// Export the full log in Chrome Trace Event format. See
    /// [`crate::chrome::to_chrome_json`].
    pub fn to_chrome_json(&self) -> String {
        let g = self.locked();
        crate::chrome::to_chrome_json(&g.events, &g.processes, &g.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        t.name_process(0, "n0");
        t.span(Category::Task, "a", 0, 0, 0.0, 1.0, vec![]);
        t.instant(Category::Fault, "b", 0, 0, 0.5, vec![]);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
    }

    #[test]
    fn span_clamps_negative_durations() {
        let t = Tracer::new();
        t.span(Category::Task, "a", 0, 0, 2.0, 1.0, vec![]);
        let e = &t.events()[0];
        assert_eq!(e.ts_us, 2_000_000);
        assert_eq!(e.kind, EventKind::Span { dur_us: 0 });
    }

    #[test]
    fn tracer_is_a_thread_safe_sink() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tracer>();
        // Concurrent recording from worker threads must not lose events.
        let t = Tracer::new();
        std::thread::scope(|s| {
            for w in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..100 {
                        t.instant(Category::Task, format!("w{w}e{i}"), 0, w, i as f64, vec![]);
                    }
                });
            }
        });
        assert_eq!(t.len(), 400);
    }

    #[test]
    fn events_keep_recording_order() {
        let t = Tracer::new();
        t.instant(Category::Task, "h1", 0, 0, 5.0, vec![]);
        t.instant(Category::Task, "h0", 0, 0, 1.0, vec![]);
        let names: Vec<_> = t.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["h1", "h0"]);
        t.clear();
        assert!(t.is_empty());
    }
}
