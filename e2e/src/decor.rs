//! Bench-owned decorators around the `App`/`Mapper`/`Combiner`/
//! `Reducer`/`Emit` traits: the only way to see, from outside, how much
//! of a job's host time is spent inside the user-function engine.
//!
//! Only the traced rep runs through them; untimed reps use the plain
//! app. Each call costs two `Instant::now()` reads and a few relaxed
//! atomic adds, which is what `trace.overhead_share` reports.
//!
//! Busy time includes the `Emit` sink calls the function makes (on the
//! GPU path: the KV-store slot write and its lane-cost charge).

use hetero_apps::{App, AppSpec};
use hetero_runtime::types::{Combiner, Emit, Mapper, OpCount, Reducer};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Shared accumulators. Pure statistics (they publish no other data), so
/// every access is `Relaxed`; totals are read after the pool has joined.
#[derive(Default)]
pub struct Acc {
    map_ns: AtomicU64,
    map_calls: AtomicU64,
    combine_ns: AtomicU64,
    combine_calls: AtomicU64,
    reduce_ns: AtomicU64,
    reduce_calls: AtomicU64,
    alu: AtomicU64,
    sfu: AtomicU64,
    map_pairs: AtomicU64,
}

/// A point-in-time copy of [`Acc`]; subtract two to get one task's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snap {
    pub map_ns: u64,
    pub map_calls: u64,
    pub combine_ns: u64,
    pub combine_calls: u64,
    pub reduce_ns: u64,
    pub reduce_calls: u64,
    pub alu: u64,
    pub sfu: u64,
    pub map_pairs: u64,
}

impl Acc {
    pub fn snap(&self) -> Snap {
        Snap {
            map_ns: self.map_ns.load(Relaxed),
            map_calls: self.map_calls.load(Relaxed),
            combine_ns: self.combine_ns.load(Relaxed),
            combine_calls: self.combine_calls.load(Relaxed),
            reduce_ns: self.reduce_ns.load(Relaxed),
            reduce_calls: self.reduce_calls.load(Relaxed),
            alu: self.alu.load(Relaxed),
            sfu: self.sfu.load(Relaxed),
            map_pairs: self.map_pairs.load(Relaxed),
        }
    }
}

impl std::ops::Sub for Snap {
    type Output = Snap;
    fn sub(self, o: Snap) -> Snap {
        Snap {
            map_ns: self.map_ns - o.map_ns,
            map_calls: self.map_calls - o.map_calls,
            combine_ns: self.combine_ns - o.combine_ns,
            combine_calls: self.combine_calls - o.combine_calls,
            reduce_ns: self.reduce_ns - o.reduce_ns,
            reduce_calls: self.reduce_calls - o.reduce_calls,
            alu: self.alu - o.alu,
            sfu: self.sfu - o.sfu,
            map_pairs: self.map_pairs - o.map_pairs,
        }
    }
}

/// Counts what flows through an `Emit` sink on its way to the real one.
struct CountingEmit<'a> {
    inner: &'a mut dyn Emit,
    ops: OpCount,
    pairs: u64,
}

impl Emit for CountingEmit<'_> {
    fn emit(&mut self, key: &[u8], value: &[u8]) -> bool {
        self.pairs += 1;
        self.inner.emit(key, value)
    }
    fn charge(&mut self, ops: OpCount) {
        self.ops += ops;
        self.inner.charge(ops);
    }
    fn read_ro(&mut self, bytes: u64) {
        self.inner.read_ro(bytes);
    }
}

struct TimedMapper {
    inner: Box<dyn Mapper>,
    acc: Arc<Acc>,
}

impl Mapper for TimedMapper {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        let mut sink = CountingEmit {
            inner: out,
            ops: OpCount::default(),
            pairs: 0,
        };
        let t = Instant::now();
        self.inner.map(record, &mut sink);
        let ns = t.elapsed().as_nanos() as u64;
        self.acc.map_ns.fetch_add(ns, Relaxed);
        self.acc.map_calls.fetch_add(1, Relaxed);
        self.acc.alu.fetch_add(sink.ops.alu, Relaxed);
        self.acc.sfu.fetch_add(sink.ops.sfu, Relaxed);
        self.acc.map_pairs.fetch_add(sink.pairs, Relaxed);
    }
}

struct TimedCombiner {
    inner: Box<dyn Combiner>,
    acc: Arc<Acc>,
}

impl Combiner for TimedCombiner {
    fn combine(&self, run: &[(&[u8], &[u8])], out: &mut dyn Emit) {
        let mut sink = CountingEmit {
            inner: out,
            ops: OpCount::default(),
            pairs: 0,
        };
        let t = Instant::now();
        self.inner.combine(run, &mut sink);
        let ns = t.elapsed().as_nanos() as u64;
        self.acc.combine_ns.fetch_add(ns, Relaxed);
        self.acc.combine_calls.fetch_add(1, Relaxed);
        self.acc.alu.fetch_add(sink.ops.alu, Relaxed);
        self.acc.sfu.fetch_add(sink.ops.sfu, Relaxed);
    }
}

struct TimedReducer {
    inner: Box<dyn Reducer>,
    acc: Arc<Acc>,
}

impl Reducer for TimedReducer {
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn FnMut(&[u8], &[u8])) {
        let t = Instant::now();
        self.inner.reduce(key, values, out);
        let ns = t.elapsed().as_nanos() as u64;
        self.acc.reduce_ns.fetch_add(ns, Relaxed);
        self.acc.reduce_calls.fetch_add(1, Relaxed);
    }
}

/// An [`App`] whose user functions report into an [`Acc`]; everything
/// else delegates, so the job it runs is the job the plain app runs.
pub struct TimedApp<'a> {
    inner: &'a dyn App,
    acc: Arc<Acc>,
}

impl<'a> TimedApp<'a> {
    pub fn new(inner: &'a dyn App) -> Self {
        TimedApp {
            inner,
            acc: Arc::new(Acc::default()),
        }
    }

    pub fn acc(&self) -> &Acc {
        &self.acc
    }
}

impl App for TimedApp<'_> {
    fn spec(&self) -> &AppSpec {
        self.inner.spec()
    }
    fn mapper(&self) -> Box<dyn Mapper> {
        Box::new(TimedMapper {
            inner: self.inner.mapper(),
            acc: self.acc.clone(),
        })
    }
    fn combiner(&self) -> Option<Box<dyn Combiner>> {
        self.inner.combiner().map(|inner| {
            Box::new(TimedCombiner {
                inner,
                acc: self.acc.clone(),
            }) as Box<dyn Combiner>
        })
    }
    fn reducer(&self) -> Option<Box<dyn Reducer>> {
        self.inner.reducer().map(|inner| {
            Box::new(TimedReducer {
                inner,
                acc: self.acc.clone(),
            }) as Box<dyn Reducer>
        })
    }
    fn generate_split(&self, records: usize, seed: u64) -> Vec<u8> {
        self.inner.generate_split(records, seed)
    }
    fn mapper_source(&self) -> &'static str {
        self.inner.mapper_source()
    }
    fn combiner_source(&self) -> Option<&'static str> {
        self.inner.combiner_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sink(Vec<(Vec<u8>, Vec<u8>)>, OpCount, u64);
    impl Emit for Sink {
        fn emit(&mut self, k: &[u8], v: &[u8]) -> bool {
            self.0.push((k.to_vec(), v.to_vec()));
            true
        }
        fn charge(&mut self, o: OpCount) {
            self.1 += o;
        }
        fn read_ro(&mut self, b: u64) {
            self.2 += b;
        }
    }

    #[test]
    fn decorators_accumulate_and_pass_everything_through() {
        let wc = hetero_apps::app_by_code("WC").unwrap();
        let timed = TimedApp::new(wc.as_ref());
        let (plain_m, timed_m) = (wc.mapper(), timed.mapper());
        let mut a = Sink(Vec::new(), OpCount::default(), 0);
        let mut b = Sink(Vec::new(), OpCount::default(), 0);
        let before = timed.acc().snap();
        for rec in [&b"the quick the"[..], b"fox", b""] {
            plain_m.map(rec, &mut a);
            timed_m.map(rec, &mut b);
        }
        // The decorated mapper is observationally the plain one.
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        let d = timed.acc().snap() - before;
        assert_eq!(d.map_calls, 3);
        assert_eq!(d.map_pairs, 4);
        assert_eq!((d.alu, d.sfu), (a.1.alu, a.1.sfu));
        assert_eq!(d.combine_calls + d.reduce_calls, 0);

        let run: Vec<(&[u8], &[u8])> = vec![(b"a", b"1"), (b"a", b"2"), (b"b", b"5")];
        let mut c = Sink(Vec::new(), OpCount::default(), 0);
        timed.combiner().unwrap().combine(&run, &mut c);
        assert_eq!(
            c.0,
            vec![
                (b"a".to_vec(), b"3".to_vec()),
                (b"b".to_vec(), b"5".to_vec())
            ]
        );
        let mut got = Vec::new();
        timed
            .reducer()
            .unwrap()
            .reduce(b"k", &[b"1", b"2"], &mut |k, v| {
                got.push((k.to_vec(), v.to_vec()))
            });
        assert_eq!(got, vec![(b"k".to_vec(), b"3".to_vec())]);
        let d = timed.acc().snap() - before;
        assert_eq!((d.combine_calls, d.reduce_calls), (1, 1));
        // Combiner charges join the op totals; its emits are not map pairs.
        assert_eq!(d.alu, a.1.alu + c.1.alu);
        assert_eq!(d.map_pairs, 4);
        assert_eq!(timed.spec().code, "WC");
    }

    #[test]
    fn snapshots_subtract_per_task() {
        let wc = hetero_apps::app_by_code("WC").unwrap();
        let timed = TimedApp::new(wc.as_ref());
        let m = timed.mapper();
        let mut s = Sink(Vec::new(), OpCount::default(), 0);
        m.map(b"one two", &mut s);
        let mid = timed.acc().snap();
        m.map(b"three", &mut s);
        let d = timed.acc().snap() - mid;
        assert_eq!((d.map_calls, d.map_pairs), (1, 1));
    }
}
