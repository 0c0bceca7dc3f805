//! The event queue of both DES levels (the job simulator and the
//! multi-tenant service around it): a monotone radix heap (Ahuja,
//! Mehlhorn, Orlin & Tarjan, JACM 1990). It pops in time order, and in
//! push order among events due at the same instant.
//!
//! Simulated time never runs backwards — every push is at or after the
//! last popped time — so an event is filed by the highest bit in which
//! its key differs from the last popped key. Popping empties the lowest
//! non-empty bucket: its smallest key becomes the new last key, the
//! events due at it move to the `due` FIFO and the rest refile into
//! lower buckets. Each event moves at most 64 times over its life.
//!
//! The key is the bit pattern of `time + 0.0`. For the non-negative
//! times the simulators validate, integer order on that pattern is `f64`
//! order, and `+ 0.0` folds −0.0 onto +0.0, which `f64` comparison also
//! counts equal.
//!
//! Push order among ties needs no sequence number: `due` and every
//! bucket hold their events in push order. A push appends the newest
//! event, and a bucket is emptied only while `due` and every lower bucket
//! are empty, so each of them receives an in-order subsequence of it.

use std::collections::VecDeque;

/// An event due at simulated `time`.
pub(crate) struct Entry<E> {
    time: f64,
    event: E,
}

/// The queue key of a non-negative time: ordered as the time, with
/// −0.0 and +0.0 one key.
fn key(time: f64) -> u64 {
    (time + 0.0).to_bits()
}

/// The bucket of a key that differs from the last popped key in `diff`
/// (non-zero): the index of the highest differing bit.
fn bucket(diff: u64) -> usize {
    63 - diff.leading_zeros() as usize
}

/// Entries a drained bucket (or the emptied `due` FIFO) keeps room for;
/// a larger buffer is shrunk to this, so an empty queue keeps room for
/// at most 65 × 256 entries. Keeping every drained buffer whole cost
/// `des_tail_8k` ≈ 10 MB of peak RSS and bought no speed.
const RETAIN: usize = 256;

pub(crate) struct EventQueue<E> {
    /// The events due at `last`, in push order.
    due: VecDeque<Entry<E>>,
    /// `buckets[b]`: the events whose key first differs from `last` at
    /// bit `b`; every one is later than `last`.
    buckets: [Vec<Entry<E>>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// The key of the last popped event (0 before the first pop).
    last: u64,
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue {
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
        }
    }

    pub(crate) fn push(&mut self, time: f64, event: E) {
        let k = key(time);
        // Monotone time: nothing is pushed before the last popped
        // instant. `FaultPlan::validate`'s `finite_time` and
        // `run_service`'s `arrive_s` check bound the times pushed before
        // the first pop below by zero; `JobSpec::validate` makes every
        // duration finite and non-negative, and every push inside an
        // event loop is `now +` such a non-negative delay.
        debug_assert!(
            k >= self.last,
            "event at {time} pushed after time {} was popped",
            f64::from_bits(self.last)
        );
        let entry = Entry { time, event };
        if k == self.last {
            self.due.push_back(entry);
        } else {
            let b = bucket(k ^ self.last);
            self.buckets[b].push(entry);
            self.occupied |= 1 << b;
        }
    }

    /// The next event and its time.
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        if self.due.is_empty() {
            self.advance();
        }
        self.due.pop_front().map(|e| (e.time, e.event))
    }

    /// Move to the next instant that has events: empty the lowest
    /// non-empty bucket into `due` (its minimum) and lower buckets.
    fn advance(&mut self) {
        if self.occupied == 0 {
            return;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut drained = std::mem::take(&mut self.buckets[b]);
        let last = drained
            .iter()
            .map(|e| key(e.time))
            .min()
            .expect("an occupied bucket is non-empty");
        self.last = last;
        // `due` and the buckets below `b` are empty: each receives the
        // drained events in their push order.
        self.due.shrink_to(RETAIN);
        for entry in drained.drain(..) {
            let k = key(entry.time);
            if k == last {
                self.due.push_back(entry);
            } else {
                // Shares bits `b..` with the new `last`: lands below `b`.
                let nb = bucket(k ^ last);
                self.buckets[nb].push(entry);
                self.occupied |= 1 << nb;
            }
        }
        drained.shrink_to(RETAIN);
        self.buckets[b] = drained;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// The queue's contract as a comparator: `partial_cmp` on time, then
    /// push order. Pops by linear scan.
    #[derive(Default)]
    struct Reference {
        live: Vec<(f64, u64)>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, time: f64) -> u64 {
            self.seq += 1;
            self.live.push((time, self.seq));
            self.seq
        }

        fn pop(&mut self) -> Option<(f64, u64)> {
            let first = |a: &(f64, u64), b: &(f64, u64)| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            };
            let i = (0..self.live.len()).min_by(|&i, &j| first(&self.live[i], &self.live[j]))?;
            Some(self.live.swap_remove(i))
        }
    }

    /// Delays after the last popped time: ties (0, −0, repeats), the
    /// smallest subnormal, tiny and huge normals, and infinity.
    const DELAYS: [f64; 12] = [
        0.0,
        -0.0,
        5e-324,
        1e-300,
        0.25,
        0.5,
        1.0,
        1.0,
        3.0,
        1e300,
        f64::INFINITY,
        0.1,
    ];

    proptest::proptest! {
        /// Random interleavings of push and pop, pushes at the last
        /// popped time plus a delay from `DELAYS` (the raw delay before
        /// the first pop, so −0.0 itself is pushed), pop exactly what the
        /// reference pops: the same time bits, the same event.
        #[test]
        fn pops_in_time_then_push_order(
            ops in proptest::collection::vec((0u8..3, 0usize..DELAYS.len()), 0..600)
        ) {
            let (mut q, mut model) = (EventQueue::new(), Reference::default());
            let mut now = None;
            let pop = |q: &mut EventQueue<u64>, model: &mut Reference| {
                let got = q.pop().map(|(t, e)| (t.to_bits(), e));
                let want = model.pop().map(|(t, s)| (t.to_bits(), s));
                proptest::prop_assert_eq!(got, want);
                got.map(|(t, _)| f64::from_bits(t))
            };
            for &(op, d) in &ops {
                if op == 0 {
                    now = pop(&mut q, &mut model).or(now);
                } else {
                    let t = now.map_or(DELAYS[d], |now: f64| now + DELAYS[d]);
                    let id = model.push(t);
                    q.push(t, id);
                }
            }
            while pop(&mut q, &mut model).is_some() {}
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pushed after time")]
    fn a_push_before_the_last_popped_time_is_refused() {
        let mut q = EventQueue::new();
        q.push(2.0, ());
        q.pop();
        q.push(1.0, ());
    }

    #[test]
    fn drained_buffers_keep_bounded_room() {
        let mut q = EventQueue::new();
        for i in 0..10_000u32 {
            q.push(1.0 + f64::from(i), i);
        }
        for i in 0..10_000u32 {
            assert_eq!(q.pop(), Some((1.0 + f64::from(i), i)));
        }
        assert_eq!(q.pop(), None);
        assert!(q.due.capacity() <= RETAIN);
        assert!(q.buckets.iter().all(|b| b.capacity() <= RETAIN));
    }
}
