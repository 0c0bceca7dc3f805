//! A small deterministic worker pool.
//!
//! The simulators run work that is independent by construction — the
//! functional job runner's map/reduce tasks, the service's inner job
//! simulations — and `ParallelRunner` spreads it over a fixed set of
//! worker threads in two shapes:
//!
//! - **Prefetch** ([`ParallelRunner::prefetch`]). A caller that keeps
//!   running submits jobs one at a time and later takes each result by
//!   index, in an order of its own. Workers start queued jobs oldest
//!   first. The service submits a job's inner simulation when it admits
//!   the job and takes the result when it launches it.
//! - **Fork-join batches** ([`ParallelRunner::run`]): submit every job,
//!   take them in order. Results come back **in submission order**, so
//!   callers merge per-task state (counters, kernel logs, trace events)
//!   exactly as the serial path would and stay byte-identical to it.
//!   Every thread claims the oldest unstarted job, which balances skewed
//!   task costs.
//!
//! Either way a job's result must not depend on when or on which thread
//! it runs; the caller consumes results in its own deterministic order.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Environment variable overriding the default worker count (`0` or unset
/// = all available cores). Lets CI run the whole suite single-threaded
/// and with a fixed pool without touching call sites.
pub const THREADS_ENV: &str = "HETERO_THREADS";

/// A fixed-width worker pool executing independent closures with
/// deterministic results.
#[derive(Debug, Clone)]
pub struct ParallelRunner {
    threads: usize,
}

impl Default for ParallelRunner {
    /// Same as [`ParallelRunner::new`]`(0)`: `HETERO_THREADS` if set,
    /// otherwise all available cores.
    fn default() -> Self {
        ParallelRunner::new(0)
    }
}

impl ParallelRunner {
    /// Pool with `threads` workers. `0` means "pick a default": the
    /// `HETERO_THREADS` environment variable if set to a positive number,
    /// otherwise the machine's available parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
                })
        } else {
            threads
        };
        ParallelRunner { threads }
    }

    /// A single-threaded pool: jobs run inline on the caller's thread.
    pub fn serial() -> Self {
        ParallelRunner { threads: 1 }
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every job and return the results in submission order: a
    /// [`prefetch`](Self::prefetch) scope no wider than the batch, with
    /// every job submitted and then taken in order. Jobs are claimed
    /// dynamically, so a long task does not hold up threads that finish
    /// early. At width 1 everything runs inline, in submission order — the
    /// serial reference path. A panicking job re-raises its panic here
    /// once the workers have stopped.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        let threads = self.threads.min(n).max(1);
        let batch = move || {
            ParallelRunner { threads }.prefetch(|pf| {
                for (i, job) in jobs.into_iter().enumerate() {
                    pf.submit(i, job);
                }
                (0..n).map(|i| pf.take(i)).collect()
            })
        };
        if threads == 1 {
            return batch();
        }
        // The taker is a spawned thread too. Jobs run on the caller's
        // thread — often the process's main thread — allocate from glibc's
        // main heap among the caller's long-lived data, which fragments
        // it: a `wc_c_mixed` ledger run then peaks near 95 MB, not 80.
        std::thread::scope(|s| {
            s.spawn(batch)
                .join()
                .unwrap_or_else(|payload| panic::resume_unwind(payload))
        })
    }

    /// Run `body` with a [`Prefetch`] queue served by `threads − 1`
    /// workers; the caller's thread is the last one of the width, running
    /// whatever [`Prefetch::take`] finds unclaimed. At width 1 no worker
    /// is spawned and every job runs inline, in `take` order. The workers
    /// stop when `body` returns or unwinds; a job still queued then is
    /// dropped unrun.
    pub fn prefetch<'env, T: Send, R>(&self, body: impl FnOnce(&Prefetch<'env, T>) -> R) -> R {
        let pf = Prefetch {
            queue: Mutex::new(Queue {
                slots: HashMap::new(),
                order: VecDeque::new(),
                stopped: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        };
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(|| pf.work());
            }
            let _stop = StopOnDrop(&pf);
            body(&pf)
        })
    }
}

type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

enum Slot<'env, T> {
    Queued(Job<'env, T>),
    Running,
    /// Finished; a panic is kept as its payload for `take` to re-raise.
    Done(std::thread::Result<T>),
}

struct Queue<'env, T> {
    slots: HashMap<usize, Slot<'env, T>>,
    /// Submitted indices, oldest first. `take` may run a job inline and
    /// leave its index here; [`Queue::claim`] skips it.
    order: VecDeque<usize>,
    stopped: bool,
}

impl<'env, T> Queue<'env, T> {
    /// Claim the oldest job no thread has started.
    fn claim(&mut self) -> Option<(usize, Job<'env, T>)> {
        while let Some(i) = self.order.pop_front() {
            if let Some(slot) = self.slots.get_mut(&i) {
                match std::mem::replace(slot, Slot::Running) {
                    Slot::Queued(job) => return Some((i, job)),
                    other => *slot = other,
                }
            }
        }
        None
    }
}

/// The job queue of one [`ParallelRunner::prefetch`] scope: jobs go in
/// by index ([`Prefetch::submit`]) and results come out by index
/// ([`Prefetch::take`]), each exactly once.
pub struct Prefetch<'env, T> {
    queue: Mutex<Queue<'env, T>>,
    /// Workers wait here for a submission or the stop.
    work: Condvar,
    /// `take` waits here for a worker to finish a job.
    done: Condvar,
}

impl<'env, T: Send> Prefetch<'env, T> {
    /// Jobs run outside the lock and their panics are caught, so only a
    /// bug in this module can poison it.
    fn lock(&self) -> MutexGuard<'_, Queue<'env, T>> {
        self.queue.lock().expect("prefetch queue poisoned")
    }

    /// Queue `job` as index `i`; an idle worker starts it, oldest
    /// submission first. Each index is submitted at most once.
    pub fn submit(&self, i: usize, job: impl FnOnce() -> T + Send + 'env) {
        let mut q = self.lock();
        let fresh = !q.slots.contains_key(&i);
        if fresh {
            q.slots.insert(i, Slot::Queued(Box::new(job)));
            q.order.push_back(i);
        }
        drop(q);
        assert!(fresh, "prefetch index {i} submitted twice");
        self.work.notify_one();
    }

    /// The result of job `i`, which must have been submitted: a finished
    /// result at once; a job no worker has started, run inline; and while
    /// `i` runs on a worker, the oldest other queued jobs, run inline
    /// instead of blocking. A panic inside job `i` — on whichever thread
    /// it ran — is re-raised here with its payload.
    pub fn take(&self, i: usize) -> T {
        let mut q = self.lock();
        loop {
            match q.slots.remove(&i) {
                Some(Slot::Done(out)) => {
                    drop(q);
                    return out.unwrap_or_else(|payload| panic::resume_unwind(payload));
                }
                Some(Slot::Queued(job)) => {
                    drop(q);
                    return job();
                }
                Some(Slot::Running) => {
                    q.slots.insert(i, Slot::Running);
                    q = match q.claim() {
                        Some((j, job)) => {
                            drop(q);
                            self.finish(j, job)
                        }
                        None => self.done.wait(q).expect("prefetch queue poisoned"),
                    };
                }
                None => {
                    drop(q);
                    panic!("prefetch index {i} was never submitted, or was taken already");
                }
            }
        }
    }

    /// Run claimed job `i` and publish its result (or its panic), handing
    /// back the lock.
    fn finish(&self, i: usize, job: Job<'env, T>) -> MutexGuard<'_, Queue<'env, T>> {
        // The job shares nothing with this queue, and a panic's payload
        // goes to whoever takes `i`.
        let out = panic::catch_unwind(AssertUnwindSafe(job));
        let mut q = self.lock();
        q.slots.insert(i, Slot::Done(out));
        self.done.notify_all();
        q
    }

    /// A worker: run the oldest queued job until the scope stops.
    fn work(&self) {
        let mut q = self.lock();
        while !q.stopped {
            q = match q.claim() {
                Some((i, job)) => {
                    drop(q);
                    self.finish(i, job)
                }
                None => self.work.wait(q).expect("prefetch queue poisoned"),
            };
        }
    }
}

/// Stops a prefetch scope's workers when its body returns or unwinds.
struct StopOnDrop<'a, 'env, T>(&'a Prefetch<'env, T>);

impl<T> Drop for StopOnDrop<'_, '_, T> {
    fn drop(&mut self) {
        // Setting the flag is valid whatever state a panic left behind.
        let mut q = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.stopped = true;
        drop(q);
        self.0.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `f` on its own thread; fail if it neither returns nor panics
    /// within `secs` — a hung pool must fail its test, not stall the run.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(out) => out,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no result within {secs} s"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the body panicked"),
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = ParallelRunner::new(4);
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Skew the work so completion order differs from
                    // submission order.
                    let mut acc = 0u64;
                    for k in 0..((64 - i as u64) * 1000) {
                        acc = acc.wrapping_add(k);
                    }
                    (i, std::hint::black_box(acc))
                }
            })
            .collect();
        let out = pool.run(jobs);
        for (i, (a, _)) in out.into_iter().enumerate() {
            assert_eq!(a, i);
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ParallelRunner::serial();
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        let out = pool.run(vec![move || std::thread::current().id() == tid]);
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn empty_and_single_batches_work() {
        let pool = ParallelRunner::new(8);
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(pool.run(none).is_empty());
        assert_eq!(pool.run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let data: Vec<u64> = (0..100).collect();
        let pool = ParallelRunner::new(3);
        let jobs: Vec<_> = data
            .chunks(7)
            .map(|c| move || c.iter().sum::<u64>())
            .collect();
        let total: u64 = pool.run(jobs).into_iter().sum();
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn workers_genuinely_overlap() {
        // Blocking jobs overlap even on a single-core host, so this holds
        // on any machine: four 30 ms sleeps take ~120 ms serially and
        // ~30 ms on four workers. The bound is deliberately loose (25%
        // saving) to stay robust on loaded CI runners.
        let sleeps = || {
            (0..4)
                .map(|_| || std::thread::sleep(std::time::Duration::from_millis(30)))
                .collect::<Vec<_>>()
        };
        let t0 = std::time::Instant::now();
        ParallelRunner::serial().run(sleeps());
        let serial = t0.elapsed();
        let t1 = std::time::Instant::now();
        ParallelRunner::new(4).run(sleeps());
        let parallel = t1.elapsed();
        assert!(
            parallel < serial.mul_f64(0.75),
            "4 workers must overlap blocking jobs: serial {serial:?}, parallel {parallel:?}"
        );
    }

    #[test]
    fn zero_asks_environment_then_hardware() {
        // Can't mutate the process environment safely in a test binary
        // with concurrent tests; just pin the "never zero workers"
        // contract.
        assert!(ParallelRunner::new(0).threads() >= 1);
        assert!(ParallelRunner::default().threads() >= 1);
    }

    #[test]
    fn prefetch_takes_every_result_in_any_order_at_any_width() {
        for width in [1, 2, 4] {
            let got = within(30, move || {
                let data: Vec<u64> = (0..40).collect();
                ParallelRunner::new(width).prefetch(|pf| {
                    for (i, x) in data.iter().enumerate() {
                        pf.submit(i, move || x * x);
                    }
                    // Take in an order unrelated to submission.
                    (0..data.len())
                        .map(|k| (k * 7) % data.len())
                        .map(|i| (i, pf.take(i)))
                        .collect::<Vec<_>>()
                })
            });
            for (i, sq) in got {
                assert_eq!(sq, (i * i) as u64, "width {width}");
            }
        }
    }

    #[test]
    fn serial_prefetch_runs_jobs_inline_at_take() {
        let tid = std::thread::current().id();
        let ran = Mutex::new(Vec::new());
        ParallelRunner::serial().prefetch(|pf| {
            for i in 0..3 {
                let ran = &ran;
                pf.submit(i, move || {
                    ran.lock().unwrap().push(i);
                    std::thread::current().id() == tid
                });
            }
            assert!(ran.lock().unwrap().is_empty(), "nothing runs before take");
            assert!([2, 0, 1].into_iter().all(|i| pf.take(i)));
        });
        assert_eq!(ran.into_inner().unwrap(), [2, 0, 1]);
    }

    #[test]
    fn take_helps_with_queued_jobs_while_its_own_runs_on_a_worker() {
        within(30, || {
            let (started, on_worker) = mpsc::channel();
            let (release, gate) = mpsc::channel::<()>();
            let main = std::thread::current().id();
            ParallelRunner::new(2).prefetch(|pf| {
                // Job 0 holds the only worker until job 1 has run.
                pf.submit(0, move || {
                    started.send(()).unwrap();
                    gate.recv().unwrap();
                    std::thread::current().id()
                });
                on_worker.recv().unwrap();
                pf.submit(1, move || {
                    release.send(()).unwrap();
                    std::thread::current().id()
                });
                // Job 1 can only run on the taker's thread: the worker
                // is blocked in job 0 until job 1 releases it.
                assert_ne!(pf.take(0), main);
                assert_eq!(pf.take(1), main);
            });
        });
    }

    #[derive(Debug, PartialEq)]
    struct Boom(u32);

    #[test]
    fn a_panicking_job_panics_take_with_its_payload() {
        for width in [1, 2] {
            let caught = within(30, move || {
                ParallelRunner::new(width).prefetch(|pf| {
                    let (started, on_thread) = mpsc::channel();
                    pf.submit(0, move || {
                        let _ = started.send(());
                        std::panic::panic_any(Boom(7))
                    });
                    pf.submit(1, || 1u32);
                    if width > 1 {
                        // The worker has claimed job 0: it panics there.
                        on_thread.recv().unwrap();
                    }
                    let err = panic::catch_unwind(AssertUnwindSafe(|| pf.take(0)))
                        .expect_err("job 0 panicked");
                    (err.downcast_ref::<Boom>().map(|b| b.0), pf.take(1))
                })
            });
            assert_eq!(caught, (Some(7), 1), "width {width}");
        }
    }

    #[test]
    fn a_panicking_batch_job_panics_run_with_its_payload() {
        for width in [1, 2] {
            let caught = within(30, move || {
                let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
                    vec![Box::new(|| 1), Box::new(|| panic::panic_any(Boom(7)))];
                let err =
                    panic::catch_unwind(AssertUnwindSafe(|| ParallelRunner::new(width).run(jobs)))
                        .expect_err("job 1 panicked");
                err.downcast_ref::<Boom>().map(|b| b.0)
            });
            assert_eq!(caught, Some(7), "width {width}");
        }
    }

    #[test]
    fn a_panic_in_the_body_stops_the_workers() {
        let r = within(30, || {
            panic::catch_unwind(|| {
                ParallelRunner::new(3).prefetch(|pf| {
                    pf.submit(0, || 0u32);
                    panic!("body failed")
                })
            })
        });
        assert!(r.is_err());
    }
}
