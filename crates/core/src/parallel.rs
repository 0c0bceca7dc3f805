//! A small deterministic fork-join worker pool.
//!
//! The functional job runner executes map/reduce tasks that are
//! independent by construction, yet the simulator used to run them one at
//! a time on the host. `ParallelRunner` fans a batch of closures across a
//! fixed set of worker threads and hands the results back **in submission
//! order**, so callers can merge per-task state (counters, kernel logs,
//! trace events) exactly as the serial path would and stay byte-identical
//! to it.
//!
//! Parallelism comes from `std::thread::scope` plus an atomic work index:
//! workers claim jobs first-come-first-served (good load balancing for
//! skewed task costs) while results land in per-job slots indexed by
//! submission position (determinism).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count (`0` or unset
/// = all available cores). Lets CI run the whole suite single-threaded
/// and with a fixed pool without touching call sites.
pub const THREADS_ENV: &str = "HETERO_THREADS";

/// A fixed-width worker pool executing batches of independent closures
/// with deterministic, submission-ordered results.
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

    /// Run every job and return the results in submission order. Jobs are
    /// claimed dynamically, so a long task does not hold up workers that
    /// finish early. With one worker (or one job) everything runs inline
    /// — the serial reference path. A panicking job propagates the panic
    /// to the caller once all workers have stopped.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return jobs.into_iter().map(|f| f()).collect();
        }
        let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i].lock().unwrap().take().expect("job claimed once");
                    let out = job();
                    *results[i].lock().unwrap() = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
