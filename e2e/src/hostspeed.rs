//! Host-speed probe: what makes a wall-clock number comparable between
//! two runs on a shared machine.
//!
//! The reference host is a 2-vCPU VM whose cores switch, every few
//! seconds and for minutes at a time, between a fast state and states
//! 25–60 % slower (a pure integer loop shows it; no steal time is
//! reported). A median of raw walls therefore lands in whichever state
//! the run happened to see: ten runs of the same binary spread 10–25 %.
//!
//! So every timed call is flanked by a fixed integer loop, and its wall
//! is divided by how much slower than the reference that loop ran. The
//! result is a time in **reference seconds**: what the call would have
//! taken with the host in its fast state throughout. The same ten runs
//! then spread 3–7 %. A change to the system moves the call and not the
//! probe, so gains and regressions show undiminished.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Rounds of the 64-bit mixer one probe runs.
const PROBE_ROUNDS: u64 = 6_000_000;
/// Wall of one probe on the reference host in its fast state. Only sets
/// the scale of a reference second; changing it rescales every
/// end-to-end time alike.
const REFERENCE_PROBE_S: f64 = 0.0190;

fn probe() -> f64 {
    let t = Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    for _ in 0..PROBE_ROUNDS {
        x = crate::workloads::splitmix64(x);
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Wall time this process has spent probing so far, in nanoseconds.
static PROBING_NS: AtomicU64 = AtomicU64::new(0);

/// Seconds spent probing so far: the benchmark's own overhead, which
/// the span-coverage figure leaves out of the wall it accounts for.
pub fn probing_s() -> f64 {
    PROBING_NS.load(Relaxed) as f64 * 1e-9
}

/// How much slower than the reference the host runs right now, over the
/// cores `threads` busy threads get. A pool shares its tasks
/// dynamically, so its speed is the mean of its cores' speeds: the
/// harmonic mean of their probe times.
fn slowdown(threads: usize) -> f64 {
    let t = Instant::now();
    let times: Vec<f64> = if threads <= 1 {
        vec![probe()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(probe)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe does not panic"))
                .collect()
        })
    };
    PROBING_NS.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    let mean_speed = times.iter().map(|t| REFERENCE_PROBE_S / t).sum::<f64>() / times.len() as f64;
    1.0 / mean_speed
}

/// A timed call: its result, its wall, and its wall in reference seconds.
pub struct Timed<R> {
    pub out: R,
    pub wall_s: f64,
    pub ref_s: f64,
}

/// Run `f` between two host-speed probes on `threads` threads (the
/// width `f` itself works at).
pub fn timed<R>(threads: usize, f: impl FnOnce() -> R) -> Timed<R> {
    let before = slowdown(threads);
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let after = slowdown(threads);
    Timed {
        out,
        wall_s,
        ref_s: wall_s / ((before + after) / 2.0),
    }
}

/// Keep freed memory in the process instead of returning it to the
/// kernel after every rep (the workloads marked `warm_heap`). With glibc's defaults each rep maps its
/// working set afresh (430 MB on `des_tail_8k`) and faults it in page by
/// page; on the reference VM that cost alone moved the rep by ±20 %
/// from run to run. No-op off glibc.
pub fn keep_heap_warm() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: `mallopt` only stores allocator tunables; `main` calls
        // it before the workload is built, while no other thread exists.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_tracks_the_call_not_the_host() {
        // A call that is itself the probe takes one probe's reference
        // time, whatever state the host is in.
        let one = timed(1, probe);
        assert!(one.wall_s > 0.0);
        assert!(
            (one.ref_s / REFERENCE_PROBE_S - 1.0).abs() < 0.5,
            "one probe should cost about one reference probe: {} vs {REFERENCE_PROBE_S}",
            one.ref_s
        );
        // Twice the work, twice the reference time.
        let two = timed(1, || (probe(), probe()));
        assert!(
            (two.ref_s / one.ref_s - 2.0).abs() < 1.0,
            "{}",
            two.ref_s / one.ref_s
        );
    }

    #[test]
    fn pooled_probe_runs_on_every_thread() {
        let s = slowdown(2);
        assert!(s.is_finite() && s > 0.2, "{s}");
    }
}
