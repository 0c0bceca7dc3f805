//! The invariant auditor: after **every** DES event, cross-check the
//! event loop's counters and the indexed scheduler's incremental
//! structures — `PendingIndex` views, free-slot free-lists, the lazy
//! expiry heap, the speculation pool, and the `usable_nodes` /
//! `cluster_live_gpus` / `node_attempts` / `node_winners` aggregates —
//! against a ground-truth recomputation from the attempt/task/node
//! tables.
//!
//! The per-event hook is compiled only under `debug_assertions` or the
//! `audit` cargo feature, so release benches pay nothing; within an
//! audited build it is further gated at runtime by [`enabled`] (on by
//! default in audited builds, or forced by `HETERO_AUDIT=0/1`). A failed
//! check bumps the process-wide violation counter and panics with the
//! event context, which is how the chaos harness and the proptest sweeps
//! turn "indexes drifted" into a hard failure at the exact event that
//! caused it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(true);
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

fn env_default() -> Option<bool> {
    static FROM_ENV: OnceLock<Option<bool>> = OnceLock::new();
    *FROM_ENV.get_or_init(|| match std::env::var("HETERO_AUDIT") {
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => Some(false),
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("on") => Some(true),
        _ => None,
    })
}

/// Whether per-event auditing is active (in builds where the hook is
/// compiled at all). `HETERO_AUDIT=0`/`1` overrides [`set_enabled`].
pub fn enabled() -> bool {
    env_default().unwrap_or_else(|| ENABLED.load(Ordering::Relaxed))
}

/// Whether `HETERO_AUDIT=1` forces auditing on. The simulator audits
/// every event by default only on small runs (the ground-truth rebuild
/// is O(cluster state) per event, which would slow paper-scale sims by
/// orders of magnitude in debug test builds); a forced-on environment
/// audits every run regardless of size — this is how the chaos harness
/// and CI run.
pub fn forced_on() -> bool {
    env_default() == Some(true)
}

/// Turn per-event auditing on or off process-wide (ignored when the
/// `HETERO_AUDIT` environment variable pins it).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Invariant violations observed so far in this process.
pub fn violations() -> u64 {
    VIOLATIONS.load(Ordering::Relaxed)
}

/// Record a violation and abort the simulation with the event context.
#[cfg(any(debug_assertions, feature = "audit"))]
pub(crate) fn violation(ctx: &str, msg: &str) -> ! {
    VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    panic!("invariant audit failed {ctx}: {msg}");
}

/// Assert an audited invariant; `ctx` names the event just processed.
#[cfg(any(debug_assertions, feature = "audit"))]
pub(crate) fn check(cond: bool, ctx: &str, msg: impl FnOnce() -> String) {
    if !cond {
        violation(ctx, &msg());
    }
}
