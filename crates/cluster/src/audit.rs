//! The invariant auditor: after **every** DES event, cross-check the
//! event loop's counters and the indexed scheduler's incremental
//! structures — `PendingIndex` views, free-slot free-lists, the lazy
//! expiry heap, the speculation pool, and the `usable_nodes` /
//! `cluster_live_gpus` / `node_attempts` / `node_winners` aggregates —
//! against a ground-truth recomputation from the attempt/task/node
//! tables. At each JobTracker recovery it also checks that the master's
//! logical state (maps and reduces done, charged failures, blacklisted
//! trackers) is what it was at the crash, since recovery keeps that
//! state instead of rebuilding it.
//!
//! The per-event hook is compiled only under `debug_assertions` or the
//! `audit` cargo feature, so release benches pay nothing. The `audit`
//! feature audits every run at any size; a debug build without it audits
//! only small runs (see `Sim::audit_run`). Within an audited build
//! [`set_enabled`] turns it off process-wide. A failed check bumps the
//! process-wide violation counter and panics with the event context,
//! which is how the chaos harness and the proptest sweeps turn "indexes
//! drifted" into a hard failure at the exact event that caused it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Whether per-event auditing is active (in builds where the hook is
/// compiled at all).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn per-event auditing on or off process-wide.
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
