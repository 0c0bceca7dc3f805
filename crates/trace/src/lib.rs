//! # hetero-trace
//!
//! The workspace-wide observability layer: a **simulated-time structured
//! event log** for the HeteroDoop reproduction, modeled after the two
//! profilers the substituted substrates stand in for —
//!
//! * Hadoop's job history / timeline server → per-attempt timeline spans
//!   from the discrete-event cluster simulator;
//! * nvprof-style GPU profilers → per-kernel counter tables aggregated
//!   from [`hetero_gpusim::KernelStats`].
//!
//! Three pieces:
//!
//! * [`Tracer`] — a lightweight sink for span/instant events carrying
//!   *simulated* timestamps (seconds). A disabled tracer
//!   ([`Tracer::off`]) makes every record call an early-return on one
//!   boolean, so instrumented code paths cost nothing when tracing is
//!   off and — critically — never perturb the simulation itself.
//! * [`KernelProfile`] — aggregates named kernel launches into an
//!   nvprof-like table (launches, cycles, coalesced vs. random
//!   transactions, shared/global atomics, divergence).
//! * [`MetricsRegistry`] — a flat, deterministically ordered
//!   name → value snapshot serialized as JSON.
//!
//! ## Export formats
//!
//! [`Tracer::to_chrome_json`] emits the Chrome Trace Event format
//! (JSON Array-of-events wrapped in `{"traceEvents": ...}`), loadable in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Output is
//! **deterministic**: the same simulation seed produces a byte-identical
//! trace, which makes traces diffable artifacts and lets tests golden
//! them.
//!
//! Serialization goes through [`json`] — the workspace's one `Json`
//! value, writer and reader; there is no serializer dependency.

#![warn(missing_docs)]

pub mod chrome;
mod event;
pub mod json;
mod metrics;
mod profile;
mod tracer;

pub use event::{ArgValue, Category, EventKind, TraceEvent};
pub use metrics::MetricsRegistry;
pub use profile::{KernelProfile, KernelProfileRow};
pub use tracer::Tracer;
