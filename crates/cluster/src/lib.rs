//! # hetero-cluster
//!
//! A discrete-event simulation of the Hadoop 1.x cluster HeteroDoop is
//! built on: JobTracker, TaskTrackers, heartbeat-driven FCFS scheduling
//! with data locality, map/reduce slots, the per-GPU reserved slot and
//! GPU driver queue (§5.1), and the paper's three placement policies —
//! CPU-only Hadoop, GPU-first, and **tail scheduling** (Algorithm 2).
//!
//! Per-task durations come from the task-level simulators in
//! `hetero-runtime`; this crate decides where and when tasks run and
//! reports job-level makespans (the currency of Figs. 3 and 4).

#![warn(missing_docs)]

pub mod audit;
pub mod config;
mod index;
pub mod job;
pub mod parallel;
mod queue;
pub mod reference;
pub mod service;
pub mod sim;
pub mod stats;

pub use config::{ClusterConfig, ConfigError, FaultPlan, FaultPlanError, Scheduler};
pub use job::{JobSpec, MapTaskSpec, ReduceTaskSpec};
pub use parallel::ParallelRunner;
pub use reference::{simulate_reference, simulate_reference_traced};
pub use service::{
    generate_workload, run_service, run_service_traced, AdmissionControl, ArrivalProcess,
    JobOutcome, JobRequest, Rejection, ServiceConfig, ServiceStats, TenantSlo, TenantSpec,
    WorkloadConfig,
};
pub use sim::{simulate, simulate_traced};
pub use stats::{Device, JobStats, Outcome, TaskRecord};
