//! # heterodoop
//!
//! A full reproduction of **HeteroDoop** (HPDC'15): a MapReduce
//! programming system for accelerator clusters, rebuilt in Rust over
//! simulated substrates (see DESIGN.md).
//!
//! The stack, bottom-up:
//!
//! * [`hetero_gpusim`] — execution-driven GPU simulator (K40 / M2090);
//! * [`hetero_hdfs`] — block/replica distributed FS with fileSplits;
//! * [`hetero_cc`] — the `#pragma mapreduce` directive compiler and
//!   C-subset interpreter (one sequential source for CPU *and* GPU);
//! * [`hetero_runtime`] — GPU MapReduce runtime (global KV store, record
//!   stealing, scan/aggregation, indirection merge sort, combine
//!   kernels) plus the CPU streaming path;
//! * [`hetero_cluster`] — discrete-event Hadoop with GPU-first and
//!   **tail scheduling** (Algorithm 2);
//! * [`hetero_apps`] — the eight evaluation benchmarks (Table 2).
//!
//! This crate glues them together: [`Preset`]s describe the paper's two
//! clusters (Table 3), [`pipeline`] measures tasks and runs jobs, and
//! [`interp_adapter`] executes compiled annotated C sources as
//! map/combine functions.
//!
//! ## Quickstart
//!
//! ```
//! use heterodoop::{Preset, pipeline, OptFlags};
//! use hetero_cluster::Scheduler;
//!
//! let app = hetero_apps::app_by_code("WC").unwrap();
//! let preset = Preset::cluster1();
//! let m = pipeline::measure_task(app.as_ref(), &preset, OptFlags::all(), 500, 1).unwrap();
//! let cmp = pipeline::job_speedup(app.as_ref(), &preset, Scheduler::TailScheduling, 1, 96, &m);
//! assert!(cmp.speedup > 0.5);
//! ```

#![warn(missing_docs)]

pub mod cluster_exec;
pub mod interp_adapter;
pub mod job_runner;
pub mod pipeline;
pub mod presets;

pub use cluster_exec::{run_cluster_functional_job, ClusterFunctionalJob};
pub use hetero_cluster::ParallelRunner;
pub use hetero_runtime::OptFlags;
pub use interp_adapter::{CompiledApp, CompiledKernel};
pub use job_runner::{run_functional_job, run_functional_job_pooled, FunctionalJob};
pub use pipeline::{
    build_job, job_speedup, measure_task, optimization_effect, task_config, JobComparison,
    TaskMeasurement, DEFAULT_SPLIT_RECORDS,
};
pub use presets::Preset;

/// Compile an annotated MapReduce C source (re-export of
/// [`hetero_cc::compile`]).
pub use hetero_cc::compile;
