//! # hetero-runtime
//!
//! The HeteroDoop GPU MapReduce runtime (paper §4–§5) plus the unmodified
//! CPU streaming path, both executing *functionally* while charging
//! calibrated time models.
//!
//! GPU side, following the host-driver flow of Fig. 1:
//! [`record::locate_records`] (record-locator kernel) →
//! [`map_kernel::run_map`] (record stealing, global KV store, vectorized
//! emitKV) → [`aggregate::aggregate`] (scan-based whitespace compaction) →
//! [`sort::sort_partition`] (indirection merge sort) →
//! [`combine_kernel::run_combine`] (warp-redundant, vectorized
//! getKV/storeKV) — all orchestrated by [`task::run_gpu_task`], which
//! returns the Fig. 6 per-stage breakdown.
//!
//! CPU side: [`cpu::run_cpu_task`] is the sequential streaming pipeline a
//! single core runs under plain Hadoop.
//!
//! Every optimization of the paper's Fig. 7 is individually switchable
//! through [`opts::OptFlags`].

#![warn(missing_docs)]

pub mod aggregate;
pub mod combine_kernel;
pub mod cpu;
#[cfg(test)]
mod fixtures;
pub mod kvstore;
pub mod map_kernel;
pub mod opts;
pub mod record;
pub mod reduce;
pub mod scan;
pub mod sort;
pub mod task;
pub mod types;

pub use opts::OptFlags;
pub use task::{GpuTaskConfig, GpuTaskResult, TaskBreakdown, TaskEnv};
pub use types::{Combiner, Emit, Mapper, OpCount, Reducer};
