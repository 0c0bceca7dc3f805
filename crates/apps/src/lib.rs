//! # hetero-apps
//!
//! The eight benchmarks of the HeteroDoop evaluation (Table 2) — Grep,
//! Histmovies, Wordcount, Histratings, Linear Regression, Kmeans,
//! Classification, and BlackScholes — as one table ([`registry`]). A row
//! holds, side by side,
//!
//! * the **annotated mini-C sources** (Listing-1/2 style) consumed by the
//!   `hetero-cc` directive compiler, and
//! * their hand-written Rust **twin**: a
//!   [`Mapper`](hetero_runtime::Mapper)/combiner/reducer the runtime's
//!   CPU and GPU paths execute directly,
//!
//! plus the row's Table 2 metadata and its synthetic workload generator
//! ([`datagen`], standing in for the PUMA datasets). [`App`] is how the
//! rest of the workspace sees a row.

#![warn(missing_docs)]

pub mod common;
pub mod datagen;
pub mod hist;
pub mod ml;
pub mod registry;
pub mod sci;
pub mod text;

pub use common::{App, AppSpec, Intensiveness};
pub use registry::{all_apps, app_by_code, table2, CODES};
