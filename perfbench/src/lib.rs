//! End-to-end benchmark of the privtopk user paths, with per-layer
//! probes. See `README.md` in this package for the workloads, the
//! metrics and how to run it.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod federated;
mod load;
mod probes;
pub mod proc;
pub mod report;
mod run;
pub mod stats;
mod store_ingest;

pub use run::{run, RunConfig, Scale, Workload};
