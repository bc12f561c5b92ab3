//! The repository's benchmark harness. See `README.md`.
#![warn(missing_docs)]

pub mod exec;
pub mod fixture;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod stream;
pub mod trace;
pub mod traced;
pub mod workloads;
