//! End-to-end and per-layer benchmark of the RAHTM mapper.
//!
//! The `mapbench` binary runs one workload as a closed loop, checks every
//! mapping, and prints each metric by name and unit; see `README.md`.

#![forbid(unsafe_code)]

pub mod check;
pub mod layers;
pub mod measure;
pub mod report;
pub mod span;
pub mod workload;
