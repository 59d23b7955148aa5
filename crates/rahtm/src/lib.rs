//! # rahtm-core
//!
//! The paper's primary contribution: **R**outing **A**lgorithm aware
//! **H**ierarchical **T**ask **M**apping (RAHTM, SC 2014).
//!
//! Given an application communication graph, a k-ary n-torus machine, and
//! the knowledge that the machine routes minimally-adaptively, RAHTM
//! computes a process→node mapping that minimizes the maximum channel load
//! (MCL) in three phases:
//!
//! 1. [`cluster`] — tiling-based clustering of the rank grid: absorbs the
//!    concentration factor onto nodes and builds the 2^n-ary hierarchy
//!    (paper §III-B, Figure 2).
//! 2. [`milp`] — top-down optimal mapping of each level's cluster graph
//!    onto a 2-ary n-cube with the Table II MILP (built on `rahtm-lp`),
//!    warm-started by [`anneal`]'s simulated-annealing incumbent
//!    (§III-C).
//! 3. [`merge`] — bottom-up beam search over hyperoctahedral
//!    re-orientations of solved blocks, merged in decreasing order of
//!    pairwise interaction, keeping the best `N` candidates (§III-D).
//!
//! [`pipeline::RahtmMapper`] drives all three phases, handles non-uniform
//! machines by slicing (the BG/Q E dimension), and produces a
//! [`mapping::TaskMapping`] that can be written as a BG/Q-style mapfile.
//!
//! The paper's §VI discussion items are implemented as extensions:
//! [`opportunity`] (predicting whether a workload is worth mapping) and
//! [`fattree`] / [`dragonfly`] (the algorithm on the other topologies §VI
//! names, where vertex symmetry collapses the orientation search into
//! recursive partitioning: both mappers are one [`cluster::partition`]
//! call plus the machine's own load model). The collective-communication
//! extension lives
//! in `rahtm_commgraph::collectives`.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's math notation
#![deny(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod anneal;
pub mod block;
pub mod cluster;
pub mod cores;
pub mod dragonfly;
pub mod error;
pub mod fattree;
pub mod fault;
pub mod mapping;
mod memo;
pub mod merge;
pub mod milp;
pub mod opportunity;
pub mod pipeline;

pub use error::RahtmError;
pub use fault::{Fault, FaultPlan};
pub use mapping::TaskMapping;
pub use pipeline::{DegradationReport, RahtmConfig, RahtmMapper, RahtmResult};
