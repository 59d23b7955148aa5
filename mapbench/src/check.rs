//! Correctness check applied to every mapping the benchmark times.

use crate::span::Tracer;
use rahtm_commgraph::CommGraph;
use rahtm_core::TaskMapping;
use rahtm_routing::{mapping_mcl, Routing};
use rahtm_topology::BgqMachine;
use std::collections::HashSet;
use std::fmt;

/// Relative tolerance between `predicted_mcl` and the direct recompute.
/// The two sum the same loads in different orders (node-level vs
/// rank-level graph), which costs a few ulps, never more.
pub const MCL_REL_TOL: f64 = 1e-9;

/// Why a mapping was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckError {
    /// The mapping does not hold exactly one entry per rank.
    RankCount {
        /// Ranks in the graph.
        expected: u32,
        /// Entries in the mapping.
        got: u32,
    },
    /// A rank sits on a node the machine does not have.
    NodeOutOfRange {
        /// The rank.
        rank: u32,
        /// Its node id.
        node: u32,
    },
    /// A node holds more ranks than its concentration.
    OverFull {
        /// The node.
        node: u32,
        /// Ranks placed on it.
        ranks: u32,
        /// The machine's concentration.
        capacity: u32,
    },
    /// Two ranks share a core slot, or a slot exceeds the concentration.
    BadSlot {
        /// The rank.
        rank: u32,
    },
    /// `predicted_mcl` disagrees with the direct router's recompute.
    MclMismatch {
        /// What the pipeline reported.
        predicted: f64,
        /// What `rahtm_routing::mapping_mcl` gives on the rank-level graph.
        recomputed: f64,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::RankCount { expected, got } => {
                write!(f, "mapping has {got} entries for {expected} ranks")
            }
            CheckError::NodeOutOfRange { rank, node } => {
                write!(f, "rank {rank} placed on nonexistent node {node}")
            }
            CheckError::OverFull {
                node,
                ranks,
                capacity,
            } => write!(
                f,
                "node {node} holds {ranks} ranks > concentration {capacity}"
            ),
            CheckError::BadSlot { rank } => {
                write!(f, "rank {rank} has a duplicate or out-of-range slot")
            }
            CheckError::MclMismatch {
                predicted,
                recomputed,
            } => write!(
                f,
                "predicted_mcl {predicted} != recomputed {recomputed} (rel tol {MCL_REL_TOL:e})"
            ),
        }
    }
}

/// Checks that `mapping` places each rank of `graph` exactly once, fills
/// no node above the machine's concentration, and that `predicted_mcl`
/// matches an independent recompute with the direct (uncached) router on
/// the rank-level graph. Returns the recomputed MCL.
pub fn check_mapping(
    machine: &BgqMachine,
    graph: &CommGraph,
    mapping: &TaskMapping,
    predicted_mcl: f64,
    routing: Routing,
    tracer: &mut Tracer,
) -> Result<f64, CheckError> {
    tracer.span("check", |t| {
        let ranks = graph.num_ranks();
        if mapping.num_ranks() != ranks {
            return Err(CheckError::RankCount {
                expected: ranks,
                got: mapping.num_ranks(),
            });
        }
        let nodes = machine.torus().num_nodes();
        let capacity = machine.concentration();
        let mut load = vec![0u32; nodes as usize];
        for (rank, &node) in mapping.nodes().iter().enumerate() {
            if node >= nodes {
                return Err(CheckError::NodeOutOfRange {
                    rank: rank as u32,
                    node,
                });
            }
            load[node as usize] += 1;
        }
        if let Some((node, &ranks)) = load.iter().enumerate().find(|(_, &l)| l > capacity) {
            return Err(CheckError::OverFull {
                node: node as u32,
                ranks,
                capacity,
            });
        }
        let mut slots = HashSet::with_capacity(ranks as usize);
        for rank in 0..ranks {
            let slot = mapping.slot(rank);
            if slot >= capacity || !slots.insert((mapping.node(rank), slot)) {
                return Err(CheckError::BadSlot { rank });
            }
        }
        let recomputed = t.span("routing.mapping_mcl", |_| {
            mapping_mcl(machine.torus(), graph, mapping.nodes(), routing)
        });
        let scale = predicted_mcl.abs().max(recomputed.abs());
        if (predicted_mcl - recomputed).abs() > MCL_REL_TOL * scale || !predicted_mcl.is_finite() {
            return Err(CheckError::MclMismatch {
                predicted: predicted_mcl,
                recomputed,
            });
        }
        Ok(recomputed)
    })
}
