//! The benchmark's workloads: which graphs are mapped, onto which machine,
//! with which pipeline configuration.
//!
//! Every input is a pure function of the scale and the workload seed. The
//! NAS graphs are fixed by their specs, so on `nas-mini` and
//! `cg-mini-milp` the seed changes nothing; on `irregular-mini` it picks
//! the random traffic.

use rahtm_bench::experiments::Scale;
use rahtm_commgraph::{patterns, Benchmark, CommGraph, RankGrid};
use rahtm_core::{RahtmConfig, TaskMapping};
use rahtm_routing::mapping_mcl;

/// Random graphs per `irregular-mini` run. One graph's MCL against the
/// default mapping moves by about ±10% with its seed; the geomean and
/// median over eight graphs keep the seed-to-seed spread inside the bounds.
pub const IRREGULAR_GRAPHS: u64 = 8;

/// The named workloads (see the README for why each was chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// BT, SP and CG on the annealing path, beam 64.
    NasMini,
    /// CG on the default configuration: the Table II MILP rung.
    CgMiniMilp,
    /// Uniform-random traffic (2 flows per rank) on the annealing path.
    IrregularMini,
}

impl WorkloadKind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::NasMini,
        WorkloadKind::CgMiniMilp,
        WorkloadKind::IrregularMini,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::NasMini => "nas-mini",
            WorkloadKind::CgMiniMilp => "cg-mini-milp",
            WorkloadKind::IrregularMini => "irregular-mini",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One graph of a workload, with the reference MCL of the default
/// (ABCDET) mapping under the workload's routing model.
#[derive(Clone, Debug)]
pub struct Case {
    /// Short label ("BT", "SP", "CG", "random").
    pub label: String,
    /// Rank-level communication graph.
    pub graph: CommGraph,
    /// Logical rank grid handed to the mapper (`None` = near-square).
    pub grid: Option<RankGrid>,
    /// MCL of `TaskMapping::abcdet` on this graph.
    pub default_mcl: f64,
}

/// A fully built workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: WorkloadKind,
    /// Machine and rank count.
    pub scale: Scale,
    /// Pipeline configuration every mapping uses.
    pub config: RahtmConfig,
    /// The graphs, mapped round-robin by the closed loop.
    pub cases: Vec<Case>,
}

/// Builds `kind` at `scale` from `seed`: the graphs, the machine and the
/// default-mapping reference MCLs. This is the work `setup_s` times.
pub fn build(kind: WorkloadKind, scale: &Scale, seed: u64) -> Workload {
    let anneal_path = RahtmConfig {
        use_milp: false,
        ..RahtmConfig::default()
    };
    let (config, graphs) = match kind {
        WorkloadKind::NasMini => (
            anneal_path,
            Benchmark::all()
                .into_iter()
                .map(|b| nas_graph(b, scale.ranks))
                .collect(),
        ),
        WorkloadKind::CgMiniMilp => (
            RahtmConfig::default(),
            vec![nas_graph(Benchmark::Cg, scale.ranks)],
        ),
        WorkloadKind::IrregularMini => (
            anneal_path,
            // graph 0 uses the workload seed itself
            (0..IRREGULAR_GRAPHS)
                .map(|j| {
                    let s = seed.wrapping_add(j << 32);
                    let g = patterns::random(scale.ranks, 2 * scale.ranks as usize, 1.0, 20.0, s);
                    (format!("random{j}"), g, None)
                })
                .collect(),
        ),
    };
    let default = TaskMapping::abcdet(&scale.machine, scale.ranks);
    let cases = graphs
        .into_iter()
        .map(|(label, graph, grid)| {
            let default_mcl = mapping_mcl(
                scale.machine.torus(),
                &graph,
                default.nodes(),
                config.routing,
            );
            Case {
                label,
                graph,
                grid,
                default_mcl,
            }
        })
        .collect();
    Workload {
        kind,
        scale: scale.clone(),
        config,
        cases,
    }
}

fn nas_graph(b: Benchmark, ranks: u32) -> (String, CommGraph, Option<RankGrid>) {
    let spec = b.spec(ranks);
    (b.name().to_string(), spec.comm_graph(), Some(spec.grid))
}
