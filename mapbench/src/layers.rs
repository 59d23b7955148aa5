//! Per-layer numbers for the traced run.
//!
//! Counts come from the `Journal` of the traced mappings. Times come from
//! benchmark-side spans around replays of each layer's public entry point
//! on inputs derived from the workload and its final placement.
//!
//! Journal reading rules, which work around journal defects the README
//! lists:
//! B&B nodes are read from `lp.bnb.nodes_explored` only, because
//! `milp.nodes` counts the same thing; `milp.steals` is never read,
//! because it depends on scheduling; journal spans are summed over the
//! slice threads, so they are reported only as `*.busy_s`.

use crate::measure::{geomean, median, Attempt};
use crate::report::{ratio, Metric};
use crate::span::Tracer;
use crate::workload::{Case, Workload, WorkloadKind};
use rahtm_commgraph::contract::contract;
use rahtm_commgraph::RankGrid;
use rahtm_core::anneal::{anneal_map, AnnealOptions};
use rahtm_core::block::Block;
use rahtm_core::cluster::build_hierarchy_with;
use rahtm_core::merge::{merge_blocks, MergeOptions, PositionedBlock};
use rahtm_core::milp::{milp_map, MilpMapOptions};
use rahtm_core::{cores, TaskMapping};
use rahtm_lp::{Deadline, MilpOptions, SimplexOptions};
use rahtm_obs::{counters, spans, Journal, Recorder};
use rahtm_routing::RouteStencilCache;
use rahtm_topology::{SubCube, Torus};
use std::hint::black_box;
use std::sync::Arc;

/// Warm `route_graph` calls timed per replay.
const ROUTE_GRAPH_REPEATS: usize = 5;

/// Wall-clock cap on the `milp_map` replay. A full 60-node solve of a
/// random root problem takes over 20 s; its rates are taken over the time
/// it ran, which keeps a traced run well inside its time limit.
const MILP_REPLAY_SECS: f64 = 5.0;

/// Work counts of one replay, for the per-second rates.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    /// Proposals made by the `anneal_map` replay.
    pub anneal_proposals: f64,
    /// Simplex pivots made by the `milp_map` replay.
    pub lp_pivots: f64,
    /// Branch-and-bound nodes explored by the `milp_map` replay.
    pub lp_nodes: f64,
    /// Candidates scored by the side-4 `merge_blocks` replay.
    pub merge_candidates: f64,
}

/// Replays each layer's entry point on inputs derived from `case` and its
/// final `mapping`, inside one `replay` span:
///
/// - `cluster::build_hierarchy_with` on the workload graph, one tiling
///   level above the node clusters, leaving as many clusters as the
///   pipeline's per-slice root problem has;
/// - `anneal::anneal_map` and `milp::milp_map` on that root problem, with
///   the workload's solver settings (`milp_map` stops after
///   `MILP_REPLAY_SECS`);
/// - `RouteStencilCache::route_graph` on the final node placement (one
///   untimed call warms the cache);
/// - `merge::merge_blocks` on the final placement of the first slice cut
///   into side-2 blocks (the pipeline's side-4 merge), and on the whole
///   machine cut into slices (the final slice merge).
pub fn replay(w: &Workload, case: &Case, mapping: &TaskMapping, t: &mut Tracer) -> ReplayCounts {
    let cfg = &w.config;
    let machine = &w.scale.machine;
    let topo = machine.torus();
    let nodes = topo.num_nodes();
    let slices = machine.uniform_slices();
    let slice = &slices[0];
    let active: Vec<usize> = (0..topo.ndims())
        .filter(|&d| slice.extent().get(d) > 1)
        .collect();
    let root_count = 1u32 << active.len();
    let grid = case
        .grid
        .clone()
        .unwrap_or_else(|| RankGrid::near_square(case.graph.num_ranks()));
    let wraps: Vec<bool> = active
        .iter()
        .map(|&d| topo.wraps(d) && slice.extent().get(d) == topo.dim(d))
        .collect();
    let root_cube = Torus::with_wraps(&vec![2u16; active.len()], &wraps);
    let milp_threads = cores::resolve(cfg.milp_threads, slices.len());
    let mut counts = ReplayCounts::default();

    t.span("replay", |t| {
        let levels = t.span("cluster.build_hierarchy_with", |_| {
            build_hierarchy_with(
                &case.graph,
                &grid,
                case.graph.num_ranks() / nodes,
                nodes / root_count,
                root_count,
                cfg.tiling_search,
            )
        });
        let root = &levels[0].coarse_graph;
        let sa = t.span("anneal.anneal_map", |_| {
            anneal_map(
                &root_cube,
                root,
                &AnnealOptions {
                    iterations: cfg.anneal_iters,
                    seed: cfg.seed,
                    routing: cfg.routing,
                    ..Default::default()
                },
            )
        });
        counts.anneal_proposals = sa.iterations as f64;
        let lp_rec = Recorder::enabled();
        let milp = t.span("milp.milp_map", |_| {
            milp_map(
                &root_cube,
                root,
                &MilpMapOptions {
                    enforce_minimal: cfg.enforce_minimal,
                    symmetry_break: milp_threads > 1,
                    incumbent: Some(sa.placement.clone()),
                    milp: MilpOptions {
                        max_nodes: cfg.milp_node_budget,
                        threads: milp_threads,
                        lp: SimplexOptions {
                            max_iters: cfg.milp_lp_iters,
                            deadline: Deadline::after_secs(MILP_REPLAY_SECS),
                            recorder: lp_rec.clone(),
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                },
            )
        });
        black_box(milp.ok());
        counts.lp_pivots = lp_rec.counter(counters::SIMPLEX_PIVOTS) as f64;
        counts.lp_nodes = lp_rec.counter(counters::BNB_NODES_EXPLORED) as f64;

        // node-level graph of the final placement: cluster id = node id
        let g_node = contract(&case.graph, mapping.nodes(), nodes).coarse;
        let identity: Vec<u32> = (0..nodes).collect();
        let stencils = Arc::new(RouteStencilCache::new(topo));
        black_box(stencils.route_graph(topo, &g_node, &identity, cfg.routing));
        for _ in 0..ROUTE_GRAPH_REPEATS {
            t.span("routing.route_graph", |_| {
                black_box(stencils.route_graph(topo, &g_node, &identity, cfg.routing))
            });
        }

        let side4 = t.span("merge.merge_blocks.side4", |_| {
            merge_blocks(
                topo,
                &g_node,
                &cut(topo, &slice.bisect()),
                slice.origin(),
                slice.extent(),
                &MergeOptions {
                    beam_width: cfg.beam_width,
                    routing: cfg.routing,
                    stencils: Some(Arc::clone(&stencils)),
                    thread_cap: cores::share(slices.len()),
                    ..Default::default()
                },
            )
        });
        counts.merge_candidates = side4.candidates_evaluated as f64;
        if slices.len() > 1 {
            let whole = SubCube::whole(topo);
            t.span("merge.merge_blocks.slices", |_| {
                black_box(merge_blocks(
                    topo,
                    &g_node,
                    &cut(topo, &slices),
                    whole.origin(),
                    whole.extent(),
                    &MergeOptions {
                        beam_width: cfg.beam_width,
                        routing: cfg.routing,
                        stencils: Some(Arc::clone(&stencils)),
                        ..Default::default()
                    },
                ))
            });
        }
    });
    counts
}

/// One rigid block per box, holding the nodes inside it (cluster id =
/// node id) at box-local coordinates.
fn cut(topo: &Torus, boxes: &[SubCube]) -> Vec<PositionedBlock> {
    boxes
        .iter()
        .map(|b| PositionedBlock {
            block: Block {
                extent: *b.extent(),
                members: b
                    .nodes(topo)
                    .map(|n| (n, b.to_local(&topo.coord(n))))
                    .collect(),
            },
            origin: *b.origin(),
        })
        .collect()
}

/// Per-mapping mean of a journal counter over the traced mappings.
fn counter(journals: &[&Journal], name: &str) -> f64 {
    ratio(
        journals
            .iter()
            .map(|j| j.counter(name).unwrap_or(0) as f64)
            .sum(),
        journals.len() as f64,
    )
}

/// Per-mapping mean of a journal span's busy seconds.
fn busy(journals: &[&Journal], name: &str) -> f64 {
    ratio(
        journals
            .iter()
            .map(|j| j.span(name).map_or(0.0, |s| s.secs))
            .sum(),
        journals.len() as f64,
    )
}

/// Self time of the replay span `name` (0 if it did not run).
fn replay_secs(t: &Tracer, name: &str) -> f64 {
    t.self_times(name).iter().sum()
}

/// The per-layer metrics of a traced run (see the README for each one's
/// meaning and the end-to-end metric it should move).
pub fn per_layer(
    w: &Workload,
    attempts: &[Attempt],
    replayed: &ReplayCounts,
    t: &Tracer,
) -> Vec<Metric> {
    let journals: Vec<&Journal> = attempts
        .iter()
        .filter(|a| a.traced)
        .filter_map(|a| a.outcome.as_ref().ok().and_then(|r| r.journal.as_ref()))
        .collect();
    let c = |name: &str| counter(&journals, name);

    let stencil_hits = c(counters::STENCIL_HITS);
    let pivots = c(counters::SIMPLEX_PIVOTS);
    let explored = c(counters::BNB_NODES_EXPLORED);
    let pruned = c(counters::BNB_NODES_PRUNED);
    let accepted = c(counters::ANNEAL_ACCEPTED);
    let proposals = accepted + c(counters::ANNEAL_REJECTED);
    let sub_hits = c(counters::SUB_CACHE_HITS);
    let merge_hits = c(counters::MERGE_CACHE_HITS);
    let candidates = c(counters::MERGE_CANDIDATES_EVALUATED);
    let milp_busy = busy(&journals, spans::MILP);
    let slice_busy = milp_busy + busy(&journals, spans::MERGE) + busy(&journals, spans::CLUSTERING);
    let anneal_s = replay_secs(t, "anneal.anneal_map");
    let milp_s = replay_secs(t, "milp.milp_map");
    let side4_s = replay_secs(t, "merge.merge_blocks.side4");
    let slices_s = replay_secs(t, "merge.merge_blocks.slices");

    let wall = |traced: bool| -> Vec<f64> {
        let mut per_case = Vec::new();
        for i in 0..w.cases.len() {
            let v: Vec<f64> = attempts
                .iter()
                .filter(|a| a.case == i && a.traced == traced)
                .map(|a| a.wall_s)
                .collect();
            per_case.push(median(&v));
        }
        per_case
    };
    let traced_wall = wall(true);
    let overhead: Vec<f64> = traced_wall
        .iter()
        .zip(wall(false))
        .map(|(t, u)| t / u)
        .collect();
    let pipeline_wall = ratio(traced_wall.iter().sum(), traced_wall.len() as f64);

    vec![
        Metric::new("routing.stencil.hits", stencil_hits, "count"),
        Metric::new(
            "routing.stencil.hit_ratio",
            ratio(stencil_hits, stencil_hits + c(counters::STENCIL_MISSES)),
            "ratio",
        ),
        Metric::new(
            "routing.route_graph_s",
            median(&t.self_times("routing.route_graph")),
            "s",
        )
        .with_note("warm cache, final placement"),
        Metric::new(
            "routing.mapping_mcl_s",
            median(&t.self_times("routing.mapping_mcl")),
            "s",
        )
        .with_note("direct router, in the check"),
        Metric::new("lp.simplex.pivots", pivots, "count"),
        Metric::new("lp.pivots_per_s", ratio(replayed.lp_pivots, milp_s), "1/s")
            .with_note("milp_map replay"),
        Metric::new("lp.bnb.nodes", explored, "count").with_note("lp.bnb.nodes_explored"),
        Metric::new(
            "lp.bnb.nodes_per_s",
            ratio(replayed.lp_nodes, milp_s),
            "1/s",
        )
        .with_note("milp_map replay"),
        Metric::new(
            "lp.bnb.pruned_ratio",
            ratio(pruned, explored + pruned),
            "ratio",
        ),
        Metric::new("anneal.proposals", proposals, "count"),
        Metric::new("anneal.accept_ratio", ratio(accepted, proposals), "ratio"),
        Metric::new(
            "anneal.proposals_per_s",
            ratio(replayed.anneal_proposals, anneal_s),
            "1/s",
        )
        .with_note("anneal_map replay"),
        Metric::new("anneal.busy_s", anneal_s, "s")
            .with_note("one anneal_map call on the root problem"),
        Metric::new("milp.busy_s", milp_busy, "s").with_note("pipeline.milp, summed over slices"),
        Metric::new(
            "milp.subproblems_solved",
            c(counters::SUBPROBLEMS_SOLVED),
            "count",
        ),
        Metric::new(
            "milp.cache_hit_ratio",
            ratio(sub_hits, sub_hits + c(counters::SUB_CACHE_MISSES)),
            "ratio",
        ),
        Metric::new("merge.candidates", candidates, "count"),
        Metric::new(
            "merge.kept_ratio",
            ratio(c(counters::MERGE_CANDIDATES_KEPT), candidates),
            "ratio",
        ),
        Metric::new(
            "merge.candidates_per_s",
            ratio(replayed.merge_candidates, side4_s),
            "1/s",
        )
        .with_note("side-4 merge_blocks replay"),
        Metric::new(
            "merge.side4.busy_s",
            busy(&journals, &spans::merge_side(4)),
            "s",
        )
        .with_note("summed over slices"),
        Metric::new("merge.slices_s", slices_s, "s").with_note("final slice merge replay"),
        Metric::new(
            "merge.cache_hit_ratio",
            ratio(merge_hits, merge_hits + c(counters::MERGE_CACHE_MISSES)),
            "ratio",
        ),
        Metric::new("cluster.busy_s", busy(&journals, spans::CLUSTERING), "s"),
        Metric::new("pipeline.wall_s", pipeline_wall, "s").with_note("traced mappings"),
        Metric::new(
            "pipeline.parallelism",
            ratio(slice_busy, pipeline_wall - slices_s),
            "ratio",
        )
        .with_note("slice busy / (wall - final slice merge)"),
        Metric::new("obs.trace_overhead_frac", geomean(&overhead) - 1.0, "frac")
            .with_note("traced / untraced map_s.p50 - 1"),
    ]
}

/// The predictions stated for `kind`, as (statement, holds).
pub fn predictions(kind: WorkloadKind, layer: &[Metric]) -> Vec<(&'static str, bool)> {
    let get = |name: &str| {
        layer
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let no_pivots = ("lp.simplex.pivots == 0", get("lp.simplex.pivots") == 0.0);
    match kind {
        WorkloadKind::NasMini => vec![no_pivots],
        WorkloadKind::IrregularMini => vec![
            no_pivots,
            (
                "milp.cache_hit_ratio == 0",
                get("milp.cache_hit_ratio") == 0.0,
            ),
        ],
        WorkloadKind::CgMiniMilp => vec![(
            "milp.busy_s > merge.side4.busy_s + merge.slices_s + cluster.busy_s",
            get("milp.busy_s")
                > get("merge.side4.busy_s") + get("merge.slices_s") + get("cluster.busy_s"),
        )],
    }
}
