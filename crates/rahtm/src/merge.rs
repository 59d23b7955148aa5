//! Phase 3: bottom-up merging by orientation beam search (§III-D).
//!
//! The merge is one loop of identical beam steps. The beam starts as a
//! single empty entry (nothing placed, no load). Step 0 places the first
//! two children of the merge order together, searching both orientation
//! sets exhaustively as in the paper's walkthrough (Figure 7); every later
//! step places the next child, in decreasing order of pairwise interaction
//! (average pair MCL). A step's candidates are every retained entry times
//! every combination of the incoming children's hyperoctahedral
//! re-orientations, and the best `N` survive. `N` (the beam width) is the
//! paper's key knob — it fixes `N = 64`; `N = 1` degenerates to the pure
//! greedy the paper argues against, and the ablation bench sweeps it.
//!
//! Step 0 scores the pair on an empty machine, so two orientation pairs
//! that differ by a machine automorphism acting on both children in
//! place score the same MCL bits. Step 0 therefore scores one pair per
//! orbit of that symmetry group (see `step0_symmetry`) and ranks each
//! orbit's other pairs with the copied score: the ranked list, and so the
//! result, is the exhaustive one. At mini-1k the slice merge scores 48 of
//! its 2304 pairs and each side-4 step 0 scores 144 of 2304.
//!
//! Evaluation is incremental: each beam entry carries its accumulated
//! channel loads; a candidate's MCL is computed by routing only the flows
//! *incident to the incoming children* into a scratch accumulator and
//! taking the elementwise max against the entry's loads — no full
//! re-routing. Positions are dense `Vec`s indexed by cluster id and the
//! channel list is precomputed, keeping the per-candidate cost at
//! `O(incident flows × path box + channels)`.

use crate::block::Block;
use rahtm_commgraph::{CommGraph, Rank};
use rahtm_lp::Deadline;
use rahtm_obs::{counters, Recorder};
use rahtm_routing::{ChannelLoads, RouteStencilCache, Routing};
use rahtm_topology::{ChannelId, Coord, NodeId, Orientation, Torus};
use std::collections::HashMap;
use std::panic::resume_unwind;
use std::sync::Arc;

const UNPLACED: NodeId = NodeId::MAX;

/// Blocks with more members than this search only axis flips (identity
/// permutation) instead of the full hyperoctahedral group. This bounds the
/// cost of merging very large blocks: in practice only the final
/// machine-level merge of whole slices, and only once a slice holds more
/// than 64 node-clusters. Paper-16k's 256-member slices rank the 16² flip
/// pairs and, with all 16 flips in the step-0 symmetry group, score 16 of
/// them; the full group would score 384 (its 384² pairs over |H| = 384).
/// Mini-1k's 64-member slices rank all 48² pairs and score 48.
const FULL_GROUP_MEMBER_LIMIT: usize = 64;

/// Merge-phase knobs.
#[derive(Clone, Debug)]
pub struct MergeOptions {
    /// Beam width `N` (paper: 64).
    pub beam_width: usize,
    /// Routing model used for MCL scoring (paper: the MAR approximation).
    pub routing: Routing,
    /// Wall-clock budget: checked on entry and between beam steps. On
    /// expiry the search stops and any still-unplaced child keeps its
    /// identity orientation — a valid (if unoptimized) composition is
    /// always returned. The default never expires.
    pub deadline: Deadline,
    /// Trace sink (disabled by default; search totals are recorded once
    /// per merge, never per candidate).
    pub recorder: Recorder,
    /// Shared routing-stencil cache for `topo` (a private one is created
    /// when absent). The same machine topology hosts every merge of a run,
    /// so sharing amortizes stencil construction across all of them.
    pub stencils: Option<Arc<RouteStencilCache>>,
    /// Core cap for the orientation-search worker pool (`0` = all
    /// available cores). The pipeline sets this to the calling slice's
    /// core share ([`crate::cores::share`]) so concurrent slice workers —
    /// and the MILP's branch-and-bound threads — never oversubscribe the
    /// machine between them.
    pub thread_cap: usize,
}

impl Default for MergeOptions {
    fn default() -> Self {
        MergeOptions {
            beam_width: 64,
            routing: Routing::UniformMinimal,
            deadline: Deadline::never(),
            recorder: Recorder::disabled(),
            stencils: None,
            thread_cap: 0,
        }
    }
}

/// A child block positioned (pseudo-pinned) at a global origin.
#[derive(Clone, Debug)]
pub struct PositionedBlock {
    /// The rigid block.
    pub block: Block,
    /// Global machine coordinate of the block's origin.
    pub origin: Coord,
}

/// Result of merging one parent's children.
#[derive(Clone, Debug)]
pub struct MergeResult {
    /// The merged parent block (coordinates relative to `parent_origin`).
    pub block: Block,
    /// MCL of the parent's internal traffic under the chosen orientations.
    pub mcl: f64,
    /// Orientation candidates scored.
    pub candidates_evaluated: usize,
    /// Step-0 candidates ranked without scoring: symmetry images of a
    /// scored candidate, which share its MCL bit for bit.
    pub candidates_skipped: usize,
    /// Candidates surviving beam truncation across all steps (the beam
    /// entries actually carried forward).
    pub candidates_kept: usize,
    /// Whether the wall-clock deadline cut the orientation search short
    /// (unsearched children were composed with identity orientation).
    pub deadline_hit: bool,
}

struct BeamEntry {
    /// chosen orientation index per child (UNSET for unplaced children)
    choices: Vec<usize>,
    loads: ChannelLoads,
    mcl: f64,
}

const UNSET: usize = usize::MAX;

/// Merges positioned child blocks inside the parent region
/// `[parent_origin, parent_origin + parent_extent)`, searching child
/// orientations by beam search and scoring with `graph`'s flows routed on
/// `topo`. Only flows with both endpoints inside the parent contribute.
pub fn merge_blocks(
    topo: &Torus,
    graph: &CommGraph,
    children: &[PositionedBlock],
    parent_origin: &Coord,
    parent_extent: &Coord,
    opts: &MergeOptions,
) -> MergeResult {
    assert!(!children.is_empty());
    let local_cache;
    let stencils: &RouteStencilCache = match &opts.stencils {
        Some(c) => {
            debug_assert!(c.matches(topo), "stencil cache bound to a different topology");
            c
        }
        None => {
            local_cache = RouteStencilCache::new(topo);
            &local_cache
        }
    };
    // Trivial cases: single child or no orientation freedom anywhere. An
    // already-expired deadline takes the same path: identity composition
    // is the merge ladder's bottom rung and costs one routing pass.
    let expired_on_entry = opts.deadline.is_expired();
    if children.iter().all(|c| c.block.is_unit()) || children.len() == 1 || expired_on_entry {
        let composed = Block::compose(
            parent_origin,
            parent_extent,
            &children
                .iter()
                .map(|c| (c.block.clone(), c.origin))
                .collect::<Vec<_>>(),
        );
        let mcl = block_mcl(topo, graph, &composed, parent_origin, opts.routing, stencils);
        opts.recorder.incr(counters::DEADLINE_CHECKS);
        if expired_on_entry {
            opts.recorder.incr(counters::DEGRADE_IDENTITY_MERGES);
        }
        return MergeResult {
            block: composed,
            mcl,
            candidates_evaluated: 0,
            candidates_skipped: 0,
            candidates_kept: 0,
            deadline_hit: expired_on_entry,
        };
    }

    let nclusters = graph.num_ranks() as usize;
    let chans: Vec<(ChannelId, f64)> = topo.channels().map(|c| (c.id, c.width)).collect();

    let orient_sets: Vec<Vec<Orientation>> =
        children.iter().map(|c| orientations(&c.block)).collect();

    // child index of each cluster inside the parent (UNSET = outside)
    let mut child_of = vec![UNSET; nclusters];
    for (i, c) in children.iter().enumerate() {
        for &(m, _) in &c.block.members {
            child_of[m as usize] = i;
        }
    }
    // flows fully inside the parent
    let local_flows: Vec<(Rank, Rank, f64)> = graph
        .flows()
        .iter()
        .filter(|f| child_of[f.src as usize] != UNSET && child_of[f.dst as usize] != UNSET)
        .map(|f| (f.src, f.dst, f.bytes))
        .collect();

    // Precompute member node positions for every (child, orientation).
    let positions: Vec<Vec<Vec<(Rank, NodeId)>>> = children
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            orient_sets[ci]
                .iter()
                .map(|o| {
                    c.block
                        .reoriented(o)
                        .placed(&c.origin)
                        .into_iter()
                        .map(|(m, g)| (m, topo.node_id(&g)))
                        .collect()
                })
                .collect()
        })
        .collect();

    // Merge order: decreasing average pairwise MCL (identity orientations).
    let order = merge_order(topo, graph, children, opts.routing, stencils);

    opts.recorder.add(
        counters::MERGE_ORIENTATIONS,
        orient_sets.iter().map(|os| os.len() as u64).sum(),
    );

    let mut candidates_evaluated = 0usize;
    let mut candidates_skipped = 0usize;
    let mut candidates_kept = 0usize;
    let mut deadline_polls = 1usize; // the entry check above
    let mut deadline_hit = false;
    let mut node_of = vec![UNPLACED; nclusters];
    // Recycled accumulators for beam re-scoring: entries evicted from the
    // beam donate their allocation back instead of dropping it.
    let mut pool: Vec<ChannelLoads> = Vec::new();
    let mut beam = vec![BeamEntry {
        choices: vec![UNSET; children.len()],
        loads: ChannelLoads::new(topo),
        mcl: 0.0,
    }];
    let mut placed: Vec<usize> = Vec::new();
    // placed ∪ incoming, per child
    let mut in_scope = vec![false; children.len()];

    // Step 0 places the first pair together; every later step one child.
    let steps = std::iter::once(&order[..2]).chain(order[2..].chunks(1));
    for (step, incoming) in steps.enumerate() {
        // the entry check already covers step 0
        if step > 0 {
            deadline_polls += 1;
            if opts.deadline.is_expired() {
                // out of time: children not yet searched keep their
                // identity orientation (filled in below)
                deadline_hit = true;
                break;
            }
        }
        for &c in incoming {
            in_scope[c] = true;
        }
        // flows with an endpoint in an incoming child and the other placed
        // or incoming, in `local_flows` order
        let incident: Vec<&(Rank, Rank, f64)> = local_flows
            .iter()
            .filter(|&&(s, d, _)| {
                let (cs, cd) = (child_of[s as usize], child_of[d as usize]);
                (incoming.contains(&cs) || incoming.contains(&cd)) && in_scope[cs] && in_scope[cd]
            })
            .collect();
        let route = |node_of: &[NodeId], loads: &mut ChannelLoads| {
            for &&(s, d, bytes) in &incident {
                let (ns, nd) = (node_of[s as usize], node_of[d as usize]);
                stencils.route_flow(topo, opts.routing, ns, nd, bytes, loads);
            }
        };

        // Candidates are (entry, combo) with `combo` a row-major index into
        // the product of the incoming orientation sets, flattened entry-major.
        // Step 0 scores one combo per orbit of its symmetry group and copies
        // each score to the rest of the orbit (see `step0_symmetry`); later
        // steps score every candidate. Workers score contiguous runs of the
        // `scored` list; the sort after makes the result independent of the
        // split.
        let combos: usize = incoming.iter().map(|&c| orient_sets[c].len()).product();
        let total = beam.len() * combos;
        let rep_of = match step {
            0 => step0_orbits(topo, opts.routing, children, incoming, &orient_sets),
            _ => None,
        };
        let scored: Vec<usize> = match &rep_of {
            Some(rep_of) => (0..total).filter(|&k| rep_of[k] == k).collect(),
            None => (0..total).collect(),
        };
        let last_orients = orient_sets[incoming[incoming.len() - 1]].len();
        let n_threads = crate::cores::workers_for(scored.len() / last_orients, opts.thread_cap);
        let chunk = scored.len().div_ceil(n_threads);
        // one run of the `scored` list, with its own scratch accumulator
        // and positions array
        let score_run = |run: &[usize]| {
            // no un-setting needed: every candidate sets each placed and
            // incoming member the incident flows read
            let mut node_of = vec![UNPLACED; nclusters];
            let mut choices = vec![UNSET; children.len()];
            let mut scratch = ChannelLoads::new(topo);
            let mut out = Vec::with_capacity(run.len());
            let mut entry_set = UNSET;
            for &k in run {
                let (ei, combo) = (k / combos, k % combos);
                let entry = &beam[ei];
                if ei != entry_set {
                    for &c in &placed {
                        place(&mut node_of, &positions[c][entry.choices[c]]);
                    }
                    entry_set = ei;
                }
                decode_combo(combo, incoming, &orient_sets, &mut choices);
                for &c in incoming {
                    place(&mut node_of, &positions[c][choices[c]]);
                }
                scratch.clear();
                route(&node_of, &mut scratch);
                // incremental MCL: untouched channels keep the entry's loads
                let mut mcl = entry.mcl;
                for &(id, w) in &chans {
                    let add = scratch.get(id);
                    if add > 0.0 {
                        let v = (entry.loads.get(id) + add) / w;
                        if v > mcl {
                            mcl = v;
                        }
                    }
                }
                out.push((mcl, ei, combo));
            }
            out
        };
        // a single worker runs on the calling thread
        let mut ranked: Vec<(f64, usize, usize)> = if n_threads == 1 {
            score_run(&scored)
        } else {
            crossbeam::thread::scope(|scope| {
                let score_run = &score_run;
                let handles: Vec<_> = scored
                    .chunks(chunk)
                    .map(|run| scope.spawn(move |_| score_run(run)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                    .collect()
            })
            .unwrap_or_else(|p| resume_unwind(p))
        };
        candidates_evaluated += scored.len();
        candidates_skipped += total - scored.len();
        if let Some(rep_of) = rep_of {
            // step 0 has one beam entry, so a candidate index is its combo
            let mut score = vec![0.0; total];
            for &(mcl, _, combo) in &ranked {
                score[combo] = mcl;
            }
            ranked = (0..total).map(|k| (score[rep_of[k]], 0, k)).collect();
        }
        ranked.sort_by(|x, y| {
            x.0.total_cmp(&y.0)
                .then(x.1.cmp(&y.1))
                .then(x.2.cmp(&y.2))
        });
        ranked.truncate(opts.beam_width.max(1));
        let new_beam: Vec<BeamEntry> = ranked
            .into_iter()
            .map(|(_, ei, combo)| {
                let entry = &beam[ei];
                let mut choices = entry.choices.clone();
                decode_combo(combo, incoming, &orient_sets, &mut choices);
                for &c in placed.iter().chain(incoming) {
                    place(&mut node_of, &positions[c][choices[c]]);
                }
                let mut loads = match pool.pop() {
                    Some(mut l) => {
                        l.copy_from(&entry.loads);
                        l
                    }
                    None => entry.loads.clone(),
                };
                route(&node_of, &mut loads);
                let mcl = loads.mcl(topo);
                BeamEntry { choices, loads, mcl }
            })
            .collect();
        candidates_kept += new_beam.len();
        let evicted = std::mem::replace(&mut beam, new_beam);
        pool.extend(evicted.into_iter().map(|e| e.loads));
        placed.extend_from_slice(incoming);
    }

    // best entry -> composed parent block; children the (possibly
    // deadline-cut) search never placed fall back to identity orientation
    // (step 0 always leaves a non-empty beam; the first minimum wins)
    let best = beam[1..].iter().fold(&beam[0], |best, e| {
        if e.mcl.total_cmp(&best.mcl).is_lt() {
            e
        } else {
            best
        }
    });
    let composed = Block::compose(
        parent_origin,
        parent_extent,
        &children
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let os = &orient_sets[i];
                let choice = match best.choices[i] {
                    UNSET => os
                        .iter()
                        .position(|o| (0..o.ndims()).all(|d| o.perm(d) == d && !o.flipped(d)))
                        .unwrap_or(0),
                    chosen => chosen,
                };
                (c.block.reoriented(&os[choice]), c.origin)
            })
            .collect::<Vec<_>>(),
    );
    // a deadline-cut search composed children its beam never scored, so
    // recompute the MCL of what was actually built
    let mcl = block_mcl(topo, graph, &composed, parent_origin, opts.routing, stencils);
    opts.recorder
        .add(counters::MERGE_CANDIDATES_EVALUATED, candidates_evaluated as u64);
    opts.recorder
        .add(counters::MERGE_CANDIDATES_SKIPPED, candidates_skipped as u64);
    opts.recorder
        .add(counters::MERGE_CANDIDATES_KEPT, candidates_kept as u64);
    opts.recorder.add(counters::DEADLINE_CHECKS, deadline_polls as u64);
    if deadline_hit {
        opts.recorder.incr(counters::DEGRADE_IDENTITY_MERGES);
    }
    MergeResult {
        block: composed,
        mcl,
        candidates_evaluated,
        candidates_skipped,
        candidates_kept,
        deadline_hit,
    }
}

/// Writes the orientation indices encoded by `combo`, a row-major index
/// into the product of the `incoming` children's orientation sets, into
/// `choices`.
fn decode_combo(
    mut combo: usize,
    incoming: &[usize],
    orient_sets: &[Vec<Orientation>],
    choices: &mut [usize],
) {
    for &c in incoming.iter().rev() {
        let n = orient_sets[c].len();
        choices[c] = combo % n;
        combo /= n;
    }
}

/// The orientations a child block is searched over: its extent-preserving
/// hyperoctahedral group, without flips of extent-1 dimensions (no-ops),
/// and only the axis flips for blocks above [`FULL_GROUP_MEMBER_LIMIT`].
/// The identity is always first.
fn orientations(block: &Block) -> Vec<Orientation> {
    let extent = &block.extent;
    let mut os = Orientation::enumerate_for(extent);
    os.retain(|o| (0..o.ndims()).all(|d| extent.get(o.perm(d)) > 1 || !o.flipped(d)));
    if block.members.len() > FULL_GROUP_MEMBER_LIMIT {
        os.retain(|o| (0..o.ndims()).all(|d| o.perm(d) == d));
    }
    os
}

/// For each step-0 combo (row-major over the orientation sets of
/// `pair = order[0..2]`), the smallest combo in its orbit under the step-0
/// symmetry group ([`step0_symmetry`]); `None` when that group is trivial.
fn step0_orbits(
    topo: &Torus,
    routing: Routing,
    children: &[PositionedBlock],
    pair: &[usize],
    orient_sets: &[Vec<Orientation>],
) -> Option<Vec<usize>> {
    let images = step0_symmetry(topo, routing, children, pair, orient_sets);
    if images.len() <= 1 {
        return None;
    }
    // combos in increasing order: the first one an orbit reaches is its
    // smallest, and it claims the whole orbit
    let (n0, n1) = (orient_sets[pair[0]].len(), orient_sets[pair[1]].len());
    let mut rep_of = vec![UNSET; n0 * n1];
    for k in 0..n0 * n1 {
        if rep_of[k] == UNSET {
            for [ia, ib] in &images {
                rep_of[ia[k / n1] * n1 + ib[k % n1]] = k;
            }
        }
    }
    Some(rep_of)
}

/// The step-0 symmetry group H of a merge, as orientation-index images:
/// for each h in H, `[ia, ib]` maps an orientation index of child `pair[0]`
/// (resp. `pair[1]`) to the index of that orientation followed by h.
///
/// H holds the orientations h, in both children's sets, such that
/// re-orienting each child by h inside its own box is one automorphism of
/// the machine ([`moves_as_one`]) under which the routing model's loads
/// are equal bit for bit. Step 0 routes only the two children's mutual
/// traffic onto an empty machine, so combos `(a, b)` and `(a·h, b·h)` then
/// score the same MCL bits. Empty when only the identity could qualify:
/// under [`Routing::DimOrder`] (fixed axis order, positive tie-break) and
/// for children of unequal extents.
fn step0_symmetry(
    topo: &Torus,
    routing: Routing,
    children: &[PositionedBlock],
    pair: &[usize],
    orient_sets: &[Vec<Orientation>],
) -> Vec<[Vec<usize>; 2]> {
    let (c0, c1) = (&children[pair[0]], &children[pair[1]]);
    if routing == Routing::DimOrder || c0.block.extent != c1.block.extent {
        return Vec::new();
    }
    // A dimension permutation reorders the per-dimension ln k! terms the
    // uniform-minimal split sums; with at most 2 hops per dimension every
    // term is 0 or ln 2, so the sums keep their bits. Reflections never
    // reorder them.
    let short_hops = (0..topo.ndims()).all(|d| {
        let k = topo.dim(d);
        (if topo.wraps(d) { k / 2 } else { k - 1 }) <= 2
    });
    let index: Vec<HashMap<Orientation, usize>> = pair
        .iter()
        .map(|&c| orient_sets[c].iter().enumerate().map(|(i, &o)| (o, i)).collect())
        .collect();
    let images = |c: usize, h: &Orientation| -> Option<Vec<usize>> {
        orient_sets[pair[c]].iter().map(|a| index[c].get(&a.then(h)).copied()).collect()
    };
    orient_sets[pair[0]]
        .iter()
        .filter(|h| moves_as_one(topo, h, c0, c1, short_hops))
        .filter_map(|h| Some([images(0, h)?, images(1, h)?]))
        .collect()
}

/// Whether re-orienting `c0` and `c1` (equal extents) by `h` inside their
/// own boxes is the restriction of one machine automorphism
/// `x ↦ y`, `y[d] = ±x[h.perm(d)] + t[d]`. On each child the map sends
/// `x[p]` to `o[d] + (x[p] − o[p])`, or `o[d] + e[d] − 1 − (x[p] − o[p])`
/// mirrored, so `t[d]` must agree between the children (mod the ring
/// length on a wrapped dimension). An unwrapped dimension only admits
/// `t = 0` or the whole-dimension reflection `t = k − 1`. A permuted pair
/// of dimensions must match in size, wrap and width, and needs
/// `short_hops` (see [`step0_symmetry`]).
fn moves_as_one(
    topo: &Torus,
    h: &Orientation,
    c0: &PositionedBlock,
    c1: &PositionedBlock,
    short_hops: bool,
) -> bool {
    (0..topo.ndims()).all(|d| {
        let (p, flip) = (h.perm(d), h.flipped(d));
        let alike = topo.dim(p) == topo.dim(d)
            && topo.wraps(p) == topo.wraps(d)
            && topo.dim_width(p) == topo.dim_width(d);
        if p != d && !(short_hops && alike) {
            return false;
        }
        let offset = |c: &PositionedBlock| {
            let (od, op) = (i64::from(c.origin.get(d)), i64::from(c.origin.get(p)));
            match flip {
                true => od + op + i64::from(c.block.extent.get(d)) - 1,
                false => od - op,
            }
        };
        let (t0, t1, k) = (offset(c0), offset(c1), i64::from(topo.dim(d)));
        match topo.wraps(d) {
            true => (t0 - t1).rem_euclid(k) == 0,
            false => t0 == t1 && t0 == if flip { k - 1 } else { 0 },
        }
    })
}

/// Records each member's node in `node_of`.
fn place(node_of: &mut [NodeId], members: &[(Rank, NodeId)]) {
    for &(m, nd) in members {
        node_of[m as usize] = nd;
    }
}

/// MCL of a block's internal traffic at a given origin.
fn block_mcl(
    topo: &Torus,
    graph: &CommGraph,
    block: &Block,
    origin: &Coord,
    routing: Routing,
    stencils: &RouteStencilCache,
) -> f64 {
    let mut loads = ChannelLoads::new(topo);
    let mut node_of = vec![UNPLACED; graph.num_ranks() as usize];
    for (m, g) in block.placed(origin) {
        node_of[m as usize] = topo.node_id(&g);
    }
    for f in graph.flows() {
        let (ns, nd) = (node_of[f.src as usize], node_of[f.dst as usize]);
        if ns != UNPLACED && nd != UNPLACED {
            stencils.route_flow(topo, routing, ns, nd, f.bytes, &mut loads);
        }
    }
    loads.mcl(topo)
}

/// The paper's merge order: decreasing average pairwise MCL. Pairwise
/// interaction is measured with identity orientations (an exhaustive
/// orientation-pair minimum is exponential in n and changes only the
/// *order*, not the search itself).
fn merge_order(
    topo: &Torus,
    graph: &CommGraph,
    children: &[PositionedBlock],
    routing: Routing,
    stencils: &RouteStencilCache,
) -> Vec<usize> {
    let k = children.len();
    if k <= 2 {
        return (0..k).collect();
    }
    let nclusters = graph.num_ranks() as usize;
    let mut child_of = vec![UNSET; nclusters];
    let mut node_at = vec![UNPLACED; nclusters];
    for (i, c) in children.iter().enumerate() {
        for (m, g) in c.block.placed(&c.origin) {
            child_of[m as usize] = i;
            node_at[m as usize] = topo.node_id(&g);
        }
    }
    let mut avg = vec![0.0f64; k];
    let mut loads = ChannelLoads::new(topo);
    for i in 0..k {
        for j in i + 1..k {
            loads.clear();
            for f in graph.flows() {
                let (cs, cd) = (child_of[f.src as usize], child_of[f.dst as usize]);
                let cross = (cs == i && cd == j) || (cs == j && cd == i);
                if cross {
                    stencils.route_flow(
                        topo,
                        routing,
                        node_at[f.src as usize],
                        node_at[f.dst as usize],
                        f.bytes,
                        &mut loads,
                    );
                }
            }
            let m = loads.mcl(topo);
            avg[i] += m;
            avg[j] += m;
        }
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&x, &y| avg[y].total_cmp(&avg[x]).then(x.cmp(&y)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;

    fn c(xs: &[u16]) -> Coord {
        Coord::new(xs)
    }

    /// Two 2x1 blocks side by side on a 2x2 mesh; a heavy flow between one
    /// member of each. Under the MAR approximation the beam search must
    /// flip the blocks so the heavy endpoints sit on a *diagonal* (two
    /// minimal paths, half load each) — the Figure 1 insight, opposite of
    /// what hop-bytes would choose.
    #[test]
    fn merge_flips_blocks_to_shorten_heavy_flow() {
        let topo = Torus::mesh(&[2, 2]);
        let mut g = CommGraph::new(4);
        // clusters 0,1 in block A (column 0); 2,3 in block B (column 1)
        g.add(0, 2, 100.0); // heavy: wants 0 and 2 diagonal under MAR
        g.add(1, 3, 1.0);
        let block_a = Block {
            extent: c(&[2, 1]),
            members: vec![(0, c(&[0, 0])), (1, c(&[1, 0]))],
        };
        let block_b = Block {
            extent: c(&[2, 1]),
            // NOTE: 2 is at the far corner initially
            members: vec![(3, c(&[0, 0])), (2, c(&[1, 0]))],
        };
        let children = vec![
            PositionedBlock { block: block_a, origin: c(&[0, 0]) },
            PositionedBlock { block: block_b, origin: c(&[0, 1]) },
        ];
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[2, 2]),
            &MergeOptions::default(),
        );
        // find final positions
        let pos: std::collections::HashMap<_, _> =
            r.block.members.iter().cloned().collect();
        let d = pos[&0].l1_mesh(&pos[&2]);
        assert_eq!(d, 2, "heavy pair must end up diagonal: {:?}", r.block);
        // MCL: 50 from the split heavy flow (plus nothing overlapping)
        assert!(r.mcl <= 51.0 + 1e-9, "mcl {}", r.mcl);
        assert!(r.candidates_evaluated > 0);
    }

    #[test]
    fn unit_children_compose_directly() {
        let topo = Torus::mesh(&[2, 2]);
        let g = patterns::ring(4, 2.0);
        let children: Vec<PositionedBlock> = (0..4)
            .map(|i| PositionedBlock {
                block: Block::single(2, i),
                origin: c(&[(i / 2) as u16, (i % 2) as u16]),
            })
            .collect();
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[2, 2]),
            &MergeOptions::default(),
        );
        assert_eq!(r.candidates_evaluated, 0);
        assert_eq!(r.block.members.len(), 4);
        assert!(r.mcl > 0.0);
    }

    #[test]
    fn beam_one_never_beats_wide_beam() {
        let topo = Torus::mesh(&[4, 4]);
        let g = patterns::random(16, 40, 1.0, 10.0, 11);
        // four 2x2 blocks with scrambled interiors
        let children: Vec<PositionedBlock> = (0..4)
            .map(|q| {
                let base = q * 4;
                PositionedBlock {
                    block: Block {
                        extent: c(&[2, 2]),
                        members: vec![
                            (base + 3, c(&[0, 0])),
                            (base + 1, c(&[0, 1])),
                            (base + 2, c(&[1, 0])),
                            (base, c(&[1, 1])),
                        ],
                    },
                    origin: c(&[(q / 2) as u16 * 2, (q % 2) as u16 * 2]),
                }
            })
            .collect();
        let narrow = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 4]),
            &MergeOptions { beam_width: 1, ..Default::default() },
        );
        let wide = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 4]),
            &MergeOptions { beam_width: 64, ..Default::default() },
        );
        assert!(wide.mcl <= narrow.mcl + 1e-9, "wide {} narrow {}", wide.mcl, narrow.mcl);
    }

    #[test]
    fn merged_block_has_all_members_bijectively_placed() {
        let topo = Torus::mesh(&[4, 2]);
        let g = patterns::random(8, 20, 1.0, 5.0, 3);
        let children: Vec<PositionedBlock> = (0..2)
            .map(|h| PositionedBlock {
                block: Block {
                    extent: c(&[2, 2]),
                    members: (0..4)
                        .map(|i| (h * 4 + i, c(&[(i / 2) as u16, (i % 2) as u16])))
                        .collect(),
                },
                origin: c(&[h as u16 * 2, 0]),
            })
            .collect();
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 2]),
            &MergeOptions::default(),
        );
        assert_eq!(r.block.members.len(), 8);
        let coords: std::collections::HashSet<_> =
            r.block.members.iter().map(|&(_, x)| x).collect();
        assert_eq!(coords.len(), 8);
    }

    #[test]
    fn reported_mcl_matches_recomputation() {
        let topo = Torus::mesh(&[2, 2]);
        let g = patterns::figure1(50.0, 2.0);
        let children: Vec<PositionedBlock> = vec![
            PositionedBlock {
                block: Block {
                    extent: c(&[1, 2]),
                    members: vec![(0, c(&[0, 0])), (1, c(&[0, 1]))],
                },
                origin: c(&[0, 0]),
            },
            PositionedBlock {
                block: Block {
                    extent: c(&[1, 2]),
                    members: vec![(2, c(&[0, 0])), (3, c(&[0, 1]))],
                },
                origin: c(&[1, 0]),
            },
        ];
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[2, 2]),
            &MergeOptions::default(),
        );
        let cache = RouteStencilCache::new(&topo);
        let check = block_mcl(&topo, &g, &r.block, &c(&[0, 0]), Routing::UniformMinimal, &cache);
        assert!((r.mcl - check).abs() < 1e-9);
    }

    #[test]
    fn large_blocks_search_flips_only() {
        // two side-by-side s×s blocks on a 2s×s mesh: at s = 8 (64 members,
        // at FULL_GROUP_MEMBER_LIMIT) the first pair searches the full
        // group, 8 orientations each; at s = 9 (81 members) the axis flips
        // only, 4 each
        for (s, per_child) in [(8u16, 8), (9, 4)] {
            let side = u32::from(s);
            let n = side * side;
            let topo = Torus::mesh(&[2 * s, s]);
            let g = patterns::random(2 * n, 4 * n as usize, 1.0, 5.0, 21);
            let children: Vec<PositionedBlock> = (0..2)
                .map(|h| PositionedBlock {
                    block: Block {
                        extent: c(&[s, s]),
                        members: (0..n)
                            .map(|i| (h * n + i, c(&[(i / side) as u16, (i % side) as u16])))
                            .collect(),
                    },
                    origin: c(&[h as u16 * s, 0]),
                })
                .collect();
            let r = merge_blocks(
                &topo,
                &g,
                &children,
                &c(&[0, 0]),
                &c(&[2 * s, s]),
                &MergeOptions::default(),
            );
            // only the whole-column flip x[1] -> s-1-x[1] is a machine
            // automorphism: step 0 scores half the pairs
            assert_eq!(
                (r.candidates_evaluated, r.candidates_skipped),
                (per_child * per_child / 2, per_child * per_child / 2),
                "{s}x{s} blocks"
            );
        }
    }

    #[test]
    fn expired_deadline_composes_identity_and_reports_it() {
        let topo = Torus::mesh(&[4, 2]);
        let g = patterns::random(8, 20, 1.0, 5.0, 3);
        let children: Vec<PositionedBlock> = (0..2)
            .map(|h| PositionedBlock {
                block: Block {
                    extent: c(&[2, 2]),
                    members: (0..4)
                        .map(|i| (h * 4 + i, c(&[(i / 2) as u16, (i % 2) as u16])))
                        .collect(),
                },
                origin: c(&[h as u16 * 2, 0]),
            })
            .collect();
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 2]),
            &MergeOptions {
                deadline: Deadline::after_secs(0.0),
                ..Default::default()
            },
        );
        assert!(r.deadline_hit, "expired deadline must be reported");
        assert_eq!(r.candidates_evaluated, 0, "no search under a dead clock");
        assert_eq!(r.block.members.len(), 8, "composition must still be complete");
        let coords: std::collections::HashSet<_> =
            r.block.members.iter().map(|&(_, x)| x).collect();
        assert_eq!(coords.len(), 8);
        let cache = RouteStencilCache::new(&topo);
        let check = block_mcl(&topo, &g, &r.block, &c(&[0, 0]), Routing::UniformMinimal, &cache);
        assert!((r.mcl - check).abs() < 1e-9);
    }

    #[test]
    fn three_block_merge_uses_incremental_path() {
        // 3 children exercise a step after step 0 (the first pair)
        let topo = Torus::mesh(&[2, 3]);
        let g = patterns::random(6, 14, 1.0, 8.0, 42);
        let children: Vec<PositionedBlock> = (0..3)
            .map(|i| PositionedBlock {
                block: Block {
                    extent: c(&[2, 1]),
                    members: vec![(2 * i, c(&[0, 0])), (2 * i + 1, c(&[1, 0]))],
                },
                origin: c(&[0, i as u16]),
            })
            .collect();
        let r = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[2, 3]),
            &MergeOptions::default(),
        );
        assert_eq!(r.block.members.len(), 6);
        let cache = RouteStencilCache::new(&topo);
        let check = block_mcl(&topo, &g, &r.block, &c(&[0, 0]), Routing::UniformMinimal, &cache);
        assert!(
            (r.mcl - check).abs() < 1e-9,
            "incremental mcl {} vs recomputed {}",
            r.mcl,
            check
        );
    }

    #[test]
    fn shared_cache_does_not_change_the_merge() {
        // A pre-warmed shared stencil cache must yield the identical block
        // and bit-identical MCL as a run with a private cache.
        let topo = Torus::mesh(&[4, 4]);
        let g = patterns::random(16, 40, 1.0, 10.0, 11);
        let children: Vec<PositionedBlock> = (0..4)
            .map(|q| {
                let base = q * 4;
                PositionedBlock {
                    block: Block {
                        extent: c(&[2, 2]),
                        members: vec![
                            (base + 3, c(&[0, 0])),
                            (base + 1, c(&[0, 1])),
                            (base + 2, c(&[1, 0])),
                            (base, c(&[1, 1])),
                        ],
                    },
                    origin: c(&[(q / 2) as u16 * 2, (q % 2) as u16 * 2]),
                }
            })
            .collect();
        let private = merge_blocks(&topo, &g, &children, &c(&[0, 0]), &c(&[4, 4]), &MergeOptions::default());
        let shared = Arc::new(RouteStencilCache::new(&topo));
        let cached = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 4]),
            &MergeOptions { stencils: Some(Arc::clone(&shared)), ..Default::default() },
        );
        assert_eq!(private.mcl, cached.mcl);
        assert_eq!(private.block.members, cached.block.members);
        assert!(shared.hits() > 0, "second run must hit warmed stencils");
        // run again through the warmed cache: still identical
        let rerun = merge_blocks(
            &topo,
            &g,
            &children,
            &c(&[0, 0]),
            &c(&[4, 4]),
            &MergeOptions { stencils: Some(shared), ..Default::default() },
        );
        assert_eq!(private.mcl, rerun.mcl);
        assert_eq!(private.block.members, rerun.block.members);
    }

    /// Blocks of extent `bext` tiling the whole of `topo`, block `q`'s
    /// members numbered in reverse row-major order (so the identity
    /// orientation is rarely the best one).
    fn tiled_children(topo: &Torus, bext: &[u16]) -> Vec<PositionedBlock> {
        let dims = topo.dims();
        let counts: Vec<usize> = dims.iter().zip(bext).map(|(&d, &b)| (d / b) as usize).collect();
        let per: usize = bext.iter().map(|&b| b as usize).product();
        let unravel = |mut i: usize, radix: &[usize]| -> Vec<u16> {
            let mut c = vec![0u16; radix.len()];
            for d in (0..radix.len()).rev() {
                c[d] = (i % radix[d]) as u16;
                i /= radix[d];
            }
            c
        };
        let bradix: Vec<usize> = bext.iter().map(|&b| b as usize).collect();
        (0..counts.iter().product())
            .map(|q| {
                let origin: Vec<u16> = unravel(q, &counts)
                    .iter()
                    .zip(bext)
                    .map(|(&o, &b)| o * b)
                    .collect();
                let members = (0..per)
                    .map(|i| ((q * per + per - 1 - i) as u32, c(&unravel(i, &bradix))))
                    .collect();
                PositionedBlock {
                    block: Block { extent: c(bext), members },
                    origin: c(&origin),
                }
            })
            .collect()
    }

    /// Merges `tiled_children(topo, bext)` under `random(n, 3n, 1, 20, 11)`
    /// traffic over the whole of `topo`.
    fn tiled_merge(topo: &Torus, bext: &[u16], opts: &MergeOptions) -> MergeResult {
        let children = tiled_children(topo, bext);
        let n: u32 = children.iter().map(|ch| ch.block.members.len() as u32).sum();
        let g = patterns::random(n, 3 * n as usize, 1.0, 20.0, 11);
        let zero = c(&vec![0; topo.ndims()]);
        merge_blocks(topo, &g, &children, &zero, &c(topo.dims()), opts)
    }

    /// `(mcl bits, candidates evaluated, candidates skipped, candidates
    /// kept, node of each member in cluster order)`.
    fn fingerprint(topo: &Torus, r: &MergeResult) -> (u64, usize, usize, usize, Vec<NodeId>) {
        let mut members = r.block.members.clone();
        members.sort_by_key(|&(m, _)| m);
        let nodes = members.iter().map(|(_, x)| topo.node_id(x)).collect();
        (r.mcl.to_bits(), r.candidates_evaluated, r.candidates_skipped, r.candidates_kept, nodes)
    }

    #[test]
    fn merge_is_independent_of_thread_cap() {
        let cases = [
            (Torus::torus(&[4, 4]), vec![2u16, 2]),
            (Torus::torus(&[4, 4, 4]), vec![2u16, 2, 2]),
        ];
        for (topo, bext) in &cases {
            for beam_width in [1usize, 64] {
                let run = |thread_cap| {
                    let opts = MergeOptions { beam_width, thread_cap, ..Default::default() };
                    fingerprint(topo, &tiled_merge(topo, bext, &opts))
                };
                let serial = run(1);
                for cap in [2usize, 4, 0] {
                    assert_eq!(serial, run(cap), "{bext:?} beam {beam_width} cap {cap}");
                }
            }
        }
    }

    /// Pinned merge outputs: the MCL bits, the candidate counts and every
    /// member's node. A change to scoring, ranking or tie-breaks shows
    /// here. `ranked` (scored + skipped) is the count the exhaustive step 0
    /// scored: the orbit rule changes only how many are scored.
    #[test]
    fn pinned_merges() {
        // (machine, block extent, mcl bits, (scored, ranked), kept, member nodes)
        type Pin = (Torus, &'static [u16], u64, (usize, usize), usize, &'static [NodeId]);
        let cases: [Pin; 3] = [
            (
                Torus::torus(&[4, 4]),
                &[2, 2],
                0x404224276985dbb9,
                (1040, 1088),
                192,
                &[
                    1, 5, 0, 4, 3, 7, 2, 6, 13, 9, 12, 8, 11, 15, 10, 14,
                ],
            ),
            (
                Torus::torus(&[4, 4, 4]),
                &[2, 2, 2],
                0x404121ed414c9cd3,
                // the first pair is diagonal: H is the whole group
                (18480, 20736),
                448,
                &[
                    4, 20, 5, 21, 0, 16, 1, 17, 18, 2, 19, 3, 22, 6, 23, 7, 8, 9, 12, 13, 24,
                    25, 28, 29, 14, 30, 10, 26, 15, 31, 11, 27, 36, 32, 37, 33, 52, 48, 53, 49,
                    50, 34, 51, 35, 54, 38, 55, 39, 61, 60, 57, 56, 45, 44, 41, 40, 47, 63, 43,
                    59, 46, 62, 42, 58,
                ],
            ),
            // the final slice merge of two 64-member blocks: the full
            // 48-orientation group on both sides; the 8-ring admits no
            // dimension permutation into H, so |H| = 8 flips
            (
                Torus::torus(&[8, 4, 4]),
                &[4, 4, 4],
                0x4050b2305323e17e,
                (288, 2304),
                64,
                &[
                    63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47, 46, 45,
                    44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30, 29, 28, 27, 26,
                    25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6,
                    5, 4, 3, 2, 1, 0, 124, 120, 116, 112, 125, 121, 117, 113, 126, 122, 118,
                    114, 127, 123, 119, 115, 108, 104, 100, 96, 109, 105, 101, 97, 110, 106,
                    102, 98, 111, 107, 103, 99, 92, 88, 84, 80, 93, 89, 85, 81, 94, 90, 86, 82,
                    95, 91, 87, 83, 76, 72, 68, 64, 77, 73, 69, 65, 78, 74, 70, 66, 79, 75, 71,
                    67,
                ],
            ),
        ];
        for (topo, bext, bits, (scored, ranked), kept, nodes) in &cases {
            let (got_bits, evaluated, skipped, got_kept, got_nodes) =
                fingerprint(topo, &tiled_merge(topo, bext, &MergeOptions::default()));
            assert_eq!(
                (got_bits, evaluated, evaluated + skipped, got_kept, got_nodes),
                (*bits, *scored, *ranked, *kept, nodes.to_vec()),
                "blocks {bext:?}"
            );
        }
    }

    /// Step-0 MCL of orientation pair `(a, b)` of a two-child merge: the
    /// pair's mutual traffic routed onto an empty machine.
    fn pair_mcl(
        topo: &Torus,
        g: &CommGraph,
        children: &[PositionedBlock],
        pick: [&Orientation; 2],
    ) -> f64 {
        let zero = c(&vec![0; topo.ndims()]);
        let composed = Block::compose(
            &zero,
            &c(topo.dims()),
            &[0, 1].map(|i| (children[i].block.reoriented(pick[i]), children[i].origin)),
        );
        let cache = RouteStencilCache::new(topo);
        block_mcl(topo, g, &composed, &zero, Routing::UniformMinimal, &cache)
    }

    /// Two-slice machines: the slices are `[.., .., 1]` blocks stacked on
    /// the last dimension. Wrapped, mixed-wrap and mesh.
    fn two_slice_machines() -> [Torus; 3] {
        [
            Torus::torus(&[4, 4, 2]),
            Torus::with_wraps(&[4, 4, 2], &[true, false, true]),
            Torus::mesh(&[4, 4, 2]),
        ]
    }

    /// (a) The orbit-reduced merge finds the block and MCL bits of an
    /// exhaustive search over all |G|² orientation pairs, scored by
    /// `block_mcl`, with the first minimum in combo order winning.
    #[test]
    fn orbit_reduced_merge_matches_brute_force() {
        for topo in two_slice_machines() {
            for seed in 1..=4 {
                let children = tiled_children(&topo, &[4, 4, 1]);
                let g = patterns::random(32, 96, 1.0, 20.0, seed);
                let os0 = orientations(&children[0].block);
                let os1 = orientations(&children[1].block);
                let mut best: Option<(f64, [usize; 2])> = None;
                for a in 0..os0.len() {
                    for b in 0..os1.len() {
                        let mcl = pair_mcl(&topo, &g, &children, [&os0[a], &os1[b]]);
                        if best.is_none_or(|(m, _)| mcl.total_cmp(&m).is_lt()) {
                            best = Some((mcl, [a, b]));
                        }
                    }
                }
                let (mcl, [a, b]) = best.expect("non-empty orientation sets");
                let zero = c(&[0, 0, 0]);
                let exhaustive = Block::compose(
                    &zero,
                    &c(topo.dims()),
                    &[
                        (children[0].block.reoriented(&os0[a]), children[0].origin),
                        (children[1].block.reoriented(&os1[b]), children[1].origin),
                    ],
                );
                let opts = MergeOptions::default();
                let r = merge_blocks(&topo, &g, &children, &zero, &c(topo.dims()), &opts);
                assert!(r.candidates_skipped > 0, "{topo:?}: no orbit reduction");
                assert_eq!(r.candidates_evaluated + r.candidates_skipped, os0.len() * os1.len());
                assert_eq!(r.mcl.to_bits(), mcl.to_bits(), "{topo:?} seed {seed}");
                assert_eq!(r.block, exhaustive, "{topo:?} seed {seed}");
            }
        }
    }

    /// The orientations of the step-0 symmetry group of `children[0..2]`,
    /// read back from the index images (the identity is index 0).
    fn symmetry_of(
        topo: &Torus,
        routing: Routing,
        children: &[PositionedBlock],
    ) -> Vec<Orientation> {
        let sets: Vec<Vec<Orientation>> =
            children.iter().map(|ch| orientations(&ch.block)).collect();
        step0_symmetry(topo, routing, children, &[0, 1], &sets)
            .iter()
            .map(|[ia, _]| sets[0][ia[0]])
            .collect()
    }

    /// (b) Every h in H maps each step-0 pair to one with the same MCL
    /// bits.
    #[test]
    fn step0_scores_are_invariant_under_the_symmetry_group() {
        let machines = two_slice_machines()
            .into_iter()
            .map(|t| (t, vec![4u16, 4, 1]))
            .chain([
                (Torus::torus(&[4, 2]), vec![2, 2]),
                (Torus::torus(&[4, 4, 4]), vec![4, 4, 2]),
            ]);
        for (topo, bext) in machines {
            let children = tiled_children(&topo, &bext);
            let n: u32 = children.iter().map(|ch| ch.block.members.len() as u32).sum();
            let g = patterns::random(n, 3 * n as usize, 1.0, 20.0, 5);
            let sets: Vec<Vec<Orientation>> =
                children.iter().map(|ch| orientations(&ch.block)).collect();
            let images = step0_symmetry(&topo, Routing::UniformMinimal, &children, &[0, 1], &sets);
            assert!(images.len() > 1, "{topo:?}: trivial H");
            for a in 0..sets[0].len() {
                for b in 0..sets[1].len() {
                    let mcl = pair_mcl(&topo, &g, &children, [&sets[0][a], &sets[1][b]]);
                    for [ia, ib] in &images {
                        let pick = [&sets[0][ia[a]], &sets[1][ib[b]]];
                        let image = pair_mcl(&topo, &g, &children, pick);
                        assert_eq!(mcl.to_bits(), image.to_bits(), "{topo:?} pair ({a}, {b})");
                    }
                }
            }
        }
    }

    /// (c) Where the machine or the routing breaks the symmetry, H leaves
    /// it out.
    #[test]
    fn symmetry_group_excludes_non_automorphisms() {
        // dimension-order routing: fixed axis order, positive tie-break
        let topo = Torus::torus(&[4, 4, 2]);
        let children = tiled_children(&topo, &[4, 4, 1]);
        assert!(symmetry_of(&topo, Routing::DimOrder, &children).is_empty());
        assert_eq!(symmetry_of(&topo, Routing::UniformMinimal, &children).len(), 8);

        // 2-blocks side by side on a 4-wide mesh dimension: mirroring each
        // block in place is no reflection of the whole line
        let topo = Torus::mesh(&[4, 2]);
        let h = symmetry_of(&topo, Routing::UniformMinimal, &tiled_children(&topo, &[2, 2]));
        assert_eq!(h.len(), 2, "identity and the whole-column flip: {h:?}");
        assert!(h.iter().all(|o| !o.flipped(0)), "{h:?}");

        // on an 8-ring a dimension permutation could reorder the path-count
        // terms: flips only
        let topo = Torus::torus(&[8, 4, 4]);
        let h = symmetry_of(&topo, Routing::UniformMinimal, &tiled_children(&topo, &[4, 4, 4]));
        assert_eq!(h.len(), 8);
        assert!(h.iter().all(|o| (0..3).all(|d| o.perm(d) == d)), "{h:?}");

        // unequal extents (a 1x4 column beside a 2x4 block): no reduction
        let topo = Torus::torus(&[4, 4]);
        let mut children = tiled_children(&topo, &[2, 4]);
        children[0].block = Block {
            extent: c(&[1, 4]),
            members: (0..4).map(|i| (i, c(&[0, i as u16]))).collect(),
        };
        assert!(symmetry_of(&topo, Routing::UniformMinimal, &children).is_empty());
    }

    use rahtm_commgraph::CommGraph;
}
