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
use std::panic::resume_unwind;
use std::sync::Arc;

const UNPLACED: NodeId = NodeId::MAX;

/// Blocks with more members than this search only axis flips (identity
/// permutation) instead of the full hyperoctahedral group. This bounds the
/// cost of merging very large blocks: in practice only the final
/// machine-level merge of whole slices, and only once a slice holds more
/// than 64 node-clusters. Paper-16k's 256-member slices search the 16
/// flips; mini-1k's 64-member slices still search all 48 orientations.
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
    /// Orientation candidates evaluated.
    pub candidates_evaluated: usize,
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
            candidates_kept: 0,
            deadline_hit: expired_on_entry,
        };
    }

    let nclusters = graph.num_ranks() as usize;
    let chans: Vec<(ChannelId, f64)> = topo.channels().map(|c| (c.id, c.width)).collect();

    // Orientation list per child.
    let orient_sets: Vec<Vec<Orientation>> = children
        .iter()
        .map(|c| {
            let extent = &c.block.extent;
            let mut os = Orientation::enumerate_for(extent);
            // dedupe: flipping an extent-1 output dimension is a no-op
            os.retain(|o| (0..o.ndims()).all(|d| extent.get(o.perm(d)) > 1 || !o.flipped(d)));
            if c.block.members.len() > FULL_GROUP_MEMBER_LIMIT {
                // large block: axis flips only (identity permutation)
                os.retain(|o| (0..o.ndims()).all(|d| o.perm(d) == d));
            }
            debug_assert!(!os.is_empty());
            os
        })
        .collect();

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
        // Workers score contiguous runs of that index (each with its own
        // scratch accumulator and positions array); the sort after makes
        // the result independent of the split.
        let combos: usize = incoming.iter().map(|&c| orient_sets[c].len()).product();
        let total = beam.len() * combos;
        let last_orients = orient_sets[incoming[incoming.len() - 1]].len();
        let n_threads = crate::cores::workers_for(total / last_orients, opts.thread_cap);
        let chunk = total.div_ceil(n_threads);
        let mut ranked: Vec<(f64, usize, usize)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let (lo, hi) = ((t * chunk).min(total), ((t + 1) * chunk).min(total));
                    let (beam, placed, route) = (&beam, &placed, &route);
                    let (positions, chans, orient_sets) = (&positions, &chans, &orient_sets);
                    scope.spawn(move |_| {
                        // no un-setting needed: every candidate sets each
                        // placed and incoming member the incident flows read
                        let mut node_of = vec![UNPLACED; nclusters];
                        let mut choices = vec![UNSET; children.len()];
                        let mut scratch = ChannelLoads::new(topo);
                        let mut out = Vec::with_capacity(hi - lo);
                        let mut entry_set = UNSET;
                        for k in lo..hi {
                            let (ei, combo) = (k / combos, k % combos);
                            let entry = &beam[ei];
                            if ei != entry_set {
                                for &c in placed {
                                    place(&mut node_of, &positions[c][entry.choices[c]]);
                                }
                                entry_set = ei;
                            }
                            decode_combo(combo, incoming, orient_sets, &mut choices);
                            for &c in incoming {
                                place(&mut node_of, &positions[c][choices[c]]);
                            }
                            scratch.clear();
                            route(&node_of, &mut scratch);
                            // incremental MCL: untouched channels keep the
                            // entry's loads
                            let mut mcl = entry.mcl;
                            for &(id, w) in chans {
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
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect()
        })
        .unwrap_or_else(|p| resume_unwind(p));
        candidates_evaluated += ranked.len();
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
        .add(counters::MERGE_CANDIDATES_KEPT, candidates_kept as u64);
    opts.recorder.add(counters::DEADLINE_CHECKS, deadline_polls as u64);
    if deadline_hit {
        opts.recorder.incr(counters::DEGRADE_IDENTITY_MERGES);
    }
    MergeResult {
        block: composed,
        mcl,
        candidates_evaluated,
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
            assert_eq!(
                r.candidates_evaluated,
                per_child * per_child,
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

    /// `(mcl bits, candidates evaluated, candidates kept, node of each
    /// member in cluster order)`.
    fn fingerprint(topo: &Torus, r: &MergeResult) -> (u64, usize, usize, Vec<NodeId>) {
        let mut members = r.block.members.clone();
        members.sort_by_key(|&(m, _)| m);
        let nodes = members.iter().map(|(_, x)| topo.node_id(x)).collect();
        (r.mcl.to_bits(), r.candidates_evaluated, r.candidates_kept, nodes)
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
    /// here.
    #[test]
    fn pinned_merges() {
        // (machine, block extent, mcl bits, evaluated, kept, member nodes)
        type Pin = (Torus, &'static [u16], u64, usize, usize, &'static [NodeId]);
        let cases: [Pin; 3] = [
            (
                Torus::torus(&[4, 4]),
                &[2, 2],
                0x404224276985dbb9,
                1088,
                192,
                &[
                    1, 5, 0, 4, 3, 7, 2, 6, 13, 9, 12, 8, 11, 15, 10, 14,
                ],
            ),
            (
                Torus::torus(&[4, 4, 4]),
                &[2, 2, 2],
                0x404121ed414c9cd3,
                20736,
                448,
                &[
                    4, 20, 5, 21, 0, 16, 1, 17, 18, 2, 19, 3, 22, 6, 23, 7, 8, 9, 12, 13, 24,
                    25, 28, 29, 14, 30, 10, 26, 15, 31, 11, 27, 36, 32, 37, 33, 52, 48, 53, 49,
                    50, 34, 51, 35, 54, 38, 55, 39, 61, 60, 57, 56, 45, 44, 41, 40, 47, 63, 43,
                    59, 46, 62, 42, 58,
                ],
            ),
            // the final slice merge of two 64-member blocks: the full
            // 48-orientation group on both sides
            (
                Torus::torus(&[8, 4, 4]),
                &[4, 4, 4],
                0x4050b2305323e17e,
                2304,
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
        for (topo, bext, bits, evaluated, kept, nodes) in &cases {
            let got = fingerprint(topo, &tiled_merge(topo, bext, &MergeOptions::default()));
            assert_eq!(got, (*bits, *evaluated, *kept, nodes.to_vec()), "blocks {bext:?}");
        }
    }

    use rahtm_commgraph::CommGraph;
}
