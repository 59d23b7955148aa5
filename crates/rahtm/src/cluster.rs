//! Phase 1: tiling-based clustering (paper §III-B, Figure 2).
//!
//! At every hierarchy level RAHTM groups the current cluster graph by a
//! repeated rectangular tile over its logical grid, choosing — among all
//! tile shapes of the required volume — the one that minimizes inter-tile
//! communication. The paper found this simple search "outperformed more
//! sophisticated clustering because it preserved the structure of the
//! communication pattern"; min-cut clustering was deliberately not used.
//!
//! When the required volume admits no rectangular factorization of the
//! grid (irregular rank counts), we fall back to contiguous rank chunks,
//! which preserves the dominant locality of rank-ordered applications.
//!
//! [`partition`] chains the levels over a list of per-level volumes (the
//! concentration, then each level's fan-out) and numbers the leaves
//! mixed-radix. The torus hierarchy ([`build_hierarchy_with`]) and the
//! fat-tree and dragonfly mappers are all one call to it.

use rahtm_commgraph::contract::{contract, Contraction};
use rahtm_commgraph::{CommGraph, Rank, RankGrid};

/// One level of clustering: fine graph → coarse graph.
#[derive(Clone, Debug)]
pub struct LevelClustering {
    /// fine cluster → coarse cluster.
    pub assignment: Vec<Rank>,
    /// The contracted coarse graph.
    pub coarse_graph: CommGraph,
    /// Logical grid of the coarse clusters.
    pub coarse_grid: RankGrid,
    /// Winning tile shape (empty when the chunk fallback was used).
    pub shape: Vec<u32>,
    /// Volume absorbed inside clusters at this level.
    pub internal_volume: f64,
}

/// Searches all tile shapes of `volume` on `grid` and returns the one with
/// minimal inter-tile volume (ties broken toward the lexicographically
/// first shape, which the deterministic enumeration guarantees stable).
pub fn best_tiling(graph: &CommGraph, grid: &RankGrid, volume: u32) -> Option<Vec<u32>> {
    let mut best: Option<(f64, Vec<u32>)> = None;
    for shape in grid.tile_shapes(volume) {
        let cut = grid.inter_tile_volume(graph, &shape);
        let better = match &best {
            None => true,
            Some((bcut, _)) => cut < *bcut - 1e-12,
        };
        if better {
            best = Some((cut, shape));
        }
    }
    best.map(|(_, s)| s)
}

/// Clusters `graph` down by a factor of `volume`, preferring the best
/// rectangular tiling and falling back to contiguous chunks.
///
/// # Panics
/// Panics if `volume` does not divide the rank count.
pub fn cluster_level(graph: &CommGraph, grid: &RankGrid, volume: u32) -> LevelClustering {
    cluster_level_with(graph, grid, volume, true)
}

/// [`cluster_level`] with the tile-shape *search* optionally disabled
/// (ablation: `search = false` takes the first valid shape instead of the
/// minimum-cut one, isolating the contribution of Figure 2's search).
///
/// # Panics
/// Panics if `volume` does not divide the rank count.
pub fn cluster_level_with(
    graph: &CommGraph,
    grid: &RankGrid,
    volume: u32,
    search: bool,
) -> LevelClustering {
    assert!(volume >= 1);
    let n = graph.num_ranks();
    assert_eq!(
        n % volume,
        0,
        "cluster volume {volume} must divide rank count {n}"
    );
    let num_clusters = n / volume;
    if volume == 1 {
        return LevelClustering {
            assignment: (0..n).collect(),
            coarse_graph: graph.clone(),
            coarse_grid: grid.clone(),
            shape: vec![1; grid.ndims()],
            internal_volume: 0.0,
        };
    }
    let chosen = if search {
        best_tiling(graph, grid, volume)
    } else {
        grid.tile_shapes(volume).into_iter().next()
    };
    match chosen {
        Some(shape) => {
            let assignment = grid.tile_assignment(&shape);
            let Contraction {
                coarse,
                internal_volume,
                ..
            } = contract(graph, &assignment, num_clusters);
            LevelClustering {
                assignment,
                coarse_graph: coarse,
                coarse_grid: grid.tiled_grid(&shape),
                shape,
                internal_volume,
            }
        }
        None => {
            // contiguous chunk fallback
            let assignment: Vec<Rank> = (0..n).map(|r| r / volume).collect();
            let Contraction {
                coarse,
                internal_volume,
                ..
            } = contract(graph, &assignment, num_clusters);
            LevelClustering {
                assignment,
                coarse_graph: coarse,
                coarse_grid: RankGrid::near_square(num_clusters),
                shape: Vec::new(),
                internal_volume,
            }
        }
    }
}

/// A recursive partition of the ranks: the chained levels and the leaf
/// number of every rank.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Levels ordered **fine to coarse**: `levels[0]` groups the ranks by
    /// `volumes[0]`, `levels[k]` groups the level-`k−1` clusters by
    /// `volumes[k]`.
    pub levels: Vec<LevelClustering>,
    /// rank → leaf (level-0 cluster) number, mixed-radix over the levels:
    /// two ranks share a level-`k` cluster exactly when their leaf numbers
    /// agree after dividing by `volumes[1] · … · volumes[k]`.
    pub leaf_of: Vec<u32>,
}

/// Partitions `graph` level by level, one [`cluster_level_with`] per entry
/// of `volumes` (the concentration first, then each level's fan-out), and
/// numbers the leaves mixed-radix: a top cluster keeps its id, and each
/// cluster's children take consecutive slots in cluster-id order. On a
/// machine whose sibling subtrees are interchangeable (fat-tree, dragonfly)
/// that numbering is the whole mapping.
///
/// # Panics
/// Panics if `volumes` is empty or a volume does not divide the cluster
/// count of the level below.
pub fn partition(graph: &CommGraph, grid: &RankGrid, volumes: &[u32], search: bool) -> Partition {
    assert!(!volumes.is_empty(), "a partition needs at least one level");
    let mut levels: Vec<LevelClustering> = Vec::with_capacity(volumes.len());
    for &volume in volumes {
        let (g, gr) = levels
            .last()
            .map_or((graph, grid), |l| (&l.coarse_graph, &l.coarse_grid));
        let lvl = cluster_level_with(g, gr, volume, search);
        levels.push(lvl);
    }
    let mut number: Vec<u32> = (0..levels[levels.len() - 1].coarse_graph.num_ranks()).collect();
    for k in (1..levels.len()).rev() {
        let mut next_slot = vec![0u32; number.len()];
        number = levels[k]
            .assignment
            .iter()
            .map(|&parent| {
                let slot = next_slot[parent as usize];
                next_slot[parent as usize] += 1;
                number[parent as usize] * volumes[k] + slot
            })
            .collect();
    }
    let leaf_of = levels[0]
        .assignment
        .iter()
        .map(|&c| number[c as usize])
        .collect();
    Partition { levels, leaf_of }
}

/// Builds the full clustering hierarchy for RAHTM: first absorb the
/// concentration factor (`concentration` ranks per node-cluster), then
/// repeatedly cluster by `branching` until `root_count` clusters remain —
/// one [`partition`] over that volume list. `search = false` disables the
/// tile-shape search (see [`cluster_level_with`]).
///
/// Returns levels ordered **coarse to fine**: `levels[0]` contracts to the
/// root cluster count, `levels.last()` is the concentration clustering of
/// the original ranks.
pub fn build_hierarchy_with(
    graph: &CommGraph,
    grid: &RankGrid,
    concentration: u32,
    branching: u32,
    root_count: u32,
    search: bool,
) -> Vec<LevelClustering> {
    assert!(branching >= 2);
    let mut volumes = vec![concentration];
    let mut count = graph.num_ranks() / concentration;
    while count > root_count {
        assert!(
            count.is_multiple_of(branching),
            "hierarchy requires cluster counts divisible by 2^n"
        );
        volumes.push(branching);
        count /= branching;
    }
    assert_eq!(count, root_count);
    let mut levels = partition(graph, grid, &volumes, search).levels;
    levels.reverse();
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use rahtm_commgraph::patterns;

    #[test]
    fn best_tiling_prefers_square_for_halo() {
        // an isotropic halo wants square tiles
        let g = patterns::halo_2d(8, 8, 1.0, true);
        let grid = RankGrid::new(&[8, 8]);
        let shape = best_tiling(&g, &grid, 4).unwrap();
        assert_eq!(shape, vec![2, 2]);
    }

    #[test]
    fn best_tiling_follows_anisotropy() {
        // heavy row traffic: prefer wide tiles
        let grid = RankGrid::new(&[4, 4]);
        let mut g = CommGraph::new(16);
        for r in 0..4u32 {
            for c in 0..4u32 {
                let me = grid.rank_of(&[r, c]);
                g.add(me, grid.rank_of(&[r, (c + 1) % 4]), 100.0);
                g.add(me, grid.rank_of(&[(r + 1) % 4, c]), 1.0);
            }
        }
        let shape = best_tiling(&g, &grid, 4).unwrap();
        assert_eq!(shape, vec![1, 4]);
    }

    #[test]
    fn cluster_level_conserves_volume() {
        let g = patterns::halo_2d(4, 4, 2.0, true);
        let grid = RankGrid::new(&[4, 4]);
        let lvl = cluster_level(&g, &grid, 4);
        assert_eq!(lvl.coarse_graph.num_ranks(), 4);
        assert!(
            (lvl.internal_volume + lvl.coarse_graph.total_volume() - g.total_volume()).abs()
                < 1e-9
        );
        assert_eq!(lvl.coarse_grid.num_ranks(), 4);
    }

    #[test]
    fn volume_one_is_identity() {
        let g = patterns::ring(6, 1.0);
        let grid = RankGrid::new(&[2, 3]);
        let lvl = cluster_level(&g, &grid, 1);
        assert_eq!(lvl.assignment, (0..6).collect::<Vec<_>>());
        assert_eq!(lvl.coarse_graph, g);
    }

    #[test]
    fn chunk_fallback_on_awkward_grid() {
        // 6 ranks on a 1x6 grid, volume 3: shapes exist (1x3); force the
        // fallback with a prime-ish case: 2x5 grid, volume 4 -> no shape
        let g = patterns::ring(10, 1.0);
        let grid = RankGrid::new(&[2, 5]);
        assert!(grid.tile_shapes(4).is_empty());
        // volume must divide rank count: use 5 -> shapes: 1x5 exists.
        let lvl = cluster_level(&g, &grid, 5);
        assert_eq!(lvl.coarse_graph.num_ranks(), 2);
        // now a genuinely impossible one: volume 2 on 1x5... doesn't divide.
        // fallback covered via grid [3,3] volume 3 (only 3x1/1x3 exist ->
        // shapes exist). Construct no-shape case: grid [4], volume 8 with 8
        // ranks? tile larger than dim -> no shape, chunks used.
        let g8 = patterns::ring(8, 1.0);
        let grid8 = RankGrid::new(&[8]);
        let lvl8 = cluster_level(&g8, &grid8, 8);
        assert_eq!(lvl8.coarse_graph.num_ranks(), 1);
    }

    #[test]
    fn shapes_exist_whenever_volume_divides() {
        // Per-prime splitting argument: if volume | ∏dims, a rectangular
        // factorization with per-dim divisors always exists, so the chunk
        // fallback is purely defensive. Verify across a sweep.
        for dims in [vec![4u32, 6], vec![3, 4], vec![2, 2, 9], vec![8, 8]] {
            let n: u32 = dims.iter().product();
            let grid = RankGrid::new(&dims);
            for v in 1..=n {
                if n.is_multiple_of(v) {
                    assert!(
                        !grid.tile_shapes(v).is_empty(),
                        "no shape for volume {v} on {dims:?}"
                    );
                }
            }
        }
        // and volumes that do NOT divide the grid have no shapes
        let grid = RankGrid::new(&[3, 4]);
        assert!(grid.tile_shapes(8).is_empty());
    }

    #[test]
    fn build_hierarchy_shapes() {
        // 64 ranks, concentration 4 -> 16 node-clusters; branching 4 ->
        // root 4: levels = [16->4, 64->16 (conc)] coarse-to-fine
        let g = patterns::halo_2d(8, 8, 1.0, true);
        let grid = RankGrid::new(&[8, 8]);
        let levels = build_hierarchy_with(&g, &grid, 4, 4, 4, true);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].coarse_graph.num_ranks(), 4);
        assert_eq!(levels[1].coarse_graph.num_ranks(), 16);
        // composing assignments maps every rank to a root cluster
        let full = rahtm_commgraph::contract::compose_assignments(
            &levels[1].assignment,
            &levels[0].assignment,
        );
        assert_eq!(full.len(), 64);
        assert!(full.iter().all(|&c| c < 4));
    }

    #[test]
    fn hierarchy_levels_have_uniform_cluster_sizes() {
        // every level's clusters must hold exactly `branching` children —
        // the MILP phase depends on it
        let g = patterns::halo_2d(8, 8, 1.0, true);
        let grid = RankGrid::new(&[8, 8]);
        let levels = build_hierarchy_with(&g, &grid, 1, 4, 4, true);
        for lvl in &levels {
            let mut counts = std::collections::HashMap::new();
            for &c in &lvl.assignment {
                *counts.entry(c).or_insert(0u32) += 1;
            }
            let sizes: std::collections::HashSet<u32> = counts.values().cloned().collect();
            assert_eq!(sizes.len(), 1, "uneven clusters: {counts:?}");
        }
    }

    #[test]
    fn tiling_search_off_uses_first_shape() {
        // 8x8 halo: a 1x4 row chunk leaves 10 boundary edges per tile, a
        // 2x2 square only 8, so the search strictly prefers the square.
        // (On a 4x4 periodic grid they tie because a 1x4 tile wraps the
        // whole row.)
        let g = patterns::halo_2d(8, 8, 1.0, true);
        let grid = RankGrid::new(&[8, 8]);
        let searched = cluster_level_with(&g, &grid, 4, true);
        let unsearched = cluster_level_with(&g, &grid, 4, false);
        assert_eq!(unsearched.shape, vec![1, 4]);
        assert_eq!(searched.shape, vec![2, 2]);
        assert!(searched.internal_volume > unsearched.internal_volume);
    }

    #[test]
    fn hierarchy_without_concentration() {
        let g = patterns::halo_2d(4, 4, 1.0, true);
        let grid = RankGrid::new(&[4, 4]);
        let levels = build_hierarchy_with(&g, &grid, 1, 4, 4, true);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].coarse_graph.num_ranks(), 4);
        assert_eq!(levels[1].coarse_graph.num_ranks(), 16);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;
        use rahtm_commgraph::contract::compose_assignments;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A random volume list for `n` ranks: any divisor of `n` as the
        /// leaf volume, then fan-outs ≥ 2 that divide the clusters left.
        fn volume_list(n: u32, seed: u64) -> Vec<u32> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut volumes = Vec::new();
            let mut left = n;
            loop {
                let min = if volumes.is_empty() { 1 } else { 2 };
                let choices: Vec<u32> = (min..=left).filter(|v| left.is_multiple_of(*v)).collect();
                if choices.is_empty() {
                    return volumes;
                }
                let v = choices[rng.gen_range(0..choices.len())];
                volumes.push(v);
                left /= v;
                if rng.gen_range(0..4) == 0 {
                    return volumes;
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every leaf holds `volumes[0]` ranks, and two ranks share a
            /// level-`k` cluster exactly when their leaf numbers agree
            /// after dividing by `volumes[1] · … · volumes[k]` — the
            /// contiguity `FatTree::subtree_of` and the dragonfly's
            /// router/group arithmetic read placements by.
            #[test]
            fn partition_numbers_leaves_contiguously(
                rows in prop::sample::select(vec![1u32, 2, 3, 4, 6, 8]),
                cols in prop::sample::select(vec![2u32, 3, 4, 6, 8]),
                graph_seed in 0u64..1000,
                volume_seed in 0u64..1000,
                search in prop::sample::select(vec![true, false]),
            ) {
                let n = rows * cols;
                let g = patterns::random(n, 3 * n as usize, 1.0, 50.0, graph_seed);
                let grid = RankGrid::new(&[rows, cols]);
                let volumes = volume_list(n, volume_seed);
                let p = partition(&g, &grid, &volumes, search);
                prop_assert_eq!(p.levels.len(), volumes.len());

                let num_leaves = n / volumes[0];
                let mut per_leaf = vec![0u32; num_leaves as usize];
                for &l in &p.leaf_of {
                    prop_assert!(l < num_leaves, "leaf {} of {}", l, num_leaves);
                    per_leaf[l as usize] += 1;
                }
                prop_assert!(per_leaf.iter().all(|&c| c == volumes[0]), "{:?}", per_leaf);

                let mut cluster_of = p.levels[0].assignment.clone();
                let mut span = 1u32;
                for k in 0..volumes.len() {
                    if k > 0 {
                        cluster_of = compose_assignments(&cluster_of, &p.levels[k].assignment);
                        span *= volumes[k];
                    }
                    for a in 0..n as usize {
                        for b in 0..n as usize {
                            let same_cluster = cluster_of[a] == cluster_of[b];
                            let same_prefix = p.leaf_of[a] / span == p.leaf_of[b] / span;
                            prop_assert!(
                                same_cluster == same_prefix,
                                "level {} ranks {} {} volumes {:?}", k, a, b, volumes
                            );
                        }
                    }
                }
            }
        }
    }

    use rahtm_commgraph::CommGraph;
}
