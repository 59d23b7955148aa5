//! Displacement-keyed routing stencils.
//!
//! A torus is vertex-transitive: the load footprint of a flow depends only
//! on its displacement vector, never on where the source sits. The anneal
//! and merge hot paths route the same handful of displacements thousands of
//! times, so we memoize — per canonical displacement — the sparse list of
//! `(relative offset, dim, dir, fraction)` load entries of a flow, and
//! applying a flow becomes a translate-and-scatter sparse add.
//!
//! Determinism contract: a stencil is built by the *same* enumerator
//! (`oblivious::for_each_entry`) that drives the direct
//! [`crate::route_flow`], stores the raw per-variant fractions unscaled and
//! unreordered, and the apply loop replays them in order, adding
//! `weight * frac` exactly as the direct router does. Cached routing is
//! therefore bit-identical to direct routing — same values, same
//! floating-point add order — which the property tests pin down.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rahtm_commgraph::CommGraph;
use rahtm_topology::{NodeId, Torus, MAX_DIMS};

use crate::load::ChannelLoads;
use crate::oblivious::{for_each_entry, num_variants};
use crate::Routing;

/// Number of independently locked cache shards. Displacement keys hash
/// uniformly, so a small power of two keeps write contention negligible
/// while reads (the overwhelming majority) take a shared lock.
const SHARDS: usize = 16;

/// FxHash-style multiply-rotate hasher. Stencil keys are tiny,
/// attacker-free, and hashed on every rerouted flow in the anneal inner
/// loop, where SipHash's per-lookup cost is measurable; a deterministic
/// non-cryptographic hash is the right trade.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn push(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.push(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.push(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.push(u64::from(n));
    }
    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.push(u64::from(n as u32));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.push(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.push(n as u64);
    }
}

type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// Canonical identity of a stencil: the per-dimension signed displacement,
/// which dimensions are torus ties (split both ways), and the routing
/// model. Two flows with equal keys have bit-identical footprints.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct StencilKey {
    deltas: [i32; MAX_DIMS],
    ties: u8,
    dor: bool,
}

impl StencilKey {
    fn new(routing: Routing, disp: &[(i32, bool)]) -> Self {
        let mut deltas = [0i32; MAX_DIMS];
        let mut ties = 0u8;
        for (d, &(delta, tie)) in disp.iter().enumerate() {
            deltas[d] = delta;
            if tie {
                ties |= 1 << d;
            }
        }
        StencilKey {
            deltas,
            ties,
            dor: matches!(routing, Routing::DimOrder),
        }
    }
}

/// The memoized sparse footprint of one displacement class.
///
/// Entries are stored flattened in emission order: entry `i` has relative
/// offsets `offsets[i*ndims..(i+1)*ndims]` (signed coordinate deltas from
/// the source), channel sub-slot `subs[i]` (`2*dim + dir.index()`), and raw
/// per-variant path fraction `fracs[i]`.
pub struct Stencil {
    /// Tie-orientation variants; a flow of `bytes` applies each entry with
    /// weight `bytes / variants`.
    pub variants: u32,
    ndims: usize,
    offsets: Vec<i32>,
    subs: Vec<u32>,
    fracs: Vec<f64>,
}

impl Stencil {
    /// Builds the stencil for `disp` under `routing` by replaying the
    /// shared flow enumerator.
    fn build(routing: Routing, disp: &[(i32, bool)]) -> Self {
        let ndims = disp.len();
        let variants = num_variants(routing, disp);
        let mut offsets = Vec::new();
        let mut subs = Vec::new();
        let mut fracs = Vec::new();
        for_each_entry(routing, disp, |off, dim, dir, frac| {
            offsets.extend_from_slice(off);
            subs.push((2 * dim + dir.index()) as u32);
            fracs.push(frac);
        });
        Stencil { variants, ndims, offsets, subs, fracs }
    }

    /// Number of sparse load entries.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when the stencil deposits no load (zero displacement).
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Visits each `(channel slot, load value)` of a `bytes`-sized flow
    /// anchored at `src`, in exactly the order the direct router deposits
    /// them.
    ///
    /// The channel slot is computed by integer translation: per dimension
    /// `v = src[d] + off[d]` with a single conditional ±k wrap (valid
    /// because offsets of a minimal path lie in `(-k, k)`), then
    /// `node = Σ v_d · stride_d` and `slot = node·2n + sub`. Minimality
    /// also guarantees the channel exists, so no per-entry validity check
    /// is needed.
    #[inline]
    pub fn for_each_load(
        &self,
        topo: &Torus,
        src: NodeId,
        bytes: f64,
        mut visit: impl FnMut(u32, f64),
    ) {
        let n = self.ndims;
        let weight = bytes / self.variants as f64;
        let src_coord = topo.coord(src);
        let two_n = (2 * n) as u32;
        for (i, (&sub, &frac)) in self.subs.iter().zip(&self.fracs).enumerate() {
            let off = &self.offsets[i * n..(i + 1) * n];
            let mut node = 0u32;
            for d in 0..n {
                let k = topo.dim(d) as i32;
                let mut v = src_coord.get(d) as i32 + off[d];
                if v < 0 {
                    v += k;
                } else if v >= k {
                    v -= k;
                }
                node += v as u32 * topo.stride(d);
            }
            visit(node * two_n + sub, weight * frac);
        }
    }
}

/// A sharded, read-mostly cache of [`Stencil`]s for one topology.
///
/// Cloned handles are cheap (`Arc`); crossbeam worker threads share one
/// cache and populate it concurrently. A miss is counted only by the
/// thread that actually inserts the stencil (checked again under the write
/// lock), so `misses == unique displacement classes` and
/// `hits == lookups − misses` — both deterministic run to run regardless
/// of thread interleaving.
pub struct RouteStencilCache {
    dims: Vec<u16>,
    wraps: Vec<bool>,
    shards: Vec<RwLock<HashMap<StencilKey, Arc<Stencil>, FxBuildHasher>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for RouteStencilCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteStencilCache")
            .field("dims", &self.dims)
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl RouteStencilCache {
    /// An empty cache bound to `topo`'s shape (dims + wrap pattern).
    pub fn new(topo: &Torus) -> Self {
        let n = topo.ndims();
        RouteStencilCache {
            dims: (0..n).map(|d| topo.dim(d)).collect(),
            wraps: (0..n).map(|d| topo.wraps(d)).collect(),
            shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// True when `topo` has the shape this cache was built for.
    pub fn matches(&self, topo: &Torus) -> bool {
        self.dims.len() == topo.ndims()
            && (0..topo.ndims()).all(|d| self.dims[d] == topo.dim(d) && self.wraps[d] == topo.wraps(d))
    }

    fn shard_of(&self, key: &StencilKey) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        h.finish() as usize % SHARDS
    }

    /// Fetches (or builds and inserts) the stencil for `disp`.
    fn stencil(&self, routing: Routing, disp: &[(i32, bool)]) -> Arc<Stencil> {
        let key = StencilKey::new(routing, disp);
        let shard = &self.shards[self.shard_of(&key)];
        if let Some(s) = shard.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(s);
        }
        let mut map = shard.write();
        if let Some(s) = map.get(&key) {
            // Another thread inserted while we waited: their miss, our hit.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(s);
        }
        let s = Arc::new(Stencil::build(routing, disp));
        map.insert(key, Arc::clone(&s));
        self.misses.fetch_add(1, Ordering::Relaxed);
        s
    }

    /// Visits each `(channel slot, load value)` of one flow, through the
    /// cache. `src == dst` and zero-byte flows visit nothing.
    #[inline]
    pub fn for_each_load(
        &self,
        topo: &Torus,
        routing: Routing,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        visit: impl FnMut(u32, f64),
    ) {
        debug_assert!(self.matches(topo), "stencil cache bound to a different topology");
        if src == dst || bytes == 0.0 {
            return;
        }
        let mut buf = [(0i32, false); MAX_DIMS];
        let n = topo.displacement_into(src, dst, &mut buf);
        let stencil = self.stencil(routing, &buf[..n]);
        stencil.for_each_load(topo, src, bytes, visit);
    }

    /// Cache-accelerated drop-in for [`crate::route_flow`]: bit-identical
    /// loads, same add order.
    #[inline]
    pub fn route_flow(
        &self,
        topo: &Torus,
        routing: Routing,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        loads: &mut ChannelLoads,
    ) {
        self.for_each_load(topo, routing, src, dst, bytes, |slot, v| loads.add(slot, v));
    }

    /// Cache-accelerated drop-in for [`crate::route_graph`].
    ///
    /// # Panics
    /// Panics if `placement.len() != graph.num_ranks()`.
    pub fn route_graph(
        &self,
        topo: &Torus,
        graph: &CommGraph,
        placement: &[NodeId],
        routing: Routing,
    ) -> ChannelLoads {
        assert_eq!(placement.len(), graph.num_ranks() as usize);
        let mut loads = ChannelLoads::new(topo);
        for flow in graph.flows() {
            let src = placement[flow.src as usize];
            let dst = placement[flow.dst as usize];
            self.route_flow(topo, routing, src, dst, flow.bytes, &mut loads);
        }
        loads
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that built a new stencil (== distinct displacement classes).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Stencils currently resident across all shards.
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(|s| s.read().len() as u64).sum()
    }

    /// Publishes hit/miss/entry counters to `rec`.
    pub fn report(&self, rec: &rahtm_obs::Recorder) {
        rec.add(rahtm_obs::counters::STENCIL_HITS, self.hits());
        rec.add(rahtm_obs::counters::STENCIL_MISSES, self.misses());
        rec.add(rahtm_obs::counters::STENCIL_ENTRIES, self.entries());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oblivious::{route_flow, route_graph};
    use proptest::prelude::*;
    use rahtm_commgraph::patterns;

    fn assert_bit_identical(topo: &Torus, routing: Routing, src: NodeId, dst: NodeId, bytes: f64) {
        let cache = RouteStencilCache::new(topo);
        let mut direct = ChannelLoads::new(topo);
        route_flow(topo, routing, src, dst, bytes, &mut direct);
        // Twice through the cache: once building, once hitting.
        for _ in 0..2 {
            let mut cached = ChannelLoads::new(topo);
            cache.route_flow(topo, routing, src, dst, bytes, &mut cached);
            assert_eq!(direct, cached, "{routing:?} {src}->{dst}");
        }
        assert_eq!(cache.misses(), u64::from(src != dst && bytes != 0.0));
    }

    #[test]
    fn torus_ties_bit_identical() {
        let t = Torus::torus(&[4, 4, 4]);
        for routing in [Routing::DimOrder, Routing::UniformMinimal] {
            for (src, dst) in [(0, 42), (7, 7), (63, 0), (1, 33), (10, 12)] {
                assert_bit_identical(&t, routing, src, dst, 3.5);
            }
        }
    }

    #[test]
    fn mesh_edges_bit_identical() {
        let t = Torus::mesh(&[6, 6]);
        for routing in [Routing::DimOrder, Routing::UniformMinimal] {
            for (src, dst) in [(0, 35), (5, 30), (0, 5), (35, 0), (14, 21)] {
                assert_bit_identical(&t, routing, src, dst, 1.0);
            }
        }
    }

    #[test]
    fn width_two_rings_bit_identical() {
        // k=2 wrapped dims collapse to double-wide mesh links; the stencil
        // must reproduce that footprint (and its MCL) exactly.
        let t = Torus::two_ary_cube(4);
        let cache = RouteStencilCache::new(&t);
        let g = patterns::random(16, 60, 1.0, 20.0, 3);
        let placement: Vec<u32> = (0..16).collect();
        let direct = route_graph(&t, &g, &placement, Routing::UniformMinimal);
        let cached = cache.route_graph(&t, &g, &placement, Routing::UniformMinimal);
        assert_eq!(direct, cached);
        assert_eq!(direct.mcl(&t), cached.mcl(&t));
    }

    #[test]
    fn counters_track_unique_displacements() {
        let t = Torus::torus(&[4, 4]);
        let cache = RouteStencilCache::new(&t);
        let mut loads = ChannelLoads::new(&t);
        // same displacement class from different anchors: 1 miss, then hits
        cache.route_flow(&t, Routing::UniformMinimal, 0, 5, 1.0, &mut loads);
        cache.route_flow(&t, Routing::UniformMinimal, 1, 6, 1.0, &mut loads);
        cache.route_flow(&t, Routing::UniformMinimal, 10, 15, 1.0, &mut loads);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.entries(), 1);
        // a different displacement is a second miss
        cache.route_flow(&t, Routing::UniformMinimal, 0, 3, 1.0, &mut loads);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.entries(), 2);
    }

    proptest! {
        /// Stencil-cached routing equals direct routing bit-for-bit on a
        /// mixed torus (ties, wraps, width-2 dims all exercised).
        #[test]
        fn cached_matches_direct_exactly(
            src in 0u32..64, dst in 0u32..64, bytes in 0.1f64..50.0,
            dor in proptest::bool::ANY,
        ) {
            let t = Torus::torus(&[4, 4, 2, 2]);
            let routing = if dor { Routing::DimOrder } else { Routing::UniformMinimal };
            let cache = RouteStencilCache::new(&t);
            let mut direct = ChannelLoads::new(&t);
            route_flow(&t, routing, src, dst, bytes, &mut direct);
            let mut cached = ChannelLoads::new(&t);
            cache.route_flow(&t, routing, src, dst, bytes, &mut cached);
            prop_assert_eq!(&direct, &cached);
            let mut again = ChannelLoads::new(&t);
            cache.route_flow(&t, routing, src, dst, bytes, &mut again);
            prop_assert_eq!(&direct, &again);
        }

        /// Whole-graph cached routing equals `route_graph` exactly,
        /// including the width-normalized MCL.
        #[test]
        fn cached_graph_matches_route_graph(seed in 0u64..32) {
            let t = Torus::mesh(&[4, 4]);
            let g = patterns::random(16, 40, 1.0, 30.0, seed);
            let placement: Vec<u32> = (0..16).collect();
            let cache = RouteStencilCache::new(&t);
            for routing in [Routing::DimOrder, Routing::UniformMinimal] {
                let direct = route_graph(&t, &g, &placement, routing);
                let cached = cache.route_graph(&t, &g, &placement, routing);
                prop_assert_eq!(&direct, &cached);
                prop_assert_eq!(direct.mcl(&t), cached.mcl(&t));
            }
        }
    }
}
