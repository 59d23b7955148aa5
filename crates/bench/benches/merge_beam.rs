//! Micro-benchmark: the phase-3 orientation beam search, including the
//! beam-width ablation (the paper's N = 64 vs the greedy N = 1 and wider).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rahtm_commgraph::patterns;
use rahtm_core::block::Block;
use rahtm_core::merge::{merge_blocks, MergeOptions, PositionedBlock};
use rahtm_routing::{RouteStencilCache, Routing};
use rahtm_topology::{Coord, Torus};
use std::hint::black_box;
use std::sync::Arc;

fn quad_children(seed: u64) -> (Torus, rahtm_commgraph::CommGraph, Vec<PositionedBlock>) {
    let topo = Torus::torus(&[4, 4]);
    let g = patterns::random(16, 48, 1.0, 20.0, seed);
    let children = (0..4)
        .map(|q| {
            let base = q * 4;
            PositionedBlock {
                block: Block {
                    extent: Coord::new(&[2, 2]),
                    members: (0..4)
                        .map(|i| (base + i, Coord::new(&[(i / 2) as u16, (i % 2) as u16])))
                        .collect(),
                },
                origin: Coord::new(&[(q / 2) as u16 * 2, (q % 2) as u16 * 2]),
            }
        })
        .collect();
    (topo, g, children)
}

fn bench_beam_width(c: &mut Criterion) {
    let (topo, g, children) = quad_children(9);
    let mut group = c.benchmark_group("merge/beam_width");
    for n in [1usize, 4, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                black_box(merge_blocks(
                    &topo,
                    &g,
                    black_box(&children),
                    &Coord::new(&[0, 0]),
                    &Coord::new(&[4, 4]),
                    &MergeOptions {
                        beam_width: n,
                        routing: Routing::UniformMinimal,
                        ..Default::default()
                    },
                ))
            })
        });
    }
    group.finish();
}

/// Scoring-model ablation: DOR vs the MAR approximation inside the merge.
fn bench_scoring_model(c: &mut Criterion) {
    let (topo, g, children) = quad_children(11);
    let mut group = c.benchmark_group("merge/scoring_model");
    for (name, routing) in [
        ("uniform_minimal", Routing::UniformMinimal),
        ("dim_order", Routing::DimOrder),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(merge_blocks(
                    &topo,
                    &g,
                    black_box(&children),
                    &Coord::new(&[0, 0]),
                    &Coord::new(&[4, 4]),
                    &MergeOptions {
                        beam_width: 64,
                        routing,
                        ..Default::default()
                    },
                ))
            })
        });
    }
    group.finish();
}

/// Cached-vs-private stencils across repeated merges: a shared warmed
/// [`RouteStencilCache`] (as the pipeline passes between slices) against
/// the per-call private cache a bare `merge_blocks` builds from cold.
fn bench_stencil_sharing(c: &mut Criterion) {
    let (topo, g, children) = quad_children(12);
    let mut group = c.benchmark_group("merge/stencil_sharing");
    group.bench_function("private_cache", |b| {
        b.iter(|| {
            black_box(merge_blocks(
                &topo,
                &g,
                black_box(&children),
                &Coord::new(&[0, 0]),
                &Coord::new(&[4, 4]),
                &MergeOptions {
                    beam_width: 64,
                    routing: Routing::UniformMinimal,
                    ..Default::default()
                },
            ))
        })
    });
    let shared = Arc::new(RouteStencilCache::new(&topo));
    group.bench_function("shared_warmed", |b| {
        b.iter(|| {
            black_box(merge_blocks(
                &topo,
                &g,
                black_box(&children),
                &Coord::new(&[0, 0]),
                &Coord::new(&[4, 4]),
                &MergeOptions {
                    beam_width: 64,
                    routing: Routing::UniformMinimal,
                    stencils: Some(Arc::clone(&shared)),
                    ..Default::default()
                },
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_beam_width,
    bench_scoring_model,
    bench_stencil_sharing
);
criterion_main!(benches);
