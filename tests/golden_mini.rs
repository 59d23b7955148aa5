//! Bit-identity probe at mini-1k scale (4×4×4×2 torus, 16 cores per
//! node, 1024 ranks): pins the exact mapping, predicted MCL and merge
//! counts of the runs a merge-phase optimization must not change.
//!
//! Each case pins an FNV-1a checksum of `mapping.nodes()`, the bits of
//! `predicted_mcl`, `merge_kept`, and the merge candidates scored and
//! skipped (ranked as symmetry images without scoring). The checksums
//! and MCL bits are the outputs of the tree before the orbit-reduced
//! step 0 landed, and scored + skipped is what its exhaustive step 0
//! scored for each merge solved; a change that moves a checksum or an
//! MCL changed the mapper's answer.
//!
//! The probe takes about 25 s in release mode, so it is opt-in:
//!
//! ```text
//! cargo test --release --test golden_mini -- --ignored
//! ```

use rahtm_repro::obs::counters;
use rahtm_repro::prelude::*;

/// 64-bit FNV-1a over the little-endian bytes of each node id.
fn fnv1a(nodes: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in nodes {
        for b in n.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

type Probe = (u64, u64, usize, u64, u64);

fn mini_machine() -> BgqMachine {
    BgqMachine::new(Torus::torus(&[4, 4, 4, 2]), 16, 8)
}

/// The mapbench anneal path: MILP off, every other option at its default.
fn anneal_path() -> RahtmConfig {
    RahtmConfig {
        use_milp: false,
        ..RahtmConfig::default()
    }
}

/// `(checksum, predicted_mcl bits, merge_kept, candidates scored,
/// candidates skipped)`.
fn probe(config: RahtmConfig, graph: &CommGraph, grid: Option<RankGrid>) -> Probe {
    let recorder = Recorder::enabled();
    let res = RahtmMapper::new(config)
        .with_recorder(recorder.clone())
        .run(&mini_machine(), graph, grid)
        .expect("mini-1k mapping succeeds");
    let journal = recorder.journal();
    let count = |name| journal.counter(name).unwrap_or(0);
    (
        fnv1a(res.mapping.nodes()),
        res.predicted_mcl.to_bits(),
        res.stats.merge_kept,
        count(counters::MERGE_CANDIDATES_EVALUATED),
        count(counters::MERGE_CANDIDATES_SKIPPED),
    )
}

fn nas(b: Benchmark) -> (CommGraph, Option<RankGrid>) {
    let spec = b.spec(1024);
    (spec.comm_graph(), Some(spec.grid))
}

#[test]
#[ignore = "mini-1k scale: run with --release -- --ignored"]
fn mini_mappings_are_pinned() {
    type Case = (&'static str, RahtmConfig, CommGraph, Option<RankGrid>);
    let (bt, bt_grid) = nas(Benchmark::Bt);
    let (sp, sp_grid) = nas(Benchmark::Sp);
    let (cg, cg_grid) = nas(Benchmark::Cg);
    let random = |s| patterns::random(1024, 2048, 1.0, 20.0, s);
    let cases: Vec<Case> = vec![
        ("BT anneal", anneal_path(), bt, bt_grid),
        ("SP anneal", anneal_path(), sp, sp_grid),
        ("CG anneal", anneal_path(), cg.clone(), cg_grid.clone()),
        (
            "CG default",
            RahtmConfig::default(),
            cg.clone(),
            cg_grid.clone(),
        ),
        (
            "CG dim-order",
            RahtmConfig {
                routing: Routing::DimOrder,
                ..anneal_path()
            },
            cg.clone(),
            cg_grid.clone(),
        ),
        (
            "CG beam 1",
            RahtmConfig {
                beam_width: 1,
                ..anneal_path()
            },
            cg,
            cg_grid,
        ),
        ("random s=1", anneal_path(), random(1), None),
        ("random s=2", anneal_path(), random(2), None),
    ];
    let mut got = Vec::new();
    for (label, config, graph, grid) in cases {
        let (sum, bits, kept, scored, skipped) = probe(config, &graph, grid);
        println!("(\"{label}\", 0x{sum:016x}, 0x{bits:016x}, {kept}, {scored}, {skipped}),");
        got.push((label, (sum, bits, kept, scored, skipped)));
    }
    // scored + skipped is the count the exhaustive step 0 scored. BT, SP
    // and CG default share side-4 merges between the two slices, which
    // the merge cache now solves once instead of once per racing slice.
    let expect: [(&str, Probe); 8] = [
        (
            "BT anneal",
            (0xeb386a5514d40b25, 0x414d355555555558, 512, 18624, 4416),
        ),
        (
            "SP anneal",
            (0x363bbffe99dec325, 0x412999999999999d, 512, 18624, 4416),
        ),
        (
            "CG anneal",
            (0xf16bbd0c01e2c325, 0x4162444444444448, 960, 37200, 6576),
        ),
        (
            "CG default",
            (0x0a5d565820eec325, 0x4160000000000002, 512, 18624, 4416),
        ),
        // DimOrder opts out of the orbit rule: every candidate is scored
        (
            "CG dim-order",
            (0x6a804e4286f5c325, 0x4172000000000000, 960, 43776, 0),
        ),
        (
            "CG beam 1",
            (0x3ef1f1f2e676c325, 0x4162444444444448, 15, 912, 6576),
        ),
        (
            "random s=1",
            (0x3089906cd68a4d25, 0x405d1e42daa6ec2d, 960, 37200, 6576),
        ),
        (
            "random s=2",
            (0x08a54f21df945325, 0x405e5a06238e6f28, 960, 37200, 6576),
        ),
    ];
    assert_eq!(got, expect);
}

/// Two slices look up the same sub-problems and merges at once; the
/// cross-slice caches compute each key once, so the work counts and the
/// deterministic journal do not depend on which slice got there first.
#[test]
#[ignore = "mini-1k scale: run with --release -- --ignored"]
fn default_cg_counts_are_stable_in_one_process() {
    let (cg, grid) = nas(Benchmark::Cg);
    let run = || {
        let recorder = Recorder::enabled();
        let res = RahtmMapper::new(RahtmConfig::default())
            .with_recorder(recorder.clone())
            .run(&mini_machine(), &cg, grid.clone())
            .expect("mini-1k mapping succeeds");
        let s = &res.stats;
        let counts = (
            s.merge_candidates,
            s.merge_kept,
            s.merge_cache_hits,
            s.milp_cache_hits,
        );
        println!("{counts:?}");
        (
            fnv1a(res.mapping.nodes()),
            counts,
            recorder.journal().normalized(),
        )
    };
    let first = run();
    assert_eq!(first.1, (18624, 512, 16, 13));
    for _ in 0..2 {
        assert_eq!(run(), first);
    }
}
