//! Self-test of the benchmark on micro-64 (a 4×4 torus, 64 ranks): the
//! correctness check rejects broken mappings, a failed check fails the
//! run, and every workload's code path runs end to end.

use mapbench::check::{check_mapping, CheckError};
use mapbench::layers::{per_layer, replay};
use mapbench::measure::{closed_loop, run_pipeline};
use mapbench::report::{end_to_end, failures, result_line};
use mapbench::span::Tracer;
use mapbench::workload::{build, Workload, WorkloadKind};
use rahtm_bench::experiments::Scale;
use rahtm_core::{RahtmResult, TaskMapping};

fn micro(kind: WorkloadKind) -> Workload {
    build(kind, &Scale::micro(), 7)
}

fn mapped(w: &Workload) -> RahtmResult {
    run_pipeline(w, &w.cases[0], rahtm_obs::Recorder::disabled()).expect("micro-64 maps")
}

fn check(w: &Workload, mapping: &TaskMapping, predicted: f64) -> Result<f64, CheckError> {
    let machine = &w.scale.machine;
    let graph = &w.cases[0].graph;
    check_mapping(
        machine,
        graph,
        mapping,
        predicted,
        w.config.routing,
        &mut Tracer::disabled(),
    )
}

#[test]
fn rank_moved_onto_a_full_node_is_rejected() {
    let w = micro(WorkloadKind::NasMini);
    let res = mapped(&w);
    let machine = &w.scale.machine;
    check(&w, &res.mapping, res.predicted_mcl).expect("the pipeline's own mapping passes");

    // every node is full at micro-64, so any other node is a full one
    let from = res.mapping.node(0);
    let to = (1..res.mapping.num_ranks())
        .map(|r| res.mapping.node(r))
        .find(|&n| n != from)
        .expect("ranks span several nodes");
    let text = res.mapping.to_bgq_mapfile(machine);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let coord: Vec<String> = machine
        .torus()
        .coord(to)
        .iter()
        .map(|x| x.to_string())
        .collect();
    lines[0] = format!("{} {}", coord.join(" "), machine.concentration() - 1);
    let moved = TaskMapping::from_bgq_mapfile(machine, &lines.join("\n")).expect("mapfile parses");

    let err = check(&w, &moved, res.predicted_mcl).expect_err("over-full node must be rejected");
    assert!(
        matches!(err, CheckError::OverFull { node, .. } if node == to),
        "unexpected rejection: {err}"
    );
}

#[test]
fn tampered_predicted_mcl_is_rejected() {
    let w = micro(WorkloadKind::NasMini);
    let res = mapped(&w);
    let recomputed = check(&w, &res.mapping, res.predicted_mcl).expect("honest value passes");
    assert!((recomputed - res.predicted_mcl).abs() <= 1e-9 * recomputed);
    let err = check(&w, &res.mapping, res.predicted_mcl * (1.0 + 1e-6)).expect_err("tampered");
    assert!(
        matches!(err, CheckError::MclMismatch { .. }),
        "unexpected rejection: {err}"
    );
}

#[test]
fn failed_check_or_panic_fails_the_run() {
    let w = micro(WorkloadKind::NasMini);
    let mut tamper = |w: &Workload, c: &_, r| {
        run_pipeline(w, c, r).map(|mut res| {
            res.predicted_mcl *= 2.0;
            res
        })
    };
    let attempts = closed_loop(&w, 0.0, false, &mut Tracer::disabled(), &mut tamper);
    assert_eq!(failures(&attempts), attempts.len());
    let line = result_line(false, attempts.len(), failures(&attempts), &[]);
    assert!(line.starts_with("{\"correct\": false"));

    let mut panics = |_: &Workload, _: &_, _| -> Result<RahtmResult, rahtm_core::RahtmError> {
        panic!("injected")
    };
    let attempts = closed_loop(&w, 0.0, false, &mut Tracer::disabled(), &mut panics);
    assert_eq!(failures(&attempts), attempts.len());
}

#[test]
fn every_workload_runs_end_to_end() {
    for kind in WorkloadKind::ALL {
        let w = micro(kind);
        let mut tracer = Tracer::enabled();
        let mut map = run_pipeline;
        let attempts = closed_loop(&w, 0.0, true, &mut tracer, &mut map);
        assert_eq!(failures(&attempts), 0, "{}", kind.name());
        assert!(attempts.iter().any(|a| a.traced) && attempts.iter().any(|a| !a.traced));

        let (gated, _) = end_to_end(&w, &attempts, 1e-3);
        for m in &gated {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {}",
                kind.name(),
                m.name
            );
        }

        let res = attempts
            .iter()
            .find(|a| a.case == 0 && a.traced)
            .and_then(|a| a.outcome.as_ref().ok())
            .expect("traced mapping");
        let replayed = replay(&w, &w.cases[0], &res.mapping, &mut tracer);
        let layer = per_layer(&w, &attempts, &replayed, &tracer);
        assert_eq!(layer.len(), 26);
        for m in &layer {
            assert!(m.value.is_finite(), "{} {}", kind.name(), m.name);
        }
        let get = |n: &str| layer.iter().find(|m| m.name == n).map(|m| m.value);
        assert!(get("pipeline.wall_s") > Some(0.0));
        assert!(get("routing.mapping_mcl_s") > Some(0.0));
        assert!(get("anneal.proposals_per_s") > Some(0.0));
        assert!(get("lp.pivots_per_s") > Some(0.0));
        assert_eq!(
            get("lp.simplex.pivots") > Some(0.0),
            kind == WorkloadKind::CgMiniMilp
        );
    }
}
