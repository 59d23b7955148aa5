//! `mapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time, checks every mapping, prints
//! every metric with its unit, and ends with one JSON result line. Exits
//! 1 when any mapping failed and 2 on bad arguments.

use mapbench::layers::{per_layer, predictions, replay, ReplayCounts};
use mapbench::measure::{closed_loop, median, run_pipeline};
use mapbench::report::{end_to_end, failures, print_metric, result_line};
use mapbench::span::Tracer;
use mapbench::workload::{build, WorkloadKind};
use rahtm_bench::experiments::Scale;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up is repeated at least this often, and for at least
/// `SETUP_MIN_SECS`, and the median is reported. The first few set-ups of
/// a process run up to twice as slow; repeating past them keeps the
/// median on the steady ones.
const SETUP_MIN_REPEATS: usize = 15;
const SETUP_MIN_SECS: f64 = 1.0;

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WorkloadKind::parse(name).ok_or_else(|| {
        let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The checked-out commit, read from `.git` in the working directory
/// only; "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mapbench: {e}");
            eprintln!("usage: mapbench --workload <nas-mini|cg-mini-milp|irregular-mini> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::mini();
    let mut setup = Vec::new();
    let w = loop {
        let t0 = Instant::now();
        let w = build(args.workload, &scale, args.seed);
        setup.push(t0.elapsed().as_secs_f64());
        if setup.len() >= SETUP_MIN_REPEATS && setup.iter().sum::<f64>() >= SETUP_MIN_SECS {
            break w;
        }
    };
    let setup_s = median(&setup);

    println!(
        "mapbench: workload={} seed={} seconds={} trace={} scale={} cores_available={} commit={}",
        w.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        scale.name,
        rahtm_core::cores::available(),
        commit()
    );
    println!(
        "load: closed loop, one caller, graphs {} mapped round-robin",
        w.cases
            .iter()
            .map(|c| c.label.as_str())
            .collect::<Vec<_>>()
            .join("/")
    );

    let mut tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut map = run_pipeline;
    let attempts = closed_loop(&w, args.seconds, args.trace, &mut tracer, &mut map);
    let failed = failures(&attempts);
    for a in &attempts {
        if let Err(e) = &a.outcome {
            println!("FAILED: {e}");
        }
    }
    for (i, case) in w.cases.iter().enumerate() {
        let done: Vec<_> = attempts.iter().filter(|a| a.case == i).collect();
        let walls: Vec<f64> = done.iter().map(|a| a.wall_s).collect();
        if let Some(res) = done.iter().find_map(|a| a.outcome.as_ref().ok()) {
            println!(
                "graph {}: predicted_mcl={:.2} default_mcl={:.2} ratio={:.3} map_s median={:.3} (n={})",
                case.label,
                res.predicted_mcl,
                case.default_mcl,
                res.predicted_mcl / case.default_mcl,
                median(&walls),
                walls.len()
            );
        }
    }
    let (gated, extra) = end_to_end(&w, &attempts, setup_s);
    println!(
        "end-to-end{}:",
        if args.trace { " (untraced rounds)" } else { "" }
    );
    for m in gated.iter().chain(&extra) {
        print_metric(m);
    }

    let reported = if args.trace {
        // replays run on the first graph only, which keeps a traced run
        // of irregular-mini's eight graphs well inside its time limit
        let last = attempts
            .iter()
            .rev()
            .filter(|a| a.case == 0 && a.traced)
            .find_map(|a| a.outcome.as_ref().ok());
        tracer.set_run(attempts.len() as u64);
        let replayed = last.map_or_else(ReplayCounts::default, |res| {
            replay(&w, &w.cases[0], &res.mapping, &mut tracer)
        });
        let layer = per_layer(&w, &attempts, &replayed, &tracer);
        println!("per-layer:");
        for m in &layer {
            print_metric(m);
        }
        for (claim, holds) in predictions(w.kind, &layer) {
            println!(
                "prediction {claim}: {}",
                if holds { "holds" } else { "does not hold" }
            );
        }
        println!("spans (run, name, parent, start_s, end_s, self_s):");
        for (i, s) in tracer.spans().iter().enumerate() {
            let parent = s.parent.map_or("-", |p| tracer.spans()[p].name);
            println!(
                "  {} {} {} {:.6} {:.6} {:.6}",
                s.run,
                s.name,
                parent,
                s.start_s,
                s.end_s,
                tracer.self_secs(i)
            );
        }
        layer
    } else {
        gated
    };
    println!(
        "{}",
        result_line(failed == 0, attempts.len(), failed, &reported)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
