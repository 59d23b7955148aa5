//! The closed loop: one caller maps the workload's graphs one after
//! another, times each mapping, and checks each result.

use crate::check::check_mapping;
use crate::span::Tracer;
use crate::workload::{Case, Workload};
use rahtm_core::{RahtmError, RahtmMapper, RahtmResult};
use rahtm_obs::Recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The function that maps one case. The benchmark uses [`run_pipeline`];
/// the self-test substitutes faulty mappers to prove they are caught.
pub type MapFn<'a> = dyn FnMut(&Workload, &Case, Recorder) -> Result<RahtmResult, RahtmError> + 'a;

/// One timed mapping.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// Index into `Workload::cases`.
    pub case: usize,
    /// Whether the pipeline ran with a live `Recorder`.
    pub traced: bool,
    /// Wall seconds inside the mapper.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) inside the mapper.
    pub cpu_s: f64,
    /// The checked result, or why the attempt failed.
    pub outcome: Result<RahtmResult, String>,
}

/// Runs the RAHTM pipeline on `case` with the workload's configuration.
pub fn run_pipeline(
    w: &Workload,
    case: &Case,
    recorder: Recorder,
) -> Result<RahtmResult, RahtmError> {
    RahtmMapper::new(w.config.clone())
        .with_recorder(recorder)
        .run(&w.scale.machine, &case.graph, case.grid.clone())
}

/// Maps every case of `w` round after round, so each case is mapped
/// equally often. A new round starts only if it should end within
/// `seconds`, judged by the previous round; the first round always runs.
/// With `trace`, odd rounds run the pipeline with a live recorder and at
/// least one traced and one untraced round are made.
pub fn closed_loop(
    w: &Workload,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    map: &mut MapFn<'_>,
) -> Vec<Attempt> {
    let start = Instant::now();
    let mut attempts = Vec::new();
    let mut round = 0usize;
    let mut last_round_s = 0.0;
    while round == 0
        || start.elapsed().as_secs_f64() + last_round_s <= seconds
        || (trace && round < 2)
    {
        let t0 = Instant::now();
        let traced = trace && round % 2 == 1;
        for case in 0..w.cases.len() {
            tracer.set_run(attempts.len() as u64);
            attempts.push(attempt(w, case, traced, tracer, map));
        }
        last_round_s = t0.elapsed().as_secs_f64();
        round += 1;
    }
    attempts
}

fn attempt(
    w: &Workload,
    case: usize,
    traced: bool,
    tracer: &mut Tracer,
    map: &mut MapFn<'_>,
) -> Attempt {
    let c = &w.cases[case];
    tracer.span("mapping", |t| {
        let recorder = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let cpu0 = process_cpu_secs();
        let t0 = Instant::now();
        let ran = t.span("rahtm.run", |_| {
            catch_unwind(AssertUnwindSafe(|| map(w, c, recorder)))
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_secs() - cpu0;
        let outcome = match ran {
            Ok(Ok(res)) => check_mapping(
                &w.scale.machine,
                &c.graph,
                &res.mapping,
                res.predicted_mcl,
                w.config.routing,
                t,
            )
            .map(|_| res)
            .map_err(|e| format!("{} failed the check: {e}", c.label)),
            Ok(Err(e)) => Err(format!("{}: {e}", c.label)),
            Err(p) => Err(format!("{}: panicked: {}", c.label, panic_text(p.as_ref()))),
        };
        Attempt {
            case,
            traced,
            wall_s,
            cpu_s,
            outcome,
        }
    })
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Linux user-space clock ticks per second (`USER_HZ`), fixed at 100 on
/// every architecture the kernel exports `/proc` times for.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, every thread included (from
/// `/proc/self/stat`, 10 ms resolution). 0 where `/proc` is unavailable.
pub fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // fields after the parenthesised command name start at field 3
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime is field 14 and stime field 15 of proc(5)
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile with at least ten samples above it, as
/// `(value, percentile)`. With ten samples or fewer no percentile
/// qualifies, and the maximum is returned as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Geometric mean; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
