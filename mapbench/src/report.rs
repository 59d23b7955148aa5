//! Metric values, the end-to-end metrics, and the result line.

use crate::measure::{geomean, median, peak_rss_mb, tail, Attempt};
use crate::workload::Workload;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Human-readable qualifier (sample count, percentile, source).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of a run with tracing off, as (gated, printed
/// only). The second list is not in `BENCHMARK.json`: `map_s.tail` jumps
/// between graphs as the sample count moves (see the README), and
/// `downgrades` and `failed_frac` are 0 whenever the run is healthy (the
/// result line carries failures as `failed` / `attempted`).
pub fn end_to_end(w: &Workload, attempts: &[Attempt], setup_s: f64) -> (Vec<Metric>, Vec<Metric>) {
    let timed: Vec<&Attempt> = attempts.iter().filter(|a| !a.traced).collect();
    let walls: Vec<f64> = timed.iter().map(|a| a.wall_s).collect();
    let cpus: Vec<f64> = timed.iter().map(|a| a.cpu_s).collect();
    let n = walls.len();
    let (tail_s, pct) = tail(&walls);
    let beyond = if n > 10 { 10 } else { 0 };

    let mut mcl = Vec::new();
    let mut vs_default = Vec::new();
    for (i, case) in w.cases.iter().enumerate() {
        let values: Vec<f64> = attempts
            .iter()
            .filter(|a| a.case == i)
            .filter_map(|a| a.outcome.as_ref().ok().map(|r| r.predicted_mcl))
            .collect();
        if !values.is_empty() {
            let m = median(&values);
            mcl.push(m);
            vs_default.push(m / case.default_mcl);
        }
    }
    let ok: Vec<_> = attempts
        .iter()
        .filter_map(|a| a.outcome.as_ref().ok())
        .collect();
    let downgrades: usize = ok
        .iter()
        .map(|r| r.stats.degradation.total_downgrades())
        .sum();
    let failed = failures(attempts);

    let gated = vec![
        Metric::new("map_s.p50", median(&walls), "s").with_note(format!("n={n}")),
        Metric::new("cpu_s.p50", median(&cpus), "s").with_note(format!("n={n}")),
        Metric::new("predicted_mcl", geomean(&mcl), "bytes")
            .with_note(format!("geomean over {} graphs", mcl.len())),
        Metric::new("mcl_vs_default", geomean(&vs_default), "ratio")
            .with_note("RAHTM MCL / ABCDET MCL, geomean"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("setup_s", setup_s, "s").with_note("median of the set-up repeats"),
    ];
    let extra = vec![
        Metric::new("map_s.tail", tail_s, "s")
            .with_note(format!("p{pct:.1}, n={n}, {beyond} samples beyond")),
        Metric::new(
            "downgrades",
            ratio(downgrades as f64, ok.len() as f64),
            "count",
        )
        .with_note("per mapping"),
        Metric::new(
            "failed_frac",
            ratio(failed as f64, attempts.len() as f64),
            "ratio",
        )
        .with_note(format!("{failed} of {} attempted", attempts.len())),
    ];
    (gated, extra)
}

/// Attempts that errored, panicked or failed the check.
pub fn failures(attempts: &[Attempt]) -> usize {
    attempts.iter().filter(|a| a.outcome.is_err()).count()
}

/// Prints one metric as a human-readable line.
pub fn print_metric(m: &Metric) {
    if m.note.is_empty() {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    } else {
        println!(
            "  {:<28} {:>18.6} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// The single-line JSON result the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
