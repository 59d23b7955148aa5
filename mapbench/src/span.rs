//! Benchmark-side spans: name, start, end, parent and run id, held in
//! memory and printed when the run ends.
//!
//! Spans wrap calls into each layer's public functions from the outside;
//! the program itself is not instrumented by them. A disabled tracer only
//! runs the wrapped closure, so the end-to-end runs pay nothing.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `routing.mapping_mcl`.
    pub name: &'static str,
    /// Which mapping or replay the span belongs to.
    pub run: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
}

impl SpanRecord {
    /// Wall duration of the span.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u64,
    stack: Vec<usize>,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer that records every span.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            run: self.run,
            parent: self.stack.last().copied(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Duration of span `idx` minus the time its direct children cover.
    /// Children of one span run one after another, so their durations add.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(SpanRecord::secs)
            .sum();
        self.spans[idx].secs() - children
    }

    /// Self times of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_secs(i))
            .collect()
    }
}
