//! The benchmark's result record and its one-line JSON rendering.

use crate::stats::{median, summarize};

/// Options every workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// Workload seed; all inputs derive from it.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: u64,
    /// `false`: end-to-end metrics on an untraced run. `true`: per-layer
    /// metrics from the traced run.
    pub trace: bool,
}

/// One run's outcome.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed (non-200 or a failed check).
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// An empty report for `attempted` ops of which `failed` failed.
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report { correct: failed == 0, attempted, failed, metrics: Vec::new() }
    }

    /// Records a metric. A non-finite value is recorded as 0 and marks
    /// the run incorrect.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            self.correct = false;
        }
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Records the median of `samples` (0 when there are none).
    pub fn median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.metric(name, median(samples).unwrap_or(0.0), unit);
    }

    /// Records every end-to-end metric of an untraced run.
    ///
    /// # Errors
    ///
    /// No op completed, or the peak resident set could not be read.
    pub fn end_to_end(&mut self, e: &EndToEnd<'_>) -> Result<(), String> {
        let latency = summarize(e.latency_ms).ok_or("no op completed")?;
        let good = self.attempted - self.failed;
        self.median("setup_s", e.setup_s, "s");
        self.median("throughput_ops_s", e.rates, "1/s");
        self.metric("latency_ms.p50", latency.p50, "ms");
        self.metric("latency_ms.p90", latency.p90, "ms");
        self.metric("success_share", good as f64 / self.attempted as f64, "ratio");
        self.metric("peak_rss_mb", e.peak_rss_mb.ok_or("cannot read VmHWM")?, "MiB");
        self.metric("error_pct", e.error_pct, "%");
        Ok(())
    }

    /// Looks a recorded metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| *n == name).map(|&(_, v, _)| v)
    }

    /// Names of the recorded metrics, in recording order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.metrics.iter().map(|&(name, _, _)| name)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The samples behind the end-to-end metrics of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd<'a> {
    /// Seconds per set-up.
    pub setup_s: &'a [f64],
    /// Checked-good ops per second, per round or epoch.
    pub rates: &'a [f64],
    /// Every op's latency.
    pub latency_ms: &'a [f64],
    /// Peak resident set of the estimating process.
    pub peak_rss_mb: Option<f64>,
    /// Timed-TLM error against the board.
    pub error_pct: f64,
}
