//! Order statistics over samples.
//!
//! Percentiles use linear interpolation between closest ranks (the
//! "inclusive" method: the 0th percentile is the minimum and the 100th
//! the maximum), so a median of an even-sized sample is the mean of the
//! two middle values.

use std::time::Duration;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `p`-th percentile (0 ≤ p ≤ 100) of `samples`, or `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`, or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Median and 90th percentile of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

/// Summarizes `samples`, or `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    Some(Summary { p50: percentile(samples, 50.0)?, p90: percentile(samples, 90.0)? })
}
