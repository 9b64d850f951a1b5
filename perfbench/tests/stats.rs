//! The percentile and summary helpers against hand-computed answers
//! (inclusive linear interpolation, as `numpy.percentile` and Python's
//! `statistics.quantiles(method="inclusive")` compute them).

use perfbench::stats::{median, percentile, summarize, Summary};

#[test]
fn percentiles_interpolate_between_closest_ranks() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&ten, 0.0), Some(1.0));
    assert_eq!(percentile(&ten, 100.0), Some(10.0));
    assert_eq!(percentile(&ten, 50.0), Some(5.5));
    assert!((percentile(&ten, 90.0).unwrap() - 9.1).abs() < 1e-12);
    assert!((percentile(&ten, 25.0).unwrap() - 3.25).abs() < 1e-12);
}

#[test]
fn order_of_samples_does_not_matter() {
    let a = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(median(&a), Some(3.0));
    assert_eq!(percentile(&a, 75.0), Some(4.0));
}

#[test]
fn degenerate_samples() {
    assert_eq!(median(&[]), None);
    assert_eq!(summarize(&[]), None);
    assert_eq!(median(&[7.5]), Some(7.5));
    assert_eq!(percentile(&[7.5], 90.0), Some(7.5));
    assert_eq!(median(&[1.0, 2.0]), Some(1.5));
}

#[test]
fn summary_reports_median_and_p90() {
    let samples: Vec<f64> = (0..=100).map(f64::from).collect();
    assert_eq!(summarize(&samples), Some(Summary { p50: 50.0, p90: 90.0 }));
}
