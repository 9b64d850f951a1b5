//! Host probes: a fixed compute loop to tell a slow host from a slow
//! program, and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop (~25 ms on a 2-vCPU VM).
const CALIB_ITERS: u64 = 20_000_000;

/// Runs the fixed pure-compute loop once and returns its wall time in ms.
/// A diagnostic only: it never scales a reported metric.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..black_box(CALIB_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Reads one `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mib("VmHWM:")
}
