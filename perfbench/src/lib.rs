//! End-to-end and per-layer benchmark of the TLM estimator.
//!
//! Three closed-loop workloads drive the repository's public API from
//! outside: `mp3_timed` (warm annotation plus timed-TLM simulation of the
//! paper's MP3 design points), `serve_cold` (never-seen `/estimate`
//! requests over HTTP) and `serve_session` (incremental edits of one
//! session over HTTP). See `README.md` in this directory for what each
//! workload and metric means.

#![forbid(unsafe_code)]

mod accuracy;
pub mod client;
mod host;
pub mod inputs;
mod mp3;
pub mod report;
mod serve;
pub mod stats;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["mp3_timed", "serve_cold", "serve_session"];

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("success_share", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("error_pct", "%"),
];

/// Per-layer metrics (traced runs): `(name, unit)`. A workload whose ops
/// never reach a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("pipeline.annotate_design_ms", "ms"),
    ("platform.run_annotated_ms", "ms"),
    ("platform.run_functional_ms", "ms"),
    ("platform.ns_per_sim_op", "ns"),
    ("cdfg.sim_ops", "count"),
    ("desim.resumes", "count"),
    ("desim.events_fired", "count"),
    ("pipeline.stage_hit_ratio", "ratio"),
    ("json.parse_ms", "ms"),
    ("minic.parse_ms", "ms"),
    ("cdfg.lower_ms", "ms"),
    ("platform.decode_ms", "ms"),
    ("pipeline.prepare_ms", "ms"),
    ("core.annotate_ms", "ms"),
    ("pipeline.report_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("core.schedule_misses", "count"),
    ("core.schedule_hit_ratio", "ratio"),
    ("pipeline.module.misses", "count"),
    ("serve.response_bytes", "bytes"),
    ("session.edit_ms", "ms"),
    ("session.dirty_functions", "count"),
    ("session.dirty_blocks", "count"),
    ("pipeline.rows.misses", "count"),
    ("unattributed_ms", "ms"),
    ("attributed_share", "ratio"),
    ("host.calib_ms", "ms"),
];

/// The body of the `--characterize` helper process `mp3_timed` spawns.
pub fn print_characterizations() {
    mp3::print_characterizations();
}

/// Runs one workload and returns its report with every metric of the
/// run's kind present (absent per-layer metrics filled with 0).
///
/// # Errors
///
/// An unknown workload, or a workload that could not run.
pub fn run(workload: &str, opts: &report::Opts) -> Result<report::Report, String> {
    let mut report = match workload {
        "mp3_timed" => mp3::run(opts)?,
        "serve_cold" => serve::run_cold(opts)?,
        "serve_session" => serve::run_session(opts)?,
        other => {
            return Err(format!("unknown workload `{other}` (known: {})", WORKLOADS.join(", ")))
        }
    };
    let expected: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(stray) = report.names().find(|n| !expected.iter().any(|(e, _)| e == n)) {
        return Err(format!("metric `{stray}` is not declared for this kind of run"));
    }
    for &(name, unit) in expected {
        if report.get(name).is_none() {
            report.metric(name, 0.0, unit);
        }
    }
    Ok(report)
}
