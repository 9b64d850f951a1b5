//! Estimate accuracy of the served workloads' designs: timed-TLM cycles
//! against the cycle-accurate board, on a fixed reference sample of each
//! workload's input generator (seed 0), at every sweep point.
//!
//! The sample does not depend on the run's seed, so the figure moves only
//! when the estimator's numbers move. It is computed outside every timed
//! region.

use tlm_json::Value;
use tlm_pcam::{run_board, BoardConfig};
use tlm_pipeline::Pipeline;
use tlm_platform::tlm::{run_annotated, TlmConfig};

use crate::inputs::{
    base_pum, cold_request, platform_body, session_create_body, session_edit, SessionProgram,
};

/// Cold requests in the reference sample.
const COLD_SAMPLE: u64 = 8;
/// Edits applied to the reference session program.
const SESSION_SAMPLE: u64 = 8;

/// Mean |timed TLM − board| / board in percent over every request body's
/// platform at every sweep point of the body.
///
/// # Errors
///
/// A body that does not decode, or a run that fails or diverges from the
/// board's outputs.
pub fn served_error_pct(bodies: &[String]) -> Result<f64, String> {
    let pipeline = Pipeline::new();
    let config = TlmConfig::default();
    let mut errors = Vec::new();
    for body in bodies {
        let root = tlm_json::parse(body).map_err(|e| format!("reference body: {e}"))?;
        let design = pipeline
            .design_from_value(root.get("platform").ok_or("no platform")?)
            .map_err(|e| format!("reference design: {e}"))?;
        for point in root.get("sweep").and_then(Value::as_array).ok_or("no sweep")? {
            let size = |k: &str| point.get(k).and_then(Value::as_u64).unwrap_or(0) as u32;
            let mut sized = design.clone();
            for pe in &mut sized.platform.pes {
                pe.pum = pe.pum.with_cache_sizes(size("icache"), size("dcache"));
            }
            let annotated =
                pipeline.annotate_design(&sized).map_err(|e| format!("reference annotate: {e}"))?;
            let timed = run_annotated(&sized.platform, Some(&annotated), &config);
            let board = run_board(&sized.platform, &BoardConfig::default())
                .map_err(|e| format!("reference board: {e}"))?;
            if !timed.all_finished() || timed.outputs != board.outputs {
                return Err("reference design: timed TLM diverges from the board".into());
            }
            let (t, b) = (timed.end_time.ps() as f64, board.end_time.ps() as f64);
            errors.push((t - b).abs() / b * 100.0);
        }
    }
    Ok(errors.iter().sum::<f64>() / errors.len().max(1) as f64)
}

/// [`served_error_pct`] over the sources of the first cold requests of
/// seed 0, on the unmodified base core: the board models that core, not
/// the requests' renamed and re-delayed variants.
///
/// # Errors
///
/// As [`served_error_pct`].
pub fn cold_error_pct() -> Result<f64, String> {
    let bodies: Vec<String> = (0..COLD_SAMPLE)
        .map(|i| platform_body("reference", &base_pum(), &cold_request(0, i).source))
        .collect();
    served_error_pct(&bodies)
}

/// [`served_error_pct`] over the seed-0 session program after each of
/// its first edits.
///
/// # Errors
///
/// As [`served_error_pct`].
pub fn session_error_pct() -> Result<f64, String> {
    let mut program = SessionProgram::initial(0);
    let mut bodies = vec![session_create_body(&program)];
    for i in 0..SESSION_SAMPLE {
        let (f, body) = session_edit(0, i);
        program.bodies[f] = body;
        bodies.push(session_create_body(&program));
    }
    served_error_pct(&bodies)
}
