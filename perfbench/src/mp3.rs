//! `mp3_timed`: warm annotation plus timed-TLM simulation of the paper's
//! MP3 design points, one library thread, closed loop.

use std::process::{Command, Stdio};
use std::time::Instant;

use tlm_apps::{mp3_design, Mp3Design, Mp3Params};
use tlm_bench::{apply_characterization, characterize_cpu, end_time_cycles, CpuCharacterization};
use tlm_core::characterize::HitRateTable;
use tlm_core::parallel::par_map;
use tlm_desim::SimTime;
use tlm_pcam::{run_board, BoardConfig};
use tlm_pipeline::{Pipeline, PreparedDesign};
use tlm_platform::tlm::{run_annotated, TlmConfig, TlmReport};

use crate::host;
use crate::inputs::{mp3_eval_params, mp3_points};
use crate::report::{EndToEnd, Opts, Report};
use crate::stats::{median, ms};

/// Fresh-pipeline set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// What a timed run must reproduce at one design point.
struct Reference {
    outputs: std::collections::BTreeMap<String, Vec<i64>>,
    end_time: SimTime,
    counts: Counts,
}

/// Exact simulation counts of one timed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    sim_ops: u64,
    resumes: u64,
    events_fired: u64,
}

impl Counts {
    fn of(report: &TlmReport) -> Counts {
        Counts {
            sim_ops: report.processes.values().map(|p| p.stats.ops).sum(),
            resumes: report.sim.resumes,
            events_fired: report.sim.events_fired,
        }
    }
}

/// Builds every design point on a fresh pipeline and annotates it cold:
/// the one-time work a user of the estimator pays.
fn setup(
    eval: Mp3Params,
    chrs: &[CpuCharacterization],
) -> Result<(Pipeline, Vec<PreparedDesign>), String> {
    let pipeline = Pipeline::new();
    let mut designs = Vec::new();
    for point in mp3_points() {
        let mut design = mp3_design(&pipeline, point.design, eval, point.icache, point.dcache)
            .map_err(|e| format!("{} {}: {e}", point.design, point.label))?;
        let d = Mp3Design::ALL.iter().position(|&d| d == point.design).expect("a known design");
        apply_characterization(&mut design.platform, &chrs[d]);
        pipeline.annotate_design(&design).map_err(|e| format!("annotate: {e}"))?;
        designs.push(design);
    }
    Ok((pipeline, designs))
}

/// Mean |timed TLM − board| / board in percent over the design points —
/// the error Tables 2–3 report. Also checks the board's outputs.
fn board_error_pct(designs: &[PreparedDesign], references: &[Reference]) -> Result<f64, String> {
    let boards = par_map(designs, |d| run_board(&d.platform, &BoardConfig::default()));
    let mut errors = Vec::with_capacity(boards.len());
    for ((point, board), reference) in mp3_points().iter().zip(boards).zip(references) {
        let board = board.map_err(|e| format!("{} {}: board: {e}", point.design, point.label))?;
        if board.outputs != reference.outputs {
            return Err(format!(
                "{} {}: board outputs differ from the TLM",
                point.design, point.label
            ));
        }
        let (b, t) = (end_time_cycles(board.end_time), end_time_cycles(reference.end_time));
        errors.push((t as f64 - b as f64).abs() / b as f64 * 100.0);
    }
    Ok(errors.iter().sum::<f64>() / errors.len() as f64)
}

/// Encodes a characterization as one text line; floats travel as their
/// exact bit patterns.
fn encode(chr: &CpuCharacterization) -> String {
    let table = |t: &HitRateTable| -> String {
        t.iter()
            .map(|(size, rate)| format!("{size}:{:x}", rate.to_bits()))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{:x} {:x} {:x} {} {}",
        chr.mispredict_rate.to_bits(),
        chr.fetch_expansion.to_bits(),
        chr.data_expansion.to_bits(),
        table(&chr.icache_rates),
        table(&chr.dcache_rates)
    )
}

/// Decodes an [`encode`]d line.
fn decode(line: &str) -> Option<CpuCharacterization> {
    let float = |s: &str| u64::from_str_radix(s, 16).ok().map(f64::from_bits);
    let table = |s: &str| -> Option<HitRateTable> {
        s.split(',')
            .filter(|e| !e.is_empty())
            .map(|e| {
                let (size, rate) = e.split_once(':')?;
                Some((size.parse().ok()?, float(rate)?))
            })
            .collect()
    };
    let mut fields = line.split(' ');
    let chr = CpuCharacterization {
        mispredict_rate: float(fields.next()?)?,
        fetch_expansion: float(fields.next()?)?,
        data_expansion: float(fields.next()?)?,
        icache_rates: table(fields.next()?)?,
        dcache_rates: table(fields.next()?)?,
    };
    fields.next().is_none().then_some(chr)
}

/// Characterizes the CPU of every design on the training input and
/// prints one encoded line per design, in [`Mp3Design::ALL`] order: the
/// body of the `--characterize` helper process.
pub fn print_characterizations() {
    for design in Mp3Design::ALL {
        println!("{}", encode(&characterize_cpu(design, Mp3Params::training())));
    }
}

/// Runs the characterization in a helper process (this executable with
/// `--characterize`) and waits for it. Its many board simulations on
/// worker threads would otherwise leave allocator state behind that
/// makes this process's set-up time and peak resident set vary from run
/// to run.
fn characterize_in_child() -> Result<Vec<CpuCharacterization>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .arg("--characterize")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("characterization process: {e}"))?;
    if !out.status.success() {
        return Err(format!("characterization process failed: {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("characterization: {e}"))?;
    let chrs: Vec<CpuCharacterization> =
        text.lines().map(decode).collect::<Option<_>>().ok_or("malformed characterization")?;
    if chrs.len() != Mp3Design::ALL.len() {
        return Err(format!("characterization has {} designs", chrs.len()));
    }
    Ok(chrs)
}

/// Runs the workload.
///
/// # Errors
///
/// A design that fails to build or annotate, or a failed oracle check.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut calib = vec![host::calib_ms(), host::calib_ms(), host::calib_ms()];
    let eval = mp3_eval_params(opts.seed);
    let config = TlmConfig::default();
    let points = mp3_points();
    eprintln!("mp3_timed: characterizing on the training input, eval seed {:#x}", eval.seed);
    let chrs = characterize_in_child()?;

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        built = Some(setup(eval, &chrs)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (pipeline, designs) = built.expect("at least one set-up ran");

    // References, outside every timed region. The first timed run of each
    // point doubles as its warm-up.
    let mut references = Vec::with_capacity(designs.len());
    for (point, design) in points.iter().zip(&designs) {
        let functional = run_annotated(&design.platform, None, &config);
        let annotated = pipeline.annotate_design(design).map_err(|e| format!("annotate: {e}"))?;
        let timed = run_annotated(&design.platform, Some(&annotated), &config);
        if !timed.all_finished() || timed.outputs != functional.outputs {
            return Err(format!(
                "{} {}: timed TLM diverges from functional",
                point.design, point.label
            ));
        }
        references.push(Reference {
            outputs: functional.outputs,
            end_time: timed.end_time,
            counts: Counts::of(&timed),
        });
    }

    // Whole rounds over the 20 points, so every run measures the same mix.
    let mut latency_ms = Vec::new();
    let mut annotate_ms = Vec::new();
    let mut timed_ms = Vec::new();
    let mut functional_ms = Vec::new();
    let mut unattributed_ms = Vec::new();
    let mut counts = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let before = pipeline.stats();
    let window = Instant::now();
    let mut round_rates = Vec::new();
    while window.elapsed().as_secs_f64() < opts.seconds as f64 {
        let round = Instant::now();
        let failed_before = failed;
        for (design, reference) in designs.iter().zip(&references) {
            attempted += 1;
            let start = Instant::now();
            let annotated = pipeline.annotate_design(design);
            let annotate = ms(start.elapsed());
            let Ok(annotated) = annotated else {
                failed += 1;
                continue;
            };
            let sim_start = Instant::now();
            let timed = run_annotated(&design.platform, Some(&annotated), &config);
            let simulate = ms(sim_start.elapsed());
            let wall = ms(start.elapsed());
            latency_ms.push(wall);
            let op_counts = Counts::of(&timed);
            let mut ok = timed.outputs == reference.outputs
                && timed.end_time == reference.end_time
                && op_counts == reference.counts;
            counts.push(op_counts);
            if opts.trace {
                annotate_ms.push(annotate);
                timed_ms.push(simulate);
                unattributed_ms.push(wall - annotate - simulate);
                let start = Instant::now();
                let functional = run_annotated(&design.platform, None, &config);
                functional_ms.push(ms(start.elapsed()));
                ok &= functional.outputs == reference.outputs;
            }
            if !ok {
                failed += 1;
            }
        }
        let ok = designs.len() as u64 - (failed - failed_before);
        round_rates.push(ok as f64 / round.elapsed().as_secs_f64());
    }
    eprintln!("mp3_timed: per-round throughput (ops/s) {round_rates:.3?}");
    let wall = window.elapsed().as_secs_f64();
    let after = pipeline.stats();
    let peak_rss_mb = host::peak_rss_mb();
    // The board oracle runs after the window and the peak-RSS reading: its
    // worker threads leave allocator state behind that would slow the
    // timed simulation and skew `peak_rss_mb`.
    let error_pct = board_error_pct(&designs, &references)?;
    calib.extend([host::calib_ms(), host::calib_ms(), host::calib_ms()]);

    let per_op = |f: fn(&Counts) -> u64| -> f64 {
        median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let sim_ops = per_op(|c| c.sim_ops);
    let resumes = per_op(|c| c.resumes);
    let events = per_op(|c| c.events_fired);
    eprintln!(
        "mp3_timed: {attempted} ops in {wall:.2} s; per-op median counts: \
         cdfg.sim_ops {sim_ops} desim.resumes {resumes} desim.events_fired {events}; \
         error {error_pct:.4}%"
    );

    let mut report = Report::new(attempted, failed);
    if !opts.trace {
        report.end_to_end(&EndToEnd {
            setup_s: &setup_s,
            rates: &round_rates,
            latency_ms: &latency_ms,
            peak_rss_mb,
            error_pct,
        })?;
        eprintln!("mp3_timed: host.calib_ms {calib:?}");
        return Ok(report);
    }
    let (mut hits, mut lookups) = (0u64, 0u64);
    for ((_, b), (_, a)) in before.stages().iter().zip(after.stages().iter()) {
        hits += a.hits - b.hits;
        lookups += a.hits - b.hits + a.misses - b.misses;
    }
    let timed_median = median(&timed_ms).unwrap_or(0.0);
    let share: Vec<f64> =
        latency_ms.iter().zip(&unattributed_ms).map(|(l, u)| 1.0 - u / l).collect();
    report.median("pipeline.annotate_design_ms", &annotate_ms, "ms");
    report.metric("platform.run_annotated_ms", timed_median, "ms");
    report.median("platform.run_functional_ms", &functional_ms, "ms");
    report.metric("platform.ns_per_sim_op", timed_median * 1e6 / sim_ops.max(1.0), "ns");
    report.metric("cdfg.sim_ops", sim_ops, "count");
    report.metric("desim.resumes", resumes, "count");
    report.metric("desim.events_fired", events, "count");
    report.metric("pipeline.stage_hit_ratio", hits as f64 / lookups.max(1) as f64, "ratio");
    report.median("unattributed_ms", &unattributed_ms, "ms");
    report.median("attributed_share", &share, "ratio");
    report.median("host.calib_ms", &calib, "ms");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_round_trips_exactly() {
        let chr = CpuCharacterization {
            icache_rates: [(2048, 0.912_345_678_901_234_5), (8192, 1.0)].into_iter().collect(),
            dcache_rates: HitRateTable::new(),
            mispredict_rate: 0.047_3,
            fetch_expansion: 1.071,
            data_expansion: f64::MIN_POSITIVE,
        };
        let back = decode(&encode(&chr)).expect("decodes");
        assert_eq!(back.icache_rates, chr.icache_rates);
        assert_eq!(back.dcache_rates, chr.dcache_rates);
        assert_eq!(back.mispredict_rate.to_bits(), chr.mispredict_rate.to_bits());
        assert_eq!(back.fetch_expansion.to_bits(), chr.fetch_expansion.to_bits());
        assert_eq!(back.data_expansion.to_bits(), chr.data_expansion.to_bits());
        assert!(decode("1 2").is_none());
        assert!(decode(&format!("{} extra", encode(&chr))).is_none());
    }
}
