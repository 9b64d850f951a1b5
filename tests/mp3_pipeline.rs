//! End-to-end tests of the MP3 process network across the four designs:
//! functional TLM, timed TLM and the cycle-accurate board must all decode
//! identically; runs are deterministic; total applied compute cycles are
//! invariant under `sc_wait` granularity.

use tlm_apps::{build_mp3_platform, Mp3Design, Mp3Params};
use tlm_desim::StopReason;
use tlm_pcam::{run_board, run_iss, BoardConfig};
use tlm_platform::tlm::{run_tlm, TlmConfig, TlmMode};

fn small() -> Mp3Params {
    Mp3Params { seed: 0x0bad_cafe, frames: 1 }
}

#[test]
fn all_designs_decode_identically_on_all_models() {
    let mut reference: Option<Vec<i64>> = None;
    for design in Mp3Design::ALL {
        let platform = build_mp3_platform(design, small(), 8 << 10, 4 << 10).expect("builds");
        let func = run_tlm(&platform, TlmMode::Functional, &TlmConfig::default())
            .expect("functional runs");
        let timed = run_tlm(&platform, TlmMode::Timed, &TlmConfig::default()).expect("timed runs");
        let board = run_board(&platform, &BoardConfig::default()).expect("board runs");
        assert_eq!(func.sim.stop, StopReason::Completed, "{design}");
        assert_eq!(func.outputs["sink"], timed.outputs["sink"], "{design}");
        assert_eq!(func.outputs["sink"], board.outputs["sink"], "{design}");
        // The mapping must never change what is computed.
        match &reference {
            Some(r) => assert_eq!(r, &func.outputs["sink"], "{design}"),
            None => reference = Some(func.outputs["sink"].clone()),
        }
    }
}

#[test]
fn decode_time_improves_monotonically_with_hw() {
    let mut last = u64::MAX;
    for design in Mp3Design::ALL {
        let platform = build_mp3_platform(design, small(), 8 << 10, 4 << 10).expect("builds");
        let timed = run_tlm(&platform, TlmMode::Timed, &TlmConfig::default()).expect("timed runs");
        let cycles = timed.end_time.ps();
        assert!(cycles < last, "{design} did not improve: {cycles} !< {last}");
        last = cycles;
    }
}

#[test]
fn board_runs_are_bit_deterministic() {
    let platform =
        build_mp3_platform(Mp3Design::SwPlus2, small(), 2 << 10, 2 << 10).expect("builds");
    let a = run_board(&platform, &BoardConfig::default()).expect("runs");
    let b = run_board(&platform, &BoardConfig::default()).expect("runs");
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.pe_cycles, b.pe_cycles);
    assert_eq!(a.outputs, b.outputs);
}

#[test]
fn granularity_conserves_computed_cycles() {
    let platform =
        build_mp3_platform(Mp3Design::SwPlus1, small(), 8 << 10, 4 << 10).expect("builds");
    let mut totals = Vec::new();
    for granularity in [1u32, 4, 32] {
        let report =
            run_tlm(&platform, TlmMode::Timed, &TlmConfig { granularity, ..TlmConfig::default() })
                .expect("runs");
        assert!(report.all_finished());
        let total: u64 = report.processes.values().map(|p| p.computed_cycles).sum();
        totals.push(total);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "accumulated-delay conservation violated: {totals:?}"
    );
}

#[test]
fn iss_handles_sw_but_not_hw_designs() {
    let sw = build_mp3_platform(Mp3Design::Sw, small(), 8 << 10, 4 << 10).expect("builds");
    let report = run_iss(&sw, &BoardConfig::default()).expect("ISS runs SW");
    assert!(report.all_finished());
    let hw = build_mp3_platform(Mp3Design::SwPlus1, small(), 8 << 10, 4 << 10).expect("builds");
    assert!(run_iss(&hw, &BoardConfig::default()).is_err(), "no ISS for custom HW");
}

#[test]
fn different_seeds_decode_different_audio() {
    let a =
        build_mp3_platform(Mp3Design::Sw, Mp3Params { seed: 1, frames: 1 }, 0, 0).expect("builds");
    let b =
        build_mp3_platform(Mp3Design::Sw, Mp3Params { seed: 2, frames: 1 }, 0, 0).expect("builds");
    let ra = run_tlm(&a, TlmMode::Functional, &TlmConfig::default()).expect("runs");
    let rb = run_tlm(&b, TlmMode::Functional, &TlmConfig::default()).expect("runs");
    assert_ne!(ra.outputs["sink"], rb.outputs["sink"]);
}

#[test]
fn bus_traffic_appears_only_in_hw_designs() {
    let sw = build_mp3_platform(Mp3Design::Sw, small(), 8 << 10, 4 << 10).expect("builds");
    let sw_report = run_tlm(&sw, TlmMode::Timed, &TlmConfig::default()).expect("runs");
    assert!(sw_report.bus_transfers.is_empty(), "SW design has no bus");

    let hw = build_mp3_platform(Mp3Design::SwPlus4, small(), 8 << 10, 4 << 10).expect("builds");
    let hw_report = run_tlm(&hw, TlmMode::Timed, &TlmConfig::default()).expect("runs");
    let transfers: u64 = hw_report.bus_transfers.iter().map(|&(_, t)| t).sum();
    // 6 channels × 1152 words per granule-pair × 2 granules... at minimum
    // every spectral/subband/pcm word crossed the bus once.
    assert!(transfers >= 6 * 1152, "got {transfers}");
}

/// One process's pinned interpreter counters:
/// `(name, ops, blocks, branches, branches_taken, mem_accesses, calls)`.
type ProcCounts = (&'static str, u64, u64, u64, u64, u64, u64);

/// Pinned counts of one timed run: per-process counters, kernel resumes,
/// kernel events fired, end time (ps) and per-PE busy cycles.
struct Pinned {
    design: Mp3Design,
    processes: [ProcCounts; 6],
    resumes: u64,
    events_fired: u64,
    end_ps: u64,
    pe_busy: &'static [(&'static str, u64)],
}

/// Counters shared by both pinned design points: the mapping changes
/// when work runs, never how much of it.
const EVAL_PROCESSES: [ProcCounts; 6] = [
    ("filter_l", 4_318_655, 896_007, 301_015, 290_418, 625_753, 108),
    ("filter_r", 4_318_655, 896_007, 301_015, 290_418, 625_753, 108),
    ("frontend", 297_327, 66_425, 19_769, 16_273, 43_908, 7_044),
    ("imdct_l", 1_633_214, 429_363, 149_011, 138_438, 259_200, 6),
    ("imdct_r", 1_633_214, 429_363, 149_011, 138_438, 259_200, 6),
    ("sink", 67_311, 20_769, 6_925, 5_045, 0, 0),
];

#[test]
fn evaluation_simulation_counts_are_pinned() {
    // Exact interpreter and kernel counts of timed runs of the evaluation
    // bitstream at 8k/4k, recorded from the tree-walking interpreter. Any
    // drift in the simulation engine's fuel, hook or scheduling semantics
    // changes at least one of them, and the estimate with it.
    let pinned = [
        Pinned {
            design: Mp3Design::Sw,
            processes: EVAL_PROCESSES,
            resumes: 46_951,
            events_fired: 41_472,
            end_ps: 546_966_200_000,
            pe_busy: &[("cpu", 54_696_620)],
        },
        Pinned {
            design: Mp3Design::SwPlus1,
            processes: EVAL_PROCESSES,
            resumes: 50_307,
            events_fired: 41_472,
            end_ps: 356_442_410_000,
            pe_busy: &[("cpu", 35_644_241), ("filter_hw_l", 2_679_398)],
        },
    ];
    for pin in pinned {
        let design = pin.design;
        let platform =
            build_mp3_platform(design, Mp3Params::evaluation(), 8 << 10, 4 << 10).expect("builds");
        let report = run_tlm(&platform, TlmMode::Timed, &TlmConfig::default()).expect("runs");
        assert!(report.all_finished(), "{design}");
        let counts: Vec<(&str, u64, u64, u64, u64, u64, u64)> = report
            .processes
            .iter()
            .map(|(name, p)| {
                let s = p.stats;
                (
                    name.as_str(),
                    s.ops,
                    s.blocks,
                    s.branches,
                    s.branches_taken,
                    s.mem_accesses,
                    s.calls,
                )
            })
            .collect();
        assert_eq!(counts, pin.processes, "{design}: per-process counters");
        assert_eq!(report.sim.resumes, pin.resumes, "{design}: resumes");
        assert_eq!(report.sim.events_fired, pin.events_fired, "{design}: events fired");
        assert_eq!(report.end_time.ps(), pin.end_ps, "{design}: end time");
        let busy: Vec<(&str, u64)> = report.pe_busy.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        assert_eq!(busy, pin.pe_busy, "{design}: PE busy cycles");
    }
}
