//! Executable transaction-level models.
//!
//! [`run_tlm`] turns a [`Platform`] into a running simulation on the
//! `tlm-desim` kernel. Every application process becomes a kernel process
//! wrapping a resumable CDFG interpreter; channels become FIFOs; PEs and
//! buses become shared clocks.
//!
//! In [`TlmMode::Timed`], each process accumulates the annotated delay of
//! every basic block it executes (the generated `wait()` calls of the
//! paper) and applies the accumulated total to simulated time at
//! inter-process transaction boundaries via the PE clock — `sc_wait` is too
//! expensive to call per block, so the paper applies it per transaction,
//! with user-controllable granularity ([`TlmConfig::granularity`]).
//! Channel transfers additionally reserve their bus (or charge the PE-local
//! copy cost).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tlm_cdfg::interp::{Exec, ExecHook, ExecStats, Machine};
use tlm_cdfg::{BlockId, ChanId, FuncId};
use tlm_core::annotate::{annotate_arc, AnnotationReport, TimedModule};
use tlm_core::EstimateError;
use tlm_desim::{Ctx, Fifo, Kernel, Process, Resume, RunReport, SimTime};

use crate::clock::{BusClock, PeClock, SharedBus, SharedPe};
use crate::desc::Platform;

/// Functional (untimed) or timed TLM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlmMode {
    /// No timing: transactions synchronize in zero simulated time.
    Functional,
    /// Basic-block delays annotated per PE model are applied at
    /// transaction boundaries.
    Timed,
}

/// TLM execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlmConfig {
    /// Accumulated compute delay is applied to simulated time every
    /// `granularity`-th transaction boundary (§4.3; 1 = every boundary).
    pub granularity: u32,
    /// Simulated-time limit; `None` runs to completion.
    pub time_limit: Option<SimTime>,
    /// Interpreter operations executed per kernel resumption (a process
    /// yields between slices so runaway loops cannot wedge the kernel).
    pub fuel_slice: u64,
    /// When set, the kernel permutes same-timestamp process wakeups from
    /// this splitmix64 seed ([`Kernel::set_order_seed`]). Deterministic:
    /// the same seed yields the identical event order. `None` keeps the
    /// default FIFO/heap order.
    pub order_seed: Option<u64>,
}

impl Default for TlmConfig {
    fn default() -> Self {
        TlmConfig { granularity: 1, time_limit: None, fuel_slice: 16_000_000, order_seed: None }
    }
}

/// Per-process outcome.
#[derive(Debug, Clone, Default)]
pub struct ProcessReport {
    /// Values the process emitted with `out()`.
    pub outputs: Vec<i64>,
    /// Total annotated cycles applied for this process.
    pub computed_cycles: u64,
    /// Interpreter counters.
    pub stats: ExecStats,
    /// Whether the process ran to completion.
    pub finished: bool,
    /// Trap message, if the process died.
    pub trap: Option<String>,
}

/// Result of one TLM run.
#[derive(Debug, Clone)]
pub struct TlmReport {
    /// The mode that ran.
    pub mode: TlmMode,
    /// Final simulated time.
    pub end_time: SimTime,
    /// Kernel statistics.
    pub sim: RunReport,
    /// Outputs per process name.
    pub outputs: BTreeMap<String, Vec<i64>>,
    /// Per-process details.
    pub processes: BTreeMap<String, ProcessReport>,
    /// Per-PE `(name, busy_cycles)`.
    pub pe_busy: Vec<(String, u64)>,
    /// Per-bus `(name, transfers)`.
    pub bus_transfers: Vec<(String, u64)>,
    /// Wall-clock time of the simulation itself.
    pub wall: Duration,
}

impl TlmReport {
    /// The busy cycles of the PE a named process ran on, a proxy for the
    /// paper's per-design cycle counts.
    pub fn pe_cycles(&self, pe_name: &str) -> Option<u64> {
        self.pe_busy.iter().find(|(n, _)| n == pe_name).map(|&(_, c)| c)
    }

    /// Whether every process finished.
    pub fn all_finished(&self) -> bool {
        self.processes.values().all(|p| p.finished)
    }
}

/// The annotation phase of timed-TLM generation, kept separate so its cost
/// can be reported like the paper's Table 1 does.
#[derive(Debug, Clone)]
pub struct AnnotatedPlatform {
    timed: Vec<Arc<TimedModule>>,
    /// Wall-clock cost of annotation.
    pub annotation_time: Duration,
    /// Per-process annotation statistics.
    pub reports: Vec<AnnotationReport>,
}

impl AnnotatedPlatform {
    /// Assembles an annotated platform from externally produced
    /// [`TimedModule`]s (one per process, in process order). This is the
    /// hook for artifact stores that annotate through their own cache
    /// rather than [`annotate_platform`]'s global one.
    pub fn from_timed(
        timed: Vec<Arc<TimedModule>>,
        annotation_time: Duration,
    ) -> AnnotatedPlatform {
        let reports = timed.iter().map(|t| *t.report()).collect();
        AnnotatedPlatform { timed, annotation_time, reports }
    }
}

/// Annotates every process of the platform with its PE's PUM.
///
/// # Errors
///
/// Propagates [`EstimateError`] from the estimation engine.
pub fn annotate_platform(platform: &Platform) -> Result<AnnotatedPlatform, EstimateError> {
    let start = Instant::now();
    let mut timed = Vec::with_capacity(platform.processes.len());
    let mut reports = Vec::new();
    for proc in &platform.processes {
        let pum = &platform.pes[proc.pe.0].pum;
        let tm = annotate_arc(proc.module.clone(), pum)?;
        reports.push(*tm.report());
        timed.push(Arc::new(tm));
    }
    Ok(AnnotatedPlatform { timed, annotation_time: start.elapsed(), reports })
}

/// Builds and runs a TLM in one call.
///
/// # Errors
///
/// Propagates annotation failures in timed mode.
pub fn run_tlm(
    platform: &Platform,
    mode: TlmMode,
    config: &TlmConfig,
) -> Result<TlmReport, EstimateError> {
    let annotated = match mode {
        TlmMode::Functional => None,
        TlmMode::Timed => Some(annotate_platform(platform)?),
    };
    Ok(run_annotated(platform, annotated.as_ref(), config))
}

/// Runs a TLM given a pre-annotated platform (`None` = functional).
pub fn run_annotated(
    platform: &Platform,
    annotated: Option<&AnnotatedPlatform>,
    config: &TlmConfig,
) -> TlmReport {
    let mode = if annotated.is_some() { TlmMode::Timed } else { TlmMode::Functional };
    let mut kernel = Kernel::new();
    if let Some(seed) = config.order_seed {
        kernel.set_order_seed(seed);
    }

    let pe_clocks: Vec<SharedPe> = platform
        .pes
        .iter()
        .map(|pe| PeClock::new(SimTime::from_ps(pe.pum.clock_period_ps), pe.rtos))
        .collect();
    let bus_clocks: Vec<SharedBus> = platform
        .buses
        .iter()
        .map(|bus| BusClock::new(bus.period, bus.sync_overhead, bus.cycles_per_word))
        .collect();

    // Sorted by id (the platform's channel map is a `BTreeMap`), so a
    // process resolves an id to its dense index by binary search.
    let chans: Rc<[ChanHandle]> = platform
        .channels
        .iter()
        .map(|(&chan, binding)| ChanHandle {
            id: chan,
            fifo: Fifo::new(&mut kernel, format!("{chan}"), Some(binding.capacity)),
            bus: binding.bus.map(|b| bus_clocks[b.0].clone()),
        })
        .collect();

    let mut outcomes: Vec<Rc<RefCell<ProcessReport>>> = Vec::new();
    for (index, proc) in platform.processes.iter().enumerate() {
        let outcome = Rc::new(RefCell::new(ProcessReport::default()));
        outcomes.push(outcome.clone());
        let delays = annotated.map(|a| a.timed[index].clone());
        let machine = Machine::from_arc(proc.module.clone(), proc.entry, &proc.args);
        let body = TlmProcess {
            index,
            machine,
            delays,
            acc: 0,
            pe: pe_clocks[proc.pe.0].clone(),
            chans: chans.clone(),
            granularity: config.granularity.max(1),
            boundaries: 0,
            fuel_slice: config.fuel_slice.max(1),
            phase: Phase::Run,
            outcome,
        };
        kernel.spawn(proc.name.clone(), body);
    }

    let wall_start = Instant::now();
    let sim = match config.time_limit {
        Some(limit) => kernel.run_until(limit),
        None => kernel.run(),
    };
    let wall = wall_start.elapsed();

    let mut outputs = BTreeMap::new();
    let mut processes = BTreeMap::new();
    for (proc, outcome) in platform.processes.iter().zip(&outcomes) {
        let report = outcome.borrow().clone();
        outputs.insert(proc.name.clone(), report.outputs.clone());
        processes.insert(proc.name.clone(), report);
    }
    let pe_busy = platform
        .pes
        .iter()
        .zip(&pe_clocks)
        .map(|(pe, clock)| (pe.name.clone(), clock.borrow().busy_cycles()))
        .collect();
    let bus_transfers = platform
        .buses
        .iter()
        .zip(&bus_clocks)
        .map(|(bus, clock)| (bus.name.clone(), clock.borrow().transfers()))
        .collect();

    TlmReport {
        mode,
        end_time: kernel.time(),
        sim,
        outputs,
        processes,
        pe_busy,
        bus_transfers,
        wall,
    }
}

struct ChanHandle {
    id: ChanId,
    fifo: Fifo<i64>,
    bus: Option<SharedBus>,
}

/// What to do once a wait elapses. Channels are dense indices into
/// [`TlmProcess::chans`].
#[derive(Debug, Clone, Copy)]
enum After {
    Recv(usize),
    Send(usize, i64),
    Finish,
}

enum Phase {
    Run,
    Wait { until: SimTime, after: After },
    BlockedRecv(usize),
    BlockedSend(usize, i64),
    Done,
}

struct TlmProcess {
    index: usize,
    machine: Machine,
    delays: Option<Arc<TimedModule>>,
    /// Accumulated, not-yet-applied cycles (the paper's `wait()` counter).
    acc: u64,
    pe: SharedPe,
    /// The platform's channels, sorted by id; a channel's position is
    /// its dense index.
    chans: Rc<[ChanHandle]>,
    granularity: u32,
    boundaries: u32,
    fuel_slice: u64,
    phase: Phase,
    outcome: Rc<RefCell<ProcessReport>>,
}

/// Accumulates annotated block delays while the interpreter runs.
struct AccHook<'a> {
    timed: &'a TimedModule,
    acc: &'a mut u64,
}

impl ExecHook for AccHook<'_> {
    fn on_block(&mut self, func: FuncId, block: BlockId) {
        *self.acc += self.timed.cycles(func, block);
    }
}

struct NoHook;
impl ExecHook for NoHook {}

impl TlmProcess {
    /// The dense index of a channel the interpreter stopped on.
    fn chan(&self, chan: ChanId) -> usize {
        self.chans
            .binary_search_by_key(&chan, |h| h.id)
            .expect("the platform binds every channel it runs")
    }

    /// Applies the accumulated compute delay (honouring granularity) and
    /// any transfer cost, returning the simulated time the transaction may
    /// proceed at.
    fn boundary(&mut self, now: SimTime, transfer: Option<usize>, last: bool) -> SimTime {
        self.boundaries += 1;
        let mut at = now;
        let apply =
            self.delays.is_some() && (last || self.boundaries.is_multiple_of(self.granularity));
        if apply && self.acc > 0 {
            at = self.pe.borrow_mut().reserve(at, self.index, self.acc);
            self.outcome.borrow_mut().computed_cycles += self.acc;
            self.acc = 0;
        }
        if self.delays.is_some() {
            if let Some(chan) = transfer {
                at = match &self.chans[chan].bus {
                    Some(bus) => bus.borrow_mut().reserve(at, 1),
                    None => {
                        self.pe.borrow_mut().reserve(at, self.index, Platform::LOCAL_SYNC_CYCLES)
                    }
                };
            }
        }
        at
    }

    fn finish(&mut self, trap: Option<String>) {
        let mut outcome = self.outcome.borrow_mut();
        outcome.outputs = self.machine.outputs().to_vec();
        outcome.stats = *self.machine.stats();
        outcome.finished = trap.is_none();
        outcome.trap = trap;
        self.phase = Phase::Done;
    }
}

impl Process for TlmProcess {
    fn resume(&mut self, ctx: &mut Ctx<'_>) -> Resume {
        loop {
            match self.phase {
                Phase::Done => return Resume::Finish,
                Phase::Wait { until, after } => {
                    let now = ctx.time();
                    if now < until {
                        return Resume::WaitTime(until - now);
                    }
                    self.phase = match after {
                        After::Recv(ch) => Phase::BlockedRecv(ch),
                        After::Send(ch, v) => Phase::BlockedSend(ch, v),
                        After::Finish => {
                            self.finish(None);
                            continue;
                        }
                    };
                }
                Phase::BlockedRecv(ch) => {
                    let fifo = &self.chans[ch].fifo;
                    match fifo.try_recv(ctx) {
                        Some(v) => {
                            self.machine.complete_recv(v);
                            self.phase = Phase::Run;
                        }
                        None => return Resume::WaitEvent(fifo.readable_event()),
                    }
                }
                Phase::BlockedSend(ch, v) => {
                    let fifo = &self.chans[ch].fifo;
                    match fifo.try_send(ctx, v) {
                        Ok(()) => {
                            self.machine.complete_send();
                            self.phase = Phase::Run;
                        }
                        Err(_) => return Resume::WaitEvent(fifo.writable_event()),
                    }
                }
                Phase::Run => {
                    let exec = match &self.delays {
                        Some(timed) => {
                            let mut hook = AccHook { timed, acc: &mut self.acc };
                            self.machine.run_fuel(&mut hook, self.fuel_slice)
                        }
                        None => self.machine.run_fuel(&mut NoHook, self.fuel_slice),
                    };
                    let now = ctx.time();
                    match exec {
                        Exec::Done => {
                            let until = self.boundary(now, None, true);
                            if until > now {
                                self.phase = Phase::Wait { until, after: After::Finish };
                            } else {
                                self.finish(None);
                            }
                        }
                        Exec::RecvPending(chan) => {
                            let chan = self.chan(chan);
                            let until = self.boundary(now, None, false);
                            self.phase = if until > now {
                                Phase::Wait { until, after: After::Recv(chan) }
                            } else {
                                Phase::BlockedRecv(chan)
                            };
                        }
                        Exec::SendPending(chan, value) => {
                            let chan = self.chan(chan);
                            let until = self.boundary(now, Some(chan), false);
                            self.phase = if until > now {
                                Phase::Wait { until, after: After::Send(chan, value) }
                            } else {
                                Phase::BlockedSend(chan, value)
                            };
                        }
                        Exec::Trap(trap) => {
                            self.finish(Some(trap.to_string()));
                        }
                        Exec::OutOfFuel => {
                            // Yield a delta so other processes make progress.
                            return Resume::WaitTime(SimTime::ZERO);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::PlatformBuilder;
    use tlm_core::library;
    use tlm_desim::StopReason;

    fn module(src: &str) -> tlm_cdfg::ir::Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    /// producer → worker → consumer across two PEs.
    fn pipeline_platform() -> Platform {
        let producer = module("void main() { for (int i = 0; i < 16; i++) { ch_send(0, i); } }");
        let worker = module(
            "void main() {
                for (int i = 0; i < 16; i++) {
                    int v = ch_recv(0);
                    ch_send(1, v * v + 1);
                }
             }",
        );
        let consumer = module(
            "void main() {
                int s = 0;
                for (int i = 0; i < 16; i++) { s += ch_recv(1); }
                out(s);
             }",
        );
        let mut b = PlatformBuilder::new("pipeline");
        let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
        let hw = b.add_pe("hw", library::custom_hw("hw", 2, 1));
        b.add_process("producer", &producer, "main", &[], cpu).expect("ok");
        b.add_process("worker", &worker, "main", &[], hw).expect("ok");
        b.add_process("consumer", &consumer, "main", &[], cpu).expect("ok");
        b.build().expect("builds")
    }

    fn expected_sum() -> i64 {
        (0..16).map(|i: i64| i * i + 1).sum()
    }

    #[test]
    fn functional_tlm_computes_correctly_in_zero_time() {
        let p = pipeline_platform();
        let r = run_tlm(&p, TlmMode::Functional, &TlmConfig::default()).expect("runs");
        assert_eq!(r.outputs["consumer"], vec![expected_sum()]);
        assert_eq!(r.end_time, SimTime::ZERO);
        assert!(r.all_finished());
        assert_eq!(r.sim.stop, StopReason::Completed);
    }

    #[test]
    fn timed_tlm_is_functionally_identical_and_advances_time() {
        let p = pipeline_platform();
        let r = run_tlm(&p, TlmMode::Timed, &TlmConfig::default()).expect("runs");
        assert_eq!(r.outputs["consumer"], vec![expected_sum()]);
        assert!(r.end_time > SimTime::ZERO);
        assert!(r.pe_cycles("cpu").expect("cpu exists") > 0);
        assert!(r.pe_cycles("hw").expect("hw exists") > 0);
        // Cross-PE channels rode the implicit bus: 32 transfers.
        assert_eq!(r.bus_transfers[0].1, 32);
    }

    #[test]
    fn timed_runs_are_deterministic() {
        let p = pipeline_platform();
        let a = run_tlm(&p, TlmMode::Timed, &TlmConfig::default()).expect("runs");
        let b = run_tlm(&p, TlmMode::Timed, &TlmConfig::default()).expect("runs");
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.pe_busy, b.pe_busy);
    }

    #[test]
    fn order_seed_is_deterministic_and_functionally_invariant() {
        let p = pipeline_platform();
        let base = run_tlm(&p, TlmMode::Timed, &TlmConfig::default()).expect("runs");
        for seed in [1u64, 7, 42] {
            let cfg = TlmConfig { order_seed: Some(seed), ..TlmConfig::default() };
            let a = run_tlm(&p, TlmMode::Timed, &cfg).expect("runs");
            let b = run_tlm(&p, TlmMode::Timed, &cfg).expect("runs");
            // Same seed → identical run, down to the timed results.
            assert_eq!(a.end_time, b.end_time, "seed {seed}");
            assert_eq!(a.pe_busy, b.pe_busy, "seed {seed}");
            // Any seed → identical functional outputs and per-process
            // computed cycles (the estimation semantics are
            // order-invariant; only interleaving may differ).
            assert_eq!(a.outputs, base.outputs, "seed {seed}");
            for (name, pr) in &base.processes {
                assert_eq!(
                    a.processes[name].computed_cycles, pr.computed_cycles,
                    "{name} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn granularity_preserves_total_computed_cycles() {
        let p = pipeline_platform();
        let fine =
            run_tlm(&p, TlmMode::Timed, &TlmConfig { granularity: 1, ..TlmConfig::default() })
                .expect("runs");
        let coarse =
            run_tlm(&p, TlmMode::Timed, &TlmConfig { granularity: 8, ..TlmConfig::default() })
                .expect("runs");
        // The accumulated-delay invariant: total applied compute cycles per
        // process are identical regardless of when they are applied.
        for name in ["producer", "worker", "consumer"] {
            assert_eq!(
                fine.processes[name].computed_cycles, coarse.processes[name].computed_cycles,
                "{name}"
            );
        }
        assert_eq!(fine.outputs, coarse.outputs);
    }

    #[test]
    fn same_pe_processes_serialize() {
        // Producer and consumer both on the CPU: busy cycles add up.
        let producer = module("void main() { for (int i = 0; i < 8; i++) { ch_send(0, i); } }");
        let consumer = module("void main() { for (int i = 0; i < 8; i++) { out(ch_recv(0)); } }");
        let mut b = PlatformBuilder::new("shared");
        let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
        b.add_process("producer", &producer, "main", &[], cpu).expect("ok");
        b.add_process("consumer", &consumer, "main", &[], cpu).expect("ok");
        let p = b.build().expect("builds");
        let r = run_tlm(&p, TlmMode::Timed, &TlmConfig::default()).expect("runs");
        assert_eq!(r.outputs["consumer"], (0..8).collect::<Vec<i64>>());
        // End time covers both processes' compute (they share the PE).
        let total: u64 = r.pe_busy.iter().map(|&(_, c)| c).sum();
        let period = SimTime::from_ps(p.pes[0].pum.clock_period_ps);
        assert!(r.end_time >= SimTime::from_cycles(total, period));
    }

    #[test]
    fn trapping_process_is_reported_not_hung() {
        let bad = module("void main() { int t[2]; out(t[5]); ch_send(0, 1); }");
        let reader = module("void main() { out(ch_recv(0)); }");
        let mut b = PlatformBuilder::new("trap");
        let cpu = b.add_pe("cpu", library::microblaze_like(0, 0));
        b.add_process("bad", &bad, "main", &[], cpu).expect("ok");
        b.add_process("reader", &reader, "main", &[], cpu).expect("ok");
        let p = b.build().expect("builds");
        let r = run_tlm(&p, TlmMode::Functional, &TlmConfig::default()).expect("runs");
        assert!(!r.processes["bad"].finished);
        assert!(r.processes["bad"].trap.as_deref().is_some_and(|t| t.contains("bounds")));
        // The reader starves (its producer died) and the kernel reports it.
        assert!(matches!(r.sim.stop, StopReason::Starved(_)));
    }

    #[test]
    fn time_limit_stops_runaway_models() {
        let spinner = module("void main() { while (1) { ch_send(0, 1); } }");
        let sink = module("void main() { while (1) { int v = ch_recv(0); out(v); } }");
        let mut b = PlatformBuilder::new("spin");
        let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
        let hw = b.add_pe("hw", library::custom_hw("hw", 1, 1));
        b.add_process("spinner", &spinner, "main", &[], cpu).expect("ok");
        b.add_process("sink", &sink, "main", &[], hw).expect("ok");
        let p = b.build().expect("builds");
        let r = run_tlm(
            &p,
            TlmMode::Timed,
            &TlmConfig { time_limit: Some(SimTime::from_us(100)), ..TlmConfig::default() },
        )
        .expect("runs");
        assert_eq!(r.sim.stop, StopReason::TimeLimit);
    }

    #[test]
    fn hw_mapping_reduces_pe_load_versus_sw() {
        // The same heavy worker mapped to HW vs to the CPU: the timed TLM
        // must show the HW design finishing earlier (Table 1/3 shape).
        let producer = module("void main() { for (int i = 0; i < 32; i++) { ch_send(0, i); } }");
        let worker = module(
            "void main() {
                for (int i = 0; i < 32; i++) {
                    int v = ch_recv(0);
                    int acc = 0;
                    for (int j = 0; j < 16; j++) { acc += (v + j) * (v - j); }
                    ch_send(1, acc);
                }
            }",
        );
        let consumer = module(
            "void main() { int s = 0; for (int i = 0; i < 32; i++) { s += ch_recv(1); } out(s); }",
        );
        let build = |hw_mapped: bool| {
            let mut b = PlatformBuilder::new("map");
            let cpu = b.add_pe("cpu", library::microblaze_like(8 << 10, 4 << 10));
            let hw = b.add_pe("hw", library::custom_hw("hw", 2, 2));
            b.add_process("producer", &producer, "main", &[], cpu).expect("ok");
            b.add_process("worker", &worker, "main", &[], if hw_mapped { hw } else { cpu })
                .expect("ok");
            b.add_process("consumer", &consumer, "main", &[], cpu).expect("ok");
            b.build().expect("builds")
        };
        let sw = run_tlm(&build(false), TlmMode::Timed, &TlmConfig::default()).expect("runs");
        let hw = run_tlm(&build(true), TlmMode::Timed, &TlmConfig::default()).expect("runs");
        assert_eq!(sw.outputs["consumer"], hw.outputs["consumer"]);
        assert!(hw.end_time < sw.end_time, "hw {} vs sw {}", hw.end_time, sw.end_time);
    }
}
