//! Property-based tests: randomly generated MiniC programs must behave
//! identically on the CDFG interpreter and on the compiled ISA core, the
//! pre-decoded interpreter must match the reference tree-walker event for
//! event, and core estimator invariants must hold for every generated
//! block.
//!
//! The generator is a self-contained xorshift PRNG rather than proptest
//! (the build environment is offline): every case derives from a fixed
//! base seed, so failures print the offending program and reproduce
//! identically on every run and every machine.

use std::sync::Arc;

use tlm_cdfg::dfg::block_dfg;
use tlm_cdfg::interp::{reference, Exec, ExecHook, Machine, NoopHook, Trap};
use tlm_cdfg::ir::Module;
use tlm_cdfg::{BlockId, FuncId};
use tlm_core::library;
use tlm_core::schedule::schedule_block;
use tlm_iss::codegen::build_program;
use tlm_iss::cpu::{Cpu, CpuExec};

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// Runs `case_fn` once per deterministic case seed.
fn for_each_case(base_seed: u64, cases: u64, case_fn: impl Fn(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::new(base_seed ^ (case << 32) ^ case);
        case_fn(&mut rng);
    }
}

/// A tiny expression AST we render to MiniC text.
#[derive(Debug, Clone)]
enum GenExpr {
    Lit(i32),
    Var(usize),
    Bin(&'static str, Box<GenExpr>, Box<GenExpr>),
    /// Division with a guarded (never-zero) divisor.
    SafeDiv(Box<GenExpr>, Box<GenExpr>),
}

const BIN_OPS: [&str; 8] = ["+", "-", "*", "&", "|", "^", "<", ">="];

fn gen_expr(rng: &mut Rng, depth: u32) -> GenExpr {
    if depth == 0 || rng.range(0, 3) == 0 {
        return if rng.range(0, 2) == 0 {
            GenExpr::Lit(rng.range(-4096, 4096) as i32)
        } else {
            GenExpr::Var(rng.range(0, 8) as usize)
        };
    }
    if rng.range(0, 5) == 0 {
        let a = gen_expr(rng, depth - 1);
        let b = gen_expr(rng, depth - 1);
        GenExpr::SafeDiv(Box::new(a), Box::new(b))
    } else {
        let op = BIN_OPS[rng.range(0, BIN_OPS.len() as i64) as usize];
        let a = gen_expr(rng, depth - 1);
        let b = gen_expr(rng, depth - 1);
        GenExpr::Bin(op, Box::new(a), Box::new(b))
    }
}

fn gen_exprs(rng: &mut Rng, depth: u32, lo: i64, hi: i64) -> Vec<GenExpr> {
    (0..rng.range(lo, hi)).map(|_| gen_expr(rng, depth)).collect()
}

fn gen_seeds(rng: &mut Rng, bound: i64, lo: i64, hi: i64) -> Vec<i32> {
    (0..rng.range(lo, hi)).map(|_| rng.range(-bound, bound) as i32).collect()
}

fn render(expr: &GenExpr, n_vars: usize) -> String {
    match expr {
        GenExpr::Lit(v) => format!("{v}"),
        GenExpr::Var(i) => format!("x{}", i % n_vars.max(1)),
        GenExpr::Bin(op, a, b) => {
            format!("({} {op} {})", render(a, n_vars), render(b, n_vars))
        }
        GenExpr::SafeDiv(a, b) => {
            format!("({} / (({} & 1023) + 7))", render(a, n_vars), render(b, n_vars))
        }
    }
}

/// Renders a full program: seed variables, a chain of derived values, some
/// array traffic, a data-dependent branch and a small loop, then outputs.
fn program_from(exprs: &[GenExpr], seeds: &[i32]) -> String {
    let n = seeds.len();
    let mut src = String::from("int scratch[16];\nvoid main() {\n");
    for (i, s) in seeds.iter().enumerate() {
        src.push_str(&format!("    int x{i} = {s};\n"));
    }
    for (k, e) in exprs.iter().enumerate() {
        let target = k % n;
        src.push_str(&format!("    x{target} = {};\n", render(e, n)));
        src.push_str(&format!("    scratch[{} & 15] = x{target};\n", 3 * k + 1));
    }
    src.push_str("    int acc = 0;\n");
    src.push_str(&format!("    for (int i = 0; i < {}; i++) {{\n", 8 + n));
    src.push_str("        if ((scratch[i & 15] ^ i) & 1) { acc += scratch[i & 15]; }\n");
    src.push_str("        else { acc -= i; }\n");
    src.push_str("    }\n");
    for i in 0..n {
        src.push_str(&format!("    out(x{i});\n"));
    }
    src.push_str("    out(acc);\n}\n");
    src
}

fn lower(src: &str) -> Module {
    // A fresh pipeline per call: the sources are random one-offs, so a
    // shared store would only accumulate dead entries.
    tlm_pipeline::Pipeline::new()
        .frontend_with(src, false)
        .expect("compiles")
        .module()
        .as_ref()
        .clone()
}

fn run_both(module: &Module) -> (Vec<i64>, Vec<i64>) {
    let main = module.function_id("main").expect("main");
    let mut machine = Machine::new(module, main, &[]);
    assert_eq!(machine.run(&mut NoopHook), Exec::Done);
    let program = Arc::new(build_program(module, main, &[]).expect("compiles"));
    let mut cpu = Cpu::new(program);
    assert_eq!(cpu.run(u64::MAX), CpuExec::Done);
    (machine.outputs().to_vec(), cpu.outputs().to_vec())
}

#[test]
fn interpreter_and_compiled_core_agree() {
    for_each_case(0x1eaf_0001, 48, |rng| {
        let exprs = gen_exprs(rng, 3, 1, 10);
        let seeds = gen_seeds(rng, 1000, 2, 8);
        let src = program_from(&exprs, &seeds);
        let module = lower(&src);
        let (interp, cpu) = run_both(&module);
        assert_eq!(interp, cpu, "divergence on:\n{src}");
    });
}

#[test]
fn optimizer_preserves_random_program_semantics() {
    for_each_case(0x1eaf_0002, 48, |rng| {
        let exprs = gen_exprs(rng, 3, 1, 8);
        let seeds = gen_seeds(rng, 500, 2, 6);
        let src = program_from(&exprs, &seeds);
        let plain = lower(&src);
        let mut optimized = plain.clone();
        tlm_cdfg::passes::optimize(&mut optimized);
        let main = plain.function_id("main").expect("main");
        let run = |m: &Module| {
            let mut machine = Machine::new(m, main, &[]);
            assert_eq!(machine.run(&mut NoopHook), Exec::Done);
            machine.outputs().to_vec()
        };
        assert_eq!(run(&plain), run(&optimized), "optimizer broke:\n{src}");
    });
}

#[test]
fn schedule_respects_fundamental_bounds() {
    // For every basic block of a random program and every library PUM:
    // the schedule is at least as long as the DFG critical path (unit
    // latencies) and no longer than the serial sum of op durations plus
    // pipeline fill.
    for_each_case(0x1eaf_0003, 48, |rng| {
        let exprs = gen_exprs(rng, 2, 1, 6);
        let seeds = gen_seeds(rng, 100, 2, 5);
        let src = program_from(&exprs, &seeds);
        let module = lower(&src);
        for pum in [library::microblaze_like(8192, 4096), library::custom_hw("hw", 2, 2)] {
            for (fid, func) in module.functions_iter() {
                for (bid, block) in func.blocks_iter() {
                    let dfg = block_dfg(block);
                    let result = schedule_block(&pum, block, &dfg, fid, bid).expect("schedules");
                    let n_transparent = block
                        .ops
                        .iter()
                        .filter(|op| pum.binding(op.class()).is_ok_and(|b| b.transparent))
                        .count();
                    let scheduled = block.ops.len() - n_transparent;
                    if scheduled > 0 {
                        assert!(result.cycles >= 1);
                    }
                    // Generous serial upper bound: every op serialised at
                    // its worst-stage duration, plus fill and drain.
                    let worst: u64 = block
                        .ops
                        .iter()
                        .map(|op| {
                            pum.binding(op.class())
                                .map(|b| {
                                    b.usage
                                        .iter()
                                        .map(|u| {
                                            u64::from(pum.datapath.units[u.fu].modes[u.mode].delay)
                                        })
                                        .max()
                                        .unwrap_or(1)
                                })
                                .unwrap_or(1)
                                + pum.max_stages() as u64
                        })
                        .sum();
                    assert!(
                        result.raw_cycles <= worst.max(1),
                        "{fid}/{bid}: raw {} > serial bound {worst} on:\n{src}",
                        result.raw_cycles
                    );
                }
            }
        }
    });
}

#[test]
fn more_units_stay_within_grahams_bound() {
    // Greedy list scheduling is subject to Graham's anomaly — adding
    // functional units can lengthen a schedule by a cycle or two — but
    // it can never *double* it (Graham's 2 − 1/m bound). Check that,
    // plus the common-sense direction for the overwhelming majority of
    // blocks.
    for_each_case(0x1eaf_0004, 48, |rng| {
        let exprs = gen_exprs(rng, 2, 2, 6);
        let seeds = gen_seeds(rng, 100, 3, 6);
        let src = program_from(&exprs, &seeds);
        let module = lower(&src);
        let narrow = library::custom_hw("narrow", 1, 1);
        let wide = library::custom_hw("wide", 4, 4);
        for (fid, func) in module.functions_iter() {
            for (bid, block) in func.blocks_iter() {
                let dfg = block_dfg(block);
                let n = schedule_block(&narrow, block, &dfg, fid, bid).expect("schedules");
                let w = schedule_block(&wide, block, &dfg, fid, bid).expect("schedules");
                assert!(
                    w.cycles <= n.cycles * 2,
                    "{fid}/{bid}: wide {} vs narrow {} violates Graham's bound on:\n{src}",
                    w.cycles,
                    n.cycles
                );
            }
        }
    });
}

/// One observation of an [`ExecHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Block(FuncId, BlockId),
    Mem(u32, bool),
    Branch(FuncId, BlockId, bool),
}

/// Logs every hook call in order.
#[derive(Default)]
struct Recorder(Vec<Event>);

impl ExecHook for Recorder {
    fn on_block(&mut self, func: FuncId, block: BlockId) {
        self.0.push(Event::Block(func, block));
    }
    fn on_mem(&mut self, addr: u32, is_store: bool) {
        self.0.push(Event::Mem(addr, is_store));
    }
    fn on_branch(&mut self, func: FuncId, block: BlockId, taken: bool) {
        self.0.push(Event::Branch(func, block, taken));
    }
}

/// How a generated program ends.
#[derive(Debug, Clone, Copy)]
enum Ending {
    Normal,
    DivByZero,
    OutOfBounds,
    StackOverflow,
    Channels,
}

const ENDINGS: [Ending; 5] = [
    Ending::Normal,
    Ending::DivByZero,
    Ending::OutOfBounds,
    Ending::StackOverflow,
    Ending::Channels,
];

/// Every operator MiniC lowers to a binary op; `/` and `%` get guarded
/// divisors in [`render_full`].
const ALL_BIN_OPS: [&str; 14] =
    ["+", "-", "*", "&", "|", "^", "<<", ">>", "<", "<=", ">", ">=", "==", "!="];

fn render_full(rng: &mut Rng, depth: u32, n_vars: usize) -> String {
    if depth == 0 || rng.range(0, 3) == 0 {
        return match rng.range(0, 3) {
            0 => format!("{}", rng.range(-70_000, 70_000)),
            1 => format!("g[{} & 7]", rng.range(0, 100)),
            _ => format!("x{}", rng.range(0, n_vars as i64)),
        };
    }
    let a = render_full(rng, depth - 1, n_vars);
    let b = render_full(rng, depth - 1, n_vars);
    match rng.range(0, 8) {
        0 => format!("({a} / (({b} & 255) + 1))"),
        1 => format!("({a} % (({b} & 255) + 1))"),
        2 => ["-", "!", "~"][rng.range(0, 3) as usize].to_string() + &format!("({a})"),
        _ => format!("({a} {} {b})", ALL_BIN_OPS[rng.range(0, 14) as usize]),
    }
}

/// A program with globals, a helper with a local array, bounded recursion,
/// nested loops and branches, and an `ending` that traps or talks to
/// channels.
fn full_program(rng: &mut Rng, ending: Ending) -> String {
    let n = rng.range(2, 6) as usize;
    let mut src = format!(
        "int g[8] = {{{}, {}, {}}};\n\
         int mix(int a, int b) {{\n\
             int t[4] = {{{}, 5}};\n\
             t[a & 3] += b;\n\
             int s = 0;\n\
             for (int i = 0; i < (b & 7) + 1; i++) {{\n\
                 s += t[i & 3] * i;\n\
                 if (s > 1000) {{ s -= a; }} else {{ g[i & 7] ^= s; }}\n\
             }}\n\
             return s ^ a;\n\
         }}\n\
         int depth(int n) {{ if (n <= 0) {{ return 1; }} return depth(n - 1) + n; }}\n\
         int runaway(int n) {{ return runaway(n + 1) + 1; }}\n\
         int main() {{\n",
        rng.range(-99, 99),
        rng.range(-99, 99),
        rng.range(-99, 99),
        rng.range(-99, 99),
    );
    for i in 0..n {
        src.push_str(&format!("    int x{i} = {};\n", rng.range(-5000, 5000)));
    }
    for k in 0..rng.range(2, 8) {
        let target = k as usize % n;
        let e = render_full(rng, 3, n);
        src.push_str(&format!("    x{target} = {e};\n"));
        match rng.range(0, 3) {
            0 => src.push_str(&format!("    x{target} = mix(x{target}, {});\n", rng.range(0, 40))),
            1 => src.push_str(&format!("    x{target} += depth({});\n", rng.range(0, 12))),
            _ => src.push_str(&format!("    out(x{target});\n")),
        }
    }
    let trip = rng.range(4, 24);
    let at = rng.range(0, trip);
    src.push_str("    int acc = 0;\n");
    src.push_str(&format!("    for (int i = 0; i < {trip}; i++) {{\n"));
    src.push_str("        if ((g[i & 7] ^ i) & 1) { acc += g[i & 7]; } else { acc -= i; }\n");
    match ending {
        Ending::DivByZero => src.push_str(&format!("        acc += 1000 / (i - {at});\n")),
        // A load past the end, or a store below zero, as `at` is even or
        // odd (`%` truncates, so the index first goes negative at i = at).
        Ending::OutOfBounds if at % 2 == 0 => {
            src.push_str(&format!("        acc += g[i + {}];\n", 8 - at));
        }
        Ending::OutOfBounds => src.push_str(&format!("        g[({at} - i - 1) % 8] = acc;\n")),
        Ending::StackOverflow => {
            src.push_str(&format!("        if (i == {at}) {{ acc += runaway(i); }}\n"));
        }
        Ending::Channels => {
            src.push_str("        int v = ch_recv(0);\n        out(v);\n        acc += v;\n");
            src.push_str("        if (acc & 4) { ch_send(1, acc); }\n");
        }
        Ending::Normal => {}
    }
    src.push_str("    }\n");
    for i in 0..n {
        src.push_str(&format!("    out(x{i});\n"));
    }
    src.push_str("    out(acc);\n    return acc;\n}\n");
    src
}

/// Runs both engines in lockstep over the same random fuel slices and
/// channel replies, comparing everything observable after every slice.
/// Returns the final [`Exec`].
fn lockstep(module: &Module, rng: &mut Rng, src: &str) -> Exec {
    let main = module.function_id("main").expect("main");
    let mut fast = Machine::new(module, main, &[]);
    let mut slow = reference::Machine::new(module, main, &[]);
    let (mut fast_log, mut slow_log) = (Recorder::default(), Recorder::default());
    for slice in 0.. {
        assert!(slice < 1_000_000, "no progress on:\n{src}");
        let fuel = rng.range(1, 1001) as u64;
        let exec = fast.run_fuel(&mut fast_log, fuel);
        assert_eq!(exec, slow.run_fuel(&mut slow_log, fuel), "slice {slice} on:\n{src}");
        assert_eq!(fast_log.0, slow_log.0, "hook events of slice {slice} on:\n{src}");
        assert_eq!(fast.stats(), slow.stats(), "stats after slice {slice} on:\n{src}");
        assert_eq!(fast.outputs(), slow.outputs(), "outputs after slice {slice} on:\n{src}");
        fast_log.0.clear();
        slow_log.0.clear();
        match exec {
            Exec::OutOfFuel => {}
            Exec::RecvPending(_) => {
                // Unwrapped 64-bit values exercise the receive-side wrap.
                let value = rng.next() as i64;
                fast.complete_recv(value);
                slow.complete_recv(value);
            }
            // Leave some sends pending so the next slice re-delivers them.
            Exec::SendPending(..) if rng.range(0, 3) == 0 => {}
            Exec::SendPending(..) => {
                fast.complete_send();
                slow.complete_send();
            }
            Exec::Done | Exec::Trap(_) => {
                assert_eq!(fast.stats(), slow.stats(), "final stats on:\n{src}");
                assert_eq!(fast.return_value(), slow.return_value(), "return on:\n{src}");
                return exec;
            }
        }
    }
    unreachable!("the slice loop only exits by returning")
}

#[test]
fn decoded_interpreter_matches_reference_event_for_event() {
    for (k, ending) in ENDINGS.into_iter().enumerate() {
        for_each_case(0x1eaf_0005 ^ (k as u64) << 48, 24, |rng| {
            let src = full_program(rng, ending);
            let plain = lower(&src);
            let mut optimized = plain.clone();
            tlm_cdfg::passes::optimize(&mut optimized);
            for module in [&plain, &optimized] {
                let exec = lockstep(module, rng, &src);
                let expected = match ending {
                    Ending::Normal | Ending::Channels => matches!(exec, Exec::Done),
                    Ending::DivByZero => exec == Exec::Trap(Trap::DivByZero),
                    Ending::OutOfBounds => matches!(exec, Exec::Trap(Trap::OutOfBounds { .. })),
                    Ending::StackOverflow => exec == Exec::Trap(Trap::StackOverflow),
                };
                assert!(expected, "{ending:?} program ended in {exec:?}:\n{src}");
            }
        });
    }
}
