//! A resumable CDFG interpreter.
//!
//! This is the functional execution engine of both the functional and the
//! timed TLM. A [`Machine`] runs one application process; when the process
//! reaches a channel operation the machine suspends and returns control to
//! the caller ([`Exec::RecvPending`] / [`Exec::SendPending`]), which makes it
//! trivially embeddable as a `tlm-desim` process: the process object *is*
//! the machine state, no coroutines required.
//!
//! Execution hooks observe block entries, branches and memory accesses, so
//! the timed TLM can accumulate annotated basic-block delays and profilers
//! can gather statistics without touching the interpreter core.
//!
//! # Pre-decoded form
//!
//! A machine does not walk the [`Module`]. On construction it compiles
//! every function once into a flat vector of `Copy` instructions:
//!
//! - each block's ops are followed by its terminator, and jump, branch
//!   and call targets are resolved to instruction offsets;
//! - register operands are dense `u32` indices into the current frame's
//!   register window, and call arguments live in a side pool;
//! - the common binary operators are instructions of their own, so there
//!   is no second dispatch on the operator;
//! - array accesses carry their precomputed word base, length and
//!   global/local storage.
//!
//! Registers and local arrays of all activations live in two contiguous
//! stacks, each frame a window at a base offset. The run loop keeps the
//! program counter, the register window and the current function's
//! instructions in locals and reloads them only on call and return.
//!
//! The decoded engine is observably identical to the tree-walker it
//! replaced, which survives unmodified as [`reference::Machine`]: the same
//! ops consume fuel, and hooks, [`ExecStats`], traps, outputs and return
//! values match event for event.

use std::fmt;
use std::sync::Arc;

use tlm_minic::ast::{eval_binop, wrap_i32, BinOp, UnOp};

use crate::ir::{
    ArrayScope, BlockId, ChanId, FuncId, MemoryLayout, Module, OpKind, Terminator, GLOBALS_BASE,
    STACK_BASE, WORD_BYTES,
};

pub mod reference;

/// Maximum call depth before the machine traps.
const MAX_FRAMES: usize = 4096;

/// Observer of machine execution.
///
/// All methods have empty defaults; implement only what you need.
pub trait ExecHook {
    /// Called every time control enters a basic block.
    fn on_block(&mut self, _func: FuncId, _block: BlockId) {}
    /// Called on every data-memory access with the absolute byte address.
    fn on_mem(&mut self, _addr: u32, _is_store: bool) {}
    /// Called when a conditional branch resolves.
    fn on_branch(&mut self, _func: FuncId, _block: BlockId, _taken: bool) {}
}

/// An [`ExecHook`] that observes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl ExecHook for NoopHook {}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exec {
    /// The entry function returned; the machine is finished.
    Done,
    /// The machine is blocked on `ch_recv` of this channel. Deliver a value
    /// with [`Machine::complete_recv`], then call `run` again.
    RecvPending(ChanId),
    /// The machine wants to send the value on this channel. Consume it,
    /// call [`Machine::complete_send`], then `run` again.
    SendPending(ChanId, i64),
    /// A runtime error; the machine is dead.
    Trap(Trap),
    /// The fuel budget of [`Machine::run_fuel`] ran out mid-execution;
    /// calling `run` again continues.
    OutOfFuel,
}

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Array access out of bounds.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Call depth exceeded the interpreter's limit (4096 frames).
    StackOverflow,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::OutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for `{array}` of length {len}")
            }
            Trap::StackOverflow => write!(f, "call stack overflow"),
        }
    }
}

/// Execution counters, useful for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Operations executed.
    pub ops: u64,
    /// Basic blocks entered.
    pub blocks: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Conditional branches that were taken.
    pub branches_taken: u64,
    /// Data memory accesses.
    pub mem_accesses: u64,
    /// Function calls made.
    pub calls: u64,
}

/// Register operand meaning "no register" (a call or receive whose value
/// is discarded, a `return` without a value).
const NO_REG: u32 = u32::MAX;

/// One pre-decoded instruction. Register operands index the current
/// frame's register window; `pc` operands are offsets into the current
/// function's instruction vector. Every variant but the three
/// terminators (`Jump`, `Branch`, `Return`) is one IR op and consumes one
/// unit of fuel.
#[derive(Debug, Clone, Copy)]
enum Inst {
    Const {
        dst: u32,
        value: i32,
    },
    Copy(R2),
    Neg(R2),
    Not(R2),
    BitNot(R2),
    Add(R3),
    Sub(R3),
    Mul(R3),
    Div(R3),
    Rem(R3),
    Shl(R3),
    Shr(R3),
    Lt(R3),
    Le(R3),
    Gt(R3),
    Ge(R3),
    Eq(R3),
    Ne(R3),
    And(R3),
    Or(R3),
    Xor(R3),
    /// Any other binary operator (never trapping), via [`eval_binop`].
    Logic(BinOp, R3),
    LoadGlobal(Access),
    LoadLocal(Access),
    StoreGlobal(Access),
    StoreLocal(Access),
    Output {
        src: u32,
    },
    Recv {
        chan: u32,
        dst: u32,
    },
    Send {
        chan: u32,
        src: u32,
    },
    /// Arguments are `pool[args..args + nargs]`; the callee's value goes
    /// to `dst` in this frame.
    Call {
        func: u32,
        args: u32,
        nargs: u32,
        dst: u32,
    },
    Jump {
        pc: u32,
        block: u32,
    },
    Branch {
        cond: u32,
        then_pc: u32,
        then_bb: u32,
        else_pc: u32,
        else_bb: u32,
    },
    Return {
        src: u32,
    },
}

/// Operands of a unary op: `r[dst] = f(r[a])`.
#[derive(Debug, Clone, Copy)]
struct R2 {
    dst: u32,
    a: u32,
}

impl R2 {
    #[inline(always)]
    fn apply(self, r: &mut [i64], f: impl Fn(i64) -> i64) {
        r[self.dst as usize] = f(r[self.a as usize]);
    }
}

/// Operands of a binary op: `r[dst] = f(r[a], r[b])`.
#[derive(Debug, Clone, Copy)]
struct R3 {
    dst: u32,
    a: u32,
    b: u32,
}

impl R3 {
    #[inline(always)]
    fn apply(self, r: &mut [i64], f: impl Fn(i64, i64) -> i64) {
        r[self.dst as usize] = f(r[self.a as usize], r[self.b as usize]);
    }
}

/// A bounds-checked array access. `r[reg]` receives a load or supplies a
/// store; `r[index]` is the element index.
#[derive(Debug, Clone, Copy)]
struct Access {
    reg: u32,
    index: u32,
    /// The array's first word within the globals or the frame's locals.
    base: u32,
    len: u32,
    /// Names the array in an out-of-bounds trap.
    array: u32,
}

impl Access {
    /// The storage word of element `index`, or `None` out of bounds.
    #[inline(always)]
    fn slot(self, index: i64) -> Option<u32> {
        (0..i64::from(self.len)).contains(&index).then(|| self.base + index as u32)
    }
}

/// One function, pre-decoded.
#[derive(Debug)]
struct FuncCode {
    code: Vec<Inst>,
    num_vregs: usize,
    params: Vec<u32>,
    /// A fresh activation's local-array storage: initializers in place,
    /// zeros elsewhere.
    locals_init: Vec<i64>,
    /// `locals_init.len()` in bytes, the frame's share of the stack.
    frame_bytes: u32,
}

/// A whole module, pre-decoded.
#[derive(Debug)]
struct Program {
    funcs: Vec<FuncCode>,
    /// Call-argument registers, referenced by [`Inst::Call`].
    pool: Vec<u32>,
}

impl Program {
    fn decode(module: &Module, layout: &MemoryLayout) -> Program {
        let mut pool = Vec::new();
        let funcs = module
            .functions_iter()
            .map(|(fid, func)| {
                let frame_words = layout.frame_words[fid.0 as usize] as usize;
                let mut locals_init = vec![0i64; frame_words];
                for &aid in &func.local_arrays {
                    let base = (layout.array_base[aid.0 as usize] / WORD_BYTES) as usize;
                    for (j, &v) in module.arrays[aid.0 as usize].init.iter().enumerate() {
                        locals_init[base + j] = wrap_i32(v);
                    }
                }
                FuncCode {
                    code: decode_function(module, layout, fid, &mut pool),
                    num_vregs: func.num_vregs as usize,
                    params: func.params.iter().map(|r| r.0).collect(),
                    frame_bytes: (frame_words as u32) * WORD_BYTES,
                    locals_init,
                }
            })
            .collect();
        Program { funcs, pool }
    }
}

fn decode_function(
    module: &Module,
    layout: &MemoryLayout,
    fid: FuncId,
    pool: &mut Vec<u32>,
) -> Vec<Inst> {
    let func = module.function(fid);
    // Each block is its ops followed by its terminator.
    let mut block_pc = Vec::with_capacity(func.blocks.len());
    let mut pc = 0u32;
    for block in &func.blocks {
        block_pc.push(pc);
        pc += block.ops.len() as u32 + 1;
    }
    let mut code = Vec::with_capacity(pc as usize);
    for (bid, block) in func.blocks_iter() {
        for (i, op) in block.ops.iter().enumerate() {
            let arg = |n: usize| op.args[n].0;
            let dst = || match op.result {
                Some(r) => r.0,
                None => panic!("`{}` {bid} op {i} has no result register", func.name),
            };
            // The array's storage and word base, and its operands.
            let access = |array: crate::ir::ArrayId, reg: u32| {
                let data = module.array(array);
                let base = layout.array_base[array.0 as usize];
                let (global, base) = match data.scope {
                    ArrayScope::Global => (true, (base - GLOBALS_BASE) / WORD_BYTES),
                    ArrayScope::Local(_) => (false, base / WORD_BYTES),
                };
                let len = u32::try_from(data.len).expect("array fits the address space");
                (global, Access { reg, index: arg(0), base, len, array: array.0 })
            };
            code.push(match &op.kind {
                OpKind::Const(v) => Inst::Const { dst: dst(), value: wrap_i32(*v) as i32 },
                OpKind::Copy => Inst::Copy(R2 { dst: dst(), a: arg(0) }),
                OpKind::Un(un) => {
                    let r = R2 { dst: dst(), a: arg(0) };
                    match un {
                        UnOp::Neg => Inst::Neg(r),
                        UnOp::Not => Inst::Not(r),
                        UnOp::BitNot => Inst::BitNot(r),
                    }
                }
                OpKind::Bin(bin) => {
                    let r = R3 { dst: dst(), a: arg(0), b: arg(1) };
                    match bin {
                        BinOp::Add => Inst::Add(r),
                        BinOp::Sub => Inst::Sub(r),
                        BinOp::Mul => Inst::Mul(r),
                        BinOp::Div => Inst::Div(r),
                        BinOp::Rem => Inst::Rem(r),
                        BinOp::Shl => Inst::Shl(r),
                        BinOp::Shr => Inst::Shr(r),
                        BinOp::Lt => Inst::Lt(r),
                        BinOp::Le => Inst::Le(r),
                        BinOp::Gt => Inst::Gt(r),
                        BinOp::Ge => Inst::Ge(r),
                        BinOp::Eq => Inst::Eq(r),
                        BinOp::Ne => Inst::Ne(r),
                        BinOp::BitAnd => Inst::And(r),
                        BinOp::BitOr => Inst::Or(r),
                        BinOp::BitXor => Inst::Xor(r),
                        op @ (BinOp::LogAnd | BinOp::LogOr) => Inst::Logic(*op, r),
                    }
                }
                OpKind::Load { array } => match access(*array, dst()) {
                    (true, m) => Inst::LoadGlobal(m),
                    (false, m) => Inst::LoadLocal(m),
                },
                OpKind::Store { array } => match access(*array, arg(1)) {
                    (true, m) => Inst::StoreGlobal(m),
                    (false, m) => Inst::StoreLocal(m),
                },
                OpKind::Output => Inst::Output { src: arg(0) },
                OpKind::ChanRecv { chan } => {
                    Inst::Recv { chan: chan.0, dst: op.result.map_or(NO_REG, |r| r.0) }
                }
                OpKind::ChanSend { chan } => Inst::Send { chan: chan.0, src: arg(0) },
                OpKind::Call { func: callee } => {
                    let args = pool.len() as u32;
                    pool.extend(op.args.iter().map(|r| r.0));
                    Inst::Call {
                        func: callee.0,
                        args,
                        nargs: op.args.len() as u32,
                        dst: op.result.map_or(NO_REG, |r| r.0),
                    }
                }
            });
        }
        code.push(match &block.term {
            Terminator::Jump(target) => {
                Inst::Jump { pc: block_pc[target.0 as usize], block: target.0 }
            }
            Terminator::Branch { cond, then_bb, else_bb } => Inst::Branch {
                cond: cond.0,
                then_pc: block_pc[then_bb.0 as usize],
                then_bb: then_bb.0,
                else_pc: block_pc[else_bb.0 as usize],
                else_bb: else_bb.0,
            },
            Terminator::Return(value) => Inst::Return { src: value.map_or(NO_REG, |v| v.0) },
        });
    }
    code
}

/// One activation. The top frame's `pc` and `block` are only current
/// while the machine is stopped; the run loop keeps them in locals.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: u32,
    /// Where execution continues: the next instruction of a stopped top
    /// frame, or the instruction after the call of a caller frame.
    pc: u32,
    /// The block `pc` lies in.
    block: u32,
    /// Start of this activation's register window.
    reg_base: usize,
    /// Start of this activation's local-array storage.
    local_base: usize,
    /// Absolute byte address of this frame's local-array area.
    frame_base: u32,
    /// Caller register that receives the return value, or [`NO_REG`].
    ret_dst: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Running,
    AwaitRecv { chan: ChanId, dst: u32 },
    AwaitSend { chan: ChanId, value: i64 },
    Finished,
    Trapped,
}

/// Why the run loop stopped.
enum Stop {
    OutOfFuel,
    Done(Option<i64>),
    Recv { chan: ChanId, dst: u32 },
    Send { chan: ChanId, value: i64 },
    Trap(Trap),
}

/// A resumable interpreter over one [`Module`].
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct Machine {
    module: Arc<Module>,
    program: Program,
    globals: Vec<i64>,
    /// Register windows of all activations, innermost last.
    regs: Vec<i64>,
    /// Local-array storage of all activations, innermost last.
    locals: Vec<i64>,
    frames: Vec<Frame>,
    state: State,
    outputs: Vec<i64>,
    stats: ExecStats,
    return_value: Option<i64>,
    /// True until the entry block's `on_block` hook has fired.
    entry_pending: bool,
}

impl Machine {
    /// Creates a machine poised at the entry of `entry` with `args` bound to
    /// its parameters. The module is snapshotted (cheaply cloned) so the
    /// machine is self-contained; use [`Machine::from_arc`] to share one
    /// module between many machines.
    ///
    /// # Panics
    ///
    /// Panics if `args` does not match the entry function's parameter count.
    pub fn new(module: &Module, entry: FuncId, args: &[i64]) -> Machine {
        Machine::from_arc(Arc::new(module.clone()), entry, args)
    }

    /// Creates a machine sharing an existing module.
    ///
    /// # Panics
    ///
    /// Panics if `args` does not match the entry function's parameter count.
    pub fn from_arc(module: Arc<Module>, entry: FuncId, args: &[i64]) -> Machine {
        let layout = MemoryLayout::of(&module);
        let globals_words = ((layout.globals_end - GLOBALS_BASE) / WORD_BYTES) as usize;
        let mut globals = vec![0i64; globals_words];
        for (i, a) in module.arrays.iter().enumerate() {
            if a.scope == ArrayScope::Global {
                let base = ((layout.array_base[i] - GLOBALS_BASE) / WORD_BYTES) as usize;
                for (j, &v) in a.init.iter().enumerate() {
                    globals[base + j] = wrap_i32(v);
                }
            }
        }
        let program = Program::decode(&module, &layout);
        let code = &program.funcs[entry.0 as usize];
        assert_eq!(
            args.len(),
            code.params.len(),
            "call to `{}` with wrong argument count",
            module.function(entry).name
        );
        let mut regs = vec![0i64; code.num_vregs];
        for (&reg, &value) in code.params.iter().zip(args) {
            regs[reg as usize] = wrap_i32(value);
        }
        let frame = Frame {
            func: entry.0,
            pc: 0,
            block: 0,
            reg_base: 0,
            local_base: 0,
            frame_base: STACK_BASE - code.frame_bytes,
            ret_dst: NO_REG,
        };
        let locals = code.locals_init.clone();
        Machine {
            module,
            program,
            globals,
            regs,
            locals,
            frames: vec![frame],
            state: State::Running,
            outputs: Vec::new(),
            stats: ExecStats::default(),
            return_value: None,
            entry_pending: true,
        }
    }

    /// The observable output stream produced so far by `out()`.
    pub fn outputs(&self) -> &[i64] {
        &self.outputs
    }

    /// Execution counters so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The entry function's return value once [`Exec::Done`] was reached.
    pub fn return_value(&self) -> Option<i64> {
        self.return_value
    }

    /// Whether the machine has finished successfully.
    pub fn is_finished(&self) -> bool {
        self.state == State::Finished
    }

    /// The module this machine executes.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Delivers the value a pending `ch_recv` was waiting for.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not in the [`Exec::RecvPending`] state.
    pub fn complete_recv(&mut self, value: i64) {
        let State::AwaitRecv { dst, .. } = self.state else {
            panic!("complete_recv called but machine is not awaiting a receive");
        };
        if dst != NO_REG {
            let frame = self.frames.last().expect("awaiting machine has a frame");
            self.regs[frame.reg_base + dst as usize] = wrap_i32(value);
        }
        self.stats.ops += 1;
        self.state = State::Running;
    }

    /// Acknowledges that the value of a pending `ch_send` was consumed.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not in the [`Exec::SendPending`] state.
    pub fn complete_send(&mut self) {
        let State::AwaitSend { .. } = self.state else {
            panic!("complete_send called but machine is not awaiting a send");
        };
        self.stats.ops += 1;
        self.state = State::Running;
    }

    /// Runs until completion, suspension or trap.
    pub fn run(&mut self, hook: &mut impl ExecHook) -> Exec {
        self.run_fuel(hook, u64::MAX)
    }

    /// Runs, executing at most `fuel` operations.
    pub fn run_fuel(&mut self, hook: &mut impl ExecHook, fuel: u64) -> Exec {
        match self.state {
            State::Running => {}
            State::AwaitRecv { chan, .. } => return Exec::RecvPending(chan),
            // Re-deliver the pending value.
            State::AwaitSend { chan, value } => return Exec::SendPending(chan, value),
            State::Finished => return Exec::Done,
            State::Trapped => panic!("running a trapped machine"),
        }
        if self.entry_pending {
            self.entry_pending = false;
            let frame = self.frames.last().expect("machine has an entry frame");
            self.stats.blocks += 1;
            hook.on_block(FuncId(frame.func), BlockId(frame.block));
        }
        let stop = self.execute(hook, fuel);
        match stop {
            Stop::OutOfFuel => Exec::OutOfFuel,
            Stop::Done(value) => {
                self.return_value = value;
                self.state = State::Finished;
                Exec::Done
            }
            Stop::Recv { chan, dst } => {
                self.state = State::AwaitRecv { chan, dst };
                Exec::RecvPending(chan)
            }
            Stop::Send { chan, value } => {
                self.state = State::AwaitSend { chan, value };
                Exec::SendPending(chan, value)
            }
            Stop::Trap(trap) => {
                self.state = State::Trapped;
                Exec::Trap(trap)
            }
        }
    }

    /// The run loop: executes at most `budget` ops from the top frame's
    /// saved position, then saves the position back. An op that suspends
    /// or traps consumes fuel but is not counted in [`ExecStats::ops`]; a
    /// channel op is counted when it completes.
    fn execute(&mut self, hook: &mut impl ExecHook, budget: u64) -> Stop {
        let Machine { module, program, globals, regs, locals, frames, outputs, stats, .. } = self;
        let mut counts = *stats;
        let mut fuel = budget;
        let top = *frames.last().expect("a running machine has a frame");
        let mut func = top.func;
        let mut pc = top.pc as usize;
        let mut block = top.block;
        let mut lb = top.local_base;
        let mut frame_base = top.frame_base;
        let mut code: &[Inst] = &program.funcs[func as usize].code;
        let mut r: &mut [i64] = &mut regs[top.reg_base..];
        let oob = |m: Access, index: i64| {
            Stop::Trap(Trap::OutOfBounds {
                array: module.arrays[m.array as usize].name.clone(),
                index,
                len: m.len as usize,
            })
        };
        let stop = loop {
            if fuel == 0 {
                break Stop::OutOfFuel;
            }
            let inst = code[pc];
            pc += 1;
            fuel -= 1;
            match inst {
                Inst::Const { dst, value } => r[dst as usize] = i64::from(value),
                Inst::Copy(o) => o.apply(r, |a| a),
                Inst::Neg(o) => o.apply(r, |a| wrap_i32(a.wrapping_neg())),
                Inst::Not(o) => o.apply(r, |a| i64::from(a == 0)),
                Inst::BitNot(o) => o.apply(r, |a| wrap_i32(!a)),
                Inst::Add(o) => o.apply(r, |a, b| wrap_i32(a.wrapping_add(b))),
                Inst::Sub(o) => o.apply(r, |a, b| wrap_i32(a.wrapping_sub(b))),
                Inst::Mul(o) => o.apply(r, |a, b| wrap_i32(a.wrapping_mul(b))),
                Inst::Div(o) => {
                    if r[o.b as usize] == 0 {
                        break Stop::Trap(Trap::DivByZero);
                    }
                    o.apply(r, |a, b| i64::from((a as i32).wrapping_div(b as i32)));
                }
                Inst::Rem(o) => {
                    if r[o.b as usize] == 0 {
                        break Stop::Trap(Trap::DivByZero);
                    }
                    o.apply(r, |a, b| i64::from((a as i32).wrapping_rem(b as i32)));
                }
                Inst::Shl(o) => o.apply(r, |a, b| i64::from((a as i32).wrapping_shl(b as u32))),
                Inst::Shr(o) => o.apply(r, |a, b| i64::from((a as i32).wrapping_shr(b as u32))),
                Inst::Lt(o) => o.apply(r, |a, b| i64::from(a < b)),
                Inst::Le(o) => o.apply(r, |a, b| i64::from(a <= b)),
                Inst::Gt(o) => o.apply(r, |a, b| i64::from(a > b)),
                Inst::Ge(o) => o.apply(r, |a, b| i64::from(a >= b)),
                Inst::Eq(o) => o.apply(r, |a, b| i64::from(a == b)),
                Inst::Ne(o) => o.apply(r, |a, b| i64::from(a != b)),
                Inst::And(o) => o.apply(r, |a, b| wrap_i32(a & b)),
                Inst::Or(o) => o.apply(r, |a, b| wrap_i32(a | b)),
                Inst::Xor(o) => o.apply(r, |a, b| wrap_i32(a ^ b)),
                Inst::Logic(op, o) => o.apply(r, |a, b| {
                    eval_binop(op, a, b).expect("only non-trapping operators decode to `Logic`")
                }),
                Inst::LoadGlobal(m) => {
                    let i = r[m.index as usize];
                    let Some(slot) = m.slot(i) else { break oob(m, i) };
                    r[m.reg as usize] = globals[slot as usize];
                    counts.mem_accesses += 1;
                    hook.on_mem(GLOBALS_BASE + slot * WORD_BYTES, false);
                }
                Inst::LoadLocal(m) => {
                    let i = r[m.index as usize];
                    let Some(slot) = m.slot(i) else { break oob(m, i) };
                    r[m.reg as usize] = locals[lb + slot as usize];
                    counts.mem_accesses += 1;
                    hook.on_mem(frame_base + slot * WORD_BYTES, false);
                }
                Inst::StoreGlobal(m) => {
                    let i = r[m.index as usize];
                    let Some(slot) = m.slot(i) else { break oob(m, i) };
                    globals[slot as usize] = r[m.reg as usize];
                    counts.mem_accesses += 1;
                    hook.on_mem(GLOBALS_BASE + slot * WORD_BYTES, true);
                }
                Inst::StoreLocal(m) => {
                    let i = r[m.index as usize];
                    let Some(slot) = m.slot(i) else { break oob(m, i) };
                    locals[lb + slot as usize] = r[m.reg as usize];
                    counts.mem_accesses += 1;
                    hook.on_mem(frame_base + slot * WORD_BYTES, true);
                }
                Inst::Output { src } => outputs.push(r[src as usize]),
                Inst::Recv { chan, dst } => break Stop::Recv { chan: ChanId(chan), dst },
                Inst::Send { chan, src } => {
                    break Stop::Send { chan: ChanId(chan), value: r[src as usize] };
                }
                Inst::Call { func: callee, args, nargs, dst } => {
                    if frames.len() >= MAX_FRAMES {
                        break Stop::Trap(Trap::StackOverflow);
                    }
                    counts.calls += 1;
                    let target = &program.funcs[callee as usize];
                    assert_eq!(
                        nargs as usize,
                        target.params.len(),
                        "call to `{}` with wrong argument count",
                        module.functions[callee as usize].name
                    );
                    let caller = frames.last_mut().expect("a running machine has a frame");
                    caller.pc = pc as u32;
                    caller.block = block;
                    let caller_base = caller.reg_base;
                    let reg_base = regs.len();
                    regs.resize(reg_base + target.num_vregs, 0);
                    let (outer, inner) = regs.split_at_mut(reg_base);
                    let args = &program.pool[args as usize..(args + nargs) as usize];
                    for (&param, &arg) in target.params.iter().zip(args) {
                        inner[param as usize] = wrap_i32(outer[caller_base + arg as usize]);
                    }
                    lb = locals.len();
                    locals.extend_from_slice(&target.locals_init);
                    // Stack grows down from STACK_BASE; each nested frame sits
                    // below its caller. Only used for hook addresses.
                    frame_base -= target.frame_bytes;
                    frames.push(Frame {
                        func: callee,
                        pc: 0,
                        block: 0,
                        reg_base,
                        local_base: lb,
                        frame_base,
                        ret_dst: dst,
                    });
                    func = callee;
                    code = &target.code;
                    pc = 0;
                    block = 0;
                    r = &mut regs[reg_base..];
                    counts.blocks += 1;
                    hook.on_block(FuncId(func), BlockId(0));
                }
                Inst::Jump { pc: target, block: bb } => {
                    fuel += 1;
                    pc = target as usize;
                    block = bb;
                    counts.blocks += 1;
                    hook.on_block(FuncId(func), BlockId(bb));
                }
                Inst::Branch { cond, then_pc, then_bb, else_pc, else_bb } => {
                    fuel += 1;
                    let taken = r[cond as usize] != 0;
                    let from = block;
                    (pc, block) = if taken {
                        (then_pc as usize, then_bb)
                    } else {
                        (else_pc as usize, else_bb)
                    };
                    counts.branches += 1;
                    counts.branches_taken += u64::from(taken);
                    counts.blocks += 1;
                    hook.on_branch(FuncId(func), BlockId(from), taken);
                    hook.on_block(FuncId(func), BlockId(block));
                }
                Inst::Return { src } => {
                    fuel += 1;
                    let value = (src != NO_REG).then(|| r[src as usize]);
                    let callee = frames.pop().expect("a running machine has a frame");
                    let Some(&caller) = frames.last() else {
                        break Stop::Done(value);
                    };
                    regs.truncate(callee.reg_base);
                    locals.truncate(callee.local_base);
                    func = caller.func;
                    code = &program.funcs[func as usize].code;
                    pc = caller.pc as usize;
                    block = caller.block;
                    lb = caller.local_base;
                    frame_base = caller.frame_base;
                    r = &mut regs[caller.reg_base..];
                    if callee.ret_dst != NO_REG {
                        r[callee.ret_dst as usize] =
                            value.expect("callee signature guarantees a value");
                    }
                }
            }
        };
        // The stopping op is only counted when it completes.
        let uncounted = u64::from(!matches!(stop, Stop::OutOfFuel | Stop::Done(_)));
        counts.ops += budget - fuel - uncounted;
        *stats = counts;
        if let Some(top) = frames.last_mut() {
            top.pc = pc as u32;
            top.block = block;
        }
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;

    fn machine(src: &str, entry: &str, args: &[i64]) -> Machine {
        let module = lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        let id = module.function_id(entry).expect("entry exists");
        Machine::new(&module, id, args)
    }

    fn run_main(src: &str) -> Vec<i64> {
        let mut m = machine(src, "main", &[]);
        assert_eq!(m.run(&mut NoopHook), Exec::Done);
        m.outputs().to_vec()
    }

    #[test]
    fn arithmetic_and_calls() {
        let outs = run_main(
            "int sq(int x) { return x * x; }
             void main() { out(sq(3) + sq(4)); }",
        );
        assert_eq!(outs, vec![25]);
    }

    #[test]
    fn loops_and_arrays() {
        let outs = run_main(
            "void main() {
                int fib[10];
                fib[0] = 0; fib[1] = 1;
                for (int i = 2; i < 10; i++) { fib[i] = fib[i-1] + fib[i-2]; }
                out(fib[9]);
             }",
        );
        assert_eq!(outs, vec![34]);
    }

    #[test]
    fn globals_persist_across_calls() {
        let outs = run_main(
            "int counter = 0;
             void tick() { counter += 1; }
             void main() { tick(); tick(); tick(); out(counter); }",
        );
        assert_eq!(outs, vec![3]);
    }

    #[test]
    fn global_array_initializers() {
        let outs = run_main(
            "int t[5] = {10, 20, 30};
             void main() { out(t[0] + t[2] + t[4]); }",
        );
        assert_eq!(outs, vec![40], "missing initializers are zero");
    }

    #[test]
    fn local_array_initializers_per_activation() {
        let outs = run_main(
            "int f() { int t[2] = {5, 6}; t[0] += 1; return t[0]; }
             void main() { out(f()); out(f()); }",
        );
        assert_eq!(outs, vec![6, 6], "fresh initializer each call");
    }

    #[test]
    fn do_while_runs_at_least_once() {
        let outs = run_main(
            "void main() {
                int n = 0;
                do { n++; } while (0);
                int m = 10;
                do { m--; } while (m > 3);
                out(n); out(m);
             }",
        );
        assert_eq!(outs, vec![1, 3]);
    }

    #[test]
    fn ternary_evaluates_only_chosen_arm() {
        let outs = run_main(
            "int g = 0;
             int bump() { g += 1; return 99; }
             void main() {
                int a = 1 ? 7 : bump();
                int b = 0 ? bump() : 8;
                out(a + b);
                out(g);
             }",
        );
        assert_eq!(outs, vec![15, 0], "bump never ran");
    }

    #[test]
    fn switch_dispatch_fallthrough_and_default() {
        let outs = run_main(
            "int classify(int x) {
                int r = 0;
                switch (x) {
                    case 1:
                    case 2: r = 10; break;
                    case 3: r = 20;        // falls through
                    case 4: r = r + 1; break;
                    default: r = -1;
                }
                return r;
            }
            void main() {
                out(classify(1)); out(classify(2)); out(classify(3));
                out(classify(4)); out(classify(99));
            }",
        );
        assert_eq!(outs, vec![10, 10, 21, 1, -1]);
    }

    #[test]
    fn switch_without_default_skips() {
        let outs = run_main(
            "void main() {
                int hits = 0;
                for (int i = 0; i < 6; i++) {
                    switch (i) { case 2: hits += 1; break; case 4: hits += 10; }
                }
                out(hits);
            }",
        );
        assert_eq!(outs, vec![11]);
    }

    #[test]
    fn continue_inside_switch_targets_the_loop() {
        let outs = run_main(
            "void main() {
                int s = 0;
                for (int i = 0; i < 6; i++) {
                    switch (i & 1) { case 1: continue; default: break; }
                    s += i;
                }
                out(s);
            }",
        );
        assert_eq!(outs, vec![6], "sum of the even values 0, 2, 4");
    }

    #[test]
    fn recursion() {
        let outs = run_main(
            "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
             void main() { out(fact(6)); }",
        );
        assert_eq!(outs, vec![720]);
    }

    #[test]
    fn short_circuit_evaluation_skips_rhs() {
        let outs = run_main(
            "int g = 0;
             int bump() { g += 1; return 1; }
             void main() {
                if (0 && bump()) { out(99); }
                if (1 || bump()) { out(g); }
             }",
        );
        assert_eq!(outs, vec![0], "bump never ran");
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = machine("int main(int d) { return 1 / d; }", "main", &[0]);
        assert_eq!(m.run(&mut NoopHook), Exec::Trap(Trap::DivByZero));
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut m = machine("int t[4]; int main(int i) { return t[i]; }", "main", &[7]);
        let Exec::Trap(Trap::OutOfBounds { index, len, .. }) = m.run(&mut NoopHook) else {
            panic!("expected OOB trap");
        };
        assert_eq!((index, len), (7, 4));
    }

    #[test]
    fn infinite_recursion_overflows_cleanly() {
        let mut m = machine("int f(int n) { return f(n); } ", "f", &[1]);
        assert_eq!(m.run(&mut NoopHook), Exec::Trap(Trap::StackOverflow));
    }

    #[test]
    fn fuel_limits_execution() {
        let mut m = machine("void main() { int i = 0; while (1) { i += 1; } }", "main", &[]);
        assert_eq!(m.run_fuel(&mut NoopHook, 10_000), Exec::OutOfFuel);
        // Resumable: more fuel continues the loop.
        assert_eq!(m.run_fuel(&mut NoopHook, 10_000), Exec::OutOfFuel);
        assert!(m.stats().ops >= 20_000);
    }

    #[test]
    fn channel_suspension_round_trip() {
        let mut m = machine(
            "void main() {
                int a = ch_recv(0);
                int b = ch_recv(0);
                ch_send(1, a + b);
             }",
            "main",
            &[],
        );
        assert_eq!(m.run(&mut NoopHook), Exec::RecvPending(ChanId(0)));
        m.complete_recv(30);
        assert_eq!(m.run(&mut NoopHook), Exec::RecvPending(ChanId(0)));
        m.complete_recv(12);
        assert_eq!(m.run(&mut NoopHook), Exec::SendPending(ChanId(1), 42));
        m.complete_send();
        assert_eq!(m.run(&mut NoopHook), Exec::Done);
    }

    #[test]
    fn send_pending_is_idempotent_until_completed() {
        let mut m = machine("void main() { ch_send(2, 7); }", "main", &[]);
        assert_eq!(m.run(&mut NoopHook), Exec::SendPending(ChanId(2), 7));
        assert_eq!(m.run(&mut NoopHook), Exec::SendPending(ChanId(2), 7));
        m.complete_send();
        assert_eq!(m.run(&mut NoopHook), Exec::Done);
    }

    #[test]
    fn return_value_of_entry() {
        let mut m = machine("int main(int a) { return a * 2; }", "main", &[21]);
        assert_eq!(m.run(&mut NoopHook), Exec::Done);
        assert_eq!(m.return_value(), Some(42));
    }

    #[test]
    fn hooks_observe_execution() {
        #[derive(Default)]
        struct Counting {
            blocks: usize,
            mems: usize,
            branches: usize,
        }
        impl ExecHook for Counting {
            fn on_block(&mut self, _f: FuncId, _b: BlockId) {
                self.blocks += 1;
            }
            fn on_mem(&mut self, _a: u32, _s: bool) {
                self.mems += 1;
            }
            fn on_branch(&mut self, _f: FuncId, _b: BlockId, _t: bool) {
                self.branches += 1;
            }
        }
        let mut hook = Counting::default();
        let mut m = machine(
            "int t[4];
             void main() { for (int i = 0; i < 4; i++) { t[i] = i; } }",
            "main",
            &[],
        );
        assert_eq!(m.run(&mut hook), Exec::Done);
        assert_eq!(hook.mems, 4);
        assert_eq!(hook.branches, 5, "4 taken + 1 exit");
        assert!(hook.blocks >= 11);
        assert_eq!(u64::try_from(hook.blocks).expect("fits"), m.stats().blocks);
    }

    #[test]
    fn decoded_instructions_are_compact() {
        // Five `u32` operands and the tag: the run loop copies one per op.
        assert_eq!(std::mem::size_of::<Inst>(), 24);
    }

    #[test]
    fn stats_track_branch_taken_ratio() {
        let mut m = machine("void main() { for (int i = 0; i < 10; i++) { } }", "main", &[]);
        m.run(&mut NoopHook);
        assert_eq!(m.stats().branches, 11);
        assert_eq!(m.stats().branches_taken, 10);
    }
}
