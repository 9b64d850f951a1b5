//! The original tree-walking interpreter, retained verbatim as a
//! differential oracle for [`super::Machine`].
//!
//! The production engine pre-decodes every function into a flat
//! instruction stream (see the parent module). This module keeps the
//! straightforward implementation it replaced: it walks the [`Module`]
//! itself, re-indexing function, block and op on every step, with one
//! register `Vec` per activation frame and a second dispatch through
//! [`eval_binop`]. It is slow by design and exists so the production
//! engine can be checked against an independently simple implementation:
//! `tests/proptest_engines.rs` runs random programs on both, in random
//! fuel slices, and requires identical hook event streams, `Exec` results,
//! [`ExecStats`], outputs and return values.
//!
//! Do not optimize this file: its value is that it has not changed.

use std::sync::Arc;

use tlm_minic::ast::{eval_binop, wrap_i32, BinOp, UnOp};

use super::{Exec, ExecHook, ExecStats, Trap, MAX_FRAMES};
use crate::ir::{
    ArrayScope, BlockId, ChanId, FuncId, MemoryLayout, Module, OpKind, Terminator, VReg,
    GLOBALS_BASE, STACK_BASE, WORD_BYTES,
};

#[derive(Debug)]
struct Frame {
    func: FuncId,
    block: BlockId,
    op_idx: usize,
    vregs: Vec<i64>,
    /// Storage for this activation's local arrays, laid out per
    /// [`MemoryLayout`].
    locals: Vec<i64>,
    /// Absolute byte address of this frame's local-array area.
    frame_base: u32,
    /// Where to store the callee's return value in *this* frame.
    pending_result: Option<VReg>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Running,
    AwaitRecv(ChanId),
    AwaitSend(ChanId),
    Finished,
    Trapped,
}

/// The reference resumable interpreter over one [`Module`], with the same
/// API and observable behaviour as [`super::Machine`].
#[derive(Debug)]
pub struct Machine {
    module: Arc<Module>,
    layout: MemoryLayout,
    globals: Vec<i64>,
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
        let mut machine = Machine {
            module,
            layout,
            globals,
            frames: Vec::new(),
            state: State::Running,
            outputs: Vec::new(),
            stats: ExecStats::default(),
            return_value: None,
            entry_pending: true,
        };
        machine.push_frame(entry, args);
        machine
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
        let State::AwaitRecv(_) = self.state else {
            panic!("complete_recv called but machine is not awaiting a receive");
        };
        let frame = self.frames.last_mut().expect("awaiting machine has a frame");
        let func = &self.module.functions[frame.func.0 as usize];
        let op = &func.blocks[frame.block.0 as usize].ops[frame.op_idx];
        if let Some(result) = op.result {
            frame.vregs[result.0 as usize] = wrap_i32(value);
        }
        frame.op_idx += 1;
        self.stats.ops += 1;
        self.state = State::Running;
    }

    /// Acknowledges that the value of a pending `ch_send` was consumed.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not in the [`Exec::SendPending`] state.
    pub fn complete_send(&mut self) {
        let State::AwaitSend(_) = self.state else {
            panic!("complete_send called but machine is not awaiting a send");
        };
        let frame = self.frames.last_mut().expect("awaiting machine has a frame");
        frame.op_idx += 1;
        self.stats.ops += 1;
        self.state = State::Running;
    }

    /// Runs until completion, suspension or trap.
    pub fn run(&mut self, hook: &mut impl ExecHook) -> Exec {
        self.run_fuel(hook, u64::MAX)
    }

    /// Runs, executing at most `fuel` operations.
    pub fn run_fuel(&mut self, hook: &mut impl ExecHook, mut fuel: u64) -> Exec {
        match self.state {
            State::Running => {}
            State::AwaitRecv(ch) => return Exec::RecvPending(ch),
            State::AwaitSend(ch) => {
                // Re-deliver the pending value.
                let frame = self.frames.last().expect("awaiting machine has a frame");
                let func = &self.module.functions[frame.func.0 as usize];
                let op = &func.blocks[frame.block.0 as usize].ops[frame.op_idx];
                let value = frame.vregs[op.args[0].0 as usize];
                return Exec::SendPending(ch, value);
            }
            State::Finished => return Exec::Done,
            State::Trapped => panic!("running a trapped machine"),
        }
        if self.entry_pending {
            self.entry_pending = false;
            let frame = self.frames.last().expect("machine has an entry frame");
            self.stats.blocks += 1;
            hook.on_block(frame.func, frame.block);
        }
        loop {
            if fuel == 0 {
                return Exec::OutOfFuel;
            }
            let Some(frame) = self.frames.last_mut() else {
                self.state = State::Finished;
                return Exec::Done;
            };
            let func_id = frame.func;
            let func = &self.module.functions[func_id.0 as usize];
            let block = &func.blocks[frame.block.0 as usize];

            if frame.op_idx >= block.ops.len() {
                // Terminator.
                match &block.term {
                    Terminator::Jump(target) => {
                        frame.block = *target;
                        frame.op_idx = 0;
                        self.stats.blocks += 1;
                        hook.on_block(func_id, *target);
                    }
                    Terminator::Branch { cond, then_bb, else_bb } => {
                        let taken = frame.vregs[cond.0 as usize] != 0;
                        let from = frame.block;
                        let target = if taken { *then_bb } else { *else_bb };
                        frame.block = target;
                        frame.op_idx = 0;
                        self.stats.branches += 1;
                        self.stats.branches_taken += u64::from(taken);
                        self.stats.blocks += 1;
                        hook.on_branch(func_id, from, taken);
                        hook.on_block(func_id, target);
                    }
                    Terminator::Return(value) => {
                        let ret = value.map(|v| frame.vregs[v.0 as usize]);
                        let finished = self.frames.len() == 1;
                        let popped = self.frames.pop().expect("frame checked above");
                        if finished {
                            self.return_value = ret;
                            self.state = State::Finished;
                            return Exec::Done;
                        }
                        let _ = popped;
                        let caller = self.frames.last_mut().expect("caller frame exists");
                        // pending_result lives on the caller: set by the call op.
                        if let Some(dest) = caller.pending_result.take() {
                            caller.vregs[dest.0 as usize] =
                                ret.expect("callee signature guarantees a value");
                        }
                        caller.op_idx += 1;
                    }
                }
                continue;
            }

            let op = &block.ops[frame.op_idx];
            fuel -= 1;
            match &op.kind {
                OpKind::Const(v) => {
                    let dest = op.result.expect("const has a result");
                    frame.vregs[dest.0 as usize] = wrap_i32(*v);
                }
                OpKind::Copy => {
                    let dest = op.result.expect("copy has a result");
                    frame.vregs[dest.0 as usize] = frame.vregs[op.args[0].0 as usize];
                }
                OpKind::Un(un) => {
                    let a = frame.vregs[op.args[0].0 as usize];
                    let dest = op.result.expect("unary has a result");
                    frame.vregs[dest.0 as usize] = match un {
                        UnOp::Neg => wrap_i32(a.wrapping_neg()),
                        UnOp::Not => i64::from(a == 0),
                        UnOp::BitNot => wrap_i32(!a),
                    };
                }
                OpKind::Bin(bin) => {
                    let a = frame.vregs[op.args[0].0 as usize];
                    let b = frame.vregs[op.args[1].0 as usize];
                    let dest = op.result.expect("binary has a result");
                    match eval_binop(*bin, a, b) {
                        Some(v) => frame.vregs[dest.0 as usize] = v,
                        None => {
                            debug_assert!(matches!(bin, BinOp::Div | BinOp::Rem));
                            self.state = State::Trapped;
                            return Exec::Trap(Trap::DivByZero);
                        }
                    }
                }
                OpKind::Load { array } => {
                    let index = frame.vregs[op.args[0].0 as usize];
                    match self.mem_addr(*array, index) {
                        Ok((addr, slot)) => {
                            let value = match slot {
                                Slot::Global(i) => self.globals[i],
                                Slot::Local(i) => {
                                    self.frames.last().expect("frame exists").locals[i]
                                }
                            };
                            let frame = self.frames.last_mut().expect("frame exists");
                            let dest = op.result.expect("load has a result");
                            frame.vregs[dest.0 as usize] = value;
                            self.stats.mem_accesses += 1;
                            hook.on_mem(addr, false);
                        }
                        Err(trap) => {
                            self.state = State::Trapped;
                            return Exec::Trap(trap);
                        }
                    }
                }
                OpKind::Store { array } => {
                    let index = frame.vregs[op.args[0].0 as usize];
                    let value = frame.vregs[op.args[1].0 as usize];
                    match self.mem_addr(*array, index) {
                        Ok((addr, slot)) => {
                            match slot {
                                Slot::Global(i) => self.globals[i] = value,
                                Slot::Local(i) => {
                                    self.frames.last_mut().expect("frame exists").locals[i] = value
                                }
                            }
                            self.stats.mem_accesses += 1;
                            hook.on_mem(addr, true);
                        }
                        Err(trap) => {
                            self.state = State::Trapped;
                            return Exec::Trap(trap);
                        }
                    }
                }
                OpKind::Output => {
                    let value = frame.vregs[op.args[0].0 as usize];
                    self.outputs.push(value);
                }
                OpKind::ChanRecv { chan } => {
                    self.state = State::AwaitRecv(*chan);
                    return Exec::RecvPending(*chan);
                }
                OpKind::ChanSend { chan } => {
                    let value = frame.vregs[op.args[0].0 as usize];
                    self.state = State::AwaitSend(*chan);
                    return Exec::SendPending(*chan, value);
                }
                OpKind::Call { func: callee } => {
                    let callee = *callee;
                    let args: Vec<i64> =
                        op.args.iter().map(|a| frame.vregs[a.0 as usize]).collect();
                    frame.pending_result = op.result;
                    if self.frames.len() >= MAX_FRAMES {
                        self.state = State::Trapped;
                        return Exec::Trap(Trap::StackOverflow);
                    }
                    self.stats.ops += 1;
                    self.stats.calls += 1;
                    self.push_frame(callee, &args);
                    let new_frame = self.frames.last().expect("just pushed");
                    self.stats.blocks += 1;
                    hook.on_block(new_frame.func, new_frame.block);
                    continue;
                }
            }
            self.stats.ops += 1;
            let frame = self.frames.last_mut().expect("frame exists");
            frame.op_idx += 1;
        }
    }

    fn push_frame(&mut self, func_id: FuncId, args: &[i64]) {
        let func = &self.module.functions[func_id.0 as usize];
        assert_eq!(
            args.len(),
            func.params.len(),
            "call to `{}` with wrong argument count",
            func.name
        );
        let mut vregs = vec![0i64; func.num_vregs as usize];
        for (reg, &value) in func.params.iter().zip(args) {
            vregs[reg.0 as usize] = wrap_i32(value);
        }
        let frame_words = self.layout.frame_words[func_id.0 as usize] as usize;
        let mut locals = vec![0i64; frame_words];
        for &aid in &func.local_arrays {
            let base = (self.layout.array_base[aid.0 as usize] / WORD_BYTES) as usize;
            for (j, &v) in self.module.arrays[aid.0 as usize].init.iter().enumerate() {
                locals[base + j] = wrap_i32(v);
            }
        }
        // Stack grows down from STACK_BASE; each nested frame sits below its
        // caller. Only used for hook addresses, not for storage.
        let parent_base = self.frames.last().map_or(STACK_BASE, |f| f.frame_base);
        let frame_base = parent_base - (frame_words as u32) * WORD_BYTES;
        self.frames.push(Frame {
            func: func_id,
            block: func.entry(),
            op_idx: 0,
            vregs,
            locals,
            frame_base,
            pending_result: None,
        });
    }

    /// Resolves an array access to an absolute byte address and a storage
    /// slot, bounds-checked.
    fn mem_addr(&self, array: crate::ir::ArrayId, index: i64) -> Result<(u32, Slot), Trap> {
        let data = &self.module.arrays[array.0 as usize];
        if index < 0 || index as usize >= data.len {
            return Err(Trap::OutOfBounds { array: data.name.clone(), index, len: data.len });
        }
        let base = self.layout.array_base[array.0 as usize];
        match data.scope {
            ArrayScope::Global => {
                let addr = base + (index as u32) * WORD_BYTES;
                let slot = ((addr - GLOBALS_BASE) / WORD_BYTES) as usize;
                Ok((addr, Slot::Global(slot)))
            }
            ArrayScope::Local(_) => {
                let frame = self.frames.last().expect("local access has a frame");
                let addr = frame.frame_base + base + (index as u32) * WORD_BYTES;
                let slot = (base / WORD_BYTES) as usize + index as usize;
                Ok((addr, Slot::Local(slot)))
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Global(usize),
    Local(usize),
}
