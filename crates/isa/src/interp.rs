//! In-order functional interpreter (the *oracle*) and wrong-path execution.
//!
//! The oracle [`Machine`] executes the correct path in program order and
//! produces fully resolved [`DynUop`]s (operands, addresses, results, branch
//! outcomes). A [`WrongPath`] is a fork of the register state at a
//! mispredicted branch that genuinely executes the other path; its stores go
//! to a copy-on-write overlay so architectural memory is never polluted —
//! one of the invariants the test suite checks.

use crate::mem::{MemOverlay, SparseMemory};
use crate::op::{BranchKind, BranchOutcome, DynUop, MemRef, MoveWidth, Op, Operand, UopKind};
use crate::program::Program;
use regshare_types::hasher::mix64;
use regshare_types::{ArchReg, HistorySnapshot, RegClass, SeqNum};
use std::sync::Arc;

/// One recorded oracle step: the resolved micro-op plus the post-step
/// control state needed to replay it onto a [`Machine`] via
/// [`Machine::replay_step`] without re-decoding or re-executing.
#[derive(Debug, Clone)]
pub struct TracedStep {
    /// The fully resolved micro-op, exactly as [`Machine::step`] returned it.
    pub uop: DynUop,
    /// The machine's instruction pointer after the step.
    pub next_ip: u32,
    /// Whether the machine was halted after the step.
    pub halted: bool,
}

/// Architectural register state plus control state that a wrong-path fork
/// must capture (everything except memory).
#[derive(Debug, Clone)]
pub struct ForkState {
    /// Register values.
    pub regs: [u64; ArchReg::COUNT],
    /// Return-address stack (static indices).
    pub ret_stack: Vec<u32>,
    /// Next static index to execute.
    pub ip: u32,
}

/// The in-order oracle interpreter.
///
/// # Examples
///
/// ```
/// use regshare_isa::{Machine, Op, Operand, AluOp};
/// use regshare_types::ArchReg;
/// use regshare_isa::program::ProgramBuilder;
/// use std::sync::Arc;
///
/// let mut b = ProgramBuilder::new();
/// b.push(Op::LoadImm { dst: ArchReg::int(1), imm: 3 });
/// b.push(Op::Halt);
/// let mut m = Machine::new(Arc::new(b.build()));
/// assert_eq!(m.step().result, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    program: Arc<Program>,
    regs: [u64; ArchReg::COUNT],
    mem: SparseMemory,
    ret_stack: Vec<u32>,
    ip: u32,
    seq: u64,
    halted: bool,
}

/// Memory access port abstracting oracle memory vs. wrong-path overlays.
trait MemPort {
    fn read(&mut self, addr: u64, size: u8) -> u64;
    fn write(&mut self, addr: u64, size: u8, value: u64);
}

impl MemPort for SparseMemory {
    fn read(&mut self, addr: u64, size: u8) -> u64 {
        SparseMemory::read(self, addr, size)
    }
    fn write(&mut self, addr: u64, size: u8, value: u64) {
        SparseMemory::write(self, addr, size, value)
    }
}

/// Wrong-path port: reads fall through to the frozen oracle memory, writes
/// land in the private overlay.
struct OverlayPort<'a> {
    overlay: &'a mut MemOverlay,
    base: &'a SparseMemory,
}

impl MemPort for OverlayPort<'_> {
    fn read(&mut self, addr: u64, size: u8) -> u64 {
        self.overlay.read(self.base, addr, size)
    }
    fn write(&mut self, addr: u64, size: u8, value: u64) {
        self.overlay.write(addr, size, value)
    }
}

/// Decodes and executes `op`, with reads/writes routed through a [`MemPort`]
/// so the same logic serves the oracle and wrong-path machines.
#[allow(clippy::too_many_arguments)]
fn exec_op(
    op: &Op,
    sidx: u32,
    pc: u64,
    regs: &mut [u64; ArchReg::COUNT],
    ret_stack: &mut Vec<u32>,
    program_len: u32,
    mem: &mut dyn MemPort,
) -> (DynUop, u32, bool) {
    let rd = |regs: &[u64; ArchReg::COUNT], r: ArchReg| regs[r.flat()];
    let operand = |regs: &[u64; ArchReg::COUNT], o: Operand| match o {
        Operand::Reg(r) => rd(regs, r),
        Operand::Imm(v) => v,
    };
    let op_src = |o: Operand| match o {
        Operand::Reg(r) => Some(r),
        Operand::Imm(_) => None,
    };
    let fallthrough = if sidx + 1 < program_len { sidx + 1 } else { 0 };

    let mut uop = DynUop {
        seq: SeqNum(0), // assigned by caller
        sidx,
        pc,
        kind: UopKind::IntAlu,
        srcs: [None, None, None],
        dst: None,
        mem: None,
        result: 0,
        branch: None,
        wrong_path: false,
        history: HistorySnapshot::default(),
    };
    let mut next = fallthrough;
    let mut halt = false;

    match *op {
        Op::IntAlu {
            op: a,
            dst,
            src1,
            src2,
        } => {
            uop.kind = UopKind::IntAlu;
            uop.srcs = [Some(src1), op_src(src2), None];
            uop.dst = Some(dst);
            uop.result = a.apply(rd(regs, src1), operand(regs, src2));
            regs[dst.flat()] = uop.result;
        }
        Op::IntMul { dst, src1, src2 } => {
            uop.kind = UopKind::IntMul;
            uop.srcs = [Some(src1), op_src(src2), None];
            uop.dst = Some(dst);
            uop.result = rd(regs, src1).wrapping_mul(operand(regs, src2));
            regs[dst.flat()] = uop.result;
        }
        Op::IntDiv { dst, src1, src2 } => {
            uop.kind = UopKind::IntDiv;
            uop.srcs = [Some(src1), op_src(src2), None];
            uop.dst = Some(dst);
            let d = operand(regs, src2);
            uop.result = rd(regs, src1).checked_div(d).unwrap_or(u64::MAX);
            regs[dst.flat()] = uop.result;
        }
        Op::FpAdd { dst, src1, src2 } => {
            uop.kind = UopKind::FpAdd;
            uop.srcs = [Some(src1), Some(src2), None];
            uop.dst = Some(dst);
            // Deterministic dataflow token, not IEEE arithmetic (see crate docs).
            uop.result = rd(regs, src1).wrapping_add(rd(regs, src2)).rotate_left(7) ^ 0x9e37;
            regs[dst.flat()] = uop.result;
        }
        Op::FpMul { dst, src1, src2 } => {
            uop.kind = UopKind::FpMul;
            uop.srcs = [Some(src1), Some(src2), None];
            uop.dst = Some(dst);
            uop.result = rd(regs, src1)
                .wrapping_mul(rd(regs, src2) | 1)
                .rotate_left(13)
                ^ 0x51c7;
            regs[dst.flat()] = uop.result;
        }
        Op::FpDiv { dst, src1, src2 } => {
            uop.kind = UopKind::FpDiv;
            uop.srcs = [Some(src1), Some(src2), None];
            uop.dst = Some(dst);
            let d = rd(regs, src2) | 1;
            uop.result = (rd(regs, src1) / d).rotate_left(3) ^ 0x2545;
            regs[dst.flat()] = uop.result;
        }
        Op::MovInt { dst, src, width } => {
            uop.kind = UopKind::Move {
                width,
                class: RegClass::Int,
            };
            uop.dst = Some(dst);
            uop.result = if width.is_merge() {
                uop.srcs = [Some(src), Some(dst), None]; // merge reads old dst
                (rd(regs, dst) & !width.mask()) | (rd(regs, src) & width.mask())
            } else {
                // 32-bit moves are value-identical to 64-bit moves: on x86_64
                // any 32-bit producer already zeroed the upper half, which is
                // the invariant that makes W32 moves eliminable (§2.1).
                uop.srcs = [Some(src), None, None];
                rd(regs, src)
            };
            regs[dst.flat()] = uop.result;
        }
        Op::MovFp { dst, src } => {
            uop.kind = UopKind::Move {
                width: MoveWidth::W64,
                class: RegClass::Fp,
            };
            uop.srcs = [Some(src), None, None];
            uop.dst = Some(dst);
            uop.result = rd(regs, src);
            regs[dst.flat()] = uop.result;
        }
        Op::LoadImm { dst, imm } => {
            uop.kind = UopKind::IntAlu;
            uop.dst = Some(dst);
            uop.result = imm;
            regs[dst.flat()] = imm;
        }
        Op::Load {
            dst,
            base,
            offset,
            size,
        } => {
            uop.kind = UopKind::Load;
            uop.srcs = [Some(base), None, None];
            uop.dst = Some(dst);
            let addr = rd(regs, base).wrapping_add(offset as u64) & !(size as u64 - 1);
            uop.mem = Some(MemRef {
                addr,
                size,
                is_store: false,
            });
            uop.result = mem.read(addr, size);
            regs[dst.flat()] = uop.result;
        }
        Op::Store {
            data,
            base,
            offset,
            size,
        } => {
            uop.kind = UopKind::Store;
            uop.srcs = [Some(base), Some(data), None];
            let addr = rd(regs, base).wrapping_add(offset as u64) & !(size as u64 - 1);
            uop.mem = Some(MemRef {
                addr,
                size,
                is_store: true,
            });
            let v = rd(regs, data);
            uop.result = v & if size == 8 {
                u64::MAX
            } else {
                (1u64 << (size * 8)) - 1
            };
            mem.write(addr, size, v);
        }
        Op::CondBranch {
            cond,
            src1,
            src2,
            target,
        } => {
            uop.kind = UopKind::Branch(BranchKind::Conditional);
            uop.srcs = [Some(src1), op_src(src2), None];
            let taken = cond.eval(rd(regs, src1), operand(regs, src2));
            next = if taken { target } else { fallthrough };
            uop.branch = Some(BranchOutcome {
                kind: BranchKind::Conditional,
                taken,
                next_sidx: next,
                fallthrough_sidx: fallthrough,
            });
        }
        Op::Jump { target } => {
            uop.kind = UopKind::Branch(BranchKind::Direct);
            next = target;
            uop.branch = Some(BranchOutcome {
                kind: BranchKind::Direct,
                taken: true,
                next_sidx: next,
                fallthrough_sidx: fallthrough,
            });
        }
        Op::Call { target } => {
            uop.kind = UopKind::Branch(BranchKind::Call);
            ret_stack.push(fallthrough);
            if ret_stack.len() > 64 {
                ret_stack.remove(0); // bound runaway recursion in synthetic code
            }
            next = target;
            uop.branch = Some(BranchOutcome {
                kind: BranchKind::Call,
                taken: true,
                next_sidx: next,
                fallthrough_sidx: fallthrough,
            });
        }
        Op::Ret => {
            uop.kind = UopKind::Branch(BranchKind::Return);
            next = ret_stack.pop().unwrap_or(0);
            uop.branch = Some(BranchOutcome {
                kind: BranchKind::Return,
                taken: true,
                next_sidx: next,
                fallthrough_sidx: fallthrough,
            });
        }
        Op::Nop => {
            uop.kind = UopKind::IntAlu;
        }
        Op::Halt => {
            uop.kind = UopKind::IntAlu;
            halt = true;
            next = sidx; // spin in place
        }
    }
    (uop, next, halt)
}

impl Machine {
    /// Creates a machine at the program entry (static index 0) with zeroed
    /// registers and pristine memory.
    pub fn new(program: Arc<Program>) -> Machine {
        Machine {
            program,
            regs: [0; ArchReg::COUNT],
            mem: SparseMemory::new(),
            ret_stack: Vec::new(),
            ip: 0,
            seq: 0,
            halted: false,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Read-only view of architectural memory.
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    /// Current architectural register values.
    pub fn regs(&self) -> &[u64; ArchReg::COUNT] {
        &self.regs
    }

    /// Sequence number the *next* step will produce.
    pub fn next_seq(&self) -> SeqNum {
        SeqNum(self.seq)
    }

    /// Whether a `Halt` has been executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Executes one instruction in program order and returns its
    /// fully resolved micro-op. After a `Halt`, yields `Nop`-like µ-ops
    /// pinned at the halt instruction.
    pub fn step(&mut self) -> DynUop {
        let sidx = self.ip;
        let pc = self.program.pc_of(sidx);
        let program = &self.program;
        let op = if self.halted {
            &Op::Nop
        } else {
            program.op(sidx)
        };
        let (mut uop, next, halt) = exec_op(
            op,
            sidx,
            pc,
            &mut self.regs,
            &mut self.ret_stack,
            program.len() as u32,
            &mut self.mem,
        );
        uop.seq = SeqNum(self.seq);
        self.seq += 1;
        if !self.halted {
            self.ip = next;
            self.halted = halt;
        }
        uop
    }

    /// Like [`Machine::step`], additionally capturing the post-step control
    /// state so the stream cache can later [`Machine::replay_step`] the
    /// record onto a fresh machine without re-decoding.
    pub fn step_traced(&mut self) -> TracedStep {
        let uop = self.step();
        TracedStep {
            uop,
            next_ip: self.ip,
            halted: self.halted,
        }
    }

    /// Applies a previously recorded step's architectural effects without
    /// re-decoding or re-executing the instruction. Register and memory
    /// writes, return-stack pushes/pops and control flow come straight from
    /// the record, leaving this machine byte-identical to one that executed
    /// the step via [`Machine::step`] — the record is deterministic in
    /// `(program, seq)`, which is what makes cached streams safe to share.
    pub fn replay_step(&mut self, step: &TracedStep) {
        let uop = &step.uop;
        debug_assert_eq!(self.seq, uop.seq.0, "replay out of position");
        debug_assert!(!self.halted, "post-halt steps are never recorded");
        if let Some(dst) = uop.dst {
            self.regs[dst.flat()] = uop.result;
        }
        if let Some(m) = uop.mem {
            if m.is_store {
                // `result` is the size-masked store value and `write` only
                // touches `size` bytes, so the bytes written are identical
                // to the original execution's.
                self.mem.write(m.addr, m.size, uop.result);
            }
        }
        if let Some(b) = uop.branch {
            match b.kind {
                BranchKind::Call => {
                    self.ret_stack.push(b.fallthrough_sidx);
                    if self.ret_stack.len() > 64 {
                        self.ret_stack.remove(0); // mirror exec_op's recursion bound
                    }
                }
                BranchKind::Return => {
                    self.ret_stack.pop();
                }
                BranchKind::Conditional | BranchKind::Direct => {}
            }
        }
        self.seq += 1;
        self.ip = step.next_ip;
        self.halted = step.halted;
    }

    /// Steps `n` µ-ops and folds their `(pc, result)` pairs into the
    /// architectural digest, starting from zero — exactly the fold the
    /// out-of-order simulator applies to its committed trace, so an OoO run
    /// of the same program over the same window must reproduce this value.
    /// This is the oracle half of every differential check (the fixed
    /// oracle tests and the fuzz harness share it).
    pub fn run_digest(&mut self, n: u64) -> u64 {
        let mut digest = 0u64;
        for _ in 0..n {
            let u = self.step();
            digest = mix64(digest ^ u.pc).wrapping_add(mix64(u.result));
        }
        digest
    }

    /// Captures the fork state (registers, return stack) *after* the most
    /// recent step, for wrong-path execution starting at `start_sidx`.
    pub fn fork_state(&self, start_sidx: u32) -> ForkState {
        ForkState {
            regs: self.regs,
            ret_stack: self.ret_stack.clone(),
            ip: start_sidx.min(self.program.len() as u32 - 1),
        }
    }
}

/// A genuine wrong-path execution context, forked from oracle state at a
/// mispredicted branch.
///
/// Wrong-path loads read through to the oracle's memory; wrong-path stores
/// go to a private overlay. Branches on the wrong path follow the forked
/// machine's own computed outcomes.
#[derive(Debug, Clone)]
pub struct WrongPath {
    program: Arc<Program>,
    state: ForkState,
    overlay: MemOverlay,
    next_seq: u64,
    halted: bool,
}

impl WrongPath {
    /// Creates a wrong path from a captured fork state. `next_seq` numbers
    /// the first wrong-path micro-op.
    pub fn new(program: Arc<Program>, state: ForkState, next_seq: SeqNum) -> WrongPath {
        WrongPath {
            program,
            state,
            overlay: MemOverlay::new(),
            next_seq: next_seq.0,
            halted: false,
        }
    }

    /// Executes one wrong-path instruction against `oracle_mem`.
    pub fn step(&mut self, oracle_mem: &SparseMemory) -> DynUop {
        let sidx = self.state.ip;
        let pc = self.program.pc_of(sidx);
        let program = &self.program;
        let op = if self.halted {
            &Op::Nop
        } else {
            program.op(sidx)
        };
        let mut port = OverlayPort {
            overlay: &mut self.overlay,
            base: oracle_mem,
        };
        let (mut uop, next, halt) = exec_op(
            op,
            sidx,
            pc,
            &mut self.state.regs,
            &mut self.state.ret_stack,
            program.len() as u32,
            &mut port,
        );
        uop.seq = SeqNum(self.next_seq);
        uop.wrong_path = true;
        self.next_seq += 1;
        if !self.halted {
            self.state.ip = next;
            self.halted = halt;
        }
        uop
    }

    /// Bytes written by wrong-path stores (isolation diagnostics).
    pub fn overlay_bytes(&self) -> usize {
        self.overlay.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluOp, Cond};
    use crate::program::ProgramBuilder;

    fn r(i: usize) -> ArchReg {
        ArchReg::int(i)
    }

    fn build(ops: Vec<Op>) -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        for op in ops {
            b.push(op);
        }
        Arc::new(b.build())
    }

    #[test]
    fn loop_executes_and_terminates() {
        // r0 = 3; loop: r1 += r0; r0 -= 1; if r0 != 0 goto loop; halt
        let p = build(vec![
            Op::LoadImm { dst: r(0), imm: 3 },
            Op::IntAlu {
                op: AluOp::Add,
                dst: r(1),
                src1: r(1),
                src2: Operand::Reg(r(0)),
            },
            Op::IntAlu {
                op: AluOp::Sub,
                dst: r(0),
                src1: r(0),
                src2: Operand::Imm(1),
            },
            Op::CondBranch {
                cond: Cond::Ne,
                src1: r(0),
                src2: Operand::Imm(0),
                target: 1,
            },
            Op::Halt,
        ]);
        let mut m = Machine::new(p);
        let mut steps = 0;
        while !m.is_halted() && steps < 100 {
            m.step();
            steps += 1;
        }
        assert!(m.is_halted());
        assert_eq!(m.regs()[1], 3 + 2 + 1);
        // Post-halt steps are inert nops with advancing seq.
        let s0 = m.step();
        let s1 = m.step();
        assert_eq!(s1.seq.0, s0.seq.0 + 1);
        assert!(s1.dst.is_none());
    }

    #[test]
    fn store_load_round_trip_through_uops() {
        let p = build(vec![
            Op::LoadImm {
                dst: r(0),
                imm: 0x8000,
            },
            Op::LoadImm {
                dst: r(1),
                imm: 0xfeed,
            },
            Op::Store {
                data: r(1),
                base: r(0),
                offset: 8,
                size: 8,
            },
            Op::Load {
                dst: r(2),
                base: r(0),
                offset: 8,
                size: 8,
            },
            Op::Halt,
        ]);
        let mut m = Machine::new(p);
        for _ in 0..2 {
            m.step();
        }
        let st = m.step();
        assert!(st.is_store());
        assert_eq!(st.mem.unwrap().addr, 0x8008);
        assert_eq!(st.store_data_reg(), Some(r(1)));
        let ld = m.step();
        assert!(ld.is_load());
        assert_eq!(ld.result, 0xfeed);
        assert_eq!(m.regs()[2], 0xfeed);
    }

    #[test]
    fn merge_move_reads_old_destination() {
        let p = build(vec![
            Op::LoadImm {
                dst: r(0),
                imm: 0x1122_3344_5566_7788,
            },
            Op::LoadImm {
                dst: r(1),
                imm: 0xaabb,
            },
            Op::MovInt {
                dst: r(0),
                src: r(1),
                width: MoveWidth::W16,
            },
            Op::Halt,
        ]);
        let mut m = Machine::new(p);
        m.step();
        m.step();
        let mv = m.step();
        assert_eq!(mv.srcs[1], Some(r(0)), "merge move must read old dst");
        assert_eq!(mv.result, 0x1122_3344_5566_aabb);
        assert!(!mv.kind.eliminable_move());
    }

    #[test]
    fn full_move_does_not_read_destination() {
        let p = build(vec![
            Op::LoadImm { dst: r(1), imm: 7 },
            Op::MovInt {
                dst: r(0),
                src: r(1),
                width: MoveWidth::W64,
            },
            Op::Halt,
        ]);
        let mut m = Machine::new(p);
        m.step();
        let mv = m.step();
        assert_eq!(mv.srcs, [Some(r(1)), None, None]);
        assert!(mv.kind.eliminable_move());
        assert_eq!(mv.result, 7);
    }

    #[test]
    fn call_ret_flow() {
        // 0: call 3 ; 1: loadimm r2, 9 ; 2: halt ; 3: loadimm r1, 5 ; 4: ret
        let p = build(vec![
            Op::Call { target: 3 },
            Op::LoadImm { dst: r(2), imm: 9 },
            Op::Halt,
            Op::LoadImm { dst: r(1), imm: 5 },
            Op::Ret,
        ]);
        let mut m = Machine::new(p);
        let call = m.step();
        assert_eq!(call.branch.unwrap().kind, BranchKind::Call);
        assert_eq!(call.branch.unwrap().next_sidx, 3);
        m.step(); // loadimm r1
        let ret = m.step();
        assert_eq!(ret.branch.unwrap().kind, BranchKind::Return);
        assert_eq!(ret.branch.unwrap().next_sidx, 1);
        m.step(); // loadimm r2
        assert_eq!(m.regs()[1], 5);
        assert_eq!(m.regs()[2], 9);
    }

    #[test]
    fn wrong_path_is_isolated_and_really_executes() {
        // Correct path takes the branch; wrong path falls through and stores.
        let p = build(vec![
            Op::LoadImm { dst: r(0), imm: 1 },
            Op::LoadImm {
                dst: r(5),
                imm: 0x9000,
            },
            Op::CondBranch {
                cond: Cond::BitSet,
                src1: r(0),
                src2: Operand::Imm(0),
                target: 6,
            },
            // wrong path:
            Op::LoadImm {
                dst: r(1),
                imm: 0x42,
            },
            Op::Store {
                data: r(1),
                base: r(5),
                offset: 0,
                size: 8,
            },
            Op::Load {
                dst: r(2),
                base: r(5),
                offset: 0,
                size: 8,
            },
            Op::Halt,
        ]);
        let mut m = Machine::new(p.clone());
        m.step();
        m.step();
        let br = m.step();
        assert!(br.branch.unwrap().taken);
        // Fork down the not-taken (wrong) path.
        let fork = m.fork_state(br.branch.unwrap().fallthrough_sidx);
        let mut wp = WrongPath::new(p, fork, br.seq.next());
        let w1 = wp.step(m.memory()); // loadimm
        assert!(w1.wrong_path);
        assert_eq!(w1.seq, br.seq.next());
        let w2 = wp.step(m.memory()); // store
        assert!(w2.is_store());
        let w3 = wp.step(m.memory()); // load sees the overlay value
        assert_eq!(w3.result, 0x42);
        // Architectural memory is untouched.
        assert_ne!(m.memory().read(0x9000, 8), 0x42);
        assert_eq!(wp.overlay_bytes(), 8);
    }

    #[test]
    fn div_by_zero_is_deterministic() {
        let p = build(vec![
            Op::IntDiv {
                dst: r(0),
                src1: r(1),
                src2: Operand::Imm(0),
            },
            Op::Halt,
        ]);
        let mut m = Machine::new(p);
        assert_eq!(m.step().result, u64::MAX);
    }
}
