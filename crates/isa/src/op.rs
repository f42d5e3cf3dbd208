//! Micro-op definitions: static operations and decoded dynamic micro-ops.

use regshare_types::{Addr, ArchReg, HistorySnapshot, RegClass, SeqNum};

/// Integer ALU operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by `src2 & 63`.
    Shl,
    /// Logical shift right by `src2 & 63`.
    Shr,
}

impl AluOp {
    /// Applies the operation.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a << (b & 63),
            AluOp::Shr => a >> (b & 63),
        }
    }
}

/// Branch condition selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `src1 == src2`
    Eq,
    /// `src1 != src2`
    Ne,
    /// `src1 < src2` (unsigned)
    Lt,
    /// `src1 >= src2` (unsigned)
    Ge,
    /// `src1 & 1 != 0`
    BitSet,
}

impl Cond {
    /// Evaluates the condition.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
            Cond::BitSet => a & 1 != 0,
        }
    }
}

/// A register or immediate second operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read a register.
    Reg(ArchReg),
    /// Use an immediate value.
    Imm(u64),
}

/// Width of a register-to-register move, governing move-elimination
/// eligibility exactly as on x86_64 (§2.1 of the paper):
/// 32/64-bit moves fully overwrite the destination and are eliminable;
/// 8/16-bit moves merge into the old destination value (extra dependency)
/// and are not eliminable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveWidth {
    /// 8-bit merge move (not eliminable).
    W8,
    /// 16-bit merge move (not eliminable).
    W16,
    /// 32-bit move with zero extension (eliminable).
    W32,
    /// Full 64-bit move (eliminable).
    W64,
}

impl MoveWidth {
    /// Whether a move of this width fully overwrites its destination and is
    /// therefore a move-elimination candidate.
    #[inline]
    pub fn is_eliminable(self) -> bool {
        matches!(self, MoveWidth::W32 | MoveWidth::W64)
    }

    /// Whether the move merges into (i.e. also reads) its old destination.
    #[inline]
    pub fn is_merge(self) -> bool {
        !self.is_eliminable()
    }

    /// Byte mask kept from the source.
    #[inline]
    pub fn mask(self) -> u64 {
        match self {
            MoveWidth::W8 => 0xff,
            MoveWidth::W16 => 0xffff,
            MoveWidth::W32 => 0xffff_ffff,
            MoveWidth::W64 => u64::MAX,
        }
    }
}

/// A static operation in a [`crate::program::Program`].
///
/// Branch/jump/call targets are static instruction indices within the
/// program; the interpreter and front-end convert them to PCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Integer ALU operation, 1-cycle class.
    IntAlu {
        /// Operation selector.
        op: AluOp,
        /// Destination register (INT).
        dst: ArchReg,
        /// First source.
        src1: ArchReg,
        /// Second source (register or immediate).
        src2: Operand,
    },
    /// Integer multiply (3-cycle pipelined class).
    IntMul {
        /// Destination register (INT).
        dst: ArchReg,
        /// First source.
        src1: ArchReg,
        /// Second source.
        src2: Operand,
    },
    /// Integer divide (25-cycle unpipelined class).
    IntDiv {
        /// Destination register (INT).
        dst: ArchReg,
        /// First source.
        src1: ArchReg,
        /// Second source.
        src2: Operand,
    },
    /// FP add/sub class (3-cycle pipelined). Values are deterministic u64
    /// dataflow tokens, not IEEE arithmetic — only dependencies and timing
    /// matter to the experiments.
    FpAdd {
        /// Destination register (FP).
        dst: ArchReg,
        /// First source.
        src1: ArchReg,
        /// Second source.
        src2: ArchReg,
    },
    /// FP multiply (5-cycle pipelined class).
    FpMul {
        /// Destination register (FP).
        dst: ArchReg,
        /// First source.
        src1: ArchReg,
        /// Second source.
        src2: ArchReg,
    },
    /// FP divide (10-cycle unpipelined class).
    FpDiv {
        /// Destination register (FP).
        dst: ArchReg,
        /// First source.
        src1: ArchReg,
        /// Second source.
        src2: ArchReg,
    },
    /// Integer register-to-register move. Width decides ME eligibility.
    MovInt {
        /// Destination register (INT).
        dst: ArchReg,
        /// Source register (INT).
        src: ArchReg,
        /// Move width.
        width: MoveWidth,
    },
    /// FP register-to-register move (eliminable when FP ME is enabled).
    MovFp {
        /// Destination register (FP).
        dst: ArchReg,
        /// Source register (FP).
        src: ArchReg,
    },
    /// Load an immediate into a register (1-cycle ALU class).
    LoadImm {
        /// Destination register.
        dst: ArchReg,
        /// Immediate value.
        imm: u64,
    },
    /// Memory load: `dst = mem[base + offset]`, `size` bytes, zero-extended.
    Load {
        /// Destination register (INT or FP).
        dst: ArchReg,
        /// Base address register (INT).
        base: ArchReg,
        /// Signed displacement.
        offset: i64,
        /// Access size in bytes (1, 2, 4, 8); address must be size-aligned.
        size: u8,
    },
    /// Memory store: `mem[base + offset] = data`, `size` bytes.
    Store {
        /// Data register (INT or FP).
        data: ArchReg,
        /// Base address register (INT).
        base: ArchReg,
        /// Signed displacement.
        offset: i64,
        /// Access size in bytes (1, 2, 4, 8); address must be size-aligned.
        size: u8,
    },
    /// Conditional branch to `target` when the condition holds.
    CondBranch {
        /// Condition selector.
        cond: Cond,
        /// First source.
        src1: ArchReg,
        /// Second source.
        src2: Operand,
        /// Static index of the taken target.
        target: u32,
    },
    /// Unconditional direct jump.
    Jump {
        /// Static index of the target.
        target: u32,
    },
    /// Direct call; pushes the return index on the return stack.
    Call {
        /// Static index of the callee.
        target: u32,
    },
    /// Return to the most recent call site.
    Ret,
    /// No-operation (1-cycle ALU class, no registers).
    Nop,
    /// Stops the machine; subsequent steps yield `Nop`s.
    Halt,
}

/// Functional-unit class of a micro-op, used by the issue stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// 1-cycle integer ALU (also moves executed on an ALU, branches).
    IntAlu,
    /// 3-cycle pipelined integer multiply.
    IntMul,
    /// 25-cycle unpipelined integer divide.
    IntDiv,
    /// 3-cycle pipelined FP add.
    FpAdd,
    /// 5-cycle pipelined FP multiply.
    FpMul,
    /// 10-cycle unpipelined FP divide.
    FpDiv,
    /// Load port (AGU + cache access).
    Load,
    /// Store port (AGU).
    Store,
}

/// Kind of a branch, for predictor bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct jump.
    Direct,
    /// Direct call (pushes the RAS).
    Call,
    /// Return (pops the RAS).
    Return,
}

/// Resolved control-flow outcome of a branch micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// What sort of branch this is.
    pub kind: BranchKind,
    /// Whether the branch was architecturally taken.
    pub taken: bool,
    /// Static index of the next instruction actually executed.
    pub next_sidx: u32,
    /// Static index of the fall-through instruction.
    pub fallthrough_sidx: u32,
}

/// A memory reference carried by a load or store micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Resolved virtual address.
    pub addr: Addr,
    /// Access size in bytes.
    pub size: u8,
    /// Whether this is a store.
    pub is_store: bool,
}

impl MemRef {
    /// Whether this access overlaps `other` (any shared byte).
    #[inline]
    pub fn overlaps(&self, other: &MemRef) -> bool {
        self.addr < other.addr + other.size as u64 && other.addr < self.addr + self.size as u64
    }

    /// Whether `self` is fully contained within `other`.
    #[inline]
    pub fn contained_in(&self, other: &MemRef) -> bool {
        self.addr >= other.addr && self.addr + self.size as u64 <= other.addr + other.size as u64
    }
}

/// Simplified micro-op kind used by the pipeline for policy decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopKind {
    /// Integer ALU / immediate load / nop.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// FP add class.
    FpAdd,
    /// FP multiply class.
    FpMul,
    /// FP divide class.
    FpDiv,
    /// Register move (candidate for move elimination depending on width).
    Move {
        /// Width class of the move.
        width: MoveWidth,
        /// Register class (INT moves vs FP moves).
        class: RegClass,
    },
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Any branch kind.
    Branch(BranchKind),
}

impl UopKind {
    /// The functional-unit class this micro-op issues to.
    #[inline]
    pub fn exec_class(self) -> ExecClass {
        match self {
            UopKind::IntAlu | UopKind::Branch(_) => ExecClass::IntAlu,
            UopKind::IntMul => ExecClass::IntMul,
            UopKind::IntDiv => ExecClass::IntDiv,
            UopKind::FpAdd => ExecClass::FpAdd,
            UopKind::FpMul => ExecClass::FpMul,
            UopKind::FpDiv => ExecClass::FpDiv,
            UopKind::Move {
                class: RegClass::Int,
                ..
            } => ExecClass::IntAlu,
            UopKind::Move {
                class: RegClass::Fp,
                ..
            } => ExecClass::FpAdd,
            UopKind::Load => ExecClass::Load,
            UopKind::Store => ExecClass::Store,
        }
    }

    /// Whether this is a register move that move elimination may target
    /// (width permitting; the ME policy also checks configuration).
    #[inline]
    pub fn eliminable_move(self) -> bool {
        matches!(self, UopKind::Move { width, .. } if width.is_eliminable())
    }
}

/// A decoded dynamic micro-op, produced by the interpreter and consumed by
/// the pipeline. Carries resolved oracle values so Speculative Memory
/// Bypassing validation can compare real data.
#[derive(Debug, Clone)]
pub struct DynUop {
    /// Program-order sequence number (the paper's CSN on the correct path).
    /// Wrong-path micro-ops get sequence numbers above the fork point but
    /// are flagged via [`DynUop::wrong_path`].
    pub seq: SeqNum,
    /// Static instruction index.
    pub sidx: u32,
    /// Program counter.
    pub pc: Addr,
    /// Kind, for pipeline policy.
    pub kind: UopKind,
    /// Source architectural registers (up to 3: e.g. store base + data, or
    /// merge-move old destination).
    pub srcs: [Option<ArchReg>; 3],
    /// Destination architectural register, if any.
    pub dst: Option<ArchReg>,
    /// Memory reference, for loads/stores.
    pub mem: Option<MemRef>,
    /// Oracle result value (register result, or loaded value).
    pub result: u64,
    /// Branch outcome, for branches.
    pub branch: Option<BranchOutcome>,
    /// True when fetched down a mispredicted path.
    pub wrong_path: bool,
    /// Front-end history snapshot at fetch, for history-indexed predictors.
    pub history: HistorySnapshot,
}

impl DynUop {
    /// Iterator over the present source registers.
    #[inline]
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// Whether the µ-op is a load.
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self.kind, UopKind::Load)
    }

    /// Whether the µ-op is a store.
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self.kind, UopKind::Store)
    }

    /// The data source register of a store, if this is a store.
    ///
    /// By convention stores place the base register in `srcs[0]` and the
    /// data register in `srcs[1]`.
    #[inline]
    pub fn store_data_reg(&self) -> Option<ArchReg> {
        if self.is_store() {
            self.srcs[1]
        } else {
            None
        }
    }
}

/// Implements [`Snap`](regshare_types::snapshot::Snap) for a fieldless
/// enum (or one whose payloads are listed per variant would need a hand
/// impl) via a stable `u8` tag table.
macro_rules! snap_enum {
    ($ty:ty, $what:literal, { $($tag:literal => $variant:path),* $(,)? }) => {
        impl regshare_types::snapshot::Snap for $ty {
            fn encode(&self, w: &mut regshare_types::snapshot::SnapWriter) {
                let tag: u8 = match self {
                    $( $variant => $tag, )*
                };
                w.put_u8(tag);
            }
            fn decode(
                r: &mut regshare_types::snapshot::SnapReader<'_>,
            ) -> Result<Self, regshare_types::snapshot::SnapError> {
                match r.get_u8()? {
                    $( $tag => Ok($variant), )*
                    _ => Err(r.corrupt($what)),
                }
            }
        }
    };
}

snap_enum!(AluOp, "AluOp", {
    0 => AluOp::Add,
    1 => AluOp::Sub,
    2 => AluOp::And,
    3 => AluOp::Or,
    4 => AluOp::Xor,
    5 => AluOp::Shl,
    6 => AluOp::Shr,
});

snap_enum!(Cond, "Cond", {
    0 => Cond::Eq,
    1 => Cond::Ne,
    2 => Cond::Lt,
    3 => Cond::Ge,
    4 => Cond::BitSet,
});

snap_enum!(MoveWidth, "MoveWidth", {
    0 => MoveWidth::W8,
    1 => MoveWidth::W16,
    2 => MoveWidth::W32,
    3 => MoveWidth::W64,
});

snap_enum!(BranchKind, "BranchKind", {
    0 => BranchKind::Conditional,
    1 => BranchKind::Direct,
    2 => BranchKind::Call,
    3 => BranchKind::Return,
});

snap_enum!(ExecClass, "ExecClass", {
    0 => ExecClass::IntAlu,
    1 => ExecClass::IntMul,
    2 => ExecClass::IntDiv,
    3 => ExecClass::FpAdd,
    4 => ExecClass::FpMul,
    5 => ExecClass::FpDiv,
    6 => ExecClass::Load,
    7 => ExecClass::Store,
});

impl regshare_types::snapshot::Snap for Operand {
    fn encode(&self, w: &mut regshare_types::snapshot::SnapWriter) {
        match self {
            Operand::Reg(r) => {
                w.put_u8(0);
                r.encode(w);
            }
            Operand::Imm(v) => {
                w.put_u8(1);
                w.put_u64(*v);
            }
        }
    }
    fn decode(
        r: &mut regshare_types::snapshot::SnapReader<'_>,
    ) -> Result<Self, regshare_types::snapshot::SnapError> {
        match r.get_u8()? {
            0 => Ok(Operand::Reg(ArchReg::decode(r)?)),
            1 => Ok(Operand::Imm(r.get_u64()?)),
            _ => Err(r.corrupt("Operand")),
        }
    }
}

impl regshare_types::snapshot::Snap for UopKind {
    fn encode(&self, w: &mut regshare_types::snapshot::SnapWriter) {
        match self {
            UopKind::IntAlu => w.put_u8(0),
            UopKind::IntMul => w.put_u8(1),
            UopKind::IntDiv => w.put_u8(2),
            UopKind::FpAdd => w.put_u8(3),
            UopKind::FpMul => w.put_u8(4),
            UopKind::FpDiv => w.put_u8(5),
            UopKind::Move { width, class } => {
                w.put_u8(6);
                width.encode(w);
                class.encode(w);
            }
            UopKind::Load => w.put_u8(7),
            UopKind::Store => w.put_u8(8),
            UopKind::Branch(kind) => {
                w.put_u8(9);
                kind.encode(w);
            }
        }
    }
    fn decode(
        r: &mut regshare_types::snapshot::SnapReader<'_>,
    ) -> Result<Self, regshare_types::snapshot::SnapError> {
        match r.get_u8()? {
            0 => Ok(UopKind::IntAlu),
            1 => Ok(UopKind::IntMul),
            2 => Ok(UopKind::IntDiv),
            3 => Ok(UopKind::FpAdd),
            4 => Ok(UopKind::FpMul),
            5 => Ok(UopKind::FpDiv),
            6 => Ok(UopKind::Move {
                width: MoveWidth::decode(r)?,
                class: RegClass::decode(r)?,
            }),
            7 => Ok(UopKind::Load),
            8 => Ok(UopKind::Store),
            9 => Ok(UopKind::Branch(BranchKind::decode(r)?)),
            _ => Err(r.corrupt("UopKind")),
        }
    }
}

regshare_types::impl_snap!(BranchOutcome {
    kind,
    taken,
    next_sidx,
    fallthrough_sidx
});
regshare_types::impl_snap!(MemRef {
    addr,
    size,
    is_store
});
regshare_types::impl_snap!(DynUop {
    seq,
    sidx,
    pc,
    kind,
    srcs,
    dst,
    mem,
    result,
    branch,
    wrong_path,
    history,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_apply() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(3, 5), u64::MAX - 1);
        assert_eq!(AluOp::Shl.apply(1, 65), 2); // shift amount masked
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(4, 4));
        assert!(Cond::Ne.eval(4, 5));
        assert!(Cond::Lt.eval(4, 5));
        assert!(Cond::Ge.eval(5, 5));
        assert!(Cond::BitSet.eval(3, 0));
        assert!(!Cond::BitSet.eval(2, 0));
    }

    #[test]
    fn move_width_rules_match_x86() {
        assert!(MoveWidth::W64.is_eliminable());
        assert!(MoveWidth::W32.is_eliminable());
        assert!(!MoveWidth::W16.is_eliminable());
        assert!(!MoveWidth::W8.is_eliminable());
        assert!(MoveWidth::W8.is_merge());
        assert_eq!(MoveWidth::W32.mask(), 0xffff_ffff);
    }

    #[test]
    fn memref_overlap_and_containment() {
        let a = MemRef {
            addr: 100,
            size: 8,
            is_store: true,
        };
        let b = MemRef {
            addr: 104,
            size: 4,
            is_store: false,
        };
        let c = MemRef {
            addr: 108,
            size: 4,
            is_store: false,
        };
        assert!(b.overlaps(&a));
        assert!(b.contained_in(&a));
        assert!(!c.overlaps(&a));
        assert!(!a.contained_in(&b));
    }

    #[test]
    fn exec_class_mapping() {
        assert_eq!(UopKind::Load.exec_class(), ExecClass::Load);
        assert_eq!(
            UopKind::Branch(BranchKind::Conditional).exec_class(),
            ExecClass::IntAlu
        );
        assert_eq!(
            UopKind::Move {
                width: MoveWidth::W64,
                class: RegClass::Fp
            }
            .exec_class(),
            ExecClass::FpAdd
        );
        assert!(UopKind::Move {
            width: MoveWidth::W64,
            class: RegClass::Int
        }
        .eliminable_move());
        assert!(!UopKind::Move {
            width: MoveWidth::W8,
            class: RegClass::Int
        }
        .eliminable_move());
    }
}
