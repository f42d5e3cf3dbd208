//! Foundational types shared by every `regshare` crate.
//!
//! This crate defines the strongly-typed identifiers that flow between the
//! simulator subsystems (physical/architectural register names, sequence
//! numbers, cycle counts), the deterministic in-tree hasher used by all
//! simulator tables, and small utilities (saturating counters, geometric
//! mean) used throughout the workspace.
//!
//! # Examples
//!
//! ```
//! use regshare_types::{ArchReg, RegClass, PhysReg};
//!
//! let rax = ArchReg::int(0);
//! assert_eq!(rax.class(), RegClass::Int);
//! let p = PhysReg::new(42);
//! assert_eq!(p.index(), 42);
//! ```

#![deny(missing_docs)]

pub mod counter;
pub mod hasher;
pub mod snapshot;
pub mod stats;

use std::fmt;

/// Register class: integer or floating-point/SIMD.
///
/// The simulated machine, like x86_64, has two independent physical register
/// files, free lists and rename maps — one per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// General-purpose integer registers.
    Int,
    /// Floating-point / SIMD registers.
    Fp,
}

impl RegClass {
    /// Both classes, in a fixed order (useful for per-class arrays).
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Fp];

    /// A dense index for per-class arrays: `Int == 0`, `Fp == 1`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegClass::Int => 0,
            RegClass::Fp => 1,
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
        }
    }
}

/// Number of architectural registers per class (mirrors x86_64's
/// 16 GPRs + 16 SIMD registers).
pub const ARCH_REGS_PER_CLASS: usize = 16;

/// An architectural register name.
///
/// Encoded as a single byte: `0..16` are integer registers, `16..32` are
/// floating-point registers. The encoding is an implementation detail;
/// use [`ArchReg::int`], [`ArchReg::fp`], [`ArchReg::class`] and
/// [`ArchReg::class_index`].
///
/// # Examples
///
/// ```
/// use regshare_types::{ArchReg, RegClass};
/// let r = ArchReg::fp(3);
/// assert_eq!(r.class(), RegClass::Fp);
/// assert_eq!(r.class_index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg(u8);

impl ArchReg {
    /// Total number of architectural registers across both classes.
    pub const COUNT: usize = 2 * ARCH_REGS_PER_CLASS;

    /// The `i`-th integer architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    #[inline]
    pub fn int(i: usize) -> ArchReg {
        assert!(i < ARCH_REGS_PER_CLASS, "int arch reg out of range: {i}");
        ArchReg(i as u8)
    }

    /// The `i`-th floating-point architectural register.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    #[inline]
    pub fn fp(i: usize) -> ArchReg {
        assert!(i < ARCH_REGS_PER_CLASS, "fp arch reg out of range: {i}");
        ArchReg((ARCH_REGS_PER_CLASS + i) as u8)
    }

    /// Builds a register from its flat index in `0..ArchReg::COUNT`.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= ArchReg::COUNT`.
    #[inline]
    pub fn from_flat(flat: usize) -> ArchReg {
        assert!(flat < Self::COUNT, "flat arch reg out of range: {flat}");
        ArchReg(flat as u8)
    }

    /// The register's class.
    #[inline]
    pub fn class(self) -> RegClass {
        if (self.0 as usize) < ARCH_REGS_PER_CLASS {
            RegClass::Int
        } else {
            RegClass::Fp
        }
    }

    /// Index within the register's class, in `0..16`.
    #[inline]
    pub fn class_index(self) -> usize {
        self.0 as usize % ARCH_REGS_PER_CLASS
    }

    /// Flat index across both classes, in `0..32`.
    #[inline]
    pub fn flat(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Int => write!(f, "r{}", self.class_index()),
            RegClass::Fp => write!(f, "f{}", self.class_index()),
        }
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A physical register identifier within one register file.
///
/// Physical registers are class-local: `PhysReg::new(3)` in the INT file and
/// `PhysReg::new(3)` in the FP file are distinct registers. Code that handles
/// both classes carries the [`RegClass`] alongside.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysReg(u16);

impl PhysReg {
    /// Creates a physical register with the given index.
    #[inline]
    pub fn new(index: usize) -> PhysReg {
        PhysReg(index as u16)
    }

    /// The register file index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A global dynamic-instruction sequence number in program (commit) order.
///
/// On the correct path this is identical to the paper's *Commit Sequence
/// Number* (CSN): it increments by one for every micro-op in program order,
/// so `SeqNum` subtraction yields the paper's *Instruction Distance*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The next sequence number.
    #[inline]
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }

    /// Distance from `older` to `self` in program order, or `None` if
    /// `older` is in fact younger.
    #[inline]
    pub fn distance_from(self, older: SeqNum) -> Option<u64> {
        self.0.checked_sub(older.0)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A simulation cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// This cycle plus `n`.
    #[inline]
    pub fn plus(self, n: u64) -> Cycle {
        Cycle(self.0 + n)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A virtual memory address.
pub type Addr = u64;

/// Branch history snapshot taken in the front-end, carried with each µ-op.
///
/// Predictors indexed with PC ⊕ history (the TAGE-like distance predictor,
/// the NoSQ-style tables) consume this snapshot both at prediction time
/// (rename) and at training time (commit), so speculative-history management
/// does not have to be replicated in each consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistorySnapshot {
    /// Low 64 bits of the global (taken/not-taken) branch history;
    /// bit 0 is the most recent branch.
    pub ghist: u64,
    /// 16 bits of path history (low bits of recent branch PCs).
    pub path: u16,
}

impl HistorySnapshot {
    /// Pushes one branch outcome into the snapshot, returning the new value.
    #[inline]
    pub fn push(self, taken: bool, pc: Addr) -> HistorySnapshot {
        HistorySnapshot {
            ghist: (self.ghist << 1) | u64::from(taken),
            path: (self.path << 1) ^ (pc as u16 & 0x7fff),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_reg_classes_round_trip() {
        for i in 0..ARCH_REGS_PER_CLASS {
            let r = ArchReg::int(i);
            assert_eq!(r.class(), RegClass::Int);
            assert_eq!(r.class_index(), i);
            assert_eq!(ArchReg::from_flat(r.flat()), r);
            let f = ArchReg::fp(i);
            assert_eq!(f.class(), RegClass::Fp);
            assert_eq!(f.class_index(), i);
            assert_eq!(ArchReg::from_flat(f.flat()), f);
        }
    }

    #[test]
    #[should_panic]
    fn arch_reg_int_out_of_range_panics() {
        let _ = ArchReg::int(16);
    }

    #[test]
    fn arch_reg_debug_format() {
        assert_eq!(format!("{:?}", ArchReg::int(5)), "r5");
        assert_eq!(format!("{:?}", ArchReg::fp(7)), "f7");
    }

    #[test]
    fn seqnum_distance() {
        assert_eq!(SeqNum(10).distance_from(SeqNum(4)), Some(6));
        assert_eq!(SeqNum(4).distance_from(SeqNum(10)), None);
        assert_eq!(SeqNum(4).next(), SeqNum(5));
    }

    #[test]
    fn history_snapshot_push() {
        let h = HistorySnapshot::default()
            .push(true, 0x40)
            .push(false, 0x44);
        assert_eq!(h.ghist, 0b10);
        // path mixes PC bits of both branches
        assert_eq!(h.path, ((0x40u16 << 1) ^ 0x44));
    }

    #[test]
    fn reg_class_indices() {
        assert_eq!(RegClass::Int.index(), 0);
        assert_eq!(RegClass::Fp.index(), 1);
        assert_eq!(RegClass::ALL.len(), 2);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(PhysReg::new(9).to_string(), "p9");
        assert_eq!(SeqNum(3).to_string(), "#3");
        assert_eq!(Cycle(8).to_string(), "@8");
        assert_eq!(RegClass::Int.to_string(), "int");
    }
}
