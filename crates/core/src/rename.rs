//! Rename structures: per-class Rename Map, checkpointable circular Free
//! List, and Commit Rename Map (§4.1).

use regshare_types::{ArchReg, PhysReg, ARCH_REGS_PER_CLASS};

/// A speculative or committed rename map for both register classes, with
/// the §4.3.4 per-architectural-register "likely shared" flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameMap {
    map: [PhysReg; ArchReg::COUNT],
    shared_flag: [bool; ArchReg::COUNT],
}

impl RenameMap {
    /// Identity mapping: architectural register `i` → physical register `i`
    /// in its class.
    pub fn identity() -> RenameMap {
        let mut map = [PhysReg::new(0); ArchReg::COUNT];
        for (i, m) in map.iter_mut().enumerate() {
            *m = PhysReg::new(i % ARCH_REGS_PER_CLASS);
        }
        RenameMap {
            map,
            shared_flag: [false; ArchReg::COUNT],
        }
    }

    /// Current physical register of `reg`.
    #[inline]
    pub fn lookup(&self, reg: ArchReg) -> PhysReg {
        self.map[reg.flat()]
    }

    /// Remaps `reg` to `preg`, returning the old mapping.
    #[inline]
    pub fn remap(&mut self, reg: ArchReg, preg: PhysReg) -> PhysReg {
        std::mem::replace(&mut self.map[reg.flat()], preg)
    }

    /// Reads the §4.3.4 shared flag.
    #[inline]
    pub fn shared_flag(&self, reg: ArchReg) -> bool {
        self.shared_flag[reg.flat()]
    }

    /// Writes the §4.3.4 shared flag.
    #[inline]
    pub fn set_shared_flag(&mut self, reg: ArchReg, v: bool) {
        self.shared_flag[reg.flat()] = v;
    }

    /// Iterates over all (arch, phys) mappings.
    pub fn iter(&self) -> impl Iterator<Item = (ArchReg, PhysReg)> + '_ {
        self.map
            .iter()
            .enumerate()
            .map(|(i, &p)| (ArchReg::from_flat(i), p))
    }
}

/// A checkpointable circular free list for one register class (§4.1).
///
/// Pops advance the speculative head; pushes advance the tail (pushes are
/// always architectural: reclaiming happens at or after commit). Branch
/// recovery restores the speculative head; commit-time flushes restore it
/// to the committed head, which advances as allocations commit.
///
/// # Examples
///
/// ```
/// use regshare_core::rename::FreeList;
/// use regshare_types::PhysReg;
///
/// let mut fl = FreeList::new(16, 4); // pregs 4..16 initially free
/// let ck = fl.head();
/// let a = fl.pop().unwrap();
/// fl.restore_head(ck); // misprediction: un-pop
/// assert_eq!(fl.pop(), Some(a));
/// ```
#[derive(Debug, Clone)]
pub struct FreeList {
    ring: Vec<PhysReg>,
    /// Monotonic pop index (speculative).
    head: u64,
    /// Monotonic pop index as of the last commit.
    committed_head: u64,
    /// Monotonic push index.
    tail: u64,
    capacity: usize,
}

impl FreeList {
    /// Creates a free list over `pregs` physical registers of which the
    /// first `reserved` (the initial architectural mappings) are live.
    pub fn new(pregs: usize, reserved: usize) -> FreeList {
        assert!(reserved <= pregs);
        // Ring sized 2× so restored heads never collide with pushes.
        let cap = 2 * pregs;
        let mut ring = vec![PhysReg::new(0); cap];
        for (i, slot) in (reserved..pregs).enumerate() {
            ring[i] = PhysReg::new(slot);
        }
        FreeList {
            ring,
            head: 0,
            committed_head: 0,
            tail: (pregs - reserved) as u64,
            capacity: cap,
        }
    }

    /// Free registers available right now.
    #[inline]
    pub fn free_count(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Pops a free register, or `None` when empty (rename stalls).
    #[inline]
    pub fn pop(&mut self) -> Option<PhysReg> {
        if self.head == self.tail {
            return None;
        }
        let r = self.ring[(self.head % self.capacity as u64) as usize];
        self.head += 1;
        Some(r)
    }

    /// Pushes a reclaimed register.
    #[inline]
    pub fn push(&mut self, preg: PhysReg) {
        debug_assert!(
            self.tail - self.committed_head < self.capacity as u64,
            "free list overflow (double free?)"
        );
        self.ring[(self.tail % self.capacity as u64) as usize] = preg;
        self.tail += 1;
    }

    /// Speculative head (checkpoint token).
    #[inline]
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Restores the speculative head from a checkpoint (branch recovery).
    #[inline]
    pub fn restore_head(&mut self, head: u64) {
        debug_assert!(head <= self.head && head >= self.committed_head);
        self.head = head;
    }

    /// One speculative pop became architectural (its µ-op committed).
    #[inline]
    pub fn commit_pop(&mut self) {
        debug_assert!(self.committed_head < self.head);
        self.committed_head += 1;
    }

    /// Commit-time flush: forget all speculative pops.
    #[inline]
    pub fn restore_to_committed(&mut self) {
        self.head = self.committed_head;
    }

    /// Registers currently in the free list (for audits).
    pub fn iter_free(&self) -> impl Iterator<Item = PhysReg> + '_ {
        (self.head..self.tail).map(move |i| self.ring[(i % self.capacity as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_map_and_remap() {
        let mut rm = RenameMap::identity();
        assert_eq!(rm.lookup(ArchReg::int(5)), PhysReg::new(5));
        assert_eq!(rm.lookup(ArchReg::fp(5)), PhysReg::new(5));
        let old = rm.remap(ArchReg::int(5), PhysReg::new(40));
        assert_eq!(old, PhysReg::new(5));
        assert_eq!(rm.lookup(ArchReg::int(5)), PhysReg::new(40));
    }

    #[test]
    fn shared_flags() {
        let mut rm = RenameMap::identity();
        assert!(!rm.shared_flag(ArchReg::int(2)));
        rm.set_shared_flag(ArchReg::int(2), true);
        assert!(rm.shared_flag(ArchReg::int(2)));
    }

    #[test]
    fn pop_push_cycle() {
        let mut fl = FreeList::new(8, 4);
        assert_eq!(fl.free_count(), 4);
        let regs: Vec<_> = (0..4).map(|_| fl.pop().unwrap()).collect();
        assert_eq!(
            regs,
            vec![
                PhysReg::new(4),
                PhysReg::new(5),
                PhysReg::new(6),
                PhysReg::new(7)
            ]
        );
        assert_eq!(fl.pop(), None);
        for _ in 0..4 {
            fl.commit_pop();
        }
        fl.push(PhysReg::new(5));
        assert_eq!(fl.pop(), Some(PhysReg::new(5)));
    }

    #[test]
    fn branch_recovery_unpops() {
        let mut fl = FreeList::new(8, 4);
        let _a = fl.pop().unwrap();
        fl.commit_pop();
        let ck = fl.head();
        let b = fl.pop().unwrap();
        let c = fl.pop().unwrap();
        fl.restore_head(ck);
        assert_eq!(fl.pop(), Some(b));
        assert_eq!(fl.pop(), Some(c));
    }

    #[test]
    fn commit_flush_restores_committed_state() {
        let mut fl = FreeList::new(8, 4);
        let _a = fl.pop().unwrap();
        fl.commit_pop(); // a architectural
        let b = fl.pop().unwrap(); // speculative
        let _c = fl.pop().unwrap(); // speculative
        fl.restore_to_committed();
        assert_eq!(fl.free_count(), 3);
        assert_eq!(fl.pop(), Some(b));
    }

    #[test]
    fn interleaved_push_restore_keeps_ring_consistent() {
        let mut fl = FreeList::new(8, 4);
        let popped: Vec<_> = (0..4).map(|_| fl.pop().unwrap()).collect();
        // Two commits, two speculative.
        fl.commit_pop();
        fl.commit_pop();
        let ck = fl.head() - 2; // checkpoint right after the commits

        // Architectural frees arrive while speculation is outstanding.
        fl.push(PhysReg::new(4));
        fl.push(PhysReg::new(6));
        fl.restore_head(ck);
        // Un-popped regs come back in order, then the pushed ones.
        assert_eq!(fl.pop(), Some(popped[2]));
        assert_eq!(fl.pop(), Some(popped[3]));
        assert_eq!(fl.pop(), Some(PhysReg::new(4)));
        assert_eq!(fl.pop(), Some(PhysReg::new(6)));
    }

    #[test]
    fn audit_iterator_sees_free_regs() {
        let mut fl = FreeList::new(8, 4);
        let free: Vec<_> = fl.iter_free().collect();
        assert_eq!(free.len(), 4);
        fl.pop();
        assert_eq!(fl.iter_free().count(), 3);
    }

    /// Per-class container used by the simulator.
    #[test]
    fn per_class_instantiation() {
        let int = FreeList::new(256, ARCH_REGS_PER_CLASS);
        let fp = FreeList::new(256, ARCH_REGS_PER_CLASS);
        assert_eq!(int.free_count(), 240);
        assert_eq!(fp.free_count(), 240);
        let _ = regshare_types::RegClass::ALL;
    }
}
