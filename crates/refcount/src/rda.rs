//! The Register Duplicate Array (RDA) from Apple's patent
//! (Sundar et al., §4.2 \[24\]).
//!
//! Like the ISRB, a small fully-associative structure whose entries are
//! allocated on demand; unlike the ISRB, each entry holds a *single*
//! up/down duplicate counter. To make the structure checkpointable, every
//! commit-time decrement must be applied to the live array **and to every
//! checkpoint** — the cost the ISRB's dual never-decremented counters avoid.
//! [`TrackerStats::commit_checkpoint_writes`] quantifies that burden.

use crate::tracker::{
    CheckpointId, CheckpointStack, ReclaimDecision, ReclaimRequest, ShareRequest, SharingTracker,
    StorageReport, TrackerStats,
};
use regshare_types::{PhysReg, RegClass};

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    class_fp: bool,
    preg: u16,
    /// Number of current mappings (entry exists only while ≥ 2).
    count: u32,
    /// Architectural image of `count` (for commit-time flushes).
    arch_count: u32,
}

/// The RDA tracker. See the module docs.
///
/// # Examples
///
/// ```
/// use regshare_refcount::{Rda, SharingTracker, ShareRequest, ShareKind,
///                         ReclaimRequest, ReclaimDecision};
/// use regshare_types::{ArchReg, PhysReg, RegClass};
///
/// let mut rda = Rda::new(8, 3);
/// let req = ShareRequest { class: RegClass::Int, preg: PhysReg::new(2),
///                          kind: ShareKind::Bypass { arch_dst: ArchReg::int(1) } };
/// assert!(rda.try_share(&req)); // two mappings now
/// let rec = ReclaimRequest { class: RegClass::Int, preg: PhysReg::new(2), arch: ArchReg::int(0), renews: false };
/// assert_eq!(rda.on_reclaim(&rec), ReclaimDecision::Keep);
/// assert_eq!(rda.on_reclaim(&rec), ReclaimDecision::Free);
/// ```
#[derive(Debug)]
pub struct Rda {
    entries: Vec<Entry>,
    /// Free entry slots (index stack) — allocation pops in O(1) instead of
    /// scanning `entries` for an invalid slot.
    free_slots: Vec<usize>,
    /// Per-branch images of the `count` fields, one per slot.
    checkpoints: CheckpointStack<Vec<u32>>,
    max_count: u32,
    counter_bits: u32,
    stats: TrackerStats,
}

impl Rda {
    /// Creates an RDA with `entries` entries and `counter_bits`-bit
    /// duplicate counters.
    ///
    /// # Panics
    ///
    /// Panics if `counter_bits < 2` (a duplicate counter must hold ≥ 2).
    pub fn new(entries: usize, counter_bits: u32) -> Rda {
        assert!((2..=31).contains(&counter_bits));
        Rda {
            entries: vec![Entry::default(); entries],
            free_slots: (0..entries).rev().collect(),
            checkpoints: CheckpointStack::default(),
            max_count: (1 << counter_bits) - 1,
            counter_bits,
            stats: TrackerStats::default(),
        }
    }

    fn find(&self, class: RegClass, preg: PhysReg) -> Option<usize> {
        let fp = class == RegClass::Fp;
        let p = preg.index() as u16;
        self.entries
            .iter()
            .position(|e| e.valid && e.class_fp == fp && e.preg == p)
    }

    fn free_entry(&mut self, slot: usize) {
        self.entries[slot] = Entry::default();
        self.free_slots.push(slot);
        self.stats.entries_freed += 1;
        self.checkpoints.iter_mut().for_each(|c| c[slot] = 0);
    }

    fn occupancy(&self) -> usize {
        self.entries.len() - self.free_slots.len()
    }

    /// Resets every valid entry's count to `restored(slot, entry)`, retiring
    /// the entries that no longer have a duplicate.
    fn restore_counts(&mut self, restored: impl Fn(usize, &Entry) -> u32) {
        for slot in 0..self.entries.len() {
            let e = self.entries[slot];
            if !e.valid {
                continue;
            }
            match restored(slot, &e) {
                c if c <= 1 => self.free_entry(slot),
                c => self.entries[slot].count = c,
            }
        }
    }
}

impl SharingTracker for Rda {
    fn name(&self) -> &'static str {
        "rda"
    }

    fn try_share(&mut self, req: &ShareRequest) -> bool {
        if let Some(slot) = self.find(req.class, req.preg) {
            let e = &mut self.entries[slot];
            if e.count >= self.max_count {
                self.stats.shares_rejected_saturated += 1;
                return false;
            }
            e.count += 1;
            self.stats.shares_accepted += 1;
            return true;
        }
        match self.free_slots.pop() {
            Some(slot) => {
                self.entries[slot] = Entry {
                    valid: true,
                    class_fp: req.class == RegClass::Fp,
                    preg: req.preg.index() as u16,
                    count: 2, // original mapping + the new duplicate
                    // The original mapping is architectural by the time a
                    // younger duplicate could commit.
                    arch_count: 1,
                };
                self.stats.shares_accepted += 1;
                self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy());
                true
            }
            None => {
                self.stats.shares_rejected_full += 1;
                false
            }
        }
    }

    fn on_sharer_commit(&mut self, req: &ShareRequest) {
        if let Some(slot) = self.find(req.class, req.preg) {
            let e = &mut self.entries[slot];
            e.arch_count = (e.arch_count + 1).min(self.max_count);
        }
    }

    fn on_reclaim(&mut self, req: &ReclaimRequest) -> ReclaimDecision {
        self.stats.reclaims += 1;
        match self.find(req.class, req.preg) {
            None => ReclaimDecision::Free,
            Some(slot) => {
                self.stats.reclaim_cam_hits += 1;
                // The RDA's checkpointability requirement: decrement the live
                // counter AND the matching counter in every checkpoint.
                let n = self.checkpoints.len() as u64;
                let images = self.checkpoints.iter_mut();
                images.for_each(|c| c[slot] = c[slot].saturating_sub(1));
                self.stats.commit_checkpoint_writes += n;
                let e = &mut self.entries[slot];
                e.count = e.count.saturating_sub(1);
                e.arch_count = e.arch_count.saturating_sub(1);
                if e.count <= 1 {
                    // No longer duplicated: entry retires, register lives on
                    // under its single remaining mapping.
                    self.free_entry(slot);
                }
                ReclaimDecision::Keep
            }
        }
    }

    fn checkpoint(&mut self) -> CheckpointId {
        self.stats.checkpoints_taken += 1;
        let counts = self
            .entries
            .iter()
            .map(|e| if e.valid { e.count } else { 0 });
        self.checkpoints.push_from(counts)
    }

    fn restore(&mut self, id: CheckpointId, _freed: &mut Vec<(RegClass, PhysReg)>) {
        self.stats.restores += 1;
        let counts = self.checkpoints.restore(id);
        self.restore_counts(|slot, _| counts[slot]);
        self.checkpoints.recycle(counts);
    }

    fn release_checkpoint(&mut self, id: CheckpointId) {
        if let Some(counts) = self.checkpoints.release(id) {
            self.checkpoints.recycle(counts);
        }
    }

    fn restore_to_committed(&mut self, _freed: &mut Vec<(RegClass, PhysReg)>) {
        self.stats.restores += 1;
        self.checkpoints.clear();
        self.restore_counts(|_, e| e.arch_count);
    }

    fn storage(&self) -> StorageReport {
        let tag_bits = 8 + 1 + 1;
        StorageReport {
            main_bits: self.entries.len() * (tag_bits + self.counter_bits as usize),
            per_checkpoint_bits: self.entries.len() * self.counter_bits as usize,
        }
    }

    fn is_shared(&self, class: RegClass, preg: PhysReg) -> bool {
        self.find(class, preg).is_some()
    }

    fn shared_count(&self) -> usize {
        self.occupancy()
    }

    fn stats(&self) -> TrackerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::ShareKind;
    use regshare_types::ArchReg;

    fn share(p: usize) -> ShareRequest {
        ShareRequest {
            class: RegClass::Int,
            preg: PhysReg::new(p),
            kind: ShareKind::Bypass {
                arch_dst: ArchReg::int(0),
            },
        }
    }

    fn reclaim(p: usize) -> ReclaimRequest {
        ReclaimRequest {
            class: RegClass::Int,
            preg: PhysReg::new(p),
            arch: ArchReg::int(0),
            renews: false,
        }
    }

    #[test]
    fn duplicate_lifecycle() {
        let mut t = Rda::new(4, 3);
        assert!(t.try_share(&share(1))); // count 2
        assert!(t.try_share(&share(1))); // count 3
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Keep); // 2
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Keep); // 1, entry freed
        assert!(!t.is_shared(RegClass::Int, PhysReg::new(1)));
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Free); // untracked
    }

    #[test]
    fn commits_write_every_checkpoint() {
        let mut t = Rda::new(4, 3);
        assert!(t.try_share(&share(1)));
        let _c1 = t.checkpoint();
        let _c2 = t.checkpoint();
        let _c3 = t.checkpoint();
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Keep);
        // One commit touched 3 checkpoints — the RDA's cost.
        assert_eq!(t.stats().commit_checkpoint_writes, 3);
    }

    #[test]
    fn restore_uses_decremented_checkpoint_counts() {
        let mut t = Rda::new(4, 3);
        assert!(t.try_share(&share(1))); // count 2
        let ck = t.checkpoint(); // snapshot 2
        assert!(t.try_share(&share(1))); // wrong path: 3
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Keep); // commits: live 2, ckpt 1
        let mut freed = Vec::new();
        t.restore(ck, &mut freed);
        // Checkpointed count fell to 1 → entry retired; remaining mapping
        // frees normally.
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Free);
    }

    #[test]
    fn wrong_path_only_entry_dies_on_restore() {
        let mut t = Rda::new(4, 3);
        let ck = t.checkpoint();
        assert!(t.try_share(&share(9)));
        let mut freed = Vec::new();
        t.restore(ck, &mut freed);
        assert_eq!(t.shared_count(), 0);
    }

    #[test]
    fn saturation_and_capacity_rejections() {
        let mut t = Rda::new(1, 2); // max count 3
        assert!(t.try_share(&share(1))); // 2
        assert!(t.try_share(&share(1))); // 3
        assert!(!t.try_share(&share(1))); // saturated
        assert!(!t.try_share(&share(2))); // full
        let s = t.stats();
        assert_eq!(s.shares_rejected_saturated, 1);
        assert_eq!(s.shares_rejected_full, 1);
    }

    #[test]
    fn commit_flush_restores_arch_count() {
        let mut t = Rda::new(4, 3);
        assert!(t.try_share(&share(1))); // count 2, arch 1
        t.on_sharer_commit(&share(1)); // arch 2
        assert!(t.try_share(&share(1))); // count 3 (speculative)
        let mut freed = Vec::new();
        t.restore_to_committed(&mut freed);
        // arch count 2 → entry survives with count 2.
        assert!(t.is_shared(RegClass::Int, PhysReg::new(1)));
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Free);
    }
}
