//! The Inflight Shared Register Buffer (ISRB) — the paper's contribution
//! (§4.3).
//!
//! A small fully-associative buffer tracks only the registers that currently
//! have more than one mapping. Each entry holds the physical register
//! identifier (the CAM tag) and two **never-decremented** counters:
//!
//! - `referenced` — incremented each time a bypassing instruction references
//!   the register at rename (speculative);
//! - `committed` — incremented each time an instruction overwriting one of
//!   the register's mappings commits (architectural).
//!
//! The register is freed by the reclaim that finds `referenced ==
//! committed`. Because `committed` is architectural and only `referenced` is
//! speculative, a checkpoint needs to hold *only* the `referenced` fields
//! (n-bit × entries: 96 bits for a 32-entry / 3-bit ISRB), and restoring is
//! a copy plus one narrow compare per entry — single-cycle recovery.
//!
//! Two completions of the published scheme are implemented here and
//! documented in DESIGN.md:
//!
//! 1. A third architectural field `referenced_committed` (incremented when a
//!    *sharer* commits) supports commit-time flushes (memory traps, bypass
//!    validation failures), which restore `referenced` from it exactly as
//!    the Rename Map is restored from the Commit Rename Map. It needs no
//!    checkpoint storage.
//! 2. When an entry is freed, its slot is reset in **all** live checkpoints
//!    (the paper's gang-reset rule), preventing stale `referenced` values
//!    from leaking registers.

use crate::tracker::{
    CheckpointId, ReclaimDecision, ReclaimRequest, ShareRequest, SharingTracker, StorageReport,
    TrackerStats,
};
use regshare_types::{PhysReg, RegClass};
use std::collections::VecDeque;

/// ISRB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsrbConfig {
    /// Number of entries (0 = unlimited, the paper's "unlimited ISRB").
    pub entries: usize,
    /// Counter width in bits (the paper finds 3 sufficient; 32 ≈ ideal).
    pub counter_bits: u32,
    /// CAM ports available to rename per cycle (0 = unlimited). Bypasses
    /// beyond this are aborted, not stalled (§4.3.4).
    pub rename_ports: usize,
    /// CAM ports available to the reclaim hardware per cycle (0 =
    /// unlimited). Reclaims beyond this stall commit (§4.3.4).
    pub reclaim_ports: usize,
    /// Physical registers per class (for tag-width storage accounting).
    pub pregs_per_class: usize,
}

impl Default for IsrbConfig {
    fn default() -> IsrbConfig {
        IsrbConfig {
            entries: 32,
            counter_bits: 3,
            rename_ports: 0,
            reclaim_ports: 0,
            pregs_per_class: 256,
        }
    }
}

impl IsrbConfig {
    /// The paper's headline design point: 32 entries × two 3-bit counters
    /// (480 bits of state + 96 bits per checkpoint).
    pub fn hpca16() -> IsrbConfig {
        IsrbConfig::default()
    }

    /// An unlimited ISRB with effectively unbounded counters (the "ideal"
    /// configuration of the figures).
    pub fn unlimited() -> IsrbConfig {
        IsrbConfig {
            entries: 0,
            counter_bits: 31,
            ..IsrbConfig::default()
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    class_fp: bool,
    preg: u16,
    referenced: u32,
    committed: u32,
    /// Architectural image of `referenced` (sharers that have committed).
    referenced_committed: u32,
}

#[derive(Debug, Clone)]
struct Checkpoint {
    id: CheckpointId,
    referenced: Vec<u32>,
}

/// Retired checkpoint buffers kept for reuse: one checkpoint is taken per
/// predicted branch, so recycling the `referenced` vectors keeps the
/// branch-rename path allocation-free in steady state.
const CKPT_POOL_CAP: usize = 64;

/// The Inflight Shared Register Buffer. See the module docs for semantics
/// and [`IsrbConfig`] for sizing.
#[derive(Debug)]
pub struct Isrb {
    cfg: IsrbConfig,
    entries: Vec<Entry>,
    /// Free entry slots (index stack).
    free_slots: Vec<usize>,
    /// Per-class direct map preg → slot + 1 (0 = not present). Models the
    /// CAM's single-cycle match in O(1) instead of scanning `entries`; the
    /// scan sat on the reclaim path of every committed destination µ-op.
    index: [Vec<u32>; 2],
    checkpoints: VecDeque<Checkpoint>,
    /// Recycled checkpoint buffers (see [`CKPT_POOL_CAP`]).
    ckpt_pool: Vec<Vec<u32>>,
    next_ckpt: CheckpointId,
    max_counter: u32,
    stats: TrackerStats,
}

impl Isrb {
    /// Builds an ISRB.
    ///
    /// # Panics
    ///
    /// Panics if `counter_bits` is 0 or > 31.
    pub fn new(cfg: IsrbConfig) -> Isrb {
        assert!(cfg.counter_bits > 0 && cfg.counter_bits <= 31);
        let n = if cfg.entries == 0 { 0 } else { cfg.entries };
        Isrb {
            entries: vec![Entry::default(); n],
            free_slots: (0..n).rev().collect(),
            index: [vec![0; cfg.pregs_per_class], vec![0; cfg.pregs_per_class]],
            checkpoints: VecDeque::new(),
            ckpt_pool: Vec::new(),
            next_ckpt: 0,
            max_counter: (1u32 << cfg.counter_bits) - 1,
            cfg,
            stats: TrackerStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IsrbConfig {
        &self.cfg
    }

    #[inline]
    fn find(&self, class: RegClass, preg: PhysReg) -> Option<usize> {
        let slot = *self.index[class.index()].get(preg.index())?;
        (slot != 0).then(|| slot as usize - 1)
    }

    /// Points the direct map at `slot` for the entry currently stored there.
    fn index_insert(&mut self, slot: usize) {
        let e = &self.entries[slot];
        let lane = &mut self.index[usize::from(e.class_fp)];
        let p = e.preg as usize;
        if p >= lane.len() {
            lane.resize(p + 1, 0);
        }
        lane[p] = slot as u32 + 1;
    }

    fn alloc_slot(&mut self) -> Option<usize> {
        if let Some(s) = self.free_slots.pop() {
            return Some(s);
        }
        if self.cfg.entries == 0 {
            self.entries.push(Entry::default());
            // Grow existing checkpoints to cover the new slot (conceptually
            // the unlimited ISRB always had this slot with referenced = 0).
            for c in &mut self.checkpoints {
                c.referenced.push(0);
            }
            Some(self.entries.len() - 1)
        } else {
            None
        }
    }

    /// Frees entry `slot` and gang-resets it in every live checkpoint.
    fn free_entry(&mut self, slot: usize) {
        let e = &self.entries[slot];
        if e.valid {
            self.index[usize::from(e.class_fp)][e.preg as usize] = 0;
        }
        self.entries[slot] = Entry::default();
        self.free_slots.push(slot);
        self.stats.entries_freed += 1;
        for c in &mut self.checkpoints {
            if slot < c.referenced.len() {
                c.referenced[slot] = 0;
            }
        }
    }

    fn occupancy(&self) -> usize {
        // `free_slots` holds exactly the invalid slots (in unlimited mode
        // grown slots are valid immediately), so no scan is needed.
        self.entries.len() - self.free_slots.len()
    }

    fn entry_preg(e: &Entry) -> (RegClass, PhysReg) {
        (
            if e.class_fp {
                RegClass::Fp
            } else {
                RegClass::Int
            },
            PhysReg::new(e.preg as usize),
        )
    }

    /// Returns a retired checkpoint buffer to the pool.
    fn recycle(&mut self, referenced: Vec<u32>) {
        if self.ckpt_pool.len() < CKPT_POOL_CAP {
            self.ckpt_pool.push(referenced);
        }
    }

    /// Applies the paper's per-entry restore rule given a checkpointed
    /// `referenced` value; returns the freed register if the entry died.
    fn restore_entry(&mut self, slot: usize, ref_ck: u32) -> Option<(RegClass, PhysReg)> {
        let e = &mut self.entries[slot];
        if !e.valid {
            // "If the ISRB entry is already free, nothing happens."
            return None;
        }
        let committed = e.committed;
        e.referenced = ref_ck;
        if committed > ref_ck {
            // The last overwrite should have freed the register.
            let freed = Self::entry_preg(e);
            self.free_entry(slot);
            Some(freed)
        } else if committed == 0 && ref_ck == 0 {
            // Entry allocated later than the restore point: the register is
            // covered by the Free List pointer restore (or by an older
            // committing instruction); only the entry is freed.
            self.free_entry(slot);
            None
        } else {
            None
        }
    }
}

impl SharingTracker for Isrb {
    fn name(&self) -> &'static str {
        "isrb"
    }

    fn try_share(&mut self, req: &ShareRequest) -> bool {
        if let Some(slot) = self.find(req.class, req.preg) {
            let e = &mut self.entries[slot];
            if e.referenced >= self.max_counter {
                self.stats.shares_rejected_saturated += 1;
                return false;
            }
            e.referenced += 1;
            self.stats.shares_accepted += 1;
            return true;
        }
        match self.alloc_slot() {
            Some(slot) => {
                self.entries[slot] = Entry {
                    valid: true,
                    class_fp: req.class == RegClass::Fp,
                    preg: req.preg.index() as u16,
                    referenced: 1,
                    committed: 0,
                    referenced_committed: 0,
                };
                self.index_insert(slot);
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
            if e.referenced_committed < self.max_counter {
                e.referenced_committed += 1;
            }
        }
    }

    fn on_reclaim(&mut self, req: &ReclaimRequest) -> ReclaimDecision {
        self.stats.reclaims += 1;
        match self.find(req.class, req.preg) {
            None => ReclaimDecision::Free,
            Some(slot) => {
                self.stats.reclaim_cam_hits += 1;
                let e = &mut self.entries[slot];
                debug_assert!(
                    e.committed <= e.referenced,
                    "ISRB invariant violated: committed {} > referenced {}",
                    e.committed,
                    e.referenced
                );
                if e.referenced == e.committed {
                    self.free_entry(slot);
                    ReclaimDecision::Free
                } else {
                    e.committed += 1;
                    ReclaimDecision::Keep
                }
            }
        }
    }

    fn checkpoint(&mut self) -> CheckpointId {
        let id = self.next_ckpt;
        self.next_ckpt += 1;
        let mut referenced = self.ckpt_pool.pop().unwrap_or_default();
        referenced.clear();
        referenced.extend(
            self.entries
                .iter()
                .map(|e| if e.valid { e.referenced } else { 0 }),
        );
        self.checkpoints.push_back(Checkpoint { id, referenced });
        self.stats.checkpoints_taken += 1;
        id
    }

    fn restore(&mut self, id: CheckpointId, freed: &mut Vec<(RegClass, PhysReg)>) {
        self.stats.restores += 1;
        // Drop checkpoints younger than `id`, then take `id` itself.
        while let Some(back) = self.checkpoints.back() {
            if back.id > id {
                let dead = self.checkpoints.pop_back().expect("just peeked");
                self.recycle(dead.referenced);
            } else {
                break;
            }
        }
        let ck = match self.checkpoints.pop_back() {
            Some(ck) if ck.id == id => ck,
            other => panic!(
                "restore to unknown checkpoint {id} (found {:?})",
                other.map(|c| c.id)
            ),
        };
        for slot in 0..self.entries.len() {
            let ref_ck = ck.referenced.get(slot).copied().unwrap_or(0);
            if let Some(p) = self.restore_entry(slot, ref_ck) {
                freed.push(p);
            }
        }
        self.recycle(ck.referenced);
    }

    fn release_checkpoint(&mut self, id: CheckpointId) {
        if let Some(pos) = crate::tracker::ckpt_pos(&self.checkpoints, id, |c| c.id) {
            debug_assert_eq!(pos, 0, "checkpoints must be released oldest-first");
            if let Some(ck) = self.checkpoints.remove(pos) {
                self.recycle(ck.referenced);
            }
        }
    }

    fn restore_to_committed(&mut self, freed: &mut Vec<(RegClass, PhysReg)>) {
        self.stats.restores += 1;
        while let Some(ck) = self.checkpoints.pop_back() {
            self.recycle(ck.referenced);
        }
        for slot in 0..self.entries.len() {
            let ref_arch = if self.entries[slot].valid {
                self.entries[slot].referenced_committed
            } else {
                continue;
            };
            if let Some(p) = self.restore_entry(slot, ref_arch) {
                freed.push(p);
            }
        }
    }

    fn storage(&self) -> StorageReport {
        let entries = if self.cfg.entries == 0 {
            self.entries.len().max(1)
        } else {
            self.cfg.entries
        };
        let tag_bits = (usize::BITS - (self.cfg.pregs_per_class - 1).leading_zeros()) as usize + 1; // +1 class bit
        let per_entry = tag_bits + 1 /*valid*/ + 2 * self.cfg.counter_bits as usize;
        StorageReport {
            main_bits: entries * per_entry,
            per_checkpoint_bits: entries * self.cfg.counter_bits as usize,
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

    fn share(preg: usize) -> ShareRequest {
        ShareRequest {
            class: RegClass::Int,
            preg: PhysReg::new(preg),
            kind: ShareKind::Bypass {
                arch_dst: ArchReg::int(1),
            },
        }
    }

    fn reclaim(preg: usize) -> ReclaimRequest {
        ReclaimRequest {
            class: RegClass::Int,
            preg: PhysReg::new(preg),
            arch: ArchReg::int(0),
            renews: false,
        }
    }

    fn isrb(entries: usize) -> Isrb {
        Isrb::new(IsrbConfig {
            entries,
            counter_bits: 3,
            ..IsrbConfig::default()
        })
    }

    #[test]
    fn single_share_needs_two_reclaims() {
        let mut t = isrb(8);
        assert!(t.try_share(&share(5)));
        assert!(t.is_shared(RegClass::Int, PhysReg::new(5)));
        assert_eq!(t.on_reclaim(&reclaim(5)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(5)), ReclaimDecision::Free);
        assert!(!t.is_shared(RegClass::Int, PhysReg::new(5)));
        // Subsequent reclaims of the (re-allocated) register free normally.
        assert_eq!(t.on_reclaim(&reclaim(5)), ReclaimDecision::Free);
    }

    #[test]
    fn k_sharers_need_k_plus_one_reclaims() {
        let mut t = isrb(8);
        for _ in 0..3 {
            assert!(t.try_share(&share(7)));
        }
        for _ in 0..3 {
            assert_eq!(t.on_reclaim(&reclaim(7)), ReclaimDecision::Keep);
        }
        assert_eq!(t.on_reclaim(&reclaim(7)), ReclaimDecision::Free);
    }

    #[test]
    fn untracked_register_frees_normally() {
        let mut t = isrb(8);
        assert_eq!(t.on_reclaim(&reclaim(9)), ReclaimDecision::Free);
        assert_eq!(t.stats().reclaim_cam_hits, 0);
    }

    #[test]
    fn full_buffer_rejects_share() {
        let mut t = isrb(2);
        assert!(t.try_share(&share(1)));
        assert!(t.try_share(&share(2)));
        assert!(!t.try_share(&share(3)));
        assert_eq!(t.stats().shares_rejected_full, 1);
        // Freeing one entry re-enables sharing.
        t.on_reclaim(&reclaim(1));
        t.on_reclaim(&reclaim(1));
        assert!(t.try_share(&share(3)));
    }

    #[test]
    fn saturated_counter_rejects_share() {
        let mut t = Isrb::new(IsrbConfig {
            entries: 4,
            counter_bits: 2,
            ..IsrbConfig::default()
        });
        assert!(t.try_share(&share(1)));
        assert!(t.try_share(&share(1)));
        assert!(t.try_share(&share(1)));
        assert!(!t.try_share(&share(1))); // referenced == 3 == max for 2 bits
        assert_eq!(t.stats().shares_rejected_saturated, 1);
    }

    #[test]
    fn classes_do_not_collide() {
        let mut t = isrb(8);
        assert!(t.try_share(&share(3)));
        let fp = ShareRequest {
            class: RegClass::Fp,
            preg: PhysReg::new(3),
            kind: ShareKind::Bypass {
                arch_dst: ArchReg::fp(0),
            },
        };
        assert!(t.try_share(&fp));
        assert_eq!(t.shared_count(), 2);
        assert!(t.is_shared(RegClass::Fp, PhysReg::new(3)));
    }

    /// The paper's Figure 3 worked example, end to end.
    #[test]
    fn figure3_worked_example() {
        let mut t = isrb(8);
        let p1 = 1;
        // load4 hits p1 in the ROB: referenced 0 → 1.
        assert!(t.try_share(&share(p1)));
        // jmp8 checkpoints the ISRB.
        let ck = t.checkpoint();
        // load10 (wrong path) also hits p1: referenced 1 → 2.
        assert!(t.try_share(&share(p1)));
        // shl3 and sub7 commit, overwriting two mappings of p1:
        // committed 0 → 1 → 2 (== referenced, so next reclaim would free).
        assert_eq!(t.on_reclaim(&reclaim(p1)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(p1)), ReclaimDecision::Keep);
        // jmp8 was mispredicted: restore. Checkpointed referenced is 1, but
        // committed reached 2 — the register should have been freed by sub7:
        // recovery frees it.
        let mut freed = Vec::new();
        t.restore(ck, &mut freed);
        assert_eq!(freed, vec![(RegClass::Int, PhysReg::new(p1))]);
        assert!(!t.is_shared(RegClass::Int, PhysReg::new(p1)));
    }

    #[test]
    fn restore_frees_wrong_path_only_entries() {
        let mut t = isrb(8);
        let ck = t.checkpoint();
        // Entry allocated entirely on the wrong path.
        assert!(t.try_share(&share(4)));
        let mut freed = Vec::new();
        t.restore(ck, &mut freed);
        // Entry freed but register NOT pushed (covered by FL restore).
        assert!(freed.is_empty());
        assert_eq!(t.shared_count(), 0);
    }

    #[test]
    fn restore_keeps_still_live_entries() {
        let mut t = isrb(8);
        assert!(t.try_share(&share(2))); // correct-path share
        let ck = t.checkpoint();
        assert!(t.try_share(&share(2))); // wrong-path share: 2
        let mut freed = Vec::new();
        t.restore(ck, &mut freed);
        assert!(freed.is_empty());
        assert!(t.is_shared(RegClass::Int, PhysReg::new(2)));
        // Still needs 2 reclaims (1 sharer).
        assert_eq!(t.on_reclaim(&reclaim(2)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(2)), ReclaimDecision::Free);
    }

    #[test]
    fn nested_checkpoints_restore_to_older() {
        let mut t = isrb(8);
        assert!(t.try_share(&share(2)));
        let ck1 = t.checkpoint();
        assert!(t.try_share(&share(2)));
        let _ck2 = t.checkpoint();
        assert!(t.try_share(&share(2)));
        // Restore directly to ck1 discards ck2 implicitly.
        let mut freed = Vec::new();
        t.restore(ck1, &mut freed);
        assert_eq!(t.on_reclaim(&reclaim(2)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(2)), ReclaimDecision::Free);
    }

    #[test]
    fn gang_reset_prevents_stale_checkpoint_leak() {
        // Entry freed on the correct path while a younger checkpoint still
        // tracks it; slot is then reallocated on the wrong path. Restoring
        // must not resurrect the stale referenced value (§4.3.2).
        let mut t = isrb(1); // single slot forces reuse
        assert!(t.try_share(&share(10)));
        let ck = t.checkpoint(); // snapshot: slot0.referenced = 1

        // Correct path frees preg 10 (2 reclaims).
        assert_eq!(t.on_reclaim(&reclaim(10)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(10)), ReclaimDecision::Free);
        // Wrong path reallocates the slot for preg 11.
        assert!(t.try_share(&share(11)));
        // Restore: slot's checkpointed referenced must read 0 (gang reset),
        // so the wrong-path entry is freed, not given referenced = 1.
        let mut freed = Vec::new();
        t.restore(ck, &mut freed);
        assert!(freed.is_empty());
        assert_eq!(t.shared_count(), 0, "stale checkpoint resurrected an entry");
    }

    #[test]
    fn release_checkpoint_drops_oldest() {
        let mut t = isrb(4);
        let c1 = t.checkpoint();
        let _c2 = t.checkpoint();
        t.release_checkpoint(c1);
        // Restoring to c2 still works.
        let mut freed = Vec::new();
        t.restore(_c2, &mut freed);
    }

    #[test]
    fn commit_flush_restores_architectural_references() {
        let mut t = isrb(8);
        // Correct-path sharer that commits.
        assert!(t.try_share(&share(3)));
        t.on_sharer_commit(&share(3));
        // In-flight (uncommitted) extra sharer.
        assert!(t.try_share(&share(3)));
        let mut freed = Vec::new();
        t.restore_to_committed(&mut freed);
        assert!(freed.is_empty());
        // referenced restored to 1 (the committed sharer): 2 reclaims free.
        assert_eq!(t.on_reclaim(&reclaim(3)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(3)), ReclaimDecision::Free);
    }

    #[test]
    fn commit_flush_drops_purely_speculative_entries() {
        let mut t = isrb(8);
        assert!(t.try_share(&share(6))); // never commits
        let mut freed = Vec::new();
        t.restore_to_committed(&mut freed);
        assert_eq!(t.shared_count(), 0);
        assert!(freed.is_empty());
    }

    #[test]
    fn unlimited_isrb_grows() {
        let mut t = Isrb::new(IsrbConfig::unlimited());
        for i in 0..100 {
            assert!(t.try_share(&share(i)));
        }
        assert_eq!(t.shared_count(), 100);
        assert_eq!(t.stats().shares_rejected_full, 0);
    }

    #[test]
    fn unlimited_isrb_checkpoints_cover_growth() {
        let mut t = Isrb::new(IsrbConfig::unlimited());
        assert!(t.try_share(&share(1)));
        let ck = t.checkpoint();
        // New entries allocated after the checkpoint (growing the buffer).
        for i in 2..20 {
            assert!(t.try_share(&share(i)));
        }
        let mut freed = Vec::new();
        t.restore(ck, &mut freed);
        assert_eq!(
            t.shared_count(),
            1,
            "post-checkpoint entries must die on restore"
        );
    }

    #[test]
    fn paper_storage_numbers() {
        // 32 entries, 3-bit counters, 256 pregs/class: 480 bits + 96/ckpt.
        let t = Isrb::new(IsrbConfig::hpca16());
        let s = t.storage();
        assert_eq!(s.main_bits, 32 * (8 + 1 + 1 + 6));
        assert_eq!(s.per_checkpoint_bits, 96);
        // The paper quotes 480 total bits of CPU storage for this point.
        assert_eq!(s.main_bits, 512); // 480 + 32 valid bits in our accounting
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut t = isrb(8);
        for i in 0..5 {
            t.try_share(&share(i));
        }
        assert_eq!(t.stats().peak_occupancy, 5);
    }
}
