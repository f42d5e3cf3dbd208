//! The Multiple Instantiation Table (MIT) from Intel's move-elimination
//! patent (Raikin et al., §2.2/§4.2 \[12\]).
//!
//! A small fully-associative table whose entries pair a physical register
//! with a bit-vector over *architectural* registers mapped to it; a bit
//! clears when its architectural register is redefined and an all-zero
//! vector frees the register. The MIT exploits a property **specific to
//! move elimination**: both architectural registers involved are visible in
//! the move instruction. SMB violates this (the store's source register may
//! already have been re-renamed when the load is renamed), so
//! [`Mit::try_share`] rejects [`ShareKind::Bypass`] requests — reproducing
//! the paper's §4.2 argument that the MIT cannot support SMB.
//!
//! **Implementation note.** A literal boolean bit-vector mis-counts when an
//! architectural register maps to the register, is redefined, and maps back
//! to the *same* register while the redefiner is still in flight (two
//! overlapping mapping epochs, one bit): the older epoch's commit-time
//! clear destroys the younger epoch's bit and frees a live register. The
//! patent ties its tracking to retirement, which serializes these epochs;
//! our out-of-order model achieves the same correctness by counting epochs
//! per entry (the same dual never-decremented counters the ISRB uses) while
//! preserving every patent-visible property: ME-only sharing, a handful of
//! fully-associative entries, allocation aborts when full, and
//! `#arch_reg`-bit checkpoints per entry (the storage figure the paper
//! compares against, which is what makes the ISRB cheaper).

use crate::isrb::{Isrb, IsrbConfig};
use crate::tracker::{
    CheckpointId, ReclaimDecision, ReclaimRequest, ShareKind, ShareRequest, SharingTracker,
    StorageReport, TrackerStats,
};
use regshare_types::{ArchReg, PhysReg, RegClass};

/// The MIT tracker. See the module docs.
///
/// # Examples
///
/// ```
/// use regshare_refcount::{Mit, SharingTracker, ShareRequest, ShareKind};
/// use regshare_types::{ArchReg, PhysReg, RegClass};
///
/// let mut mit = Mit::new(8);
/// // Move elimination is trackable...
/// assert!(mit.try_share(&ShareRequest {
///     class: RegClass::Int, preg: PhysReg::new(1),
///     kind: ShareKind::MoveElim { arch_dst: ArchReg::int(2), arch_src: ArchReg::int(3) },
/// }));
/// // ...but SMB is not (the paper's §4.2 point).
/// assert!(!mit.try_share(&ShareRequest {
///     class: RegClass::Int, preg: PhysReg::new(4),
///     kind: ShareKind::Bypass { arch_dst: ArchReg::int(5) },
/// }));
/// ```
#[derive(Debug)]
pub struct Mit {
    inner: Isrb,
    entries: usize,
    rejected_kind: u64,
}

impl Mit {
    /// Creates a MIT with `entries` entries (the patent suggests e.g. 8).
    pub fn new(entries: usize) -> Mit {
        Mit {
            inner: Isrb::new(IsrbConfig {
                entries,
                // Epoch counters sized to the architectural register count:
                // at most one live mapping epoch per architectural register
                // plus in-flight renewals.
                counter_bits: 6,
                ..IsrbConfig::default()
            }),
            entries,
            rejected_kind: 0,
        }
    }
}

impl SharingTracker for Mit {
    fn name(&self) -> &'static str {
        "mit"
    }

    fn try_share(&mut self, req: &ShareRequest) -> bool {
        match req.kind {
            ShareKind::MoveElim { .. } => self.inner.try_share(req),
            ShareKind::Bypass { .. } => {
                // The MIT's algorithm is based on architectural names, which
                // SMB does not preserve: reject.
                self.rejected_kind += 1;
                false
            }
        }
    }

    fn on_sharer_commit(&mut self, req: &ShareRequest) {
        self.inner.on_sharer_commit(req);
    }

    fn on_reclaim(&mut self, req: &ReclaimRequest) -> ReclaimDecision {
        self.inner.on_reclaim(req)
    }

    fn checkpoint(&mut self) -> CheckpointId {
        self.inner.checkpoint()
    }

    fn restore(&mut self, id: CheckpointId, freed: &mut Vec<(RegClass, PhysReg)>) {
        self.inner.restore(id, freed);
    }

    fn release_checkpoint(&mut self, id: CheckpointId) {
        self.inner.release_checkpoint(id);
    }

    fn restore_to_committed(&mut self, freed: &mut Vec<(RegClass, PhysReg)>) {
        self.inner.restore_to_committed(freed);
    }

    fn storage(&self) -> StorageReport {
        // Patent-visible layout: tag + valid + one bit per architectural
        // register, checkpointed in full (§4.2: "#arch_reg bits per entry" —
        // the cost the ISRB improves on).
        let tag_bits = 8 + 1 + 1;
        StorageReport {
            main_bits: self.entries * (tag_bits + ArchReg::COUNT),
            per_checkpoint_bits: self.entries * ArchReg::COUNT,
        }
    }

    fn is_shared(&self, class: RegClass, preg: PhysReg) -> bool {
        self.inner.is_shared(class, preg)
    }

    fn shared_count(&self) -> usize {
        self.inner.shared_count()
    }

    fn stats(&self) -> TrackerStats {
        let mut s = self.inner.stats();
        s.shares_rejected_kind = self.rejected_kind;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me(preg: usize, dst: usize, src: usize) -> ShareRequest {
        ShareRequest {
            class: RegClass::Int,
            preg: PhysReg::new(preg),
            kind: ShareKind::MoveElim {
                arch_dst: ArchReg::int(dst),
                arch_src: ArchReg::int(src),
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

    #[test]
    fn move_elim_lifecycle() {
        let mut t = Mit::new(4);
        // mov r1, r2 eliminated: both map to p5 (two mappings total).
        assert!(t.try_share(&me(5, 1, 2)));
        // r2 redefined: register kept (r1 still maps).
        assert_eq!(t.on_reclaim(&reclaim(5)), ReclaimDecision::Keep);
        // r1 redefined: freed.
        assert_eq!(t.on_reclaim(&reclaim(5)), ReclaimDecision::Free);
    }

    #[test]
    fn smb_is_rejected() {
        let mut t = Mit::new(4);
        assert!(!t.try_share(&ShareRequest {
            class: RegClass::Int,
            preg: PhysReg::new(1),
            kind: ShareKind::Bypass {
                arch_dst: ArchReg::int(0)
            },
        }));
        assert_eq!(t.stats().shares_rejected_kind, 1);
    }

    #[test]
    fn full_table_rejects() {
        let mut t = Mit::new(2);
        assert!(t.try_share(&me(1, 1, 2)));
        assert!(t.try_share(&me(2, 3, 4)));
        assert!(!t.try_share(&me(3, 5, 6)));
        assert_eq!(t.stats().shares_rejected_full, 1);
    }

    #[test]
    fn chained_moves_accumulate_references() {
        let mut t = Mit::new(4);
        assert!(t.try_share(&me(7, 1, 2))); // r1, r2 → p7
        assert!(t.try_share(&me(7, 3, 1))); // r3 also → p7
        assert_eq!(t.on_reclaim(&reclaim(7)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(7)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(7)), ReclaimDecision::Free);
    }

    #[test]
    fn overlapping_epochs_do_not_free_early() {
        // The case a boolean bit-vector gets wrong: r12 maps to P, is
        // redefined (in flight), and maps back to P before the redefiner
        // commits.
        let mut t = Mit::new(4);
        assert!(t.try_share(&me(9, 11, 12))); // r11, r12 → p9 (2 mappings)
        assert!(t.try_share(&me(9, 12, 11))); // r12 → p9 again (3 mappings)

        // Commits arrive in order: the old r12 epoch dies first.
        assert_eq!(t.on_reclaim(&reclaim(9)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(9)), ReclaimDecision::Keep);
        // Two mappings (r11, new r12) were destroyed above; the third frees.
        assert_eq!(t.on_reclaim(&reclaim(9)), ReclaimDecision::Free);
    }

    #[test]
    fn restore_drops_wrong_path_entries() {
        let mut t = Mit::new(4);
        let ck = t.checkpoint();
        assert!(t.try_share(&me(3, 1, 2))); // wrong path
        let mut freed = Vec::new();
        t.restore(ck, &mut freed);
        assert_eq!(t.shared_count(), 0);
    }

    #[test]
    fn commit_flush_restores_architectural_image() {
        let mut t = Mit::new(4);
        assert!(t.try_share(&me(3, 1, 2)));
        t.on_sharer_commit(&me(3, 1, 2));
        assert!(t.try_share(&me(3, 4, 1))); // speculative, squashed by flush
        let mut freed = Vec::new();
        t.restore_to_committed(&mut freed);
        assert!(t.is_shared(RegClass::Int, PhysReg::new(3)));
        assert_eq!(t.on_reclaim(&reclaim(3)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(3)), ReclaimDecision::Free);
    }

    #[test]
    fn storage_is_small_but_checkpoints_are_fat() {
        let t = Mit::new(8);
        let s = t.storage();
        // Checkpoints cost #arch_reg bits per entry — more than the ISRB's
        // 3 bits per entry, the paper's point.
        assert_eq!(s.per_checkpoint_bits, 8 * 32);
    }
}
