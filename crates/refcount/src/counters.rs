//! The conventional per-register reference counter scheme (§1, §4.2) —
//! the baseline the paper argues against — and Roth's ROB×PRF matrix
//! (§4.2, \[22\]), which makes the same decisions.
//!
//! One up/down counter per physical register: incremented on allocation and
//! on every additional mapping, decremented on reclaim. Counters **cannot be
//! checkpointed** (a counter may have been decremented by an instruction
//! older than the checkpoint), so misprediction recovery must *walk the
//! squashed instructions sequentially* and undo their increments — the
//! recovery-latency cost modelled by [`PerRegCounters::recovery_stall_cycles`].
//!
//! Roth's matrix has a row per ROB entry and a column per register; a
//! column's population count is a reference count, so
//! [`PerRegCounters::roth_matrix`] keeps the counters and changes only the
//! recovery (a parallel row flash-clear, no walk) and the storage report
//! (the real matrix geometry, ≈7.8KB on Haswell — the paper's objection).

use crate::tracker::{
    CheckpointId, ReclaimDecision, ReclaimRequest, ShareRequest, SharingTracker, StorageReport,
    TrackerStats,
};
use regshare_types::{PhysReg, RegClass};

/// How a squash is recovered, which fixes the scheme's name, stall and
/// storage.
#[derive(Debug, Clone, Copy)]
enum Recovery {
    /// Counters: walk the squashed µ-ops, this many per cycle.
    Walk(usize),
    /// Roth's matrix: flash-clear the squashed rows of a matrix with this
    /// many rows.
    FlashClear { rob_entries: usize },
}

/// Per-register counter tracker with walk-based recovery, or Roth's matrix
/// with flash-clear recovery ([`PerRegCounters::roth_matrix`]).
///
/// # Examples
///
/// ```
/// use regshare_refcount::{PerRegCounters, SharingTracker};
/// use regshare_types::{PhysReg, RegClass};
///
/// let mut t = PerRegCounters::new(256, 8);
/// t.on_alloc(RegClass::Int, PhysReg::new(3));
/// // Squashing 40 µ-ops at 8/cycle costs 5 stall cycles:
/// assert_eq!(t.recovery_stall_cycles(40), 5);
/// ```
#[derive(Debug)]
pub struct PerRegCounters {
    counts: [Vec<u32>; 2],
    recovery: Recovery,
    stats: TrackerStats,
    #[cfg(debug_assertions)]
    trace: std::collections::HashMap<(usize, usize), Vec<&'static str>>,
}

impl PerRegCounters {
    /// Creates counters for `pregs_per_class` registers per class, with a
    /// squash walk that can undo `walk_width` µ-ops per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `walk_width == 0`.
    pub fn new(pregs_per_class: usize, walk_width: usize) -> PerRegCounters {
        assert!(walk_width > 0, "walk width must be positive");
        PerRegCounters::with_recovery(pregs_per_class, Recovery::Walk(walk_width))
    }

    /// Roth's matrix for `pregs_per_class` registers per class and
    /// `rob_entries` rows: the same counts, recovered by a parallel row
    /// flash-clear (no stall) and reported at the matrix's storage.
    ///
    /// # Examples
    ///
    /// ```
    /// use regshare_refcount::{PerRegCounters, SharingTracker};
    /// let t = PerRegCounters::roth_matrix(256, 192);
    /// // Haswell-scale: ~2 × 192 × 256 bits of matrix.
    /// assert!(t.storage().main_bits > 90_000);
    /// // Flash-clear recovery: no walk stall.
    /// assert_eq!(t.recovery_stall_cycles(100), 0);
    /// ```
    pub fn roth_matrix(pregs_per_class: usize, rob_entries: usize) -> PerRegCounters {
        PerRegCounters::with_recovery(pregs_per_class, Recovery::FlashClear { rob_entries })
    }

    fn with_recovery(pregs_per_class: usize, recovery: Recovery) -> PerRegCounters {
        PerRegCounters {
            counts: [vec![0; pregs_per_class], vec![0; pregs_per_class]],
            recovery,
            stats: TrackerStats::default(),
            #[cfg(debug_assertions)]
            trace: std::collections::HashMap::new(),
        }
    }

    #[inline]
    fn count_mut(&mut self, class: RegClass, preg: PhysReg) -> &mut u32 {
        &mut self.counts[class.index()][preg.index()]
    }

    #[cfg(debug_assertions)]
    fn note(&mut self, class: RegClass, preg: PhysReg, what: &'static str) {
        let v = self.trace.entry((class.index(), preg.index())).or_default();
        v.push(what);
        if v.len() > 16 {
            v.remove(0);
        }
    }
    #[cfg(not(debug_assertions))]
    fn note(&mut self, _c: RegClass, _p: PhysReg, _w: &'static str) {}
}

impl SharingTracker for PerRegCounters {
    fn name(&self) -> &'static str {
        match self.recovery {
            Recovery::Walk(_) => "per-reg-counters",
            Recovery::FlashClear { .. } => "roth-matrix",
        }
    }

    fn on_alloc(&mut self, class: RegClass, preg: PhysReg) {
        self.note(class, preg, "alloc");
        let cv = self.counts[class.index()][preg.index()];
        #[cfg(debug_assertions)]
        if cv != 0 {
            panic!(
                "allocating still-referenced {class} {preg} (count {cv}): {:?}",
                self.trace.get(&(class.index(), preg.index()))
            );
        }
        let _ = cv;
        *self.count_mut(class, preg) = 1;
    }

    fn try_share(&mut self, req: &ShareRequest) -> bool {
        self.note(req.class, req.preg, "share");
        *self.count_mut(req.class, req.preg) += 1;
        self.stats.shares_accepted += 1;
        let live = self.shared_count();
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(live);
        true
    }

    fn on_reclaim(&mut self, req: &ReclaimRequest) -> ReclaimDecision {
        self.note(req.class, req.preg, "reclaim");
        self.stats.reclaims += 1;
        #[cfg(debug_assertions)]
        if self.counts[req.class.index()][req.preg.index()] == 0 {
            panic!(
                "over-reclaim of {} {}: {:?}",
                req.class,
                req.preg,
                self.trace.get(&(req.class.index(), req.preg.index()))
            );
        }
        let c = self.count_mut(req.class, req.preg);
        debug_assert!(*c > 0, "reclaiming a free register");
        *c = c.saturating_sub(1);
        if *c == 0 {
            ReclaimDecision::Free
        } else {
            self.stats.reclaim_cam_hits += 1;
            ReclaimDecision::Keep
        }
    }

    fn checkpoint(&mut self) -> CheckpointId {
        // Counters cannot be checkpointed; recovery is walk-based.
        self.stats.checkpoints_taken += 1;
        0
    }

    fn restore(&mut self, _id: CheckpointId, _freed: &mut Vec<(RegClass, PhysReg)>) {
        // State repair happens through on_squash_uop during the walk.
        self.stats.restores += 1;
    }

    fn release_checkpoint(&mut self, _id: CheckpointId) {}

    fn restore_to_committed(&mut self, _freed: &mut Vec<(RegClass, PhysReg)>) {
        self.stats.restores += 1;
    }

    fn on_squash_share(&mut self, class: RegClass, preg: PhysReg) -> Option<(RegClass, PhysReg)> {
        self.note(class, preg, "squash-share");
        let v = self.count_mut(class, preg);
        debug_assert!(*v > 0, "squashing a share of a free register");
        *v = v.saturating_sub(1);
        if *v == 0 {
            // The original mapping was already reclaimed by a committed
            // instruction: the register would otherwise leak.
            Some((class, preg))
        } else {
            None
        }
    }

    fn on_squash_alloc(&mut self, class: RegClass, preg: PhysReg) {
        self.note(class, preg, "squash-alloc");
        let v = self.count_mut(class, preg);
        *v = v.saturating_sub(1);
    }

    fn recovery_stall_cycles(&self, squashed_uops: usize) -> u64 {
        match self.recovery {
            Recovery::Walk(width) => squashed_uops.div_ceil(width) as u64,
            Recovery::FlashClear { .. } => 0, // rows clear in parallel
        }
    }

    fn storage(&self) -> StorageReport {
        let regs = self.counts[0].len() + self.counts[1].len();
        let main_bits = match self.recovery {
            // 4-bit counter per register (must count allocation + sharers).
            Recovery::Walk(_) => regs * 4,
            // Rows × columns per class, plus the CRM columns the paper
            // notes are not even counted in its 7.8KB figure.
            Recovery::FlashClear { rob_entries } => rob_entries * regs,
        };
        StorageReport {
            main_bits,
            per_checkpoint_bits: 0,
        }
    }

    fn is_shared(&self, class: RegClass, preg: PhysReg) -> bool {
        self.counts[class.index()][preg.index()] >= 2
    }

    fn shared_count(&self) -> usize {
        self.counts.iter().flatten().filter(|&&c| c >= 2).count()
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
    fn alloc_share_reclaim_lifecycle() {
        let mut t = PerRegCounters::new(16, 8);
        t.on_alloc(RegClass::Int, PhysReg::new(1));
        assert!(!t.is_shared(RegClass::Int, PhysReg::new(1)));
        assert!(t.try_share(&share(1)));
        assert!(t.is_shared(RegClass::Int, PhysReg::new(1)));
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Free);
    }

    #[test]
    fn squash_walk_undoes_wrong_path_work() {
        let mut t = PerRegCounters::new(16, 8);
        t.on_alloc(RegClass::Int, PhysReg::new(2));
        t.try_share(&share(2)); // wrong-path share
        assert_eq!(t.on_squash_share(RegClass::Int, PhysReg::new(2)), None);
        // Back to a single reference: one reclaim frees.
        assert_eq!(t.on_reclaim(&reclaim(2)), ReclaimDecision::Free);
    }

    #[test]
    fn share_squash_after_reclaim_frees_the_register() {
        // The paper's Figure 3 situation, counter-style: the overwrite of
        // the original mapping commits while a wrong-path share is live.
        let mut t = PerRegCounters::new(16, 8);
        t.on_alloc(RegClass::Int, PhysReg::new(3));
        t.try_share(&share(3)); // wrong-path share (count 2)
        assert_eq!(t.on_reclaim(&reclaim(3)), ReclaimDecision::Keep); // count 1

        // Squash walk must report the register as freeable.
        assert_eq!(
            t.on_squash_share(RegClass::Int, PhysReg::new(3)),
            Some((RegClass::Int, PhysReg::new(3)))
        );
    }

    #[test]
    fn walk_cost_scales_with_squash_size() {
        let t = PerRegCounters::new(16, 8);
        assert_eq!(t.recovery_stall_cycles(0), 0);
        assert_eq!(t.recovery_stall_cycles(1), 1);
        assert_eq!(t.recovery_stall_cycles(8), 1);
        assert_eq!(t.recovery_stall_cycles(9), 2);
        assert_eq!(t.recovery_stall_cycles(192), 24);
    }

    #[test]
    fn roth_matrix_storage_matches_paper_scale() {
        // Haswell: 192-entry ROB, 168+168 registers → ~7.8KB.
        let t = PerRegCounters::roth_matrix(168, 192);
        assert_eq!(t.name(), "roth-matrix");
        let kb = t.storage().main_bits as f64 / 8.0 / 1024.0;
        assert!((7.5..8.2).contains(&kb), "matrix storage {kb:.2}KB");
    }

    #[test]
    fn roth_matrix_decisions_match_reference_counting() {
        let mut t = PerRegCounters::roth_matrix(16, 32);
        t.on_alloc(RegClass::Int, PhysReg::new(3));
        t.try_share(&share(3));
        assert_eq!(t.on_reclaim(&reclaim(3)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(3)), ReclaimDecision::Free);
    }

    #[test]
    fn storage_has_no_checkpoint_component() {
        let t = PerRegCounters::new(256, 8);
        let s = t.storage();
        assert_eq!(s.per_checkpoint_bits, 0);
        assert_eq!(s.main_bits, 512 * 4);
    }
}
