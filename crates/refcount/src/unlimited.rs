//! The ideal tracker: unbounded per-register dual counters with
//! instantaneous checkpoint recovery.
//!
//! Functionally this is an ISRB with unlimited entries and unbounded
//! counters, implemented independently (hash map keyed by register rather
//! than positional slots) so property tests can cross-check the two.

use crate::tracker::{
    CheckpointId, ReclaimDecision, ReclaimRequest, ShareRequest, SharingTracker, StorageReport,
    TrackerStats,
};
use regshare_types::hasher::FastMap;
use regshare_types::{PhysReg, RegClass};
use std::collections::VecDeque;

type Key = (u8, u16);

#[inline]
fn key(class: RegClass, preg: PhysReg) -> Key {
    (class.index() as u8, preg.index() as u16)
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    referenced: u64,
    committed: u64,
    referenced_committed: u64,
}

/// The ideal (oracle) sharing tracker. See the module docs.
///
/// # Examples
///
/// ```
/// use regshare_refcount::{UnlimitedTracker, SharingTracker, ShareRequest,
///                         ShareKind, ReclaimRequest, ReclaimDecision};
/// use regshare_types::{ArchReg, PhysReg, RegClass};
///
/// let mut t = UnlimitedTracker::new();
/// let req = ShareRequest { class: RegClass::Int, preg: PhysReg::new(4),
///                          kind: ShareKind::Bypass { arch_dst: ArchReg::int(0) } };
/// assert!(t.try_share(&req));
/// let rec = ReclaimRequest { class: RegClass::Int, preg: PhysReg::new(4), arch: ArchReg::int(0), renews: false };
/// assert_eq!(t.on_reclaim(&rec), ReclaimDecision::Keep);
/// assert_eq!(t.on_reclaim(&rec), ReclaimDecision::Free);
/// ```
#[derive(Debug, Default)]
pub struct UnlimitedTracker {
    live: FastMap<Key, Entry>,
    checkpoints: VecDeque<(CheckpointId, FastMap<Key, u64>)>,
    next_ckpt: CheckpointId,
    stats: TrackerStats,
}

impl UnlimitedTracker {
    /// Creates an empty tracker.
    pub fn new() -> UnlimitedTracker {
        UnlimitedTracker::default()
    }

    fn free_key(&mut self, k: Key) {
        self.live.remove(&k);
        self.stats.entries_freed += 1;
        for (_, snap) in &mut self.checkpoints {
            snap.remove(&k);
        }
    }

    fn restore_with(
        &mut self,
        lookup: impl Fn(&Entry, Key) -> u64,
        freed: &mut Vec<(RegClass, PhysReg)>,
    ) {
        // Sort so the freed-register order (and thus downstream free-list
        // order) is independent of hash-map iteration order.
        let mut keys: Vec<Key> = self.live.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let e = self.live[&k];
            let ref_ck = lookup(&e, k);
            let class = if k.0 == 0 {
                RegClass::Int
            } else {
                RegClass::Fp
            };
            let preg = PhysReg::new(k.1 as usize);
            if e.committed > ref_ck {
                self.free_key(k);
                freed.push((class, preg));
            } else if e.committed == 0 && ref_ck == 0 {
                self.free_key(k);
            } else {
                self.live.get_mut(&k).expect("live entry").referenced = ref_ck;
            }
        }
    }
}

impl SharingTracker for UnlimitedTracker {
    fn name(&self) -> &'static str {
        "unlimited"
    }

    fn try_share(&mut self, req: &ShareRequest) -> bool {
        let e = self.live.entry(key(req.class, req.preg)).or_default();
        e.referenced += 1;
        self.stats.shares_accepted += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.live.len());
        true
    }

    fn on_sharer_commit(&mut self, req: &ShareRequest) {
        if let Some(e) = self.live.get_mut(&key(req.class, req.preg)) {
            e.referenced_committed += 1;
        }
    }

    fn on_reclaim(&mut self, req: &ReclaimRequest) -> ReclaimDecision {
        self.stats.reclaims += 1;
        let k = key(req.class, req.preg);
        match self.live.get_mut(&k) {
            None => ReclaimDecision::Free,
            Some(e) => {
                self.stats.reclaim_cam_hits += 1;
                debug_assert!(e.committed <= e.referenced);
                if e.referenced == e.committed {
                    self.free_key(k);
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
        let snap = self
            .live
            .iter()
            .map(|(&k, e)| (k, e.referenced))
            .collect::<FastMap<Key, u64>>();
        self.checkpoints.push_back((id, snap));
        self.stats.checkpoints_taken += 1;
        id
    }

    fn restore(&mut self, id: CheckpointId, freed: &mut Vec<(RegClass, PhysReg)>) {
        self.stats.restores += 1;
        while let Some((back_id, _)) = self.checkpoints.back() {
            if *back_id > id {
                self.checkpoints.pop_back();
            } else {
                break;
            }
        }
        let (ck_id, snap) = self.checkpoints.pop_back().expect("checkpoint exists");
        assert_eq!(ck_id, id, "restore to unknown checkpoint");
        self.restore_with(|_, k| snap.get(&k).copied().unwrap_or(0), freed);
    }

    fn release_checkpoint(&mut self, id: CheckpointId) {
        if let Some(pos) = crate::tracker::ckpt_pos(&self.checkpoints, id, |c| c.0) {
            self.checkpoints.remove(pos);
        }
    }

    fn restore_to_committed(&mut self, freed: &mut Vec<(RegClass, PhysReg)>) {
        self.stats.restores += 1;
        self.checkpoints.clear();
        self.restore_with(|e, _| e.referenced_committed, freed);
    }

    fn storage(&self) -> StorageReport {
        // Idealized: two 32-bit counters per physical register, both classes,
        // with a full referenced image per checkpoint.
        let regs = 2 * 256;
        StorageReport {
            main_bits: regs * 64,
            per_checkpoint_bits: regs * 32,
        }
    }

    fn is_shared(&self, class: RegClass, preg: PhysReg) -> bool {
        self.live.contains_key(&key(class, preg))
    }

    fn shared_count(&self) -> usize {
        self.live.len()
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
    fn never_rejects() {
        let mut t = UnlimitedTracker::new();
        for p in 0..500 {
            for _ in 0..10 {
                assert!(t.try_share(&share(p)));
            }
        }
        assert_eq!(t.stats().shares_accepted, 5000);
    }

    #[test]
    fn figure3_example_matches_isrb() {
        let mut t = UnlimitedTracker::new();
        assert!(t.try_share(&share(1)));
        let ck = t.checkpoint();
        assert!(t.try_share(&share(1)));
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(1)), ReclaimDecision::Keep);
        let mut freed = Vec::new();
        t.restore(ck, &mut freed);
        assert_eq!(freed, vec![(RegClass::Int, PhysReg::new(1))]);
    }

    #[test]
    fn commit_flush_keeps_architectural_shares() {
        let mut t = UnlimitedTracker::new();
        t.try_share(&share(2));
        t.on_sharer_commit(&share(2));
        t.try_share(&share(2)); // speculative
        let mut freed = Vec::new();
        t.restore_to_committed(&mut freed);
        assert!(t.is_shared(RegClass::Int, PhysReg::new(2)));
        assert_eq!(t.on_reclaim(&reclaim(2)), ReclaimDecision::Keep);
        assert_eq!(t.on_reclaim(&reclaim(2)), ReclaimDecision::Free);
    }
}
