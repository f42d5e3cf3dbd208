//! The [`SharingTracker`] trait: the event interface between the core and a
//! register reference-counting scheme.
//!
//! # Event protocol
//!
//! The core drives a tracker with the following events (all physical
//! registers are class-local, so every event carries a [`RegClass`]):
//!
//! - **`on_alloc`** — a physical register was popped from the free list at
//!   rename (possibly on the wrong path).
//! - **`try_share`** — rename wants an additional mapping to an existing
//!   physical register (move elimination or SMB bypass). The tracker may
//!   refuse (structure full, counter saturated, or the scheme cannot track
//!   this kind of sharing), in which case the optimization is aborted —
//!   *not* stalled — exactly as the paper prescribes.
//! - **`on_sharer_commit`** — a µ-op whose `try_share` was accepted has
//!   committed. This maintains the *architectural* reference picture needed
//!   to repair state after commit-time flushes (memory traps, bypass
//!   validation failures), mirroring how the Commit Rename Map repairs the
//!   Rename Map (§4.1).
//! - **`on_reclaim`** — a committing (or lazily release-scanned) µ-op
//!   overwrote an architectural mapping; the tracker decides whether the old
//!   physical register is [`ReclaimDecision::Free`] or must be
//!   [`ReclaimDecision::Keep`]-ed alive.
//! - **`checkpoint` / `restore` / `release_checkpoint`** — branch-scoped
//!   checkpoints. `restore(id)` repairs speculative state and discards `id`
//!   and everything younger; `release_checkpoint(id)` drops the oldest
//!   checkpoint when its branch commits.
//! - **`restore_to_committed`** — a commit-time flush squashed *all*
//!   in-flight µ-ops; speculative tracking state is rebuilt from the
//!   architectural picture.
//! - **`on_squash_share` / `on_squash_alloc`** — walk-based schemes
//!   (per-register counters) are additionally informed of every squashed
//!   µ-op so they can undo its share/allocation; checkpointed schemes
//!   ignore these.
//! - **`recovery_stall_cycles`** — the modelled front-end stall a squash
//!   inflicts beyond checkpoint restoration (zero for checkpointed schemes,
//!   proportional to squashed µ-ops for walk-based ones).

use regshare_types::{ArchReg, PhysReg, RegClass};
use std::collections::VecDeque;
use std::fmt;

/// Monotonically increasing checkpoint identifier.
pub type CheckpointId = u64;

/// Locates checkpoint `id` in an id-ordered deque in O(1).
///
/// Ids are allocated monotonically and checkpoints retire from either end
/// (restore pops the youngest suffix, release drops the oldest), so the live
/// ids stay contiguous and `id - front_id` indexes the deque directly. Ids
/// are sorted ascending regardless, so a binary-search backstop keeps the
/// lookup correct even if a caller ever breaks the contiguity pattern.
pub(crate) fn ckpt_pos<T>(
    deque: &VecDeque<T>,
    id: CheckpointId,
    id_of: impl FnMut(&T) -> CheckpointId,
) -> Option<usize> {
    let mut id_of = id_of;
    let front = id_of(deque.front()?);
    let pos = usize::try_from(id.checked_sub(front)?).ok()?;
    match deque.get(pos) {
        Some(c) if id_of(c) == id => Some(pos),
        _ => deque.binary_search_by_key(&id, id_of).ok(),
    }
}

/// Dead images a [`CheckpointStack`] keeps for reuse, so that taking one
/// checkpoint per predicted branch does not allocate in steady state.
const SPARE_CAP: usize = 64;

/// Branch-scoped recovery images in id order: the one checkpoint discipline
/// of the core's rename checkpoints and of the ISRB and RDA trackers.
///
/// [`push`](Self::push) takes the next monotonic id at a predicted branch.
/// The branch then commits ([`release`](Self::release), oldest first),
/// mispredicts ([`restore`](Self::restore): every younger image dies and its
/// own comes back), or is squashed by a commit-time flush
/// ([`clear`](Self::clear)). Dead images are kept, up to a bound, and
/// refilled by [`push_from`](Self::push_from).
#[derive(Debug)]
pub struct CheckpointStack<T> {
    live: VecDeque<(CheckpointId, T)>,
    next_id: CheckpointId,
    spare: Vec<T>,
}

impl<T> Default for CheckpointStack<T> {
    fn default() -> Self {
        CheckpointStack {
            live: VecDeque::new(),
            next_id: 0,
            spare: Vec::new(),
        }
    }
}

impl<T> CheckpointStack<T> {
    /// Live checkpoints.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no checkpoint is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Pushes `image` as the youngest checkpoint and returns its id.
    pub fn push(&mut self, image: T) -> CheckpointId {
        self.live.push_back((self.next_id, image));
        self.next_id += 1;
        self.next_id - 1
    }

    /// Keeps a dead image for reuse (dropped beyond the bound).
    pub fn recycle(&mut self, image: T) {
        keep(&mut self.spare, image);
    }

    /// Removes and returns the image of `id`, whose branch committed. An
    /// unknown id (already restored or squashed) is a no-op.
    pub fn release(&mut self, id: CheckpointId) -> Option<T> {
        let pos = ckpt_pos(&self.live, id, |c| c.0)?;
        debug_assert_eq!(pos, 0, "checkpoints must be released oldest-first");
        self.live.remove(pos).map(|(_, image)| image)
    }

    /// Returns the image of `id`, whose branch mispredicted, and keeps every
    /// younger image for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn restore(&mut self, id: CheckpointId) -> T {
        let spare = &mut self.spare;
        cut_to(&mut self.live, id, |image| keep(spare, image))
    }

    /// [`restore`](Self::restore), handing each younger image to `dead`.
    pub fn restore_with(&mut self, id: CheckpointId, dead: impl FnMut(T)) -> T {
        cut_to(&mut self.live, id, dead)
    }

    /// Drops every image (a commit-time flush), keeping them for reuse.
    pub fn clear(&mut self) {
        let spare = &mut self.spare;
        self.live
            .drain(..)
            .rev()
            .for_each(|(_, image)| keep(spare, image));
    }

    /// [`clear`](Self::clear), handing each image to `dead`.
    pub fn drain(&mut self, mut dead: impl FnMut(T)) {
        self.live.drain(..).rev().for_each(|(_, image)| dead(image));
    }

    /// Every live image, oldest first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.live.iter_mut().map(|(_, image)| image)
    }
}

impl<V> CheckpointStack<Vec<V>> {
    /// Pushes an image of `values`, refilling a dead buffer when one is kept.
    pub fn push_from(&mut self, values: impl Iterator<Item = V>) -> CheckpointId {
        let mut image = self.spare.pop().unwrap_or_default();
        image.clear();
        image.extend(values);
        self.push(image)
    }
}

fn keep<T>(spare: &mut Vec<T>, image: T) {
    if spare.len() < SPARE_CAP {
        spare.push(image);
    }
}

/// Hands every image younger than `id` to `dead`, youngest first, and pops
/// `id`'s own.
fn cut_to<T>(live: &mut VecDeque<(CheckpointId, T)>, id: CheckpointId, dead: impl FnMut(T)) -> T {
    let Some(pos) = ckpt_pos(live, id, |c| c.0) else {
        panic!("restore to unknown checkpoint {id}");
    };
    live.drain(pos + 1..)
        .rev()
        .map(|(_, image)| image)
        .for_each(dead);
    live.pop_back().expect("found above").1
}

/// Outcome of a reclaim request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimDecision {
    /// The physical register has no remaining mappings; push it to the free
    /// list.
    Free,
    /// The register is still referenced by another mapping; do not free it.
    Keep,
}

/// What kind of sharing a [`ShareRequest`] is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareKind {
    /// Move elimination: both architectural registers are visible in the
    /// move instruction (the property the MIT exploits).
    MoveElim {
        /// The move's architectural destination.
        arch_dst: ArchReg,
        /// The move's architectural source.
        arch_src: ArchReg,
    },
    /// Speculative memory bypassing: only the bypassing instruction's
    /// destination is architecturally visible; the original producer's
    /// architectural register may already have been re-renamed.
    Bypass {
        /// The bypassing load's architectural destination.
        arch_dst: ArchReg,
    },
}

/// A rename-time request to add a mapping to an existing physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareRequest {
    /// Register class.
    pub class: RegClass,
    /// The physical register to be shared.
    pub preg: PhysReg,
    /// The kind of sharing.
    pub kind: ShareKind,
}

/// A commit-time (or release-scan-time) request to reclaim the physical
/// register previously mapped to `arch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimRequest {
    /// Register class.
    pub class: RegClass,
    /// The old physical register being reclaimed.
    pub preg: PhysReg,
    /// The architectural register whose mapping was overwritten.
    pub arch: ArchReg,
    /// The overwriting instruction re-mapped `arch` to the *same* physical
    /// register (an eliminated self-move or repeated move): schemes keyed by
    /// architectural names (MIT) must not clear the mapping bit.
    pub renews: bool,
}

/// Storage accounting for a scheme (paper §4.2/§4.3.3 comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageReport {
    /// Bits of always-present state.
    pub main_bits: usize,
    /// Additional bits required per recovery checkpoint.
    pub per_checkpoint_bits: usize,
}

impl StorageReport {
    /// Total bits with `n` live checkpoints.
    pub fn total_bits(&self, checkpoints: usize) -> usize {
        self.main_bits + checkpoints * self.per_checkpoint_bits
    }
}

impl fmt::Display for StorageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bits (+{} bits/checkpoint)",
            self.main_bits, self.per_checkpoint_bits
        )
    }
}

/// Counters every tracker maintains (experiment plumbing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackerStats {
    /// Shares accepted.
    pub shares_accepted: u64,
    /// Shares rejected because the structure was full.
    pub shares_rejected_full: u64,
    /// Shares rejected because a counter was saturated.
    pub shares_rejected_saturated: u64,
    /// Shares rejected because the scheme cannot track this kind
    /// (e.g. SMB on the MIT).
    pub shares_rejected_kind: u64,
    /// Reclaim requests processed.
    pub reclaims: u64,
    /// Reclaims that matched a tracked (shared) register.
    pub reclaim_cam_hits: u64,
    /// Tracked entries freed (by reclaim or recovery).
    pub entries_freed: u64,
    /// Checkpoints taken.
    pub checkpoints_taken: u64,
    /// Restores performed.
    pub restores: u64,
    /// Checkpoint-state writes performed at commit time (the RDA's burden;
    /// zero for the ISRB by construction).
    pub commit_checkpoint_writes: u64,
    /// Peak number of simultaneously tracked registers.
    pub peak_occupancy: usize,
}

regshare_types::impl_snap!(TrackerStats {
    shares_accepted,
    shares_rejected_full,
    shares_rejected_saturated,
    shares_rejected_kind,
    reclaims,
    reclaim_cam_hits,
    entries_freed,
    checkpoints_taken,
    restores,
    commit_checkpoint_writes,
    peak_occupancy
});

/// A register reference-counting scheme. See the module documentation for
/// the full event protocol.
pub trait SharingTracker: fmt::Debug {
    /// Short scheme name for reports.
    fn name(&self) -> &'static str;

    /// A physical register was allocated from the free list.
    fn on_alloc(&mut self, _class: RegClass, _preg: PhysReg) {}

    /// Rename requests an additional mapping to `req.preg`.
    /// Returns `false` if the share cannot be tracked (optimization aborts).
    fn try_share(&mut self, req: &ShareRequest) -> bool;

    /// A µ-op whose share was accepted has committed. The original request
    /// is passed back so schemes keyed by architectural names (MIT) can
    /// update their architectural image.
    fn on_sharer_commit(&mut self, _req: &ShareRequest) {}

    /// A committing µ-op overwrote the mapping that held `req.preg`.
    fn on_reclaim(&mut self, req: &ReclaimRequest) -> ReclaimDecision;

    /// Takes a checkpoint (at a predicted branch).
    fn checkpoint(&mut self) -> CheckpointId;

    /// Restores to checkpoint `id` after a branch misprediction, appending
    /// any registers freed during recovery to `freed`. Discards `id` and all
    /// younger checkpoints.
    fn restore(&mut self, id: CheckpointId, freed: &mut Vec<(RegClass, PhysReg)>);

    /// The branch owning checkpoint `id` committed; drop the checkpoint.
    fn release_checkpoint(&mut self, id: CheckpointId);

    /// A commit-time flush squashed everything in flight; rebuild from the
    /// architectural picture, appending freed registers to `freed`, and drop
    /// all checkpoints.
    fn restore_to_committed(&mut self, freed: &mut Vec<(RegClass, PhysReg)>);

    /// Walk hook: a squashed µ-op's accepted *share* is undone. Returns the
    /// register if the walk discovers it has no remaining mappings (its
    /// original mapping was already reclaimed by a committed instruction, so
    /// the free-list pointer restore does not cover it). Checkpointed
    /// schemes repair through [`SharingTracker::restore`] and ignore this.
    ///
    /// The core drives squash walks in two passes — all shares first, then
    /// all allocations — so a zero count during the share pass is proof that
    /// no squashed allocation still accounts for the register.
    fn on_squash_share(&mut self, _class: RegClass, _preg: PhysReg) -> Option<(RegClass, PhysReg)> {
        None
    }

    /// Walk hook: a squashed µ-op's *allocation* is undone. The register
    /// itself is recovered by the free-list pointer restore (default:
    /// ignore).
    fn on_squash_alloc(&mut self, _class: RegClass, _preg: PhysReg) {}

    /// Pipeline stall (cycles) this scheme adds to a squash of
    /// `squashed_uops` µ-ops, beyond single-cycle checkpoint restoration.
    fn recovery_stall_cycles(&self, _squashed_uops: usize) -> u64 {
        0
    }

    /// Storage accounting.
    fn storage(&self) -> StorageReport;

    /// Whether `preg` currently has more than one (tracked) mapping.
    fn is_shared(&self, class: RegClass, preg: PhysReg) -> bool;

    /// Number of currently tracked (shared) registers.
    fn shared_count(&self) -> usize;

    /// Statistics so far.
    fn stats(&self) -> TrackerStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_report_totals() {
        let r = StorageReport {
            main_bits: 480,
            per_checkpoint_bits: 96,
        };
        assert_eq!(r.total_bits(0), 480);
        assert_eq!(r.total_bits(4), 480 + 384);
        assert!(r.to_string().contains("480"));
    }

    #[test]
    fn share_kind_carries_arch_info() {
        let k = ShareKind::MoveElim {
            arch_dst: ArchReg::int(1),
            arch_src: ArchReg::int(2),
        };
        match k {
            ShareKind::MoveElim { arch_dst, arch_src } => {
                assert_eq!(arch_dst, ArchReg::int(1));
                assert_eq!(arch_src, ArchReg::int(2));
            }
            _ => panic!(),
        }
    }
}
