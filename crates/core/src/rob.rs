//! The reorder buffer, including the paper's third `release_head` pointer
//! for lazy register reclaiming (§3.3).
//!
//! Entries are addressed by sequence number (`slot = seq % capacity`), which
//! is exact because sequence numbers stay dense across squashes (squashed
//! numbers are re-used by the re-fetched path). Three pointers delimit
//! regions, oldest to youngest:
//!
//! ```text
//!   release_seq ──► committed, data still valid (lazy mode only)
//!   head_seq    ──► oldest in-flight (next to commit)
//!   tail_seq    ──► next sequence number to allocate
//! ```
//!
//! In eager mode `release_seq == head_seq` at all times. Occupancy is
//! `tail_seq - release_seq`, so keeping committed state reachable (for SMB
//! from committed instructions) genuinely consumes ROB space, as in the
//! paper.
//!
//! # Storage layout
//!
//! Entries are stored structure-of-arrays: the per-cycle scheduler and
//! commit-loop flags live in a dense [`RobHot`] lane (a `Copy` record of a
//! few dozen bytes), the bookkeeping consulted once per µ-op lifetime in a
//! [`RobCold`] lane, and the large, branch-only TAGE training payload in its
//! own sparse lane so it never rides along in entry copies. Squash scans —
//! which walk every slot on each misprediction — touch only the hot lane.

use regshare_isa::op::{BranchKind, MemRef, UopKind};
use regshare_predictors::tage::TagePrediction;
use regshare_refcount::ShareRequest;
use regshare_types::{Addr, ArchReg, HistorySnapshot, PhysReg, RegClass, SeqNum};

/// Why a commit-time flush was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// Memory-order violation (load executed before an older overlapping
    /// store computed its address).
    MemOrder,
    /// SMB validation failure: the bypassed register's value did not match
    /// the memory data at writeback.
    BypassMispredict,
}

/// Destination bookkeeping of a µ-op.
#[derive(Debug, Clone, Copy)]
pub struct DstInfo {
    /// Architectural destination.
    pub arch: ArchReg,
    /// Newly mapped physical register (fresh, or shared for ME/SMB).
    pub new_preg: PhysReg,
    /// Previous mapping (reclaimed at/after commit).
    pub old_preg: PhysReg,
    /// Whether `new_preg` came from the free list.
    pub fresh_alloc: bool,
    /// §4.3.4 flag filter: the overwritten mapping was marked
    /// possibly-shared, so reclaiming must CAM the tracker. (Kept as a
    /// statistic; the simulator always CAMs for correctness.)
    pub needs_cam: bool,
}

/// SMB bypass bookkeeping of a load.
#[derive(Debug, Clone, Copy)]
pub struct BypassInfo {
    /// The shared (producer's) physical register.
    pub preg: PhysReg,
    /// Its class.
    pub class: RegClass,
    /// Whether validation will succeed (oracle values compared at rename;
    /// *detected* at writeback).
    pub correct: bool,
    /// Whether the producer was already committed (lazy-reclaim bypass).
    pub from_committed: bool,
}

/// Control-flow bookkeeping of a branch µ-op. The predictor-side checkpoint
/// payloads live in the simulator (type-erased here via the `ckpt` index).
#[derive(Debug, Clone, Copy)]
pub struct BranchInfo {
    /// Branch kind.
    pub kind: BranchKind,
    /// Predicted next static index.
    pub pred_next: u32,
    /// Architectural next static index.
    pub actual_next: u32,
    /// Architectural direction (conditional branches).
    pub taken: bool,
    /// Predicted direction.
    pub pred_taken: bool,
    /// Set at fetch when the prediction is known wrong; resolution at
    /// execute triggers recovery.
    pub mispredicted: bool,
    /// Simulator-side checkpoint handle (index into its checkpoint table).
    pub ckpt: Option<u64>,
}

/// Hot per-entry state: identity plus the status flags the issue, writeback
/// and commit loops inspect every cycle. Kept `Copy` and small so squash
/// scans stream through a dense array.
#[derive(Debug, Clone, Copy)]
pub struct RobHot {
    /// Sequence number (identity).
    pub seq: SeqNum,
    /// Unique incarnation id: distinguishes re-fetched µ-ops that reuse a
    /// squashed sequence number, so stale execution events are ignored.
    pub uid: u64,
    /// µ-op kind.
    pub kind: UopKind,
    /// Fetched on a mispredicted path.
    pub wrong_path: bool,
    /// Execution finished (or µ-op needs no execution).
    pub completed: bool,
    /// Architecturally committed (awaiting release in lazy mode).
    pub committed: bool,
    /// The µ-op was an eliminated move (never issues).
    pub eliminated: bool,
    /// Loads/stores: address generation finished.
    pub agu_done: bool,
    /// Loads: a completion has been scheduled (stop pump retries).
    pub read_scheduled: bool,
    /// Pending commit-time flush.
    pub trap: Option<TrapKind>,
}

impl RobHot {
    fn vacant() -> RobHot {
        RobHot {
            seq: SeqNum(0),
            uid: 0,
            kind: UopKind::IntAlu,
            wrong_path: false,
            completed: false,
            committed: false,
            eliminated: false,
            agu_done: false,
            read_scheduled: false,
            trap: None,
        }
    }
}

/// Cold per-entry state: bookkeeping consulted at a handful of points in a
/// µ-op's lifetime (rename, address resolution, commit) rather than every
/// cycle.
#[derive(Debug, Clone, Copy)]
pub struct RobCold {
    /// PC.
    pub pc: Addr,
    /// Static index.
    pub sidx: u32,
    /// Destination bookkeeping.
    pub dst: Option<DstInfo>,
    /// Accepted sharing request (ME or SMB), for sharer-commit and
    /// squash-walk tracker events.
    pub share: Option<ShareRequest>,
    /// SMB bypass state (loads).
    pub bypass: Option<BypassInfo>,
    /// Memory reference (loads/stores).
    pub mem: Option<MemRef>,
    /// Load queue index.
    pub lq: Option<usize>,
    /// Store queue index.
    pub sq: Option<usize>,
    /// Store data architectural register (DDT training).
    pub store_data: Option<ArchReg>,
    /// Branch bookkeeping.
    pub branch: Option<BranchInfo>,
    /// Fetch-time history (distance predictor indexing/training).
    pub history: HistorySnapshot,
    /// Oracle result value.
    pub result: u64,
}

impl RobCold {
    fn vacant() -> RobCold {
        RobCold {
            pc: 0,
            sidx: 0,
            dst: None,
            share: None,
            bypass: None,
            mem: None,
            lq: None,
            sq: None,
            store_data: None,
            branch: None,
            history: HistorySnapshot::default(),
            result: 0,
        }
    }
}

/// One reorder buffer entry, as handed to [`Rob::alloc`]. Storage inside the
/// ROB is structure-of-arrays; this record only exists at the allocation
/// boundary (and in tests).
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Scheduler-visible state.
    pub hot: RobHot,
    /// Lifetime bookkeeping.
    pub cold: RobCold,
    /// TAGE prediction captured at fetch (trained at commit); branch-only,
    /// stored in its own lane.
    pub tage_pred: Option<Box<TagePrediction>>,
}

/// The reorder buffer. See the module docs for the pointer discipline and
/// the structure-of-arrays storage layout.
#[derive(Debug)]
pub struct Rob {
    present: Vec<bool>,
    hot: Vec<RobHot>,
    cold: Vec<RobCold>,
    tage: Vec<Option<Box<TagePrediction>>>,
    capacity: usize,
    release_seq: u64,
    head_seq: u64,
    tail_seq: u64,
}

impl Rob {
    /// Creates an empty ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Rob {
        Rob {
            present: vec![false; capacity],
            hot: vec![RobHot::vacant(); capacity],
            cold: vec![RobCold::vacant(); capacity],
            tage: vec![None; capacity],
            capacity,
            release_seq: 0,
            head_seq: 0,
            tail_seq: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied entries (including committed-but-unreleased).
    pub fn occupancy(&self) -> usize {
        (self.tail_seq - self.release_seq) as usize
    }

    /// In-flight (un-committed) entries.
    pub fn in_flight(&self) -> usize {
        (self.tail_seq - self.head_seq) as usize
    }

    /// Whether an entry can be allocated.
    pub fn has_space(&self) -> bool {
        self.occupancy() < self.capacity
    }

    /// Sequence number the next allocation must carry.
    pub fn next_seq(&self) -> SeqNum {
        SeqNum(self.tail_seq)
    }

    /// Oldest in-flight sequence number (commit head).
    pub fn head_seq(&self) -> SeqNum {
        SeqNum(self.head_seq)
    }

    /// Oldest unreleased sequence number.
    pub fn release_seq(&self) -> SeqNum {
        SeqNum(self.release_seq)
    }

    #[inline]
    fn slot_of(&self, seq: SeqNum) -> usize {
        (seq.0 % self.capacity as u64) as usize
    }

    #[inline]
    fn live_slot(&self, seq: SeqNum) -> Option<usize> {
        let slot = self.slot_of(seq);
        (self.present[slot] && self.hot[slot].seq == seq).then_some(slot)
    }

    /// Allocates the entry for `entry.hot.seq` (which must equal
    /// [`Rob::next_seq`]).
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full or the sequence number is out of order.
    pub fn alloc(&mut self, entry: RobEntry) -> usize {
        assert!(self.has_space(), "ROB overflow");
        assert_eq!(
            entry.hot.seq.0, self.tail_seq,
            "out-of-order ROB allocation"
        );
        let slot = self.slot_of(entry.hot.seq);
        debug_assert!(!self.present[slot], "ROB slot still occupied");
        self.present[slot] = true;
        self.hot[slot] = entry.hot;
        self.cold[slot] = entry.cold;
        self.tage[slot] = entry.tage_pred;
        self.tail_seq += 1;
        slot
    }

    /// The hot lane of `seq`, if still present (in-flight or
    /// committed-but-unreleased).
    #[inline]
    pub fn hot(&self, seq: SeqNum) -> Option<&RobHot> {
        self.live_slot(seq).map(|s| &self.hot[s])
    }

    /// Mutable variant of [`Rob::hot`].
    #[inline]
    pub fn hot_mut(&mut self, seq: SeqNum) -> Option<&mut RobHot> {
        self.live_slot(seq).map(|s| &mut self.hot[s])
    }

    /// The cold lane of `seq`, if still present.
    #[inline]
    pub fn cold(&self, seq: SeqNum) -> Option<&RobCold> {
        self.live_slot(seq).map(|s| &self.cold[s])
    }

    /// Mutable variant of [`Rob::cold`].
    #[inline]
    pub fn cold_mut(&mut self, seq: SeqNum) -> Option<&mut RobCold> {
        self.live_slot(seq).map(|s| &mut self.cold[s])
    }

    /// Both lanes of `seq`, if still present.
    #[inline]
    pub fn get(&self, seq: SeqNum) -> Option<(&RobHot, &RobCold)> {
        self.live_slot(seq).map(|s| (&self.hot[s], &self.cold[s]))
    }

    /// Mutable variant of [`Rob::get`] (split borrow across the lanes).
    #[inline]
    pub fn get_mut(&mut self, seq: SeqNum) -> Option<(&mut RobHot, &mut RobCold)> {
        let slot = self.live_slot(seq)?;
        let hot = &mut self.hot[slot];
        let cold = &mut self.cold[slot];
        Some((hot, cold))
    }

    /// Takes the TAGE prediction stored with `seq`, if any.
    pub fn take_tage_pred(&mut self, seq: SeqNum) -> Option<Box<TagePrediction>> {
        let slot = self.live_slot(seq)?;
        self.tage[slot].take()
    }

    /// The oldest in-flight entry's lanes, if any.
    pub fn head(&self) -> Option<(&RobHot, &RobCold)> {
        if self.head_seq == self.tail_seq {
            None
        } else {
            self.get(SeqNum(self.head_seq))
        }
    }

    /// Marks the head committed, advances the commit pointer and returns a
    /// copy of both lanes. In eager mode the caller immediately follows
    /// with [`Rob::release_next`].
    ///
    /// # Panics
    ///
    /// Panics if there is no in-flight head.
    pub fn commit_head(&mut self) -> (RobHot, RobCold) {
        assert!(self.head_seq < self.tail_seq);
        let seq = SeqNum(self.head_seq);
        self.head_seq += 1;
        let slot = self.live_slot(seq).expect("head entry present");
        self.hot[slot].committed = true;
        (self.hot[slot], self.cold[slot])
    }

    /// Releases (drops) the oldest committed entry, returning copies of its
    /// lanes for reclaim processing. Returns `None` when release has caught
    /// up with the commit head.
    pub fn release_next(&mut self) -> Option<(RobHot, RobCold)> {
        if self.release_seq == self.head_seq {
            return None;
        }
        let seq = SeqNum(self.release_seq);
        let slot = self.slot_of(seq);
        debug_assert!(self.present[slot], "released entry present");
        debug_assert_eq!(self.hot[slot].seq, seq);
        debug_assert!(self.hot[slot].committed);
        self.present[slot] = false;
        self.tage[slot] = None;
        self.release_seq += 1;
        Some((self.hot[slot], self.cold[slot]))
    }

    /// Squashes every entry younger than `after`, invoking `f` on each
    /// (youngest-first order is *not* guaranteed), and resets the tail.
    pub fn squash_younger(&mut self, after: SeqNum, mut f: impl FnMut(&RobHot, &RobCold)) -> usize {
        let mut n = 0;
        for slot in 0..self.capacity {
            if self.present[slot] && self.hot[slot].seq > after && !self.hot[slot].committed {
                self.present[slot] = false;
                self.tage[slot] = None;
                f(&self.hot[slot], &self.cold[slot]);
                n += 1;
            }
        }
        self.tail_seq = (after.0 + 1).max(self.head_seq);
        n
    }

    /// Squashes *all* in-flight entries (commit-time flush), invoking `f`
    /// on each, and resets the tail to the commit head.
    pub fn squash_all_inflight(&mut self, mut f: impl FnMut(&RobHot, &RobCold)) -> usize {
        let mut n = 0;
        for slot in 0..self.capacity {
            if self.present[slot] && !self.hot[slot].committed {
                self.present[slot] = false;
                self.tage[slot] = None;
                f(&self.hot[slot], &self.cold[slot]);
                n += 1;
            }
        }
        self.tail_seq = self.head_seq;
        n
    }

    /// Iterates over present (in-flight or unreleased) entries.
    pub fn iter(&self) -> impl Iterator<Item = (&RobHot, &RobCold)> {
        self.present
            .iter()
            .zip(self.hot.iter().zip(self.cold.iter()))
            .filter(|(p, _)| **p)
            .map(|(_, pair)| pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64) -> RobEntry {
        RobEntry {
            hot: RobHot {
                seq: SeqNum(seq),
                uid: seq,
                kind: UopKind::IntAlu,
                wrong_path: false,
                completed: false,
                committed: false,
                eliminated: false,
                agu_done: false,
                read_scheduled: false,
                trap: None,
            },
            cold: RobCold {
                pc: 0x400000 + seq * 4,
                sidx: seq as u32,
                dst: None,
                share: None,
                bypass: None,
                mem: None,
                lq: None,
                sq: None,
                store_data: None,
                branch: None,
                history: HistorySnapshot::default(),
                result: 0,
            },
            tage_pred: None,
        }
    }

    #[test]
    fn alloc_get_commit_release_cycle() {
        let mut rob = Rob::new(4);
        for i in 0..3 {
            rob.alloc(entry(i));
        }
        assert_eq!(rob.occupancy(), 3);
        assert_eq!(rob.head().unwrap().0.seq, SeqNum(0));
        rob.hot_mut(SeqNum(0)).unwrap().completed = true;
        rob.commit_head();
        assert_eq!(rob.in_flight(), 2);
        assert_eq!(rob.occupancy(), 3, "lazy: entry retained until release");
        let (released, _) = rob.release_next().unwrap();
        assert_eq!(released.seq, SeqNum(0));
        assert_eq!(rob.occupancy(), 2);
        assert!(rob.release_next().is_none());
    }

    #[test]
    fn committed_entries_remain_reachable_until_release() {
        let mut rob = Rob::new(4);
        rob.alloc(entry(0));
        rob.hot_mut(SeqNum(0)).unwrap().completed = true;
        rob.commit_head();
        // Still reachable for SMB-from-committed.
        assert!(rob.get(SeqNum(0)).is_some());
        assert!(rob.hot(SeqNum(0)).unwrap().committed);
        rob.release_next();
        assert!(rob.get(SeqNum(0)).is_none());
    }

    #[test]
    fn capacity_counts_unreleased() {
        let mut rob = Rob::new(2);
        rob.alloc(entry(0));
        rob.alloc(entry(1));
        assert!(!rob.has_space());
        rob.hot_mut(SeqNum(0)).unwrap().completed = true;
        rob.commit_head();
        // Committed but unreleased: still no space (the paper's trade-off).
        assert!(!rob.has_space());
        rob.release_next();
        assert!(rob.has_space());
        rob.alloc(entry(2));
    }

    #[test]
    fn squash_younger_resets_tail() {
        let mut rob = Rob::new(8);
        for i in 0..6 {
            rob.alloc(entry(i));
        }
        let mut squashed = Vec::new();
        let n = rob.squash_younger(SeqNum(2), |h, _| squashed.push(h.seq.0));
        assert_eq!(n, 3);
        squashed.sort();
        assert_eq!(squashed, vec![3, 4, 5]);
        assert_eq!(rob.next_seq(), SeqNum(3));
        // Re-allocate the squashed range.
        rob.alloc(entry(3));
        assert!(rob.get(SeqNum(3)).is_some());
    }

    #[test]
    fn squash_all_inflight_spares_committed() {
        let mut rob = Rob::new(8);
        for i in 0..4 {
            rob.alloc(entry(i));
        }
        rob.hot_mut(SeqNum(0)).unwrap().completed = true;
        rob.commit_head();
        let n = rob.squash_all_inflight(|_, _| {});
        assert_eq!(n, 3);
        assert_eq!(rob.next_seq(), SeqNum(1));
        assert!(
            rob.get(SeqNum(0)).is_some(),
            "committed entry kept for release"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_order_alloc_panics() {
        let mut rob = Rob::new(4);
        rob.alloc(entry(5));
    }

    #[test]
    fn seq_reuse_after_wraparound() {
        let mut rob = Rob::new(2);
        for i in 0..10u64 {
            rob.alloc(entry(i));
            rob.hot_mut(SeqNum(i)).unwrap().completed = true;
            rob.commit_head();
            rob.release_next();
        }
        assert_eq!(rob.next_seq(), SeqNum(10));
        assert_eq!(rob.occupancy(), 0);
    }

    #[test]
    fn tage_pred_lane_takes_once() {
        let mut rob = Rob::new(4);
        rob.alloc(entry(0));
        assert!(rob.take_tage_pred(SeqNum(0)).is_none());
        // Stale seq never resolves.
        assert!(rob.take_tage_pred(SeqNum(3)).is_none());
    }
}
