//! Load and store queues: store-to-load forwarding, ordering waits, and
//! memory-order violation detection (Table 1: 72/48 entries, STLF 4 cycles).

use regshare_isa::op::MemRef;
use regshare_types::SeqNum;

/// What a load should do after address generation, given the store queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadAction {
    /// Fully contained in an executed in-flight store: forward from it.
    Forward {
        /// The forwarding store.
        store_seq: SeqNum,
    },
    /// Overlaps an in-flight store without full containment (or the store's
    /// data is not forwardable): wait until that store commits and writes.
    WaitStoreCommit {
        /// The blocking store.
        store_seq: SeqNum,
    },
    /// No conflicting in-flight store: access the cache.
    Cache,
}

/// A store queue entry.
#[derive(Debug, Clone, Copy)]
pub struct SqEntry {
    /// Program-order sequence number.
    pub seq: SeqNum,
    /// ROB slot (for cross-indexing).
    pub rob_slot: usize,
    /// Address/size, known once the store has executed.
    pub mem: MemRef,
    /// Whether the address has been computed (AGU done).
    pub executed: bool,
}

/// A load queue entry.
#[derive(Debug, Clone, Copy)]
pub struct LqEntry {
    /// Program-order sequence number.
    pub seq: SeqNum,
    /// ROB slot.
    pub rob_slot: usize,
    /// Address/size.
    pub mem: MemRef,
    /// The load has obtained (or started obtaining) its value.
    pub read_started: bool,
    /// Store it forwarded from, if any.
    pub fwd_from: Option<SeqNum>,
    /// The load's value came through a *correct* SMB bypass: its
    /// architectural value is right regardless of memory-order races, so it
    /// cannot raise a violation (§3.1).
    pub bypassed_ok: bool,
}

/// The store queue.
#[derive(Debug)]
pub struct StoreQueue {
    entries: Vec<Option<SqEntry>>,
    count: usize,
}

impl StoreQueue {
    /// Creates a queue with `capacity` entries.
    pub fn new(capacity: usize) -> StoreQueue {
        StoreQueue {
            entries: vec![None; capacity],
            count: 0,
        }
    }

    /// Whether an entry can be allocated.
    pub fn has_space(&self) -> bool {
        self.count < self.entries.len()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Allocates an entry, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn alloc(&mut self, e: SqEntry) -> usize {
        let idx = self
            .entries
            .iter()
            .position(|s| s.is_none())
            .expect("store queue full");
        self.entries[idx] = Some(e);
        self.count += 1;
        idx
    }

    /// Frees entry `idx` (store committed or squashed).
    pub fn free(&mut self, idx: usize) {
        if self.entries[idx].take().is_some() {
            self.count -= 1;
        }
    }

    /// Mutable access to entry `idx`.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut SqEntry> {
        self.entries[idx].as_mut()
    }

    /// Shared access to entry `idx`.
    pub fn get(&self, idx: usize) -> Option<&SqEntry> {
        self.entries[idx].as_ref()
    }

    /// Frees all entries with `seq > after` (squash).
    pub fn squash_younger(&mut self, after: SeqNum) {
        for e in &mut self.entries {
            if matches!(e, Some(s) if s.seq > after) {
                *e = None;
                self.count -= 1;
            }
        }
    }

    /// Frees every entry (commit-time flush).
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
        self.count = 0;
    }

    /// Whether the store `seq` is still in flight and unexecuted (its
    /// address is unknown): the condition Store Sets ordering waits on.
    pub fn is_unexecuted(&self, seq: SeqNum) -> bool {
        self.entries
            .iter()
            .flatten()
            .any(|s| s.seq == seq && !s.executed)
    }

    /// Decides the [`LoadAction`] for a load at `load_seq` accessing `mem`.
    ///
    /// Scans older stores; the *youngest* older store with a known,
    /// overlapping address decides: containment + executed ⇒ forward,
    /// otherwise wait for its commit. Older stores with unknown addresses
    /// are speculated past (violations are caught at their execution).
    pub fn load_action(&self, load_seq: SeqNum, mem: &MemRef) -> LoadAction {
        let mut best: Option<&SqEntry> = None;
        for s in self.entries.iter().flatten() {
            if s.seq >= load_seq || !s.executed {
                continue;
            }
            if mem.overlaps(&s.mem) {
                match best {
                    Some(b) if b.seq > s.seq => {}
                    _ => best = Some(s),
                }
            }
        }
        match best {
            None => LoadAction::Cache,
            Some(s) => {
                if mem.contained_in(&s.mem) {
                    LoadAction::Forward { store_seq: s.seq }
                } else {
                    LoadAction::WaitStoreCommit { store_seq: s.seq }
                }
            }
        }
    }
}

/// The load queue.
#[derive(Debug)]
pub struct LoadQueue {
    entries: Vec<Option<LqEntry>>,
    count: usize,
}

impl LoadQueue {
    /// Creates a queue with `capacity` entries.
    pub fn new(capacity: usize) -> LoadQueue {
        LoadQueue {
            entries: vec![None; capacity],
            count: 0,
        }
    }

    /// Whether an entry can be allocated.
    pub fn has_space(&self) -> bool {
        self.count < self.entries.len()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Allocates an entry, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn alloc(&mut self, e: LqEntry) -> usize {
        let idx = self
            .entries
            .iter()
            .position(|s| s.is_none())
            .expect("load queue full");
        self.entries[idx] = Some(e);
        self.count += 1;
        idx
    }

    /// Frees entry `idx`.
    pub fn free(&mut self, idx: usize) {
        if self.entries[idx].take().is_some() {
            self.count -= 1;
        }
    }

    /// Mutable access to entry `idx`.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut LqEntry> {
        self.entries[idx].as_mut()
    }

    /// Frees all entries with `seq > after` (squash).
    pub fn squash_younger(&mut self, after: SeqNum) {
        for e in &mut self.entries {
            if matches!(e, Some(l) if l.seq > after) {
                *e = None;
                self.count -= 1;
            }
        }
    }

    /// Frees every entry (commit-time flush).
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
        self.count = 0;
    }

    /// Memory-order violation check at a store's address computation:
    /// returns the *oldest* younger load that already read, overlaps the
    /// store, and did not get its value from this store or anything younger.
    pub fn violation(&self, store_seq: SeqNum, store_mem: &MemRef) -> Option<SeqNum> {
        let mut worst: Option<SeqNum> = None;
        for l in self.entries.iter().flatten() {
            if l.seq <= store_seq || !l.read_started {
                continue;
            }
            if !store_mem.overlaps(&l.mem) {
                continue;
            }
            let got_newer_data = matches!(l.fwd_from, Some(f) if f >= store_seq);
            if got_newer_data || l.bypassed_ok {
                continue;
            }
            worst = match worst {
                Some(w) if w < l.seq => Some(w),
                _ => Some(l.seq),
            };
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mref(addr: u64, size: u8, is_store: bool) -> MemRef {
        MemRef {
            addr,
            size,
            is_store,
        }
    }

    fn sq_with(stores: &[(u64, u64, u8, bool)]) -> StoreQueue {
        // (seq, addr, size, executed)
        let mut sq = StoreQueue::new(8);
        for &(seq, addr, size, executed) in stores {
            sq.alloc(SqEntry {
                seq: SeqNum(seq),
                rob_slot: 0,
                mem: mref(addr, size, true),
                executed,
            });
        }
        sq
    }

    #[test]
    fn load_forwards_from_containing_executed_store() {
        let sq = sq_with(&[(5, 100, 8, true)]);
        let a = sq.load_action(SeqNum(9), &mref(100, 8, false));
        assert_eq!(
            a,
            LoadAction::Forward {
                store_seq: SeqNum(5)
            }
        );
        // Sub-word load contained in the store also forwards.
        let b = sq.load_action(SeqNum(9), &mref(104, 4, false));
        assert_eq!(
            b,
            LoadAction::Forward {
                store_seq: SeqNum(5)
            }
        );
    }

    #[test]
    fn partial_overlap_waits_for_commit() {
        let sq = sq_with(&[(5, 100, 4, true)]);
        // 8-byte load over a 4-byte store: overlap without containment.
        let a = sq.load_action(SeqNum(9), &mref(100, 8, false));
        assert_eq!(
            a,
            LoadAction::WaitStoreCommit {
                store_seq: SeqNum(5)
            }
        );
    }

    #[test]
    fn youngest_older_store_wins() {
        let sq = sq_with(&[(3, 100, 8, true), (6, 100, 8, true)]);
        let a = sq.load_action(SeqNum(9), &mref(100, 8, false));
        assert_eq!(
            a,
            LoadAction::Forward {
                store_seq: SeqNum(6)
            }
        );
    }

    #[test]
    fn younger_stores_are_ignored() {
        let sq = sq_with(&[(12, 100, 8, true)]);
        let a = sq.load_action(SeqNum(9), &mref(100, 8, false));
        assert_eq!(a, LoadAction::Cache);
    }

    #[test]
    fn unexecuted_stores_are_speculated_past() {
        let sq = sq_with(&[(5, 100, 8, false)]);
        let a = sq.load_action(SeqNum(9), &mref(100, 8, false));
        assert_eq!(a, LoadAction::Cache);
        assert!(sq.is_unexecuted(SeqNum(5)));
    }

    #[test]
    fn violation_detects_early_load() {
        let mut lq = LoadQueue::new(8);
        lq.alloc(LqEntry {
            seq: SeqNum(9),
            rob_slot: 1,
            mem: mref(100, 8, false),
            read_started: true,
            fwd_from: None,
            bypassed_ok: false,
        });
        // Store 5 computes its address afterwards and overlaps: violation.
        let v = lq.violation(SeqNum(5), &mref(100, 8, true));
        assert_eq!(v, Some(SeqNum(9)));
    }

    #[test]
    fn no_violation_when_load_forwarded_from_newer_store() {
        let mut lq = LoadQueue::new(8);
        lq.alloc(LqEntry {
            seq: SeqNum(9),
            rob_slot: 1,
            mem: mref(100, 8, false),
            read_started: true,
            fwd_from: Some(SeqNum(7)),
            bypassed_ok: false,
        });
        assert_eq!(lq.violation(SeqNum(5), &mref(100, 8, true)), None);
        // But a store younger than the forwarder still violates.
        assert_eq!(
            lq.violation(SeqNum(8), &mref(100, 8, true)),
            Some(SeqNum(9))
        );
    }

    #[test]
    fn violation_ignores_unread_or_disjoint_loads() {
        let mut lq = LoadQueue::new(8);
        lq.alloc(LqEntry {
            seq: SeqNum(9),
            rob_slot: 1,
            mem: mref(100, 8, false),
            read_started: false,
            fwd_from: None,
            bypassed_ok: false,
        });
        lq.alloc(LqEntry {
            seq: SeqNum(10),
            rob_slot: 2,
            mem: mref(400, 8, false),
            read_started: true,
            fwd_from: None,
            bypassed_ok: false,
        });
        assert_eq!(lq.violation(SeqNum(5), &mref(100, 8, true)), None);
    }

    #[test]
    fn squash_frees_younger_entries() {
        let mut sq = sq_with(&[(3, 0, 8, true), (7, 8, 8, true), (9, 16, 8, false)]);
        sq.squash_younger(SeqNum(5));
        assert_eq!(sq.len(), 1);
        let mut lq = LoadQueue::new(4);
        lq.alloc(LqEntry {
            seq: SeqNum(6),
            rob_slot: 0,
            mem: mref(0, 8, false),
            read_started: false,
            fwd_from: None,
            bypassed_ok: false,
        });
        lq.squash_younger(SeqNum(5));
        assert!(lq.is_empty());
    }

    #[test]
    fn capacity_tracking() {
        let mut sq = StoreQueue::new(2);
        assert!(sq.has_space());
        let a = sq.alloc(SqEntry {
            seq: SeqNum(1),
            rob_slot: 0,
            mem: mref(0, 8, true),
            executed: false,
        });
        sq.alloc(SqEntry {
            seq: SeqNum(2),
            rob_slot: 1,
            mem: mref(8, 8, true),
            executed: false,
        });
        assert!(!sq.has_space());
        sq.free(a);
        assert!(sq.has_space());
    }
}
