//! Store Sets memory dependence predictor (Chrysos & Emer, ISCA 1998).
//!
//! Table 1 of the paper: 4K-entry SSIT / LFST, **not rolled back on
//! squashes**. Loads and stores are assigned store-set IDs (SSIDs) through
//! the Store Set ID Table (SSIT), indexed by PC. The Last Fetched Store
//! Table (LFST) maps an SSID to the most recently renamed store in that set;
//! a load (or store) belonging to the set must wait for that store, which is
//! how the predictor enforces speculative memory ordering.

use regshare_types::hasher::mix64;
use regshare_types::{Addr, SeqNum};

/// Configuration for [`StoreSets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSetsConfig {
    /// log2(SSIT entries).
    pub log_ssit: u32,
    /// Number of LFST entries (== max live SSIDs).
    pub lfst_entries: usize,
    /// Cyclic clearing period in accesses (0 = never): real Store Sets
    /// implementations (and gem5's) periodically wipe the SSIT so stale
    /// dependencies do not accumulate forever; this is also what keeps a
    /// steady trickle of violations and false dependencies in long runs.
    pub clear_period: u64,
}

impl StoreSetsConfig {
    /// The paper's configuration: 4K-entry SSIT / LFST.
    pub fn hpca16() -> StoreSetsConfig {
        StoreSetsConfig {
            log_ssit: 12,
            lfst_entries: 4096,
            clear_period: 30_000,
        }
    }
}

/// Store set identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ssid(pub u32);

/// The Store Sets predictor.
///
/// # Examples
///
/// ```
/// use regshare_predictors::{StoreSets, StoreSetsConfig};
/// use regshare_types::SeqNum;
///
/// let mut ss = StoreSets::new(StoreSetsConfig::hpca16());
/// // Initially no dependence is predicted.
/// assert_eq!(ss.load_dependence(0x400010), None);
/// // After a violation between the load and a store, they share a set...
/// ss.train_violation(0x400010, 0x400000);
/// // ...and once the store is renamed, the load must wait for it.
/// ss.store_renamed(0x400000, SeqNum(7));
/// assert_eq!(ss.load_dependence(0x400010), Some(SeqNum(7)));
/// ```
#[derive(Debug, Clone)]
pub struct StoreSets {
    /// SSIT: PC hash → SSID (`u32::MAX` = invalid).
    ssit: Vec<u32>,
    /// LFST: SSID → last fetched store (None once that store executed).
    lfst: Vec<Option<SeqNum>>,
    log_ssit: u32,
    /// Monotonic SSID allocator (wraps within lfst_entries).
    next_ssid: u32,
    violations_trained: u64,
    clear_period: u64,
    accesses: u64,
}

impl StoreSets {
    /// Creates a predictor with the given geometry.
    pub fn new(cfg: StoreSetsConfig) -> StoreSets {
        StoreSets {
            ssit: vec![u32::MAX; 1 << cfg.log_ssit],
            lfst: vec![None; cfg.lfst_entries],
            log_ssit: cfg.log_ssit,
            next_ssid: 0,
            violations_trained: 0,
            clear_period: cfg.clear_period,
            accesses: 0,
        }
    }

    /// Cyclic clearing: counts an access and wipes the tables when the
    /// period elapses.
    fn tick(&mut self) {
        if self.clear_period == 0 {
            return;
        }
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.clear_period) {
            self.ssit.iter_mut().for_each(|e| *e = u32::MAX);
            self.lfst.iter_mut().for_each(|e| *e = None);
        }
    }

    #[inline]
    fn ssit_index(&self, pc: Addr) -> usize {
        (mix64(pc) as usize) & ((1 << self.log_ssit) - 1)
    }

    /// The SSID currently assigned to `pc`, if any.
    pub fn ssid_of(&self, pc: Addr) -> Option<Ssid> {
        let v = self.ssit[self.ssit_index(pc)];
        if v == u32::MAX {
            None
        } else {
            Some(Ssid(v))
        }
    }

    /// Called when a load at `pc` is renamed: returns the store it must wait
    /// for, if its store set has a live last-fetched store.
    pub fn load_dependence(&mut self, pc: Addr) -> Option<SeqNum> {
        self.tick();
        let ssid = self.ssid_of(pc)?;
        self.lfst[ssid.0 as usize % self.lfst.len()]
    }

    /// Called when a store at `pc` is renamed: returns the previous store in
    /// the set this store must order behind (store-store ordering), and
    /// records this store as the set's last fetched store.
    pub fn store_renamed(&mut self, pc: Addr, seq: SeqNum) -> Option<SeqNum> {
        self.tick();
        let ssid = self.ssid_of(pc)?;
        let slot = ssid.0 as usize % self.lfst.len();
        let prev = self.lfst[slot];
        self.lfst[slot] = Some(seq);
        prev
    }

    /// Called when a store executes (its address is known): it no longer
    /// constrains issue, so clear it from the LFST if still current.
    pub fn store_executed(&mut self, pc: Addr, seq: SeqNum) {
        if let Some(ssid) = self.ssid_of(pc) {
            let slot = ssid.0 as usize % self.lfst.len();
            if self.lfst[slot] == Some(seq) {
                self.lfst[slot] = None;
            }
        }
    }

    /// Trains on a memory-order violation between a load and an older store:
    /// both PCs are merged into one store set (Chrysos-Emer merge rule:
    /// both adopt the smaller existing SSID, or a fresh one).
    pub fn train_violation(&mut self, load_pc: Addr, store_pc: Addr) {
        self.violations_trained += 1;
        let li = self.ssit_index(load_pc);
        let si = self.ssit_index(store_pc);
        let l = self.ssit[li];
        let s = self.ssit[si];
        let merged = match (l, s) {
            (u32::MAX, u32::MAX) => {
                let id = self.next_ssid;
                self.next_ssid = (self.next_ssid + 1) % self.lfst.len() as u32;
                id
            }
            (u32::MAX, s) => s,
            (l, u32::MAX) => l,
            (l, s) => l.min(s),
        };
        self.ssit[li] = merged;
        self.ssit[si] = merged;
    }

    /// Number of violations trained (for Figure 4 style reporting).
    pub fn violations_trained(&self) -> u64 {
        self.violations_trained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ss() -> StoreSets {
        StoreSets::new(StoreSetsConfig {
            log_ssit: 8,
            lfst_entries: 64,
            clear_period: 0,
        })
    }

    #[test]
    fn cyclic_clearing_forgets() {
        let mut s = StoreSets::new(StoreSetsConfig {
            log_ssit: 8,
            lfst_entries: 64,
            clear_period: 4,
        });
        s.train_violation(0x100, 0x200);
        s.store_renamed(0x200, SeqNum(1));
        assert!(s.load_dependence(0x100).is_some());
        // Exceed the clear period.
        for i in 0..6 {
            let _ = s.store_renamed(0x900 + i, SeqNum(10 + i));
        }
        assert_eq!(s.load_dependence(0x100), None, "tables should have cleared");
    }

    #[test]
    fn untrained_predicts_nothing() {
        let mut s = ss();
        assert_eq!(s.load_dependence(0x100), None);
        assert_eq!(s.store_renamed(0x200, SeqNum(1)), None);
    }

    #[test]
    fn violation_creates_dependence() {
        let mut s = ss();
        s.train_violation(0x100, 0x200);
        assert_eq!(s.ssid_of(0x100), s.ssid_of(0x200));
        s.store_renamed(0x200, SeqNum(10));
        assert_eq!(s.load_dependence(0x100), Some(SeqNum(10)));
    }

    #[test]
    fn store_execution_clears_lfst() {
        let mut s = ss();
        s.train_violation(0x100, 0x200);
        s.store_renamed(0x200, SeqNum(10));
        s.store_executed(0x200, SeqNum(10));
        assert_eq!(s.load_dependence(0x100), None);
    }

    #[test]
    fn stale_store_execution_does_not_clear_newer() {
        let mut s = ss();
        s.train_violation(0x100, 0x200);
        s.store_renamed(0x200, SeqNum(10));
        s.store_renamed(0x200, SeqNum(20));
        s.store_executed(0x200, SeqNum(10)); // stale
        assert_eq!(s.load_dependence(0x100), Some(SeqNum(20)));
    }

    #[test]
    fn merge_rule_takes_minimum() {
        let mut s = ss();
        s.train_violation(0x100, 0x200); // set A
        s.train_violation(0x300, 0x400); // set B
        let a = s.ssid_of(0x100).unwrap();
        let b = s.ssid_of(0x300).unwrap();
        assert_ne!(a, b);
        // Merge across sets.
        s.train_violation(0x100, 0x400);
        assert_eq!(s.ssid_of(0x100).unwrap(), a.min(b));
        assert_eq!(s.ssid_of(0x400).unwrap(), a.min(b));
        assert_eq!(s.violations_trained(), 3);
    }

    #[test]
    fn store_store_ordering_chains() {
        let mut s = ss();
        s.train_violation(0x100, 0x200);
        assert_eq!(s.store_renamed(0x200, SeqNum(5)), None);
        assert_eq!(s.store_renamed(0x200, SeqNum(8)), Some(SeqNum(5)));
    }
}
