//! Branch target buffer: set-associative target cache.

use regshare_types::hasher::mix64;
use regshare_types::Addr;

/// One BTB entry: a (partial-tagged) branch PC and its last target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbEntry {
    tag: u32,
    /// Predicted target (static instruction index).
    pub target_sidx: u32,
    /// LRU timestamp.
    lru: u64,
    valid: bool,
}

/// A set-associative branch target buffer (Table 1: 2-way, 4K entries).
///
/// # Examples
///
/// ```
/// use regshare_predictors::Btb;
/// let mut btb = Btb::new(1024, 2);
/// assert_eq!(btb.lookup(0x400100), None);
/// btb.update(0x400100, 7);
/// assert_eq!(btb.lookup(0x400100), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    sets: Vec<BtbEntry>,
    ways: usize,
    set_count: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible by `ways`, or either is zero.
    pub fn new(entries: usize, ways: usize) -> Btb {
        assert!(entries > 0 && ways > 0 && entries.is_multiple_of(ways));
        let set_count = entries / ways;
        Btb {
            sets: vec![
                BtbEntry {
                    tag: 0,
                    target_sidx: 0,
                    lru: 0,
                    valid: false
                };
                entries
            ],
            ways,
            set_count,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_and_tag(&self, pc: Addr) -> (usize, u32) {
        let h = mix64(pc);
        ((h as usize) % self.set_count, (h >> 32) as u32)
    }

    /// Looks up the predicted target for `pc`, updating LRU and hit stats.
    pub fn lookup(&mut self, pc: Addr) -> Option<u32> {
        let (set, tag) = self.set_and_tag(pc);
        self.tick += 1;
        let base = set * self.ways;
        for e in &mut self.sets[base..base + self.ways] {
            if e.valid && e.tag == tag {
                e.lru = self.tick;
                self.hits += 1;
                return Some(e.target_sidx);
            }
        }
        self.misses += 1;
        None
    }

    /// Installs or updates the target for `pc`.
    pub fn update(&mut self, pc: Addr, target_sidx: u32) {
        let (set, tag) = self.set_and_tag(pc);
        self.tick += 1;
        let base = set * self.ways;
        // Hit: update in place.
        if let Some(e) = self.sets[base..base + self.ways]
            .iter_mut()
            .find(|e| e.valid && e.tag == tag)
        {
            e.target_sidx = target_sidx;
            e.lru = self.tick;
            return;
        }
        // Miss: fill invalid or LRU way.
        let tick = self.tick;
        let victim = self.sets[base..base + self.ways]
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("non-zero ways");
        *victim = BtbEntry {
            tag,
            target_sidx,
            lru: tick,
            valid: true,
        };
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_then_lookup() {
        let mut btb = Btb::new(64, 2);
        btb.update(0x1000, 42);
        assert_eq!(btb.lookup(0x1000), Some(42));
        btb.update(0x1000, 43);
        assert_eq!(btb.lookup(0x1000), Some(43));
    }

    #[test]
    fn lru_eviction_within_set() {
        // Single-set BTB to force conflicts.
        let mut btb = Btb::new(2, 2);
        btb.update(0x10, 1);
        btb.update(0x20, 2);
        let _ = btb.lookup(0x10); // make 0x10 MRU
        btb.update(0x30, 3); // evicts 0x20
        assert_eq!(btb.lookup(0x10), Some(1));
        assert_eq!(btb.lookup(0x30), Some(3));
        assert_eq!(btb.lookup(0x20), None);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut btb = Btb::new(16, 2);
        let _ = btb.lookup(0x99);
        btb.update(0x99, 5);
        let _ = btb.lookup(0x99);
        let (h, m) = btb.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        let _ = Btb::new(3, 2);
    }
}
