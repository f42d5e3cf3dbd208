//! Miss Status Holding Registers: track in-flight line misses, merge
//! secondary misses, and bound outstanding miss parallelism.

use regshare_types::hasher::FastMap;
use regshare_types::{Addr, Cycle};

/// A file of MSHRs keyed by line address.
///
/// Entries are implicitly released when their fill time passes; occupancy is
/// always evaluated against a "now" cycle, so no explicit event is needed.
///
/// # Examples
///
/// ```
/// use regshare_mem::MshrFile;
/// use regshare_types::Cycle;
/// let mut m = MshrFile::new(2);
/// assert!(m.allocate(0x40, Cycle(100), Cycle(0)));
/// assert_eq!(m.pending(0x40, Cycle(50)), Some(Cycle(100)));
/// assert_eq!(m.pending(0x40, Cycle(150)), None); // released
/// ```
#[derive(Debug, Clone, Default)]
pub struct MshrFile {
    entries: FastMap<Addr, Cycle>,
    capacity: usize,
}

impl MshrFile {
    /// Creates a file with `capacity` entries (0 = unlimited).
    pub fn new(capacity: usize) -> MshrFile {
        MshrFile {
            entries: FastMap::default(),
            capacity,
        }
    }

    /// Drops entries whose fill completed before `now`.
    fn gc(&mut self, now: Cycle) {
        if self.entries.len() > 32 {
            self.entries.retain(|_, ready| ready.0 > now.0);
        }
    }

    /// Number of live (unfilled) entries at `now`.
    pub fn occupancy(&self, now: Cycle) -> usize {
        self.entries.values().filter(|r| r.0 > now.0).count()
    }

    /// Whether an entry can be allocated at `now`.
    pub fn has_free(&self, now: Cycle) -> bool {
        self.capacity == 0 || self.occupancy(now) < self.capacity
    }

    /// If the line has an in-flight miss at `now`, returns its fill time.
    pub fn pending(&self, line: Addr, now: Cycle) -> Option<Cycle> {
        self.entries.get(&line).copied().filter(|r| r.0 > now.0)
    }

    /// Allocates an entry for `line`, filling at `ready`. Returns `false`
    /// if the file is full at `now`.
    pub fn allocate(&mut self, line: Addr, ready: Cycle, now: Cycle) -> bool {
        self.gc(now);
        if !self.has_free(now) {
            return false;
        }
        self.entries.insert(line, ready);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_enforced_and_released_over_time() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(0x00, Cycle(10), Cycle(0)));
        assert!(m.allocate(0x40, Cycle(20), Cycle(0)));
        assert!(!m.has_free(Cycle(5)));
        assert!(!m.allocate(0x80, Cycle(30), Cycle(5)));
        // After the first fill completes an entry frees up.
        assert!(m.has_free(Cycle(15)));
        assert!(m.allocate(0x80, Cycle(30), Cycle(15)));
    }

    #[test]
    fn unlimited_capacity() {
        let mut m = MshrFile::new(0);
        for i in 0..100 {
            assert!(m.allocate(i * 64, Cycle(1000), Cycle(0)));
        }
        assert!(m.has_free(Cycle(0)));
    }

    #[test]
    fn pending_respects_time() {
        let mut m = MshrFile::new(4);
        m.allocate(0x40, Cycle(100), Cycle(0));
        assert_eq!(m.pending(0x40, Cycle(99)), Some(Cycle(100)));
        assert_eq!(m.pending(0x40, Cycle(100)), None);
        assert_eq!(m.pending(0x80, Cycle(0)), None);
    }

    #[test]
    fn occupancy_counts_live_only() {
        let mut m = MshrFile::new(8);
        m.allocate(0x00, Cycle(10), Cycle(0));
        m.allocate(0x40, Cycle(50), Cycle(0));
        assert_eq!(m.occupancy(Cycle(0)), 2);
        assert_eq!(m.occupancy(Cycle(20)), 1);
        assert_eq!(m.occupancy(Cycle(60)), 0);
    }
}
