//! Generic set-associative cache with LRU replacement.

use regshare_types::Addr;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    lru: u64,
    valid: bool,
    prefetched: bool,
}

/// A set-associative, LRU, tag-only cache model (data lives in the
/// functional interpreter; the cache tracks presence and recency).
///
/// # Examples
///
/// ```
/// use regshare_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 1 });
/// assert!(!c.probe(0x40));
/// c.fill(0x40, false);
/// assert!(c.probe(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    set_count: usize,
    line_shift: u32,
    tick: u64,
}

impl Cache {
    /// Builds a cache; validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or do not divide evenly.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways > 0);
        let total_lines = cfg.size_bytes / cfg.line_bytes;
        assert!(
            total_lines.is_multiple_of(cfg.ways),
            "lines must divide evenly into ways"
        );
        let set_count = total_lines / cfg.ways;
        assert!(set_count > 0);
        Cache {
            cfg,
            lines: vec![
                Line {
                    tag: 0,
                    lru: 0,
                    valid: false,
                    prefetched: false
                };
                total_lines
            ],
            set_count,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tick: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        (
            (line_addr as usize) % self.set_count,
            line_addr / self.set_count as u64,
        )
    }

    /// Probes for the line containing `addr`, updating LRU on hit.
    pub fn probe(&mut self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.tick += 1;
        let base = set * self.cfg.ways;
        for l in &mut self.lines[base..base + self.cfg.ways] {
            if l.valid && l.tag == tag {
                l.lru = self.tick;
                return true;
            }
        }
        false
    }

    /// Probes without updating replacement state (for prefetch filtering).
    pub fn probe_silent(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.ways;
        self.lines[base..base + self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Whether the (present) line was brought in by a prefetch.
    pub fn was_prefetched(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.ways;
        self.lines[base..base + self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag && l.prefetched)
    }

    /// Clears the prefetched marker (first demand hit consumes it).
    pub fn clear_prefetched(&mut self, addr: Addr) {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.cfg.ways;
        for l in &mut self.lines[base..base + self.cfg.ways] {
            if l.valid && l.tag == tag {
                l.prefetched = false;
            }
        }
    }

    /// Fills the line containing `addr`, evicting LRU if needed.
    pub fn fill(&mut self, addr: Addr, prefetched: bool) {
        let (set, tag) = self.set_and_tag(addr);
        self.tick += 1;
        let tick = self.tick;
        let base = set * self.cfg.ways;
        // Already present: refresh.
        if let Some(l) = self.lines[base..base + self.cfg.ways]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            l.lru = tick;
            return;
        }
        let victim = self.lines[base..base + self.cfg.ways]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways > 0");
        *victim = Line {
            tag,
            lru: tick,
            valid: true,
            prefetched,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64B lines.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn fill_then_probe_hits() {
        let mut c = tiny();
        c.fill(0x1000, false);
        assert!(c.probe(0x1000));
        assert!(c.probe(0x103f)); // same line
        assert!(!c.probe(0x1040)); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines whose line_addr % 2 == 0: 0x000, 0x080, 0x100...
        c.fill(0x000, false);
        c.fill(0x080, false);
        assert!(c.probe(0x000)); // make 0x000 MRU
        c.fill(0x100, false); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(c.probe(0x100));
        assert!(!c.probe(0x080));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.fill(0x000, false); // set 0
        c.fill(0x040, false); // set 1
        c.fill(0x0c0, false); // set 1
        c.fill(0x140, false); // set 1, evicts one of set 1
        assert!(c.probe(0x000), "set 0 line must survive set 1 pressure");
    }

    #[test]
    fn prefetched_marker_lifecycle() {
        let mut c = tiny();
        c.fill(0x200, true);
        assert!(c.was_prefetched(0x200));
        c.clear_prefetched(0x200);
        assert!(!c.was_prefetched(0x200));
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut c = tiny();
        c.fill(0x000, false);
        c.fill(0x000, false);
        c.fill(0x080, false);
        // Both lines coexist (no duplicate fill of 0x000 evicting 0x080).
        assert!(c.probe(0x000));
        assert!(c.probe(0x080));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_line_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 300,
            ways: 2,
            line_bytes: 60,
            latency: 1,
        });
    }
}
