//! PC-indexed stride prefetcher (Table 1: degree 8, distance 1, at L2).

use regshare_types::hasher::mix64;
use regshare_types::Addr;

/// Stride prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridePrefetcherConfig {
    /// log2(table entries).
    pub log_entries: u32,
    /// Number of lines fetched per trigger.
    pub degree: usize,
    /// How many strides ahead the first prefetch lands.
    pub distance: u64,
    /// Confidence needed before issuing (consecutive same-stride hits).
    pub threshold: u8,
}

impl StridePrefetcherConfig {
    /// Table 1: degree 8, distance 1.
    pub fn hpca16() -> StridePrefetcherConfig {
        StridePrefetcherConfig {
            log_entries: 9,
            degree: 8,
            distance: 1,
            threshold: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    tag: u32,
    last_line: Addr,
    stride: i64,
    confidence: u8,
}

/// The prefetcher: observes demand line addresses per PC, detects constant
/// strides, and emits prefetch candidates.
///
/// # Examples
///
/// ```
/// use regshare_mem::{StridePrefetcher, StridePrefetcherConfig};
/// let mut pf = StridePrefetcher::new(StridePrefetcherConfig::hpca16());
/// let mut issued = vec![];
/// for i in 0..8u64 {
///     issued.extend(pf.observe(0x400100, 0x10000 + i * 64, 64));
/// }
/// assert!(!issued.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: StridePrefetcherConfig,
    table: Vec<StrideEntry>,
}

impl StridePrefetcher {
    /// Builds the prefetcher.
    pub fn new(cfg: StridePrefetcherConfig) -> StridePrefetcher {
        StridePrefetcher {
            table: vec![StrideEntry::default(); 1 << cfg.log_entries],
            cfg,
        }
    }

    /// Observes a demand access (PC, line address); returns line addresses
    /// to prefetch (possibly empty).
    pub fn observe(&mut self, pc: Addr, line: Addr, line_bytes: u64) -> Vec<Addr> {
        let h = mix64(pc);
        let idx = (h as usize) & ((1 << self.cfg.log_entries) - 1);
        let tag = (h >> 32) as u32;
        let e = &mut self.table[idx];

        if e.tag != tag {
            *e = StrideEntry {
                tag,
                last_line: line,
                stride: 0,
                confidence: 0,
            };
            return Vec::new();
        }
        let stride = line.wrapping_sub(e.last_line) as i64;
        if stride == 0 {
            return Vec::new(); // same line: no training signal
        }
        if stride == e.stride {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_line = line;
        if e.confidence < self.cfg.threshold {
            return Vec::new();
        }
        // Confident: issue degree prefetches starting `distance` strides out.
        let mut out = Vec::with_capacity(self.cfg.degree);
        for k in 0..self.cfg.degree as u64 {
            let delta = e.stride.wrapping_mul((self.cfg.distance + k) as i64);
            let target = line.wrapping_add(delta as u64) & !(line_bytes - 1);
            out.push(target);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StridePrefetcherConfig {
        StridePrefetcherConfig {
            log_entries: 6,
            degree: 4,
            distance: 1,
            threshold: 2,
        }
    }

    #[test]
    fn constant_stride_triggers_after_threshold() {
        let mut pf = StridePrefetcher::new(cfg());
        let base = 0x10000u64;
        assert!(pf.observe(0x1, base, 64).is_empty()); // allocate
        assert!(pf.observe(0x1, base + 64, 64).is_empty()); // stride learned, conf 0
        assert!(pf.observe(0x1, base + 128, 64).is_empty()); // conf 1
        let issued = pf.observe(0x1, base + 192, 64); // conf 2 == threshold
        assert_eq!(issued.len(), 4);
        assert_eq!(issued[0], base + 256); // distance 1 stride ahead
        assert_eq!(issued[3], base + 448);
    }

    #[test]
    fn negative_stride_supported() {
        let mut pf = StridePrefetcher::new(cfg());
        let base = 0x20000u64;
        for i in 0..4 {
            let _ = pf.observe(0x2, base - i * 64, 64);
        }
        let issued = pf.observe(0x2, base - 4 * 64, 64);
        assert!(!issued.is_empty());
        assert_eq!(issued[0], base - 5 * 64);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut pf = StridePrefetcher::new(cfg());
        let base = 0x30000u64;
        for i in 0..4 {
            let _ = pf.observe(0x3, base + i * 64, 64);
        }
        // Break the pattern.
        assert!(pf.observe(0x3, base + 1024, 64).is_empty());
        assert!(pf.observe(0x3, base + 1024 + 128, 64).is_empty());
    }

    #[test]
    fn same_line_repeats_are_ignored() {
        let mut pf = StridePrefetcher::new(cfg());
        for _ in 0..10 {
            assert!(pf.observe(0x4, 0x40000, 64).is_empty());
        }
    }
}
