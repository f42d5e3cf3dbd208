//! The paper's TAGE-like Instruction Distance predictor (§3.1).
//!
//! One direct-mapped (but tagged) base table plus five partially tagged
//! components indexed with the PC, 2/5/11/27/64 bits of global branch
//! history and 16 bits of path history. Entries hold an 8-bit distance and
//! a 4-bit confidence counter; a prediction is used only when confidence is
//! saturated, and confidence resets on a distance mismatch (mispredicting
//! is costlier than not predicting). Geometry: 4096 (5b tag), 512 (10b),
//! 512 (10b), 256 (11b), 128 (11b), 128 (12b) — 12.2KB.

use crate::DistancePredictor;
use regshare_types::hasher::mix64;
use regshare_types::{Addr, HistorySnapshot};

/// Geometry of the TAGE-like predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageDistanceConfig {
    /// (log2 entries, tag bits, history length) per component; index 0 is
    /// the base component with history length 0.
    pub components: Vec<(u32, u32, u32)>,
    /// Confidence bits.
    pub conf_bits: u32,
}

impl TageDistanceConfig {
    /// The paper's configuration (5.25K entries total, 12.2KB).
    pub fn hpca16() -> TageDistanceConfig {
        TageDistanceConfig {
            components: vec![
                (12, 5, 0),  // 4096-entry base, 5b tag
                (9, 10, 2),  // 512, 10b, h=2
                (9, 10, 5),  // 512, 10b, h=5
                (8, 11, 11), // 256, 11b, h=11
                (7, 11, 27), // 128, 11b, h=27
                (7, 12, 64), // 128, 12b, h=64
            ],
            conf_bits: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u32,
    distance: u8,
    conf: u8,
}

/// The TAGE-like Instruction Distance predictor. See the module docs.
///
/// # Examples
///
/// ```
/// use regshare_distance::{TageDistance, TageDistanceConfig, DistancePredictor};
/// use regshare_types::HistorySnapshot;
///
/// let mut p = TageDistance::new(TageDistanceConfig::hpca16());
/// let h = HistorySnapshot::default();
/// for _ in 0..20 {
///     p.train(0x400100, h, Some(9));
/// }
/// assert_eq!(p.predict(0x400100, h), Some(9));
/// ```
#[derive(Debug)]
pub struct TageDistance {
    cfg: TageDistanceConfig,
    tables: Vec<Vec<Entry>>,
    max_conf: u8,
    lfsr: u32,
    predictions: u64,
    confident: u64,
}

impl TageDistance {
    /// Builds the predictor.
    pub fn new(cfg: TageDistanceConfig) -> TageDistance {
        TageDistance {
            tables: cfg
                .components
                .iter()
                .map(|&(log_n, _, _)| vec![Entry::default(); 1 << log_n])
                .collect(),
            max_conf: ((1u32 << cfg.conf_bits) - 1) as u8,
            cfg,
            lfsr: 0xbeef,
            predictions: 0,
            confident: 0,
        }
    }

    #[inline]
    fn rand(&mut self) -> u32 {
        let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
        self.lfsr = (self.lfsr >> 1) | (bit << 15);
        self.lfsr
    }

    /// Index and tag of component `c` for (pc, history).
    #[inline]
    fn key(&self, c: usize, pc: Addr, hist: HistorySnapshot) -> (usize, u32) {
        let (log_n, tag_bits, hlen) = self.cfg.components[c];
        let hbits = if hlen == 0 {
            0
        } else if hlen >= 64 {
            hist.ghist
        } else {
            hist.ghist & ((1u64 << hlen) - 1)
        };
        // Mix history with 16 bits of path history and the PC (§3.1).
        let path = if hlen == 0 { 0 } else { hist.path as u64 };
        let h = mix64(pc ^ hbits.wrapping_mul(0x9e37_79b9) ^ (path << 20) ^ ((c as u64) << 60));
        (
            (h as usize) & ((1 << log_n) - 1),
            ((h >> 34) as u32) & ((1 << tag_bits) - 1),
        )
    }

    /// Longest-history component with a tag hit.
    fn provider(&self, pc: Addr, hist: HistorySnapshot) -> Option<(usize, usize)> {
        for c in (0..self.cfg.components.len()).rev() {
            let (idx, tag) = self.key(c, pc, hist);
            let e = self.tables[c][idx];
            if e.valid && e.tag == tag {
                return Some((c, idx));
            }
        }
        None
    }

    /// (predictions made, confident predictions) so far.
    pub fn usage(&self) -> (u64, u64) {
        (self.predictions, self.confident)
    }
}

impl DistancePredictor for TageDistance {
    fn name(&self) -> &'static str {
        "tage-like"
    }

    fn predict(&mut self, pc: Addr, hist: HistorySnapshot) -> Option<u64> {
        self.predictions += 1;
        let (c, idx) = self.provider(pc, hist)?;
        let e = self.tables[c][idx];
        if e.conf >= self.max_conf {
            self.confident += 1;
            Some(e.distance as u64)
        } else {
            None
        }
    }

    fn train(&mut self, pc: Addr, hist: HistorySnapshot, observed: Option<u64>) {
        let observed8 = observed.filter(|&d| d <= u8::MAX as u64).map(|d| d as u8);
        match self.provider(pc, hist) {
            Some((c, idx)) => {
                let e = &mut self.tables[c][idx];
                match observed8 {
                    Some(d) if e.distance == d => {
                        e.conf = (e.conf + 1).min(self.max_conf);
                    }
                    Some(d) => {
                        // Distance mismatch: reset (or retrain a fresh entry),
                        // and allocate in a longer-history component so the
                        // history-correlated case can be captured.
                        if e.conf == 0 {
                            e.distance = d;
                        } else {
                            e.conf = 0;
                        }
                        self.allocate_above(c, pc, hist, d);
                    }
                    None => {
                        e.conf = 0;
                    }
                }
            }
            None => {
                if let Some(d) = observed8 {
                    // Allocate in the base table, plus one tagged component.
                    let (idx0, tag0) = self.key(0, pc, hist);
                    let e0 = &mut self.tables[0][idx0];
                    if !e0.valid || e0.conf == 0 {
                        *e0 = Entry {
                            valid: true,
                            tag: tag0,
                            distance: d,
                            conf: 0,
                        };
                    }
                    self.allocate_above(0, pc, hist, d);
                }
            }
        }
    }

    fn storage_bits(&self) -> usize {
        self.cfg
            .components
            .iter()
            .map(|&(log_n, tag_bits, _)| {
                (1usize << log_n) * (1 + tag_bits as usize + 8 + self.cfg.conf_bits as usize)
            })
            .sum()
    }
}

impl TageDistance {
    /// Allocates a fresh entry in one component with history longer than
    /// `c`, preferring victims with zero confidence (TAGE-style).
    fn allocate_above(&mut self, c: usize, pc: Addr, hist: HistorySnapshot, d: u8) {
        let n = self.cfg.components.len();
        if c + 1 >= n {
            return;
        }
        let start = c + 1 + (self.rand() as usize % 2).min(n - c - 2);
        for cand in start..n {
            let (idx, tag) = self.key(cand, pc, hist);
            let e = &mut self.tables[cand][idx];
            if !e.valid || e.conf == 0 {
                *e = Entry {
                    valid: true,
                    tag,
                    distance: d,
                    conf: 0,
                };
                return;
            }
        }
        // No victim: decay confidences along the allocation path.
        for cand in c + 1..n {
            let (idx, _) = self.key(cand, pc, hist);
            let e = &mut self.tables[cand][idx];
            e.conf = e.conf.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(bits: u64) -> HistorySnapshot {
        HistorySnapshot {
            ghist: bits,
            path: (bits as u16).wrapping_mul(31),
        }
    }

    #[test]
    fn stable_distance_learned_via_base() {
        let mut p = TageDistance::new(TageDistanceConfig::hpca16());
        for _ in 0..20 {
            p.train(0x400100, h(0), Some(14));
        }
        assert_eq!(p.predict(0x400100, h(0)), Some(14));
    }

    #[test]
    fn history_correlated_distance_learned_in_tagged_components() {
        // Distance depends on the last branch outcome — the PC-only base
        // entry thrashes, but history-indexed components separate the cases.
        let mut p = TageDistance::new(TageDistanceConfig::hpca16());
        let pc = 0x400200;
        for _ in 0..200 {
            p.train(pc, h(0b10), Some(6));
            p.train(pc, h(0b11), Some(30));
        }
        assert_eq!(p.predict(pc, h(0b10)), Some(6));
        assert_eq!(p.predict(pc, h(0b11)), Some(30));
    }

    #[test]
    fn no_pair_decays_confidence() {
        let mut p = TageDistance::new(TageDistanceConfig::hpca16());
        for _ in 0..20 {
            p.train(0x400300, h(0), Some(9));
        }
        assert!(p.predict(0x400300, h(0)).is_some());
        p.train(0x400300, h(0), None);
        assert_eq!(p.predict(0x400300, h(0)), None);
    }

    #[test]
    fn distances_beyond_rob_are_untrainable() {
        let mut p = TageDistance::new(TageDistanceConfig::hpca16());
        for _ in 0..40 {
            p.train(0x400400, h(0), Some(300)); // > 255: 8-bit field
        }
        assert_eq!(p.predict(0x400400, h(0)), None);
    }

    #[test]
    fn storage_is_about_12kb() {
        let p = TageDistance::new(TageDistanceConfig::hpca16());
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((11.5..=13.5).contains(&kb), "TAGE-like storage {kb}KB");
        // Paper: 5.25K entries total.
        let entries: usize = TageDistanceConfig::hpca16()
            .components
            .iter()
            .map(|&(l, _, _)| 1usize << l)
            .sum();
        assert_eq!(entries, 4096 + 512 + 512 + 256 + 128 + 128);
    }

    #[test]
    fn usage_counters_track() {
        let mut p = TageDistance::new(TageDistanceConfig::hpca16());
        let _ = p.predict(0x1, h(0));
        assert_eq!(p.usage().0, 1);
    }
}
