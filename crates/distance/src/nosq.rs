//! NoSQ-style two-table distance predictor (Sha et al., §3.1 \[3\]).
//!
//! One table is indexed by the load PC only; the second by a hash of the
//! PC, 8 bits of global branch history XOR 8 bits of path history (the
//! paper's footnote 4). If both hit, the path-indexed table provides the
//! prediction. 4-bit confidence counters saturate at 15 and gate bypassing;
//! a distance mismatch resets confidence to zero.

use crate::DistancePredictor;
use regshare_types::hasher::mix64;
use regshare_types::{Addr, HistorySnapshot};

/// NoSQ-style predictor geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NosqConfig {
    /// log2(entries) per table.
    pub log_entries: u32,
    /// Tag bits.
    pub tag_bits: u32,
    /// Confidence bits (saturate-to-predict).
    pub conf_bits: u32,
}

impl NosqConfig {
    /// The paper's configuration: two 4K-entry tables, 5-bit tags, 4-bit
    /// confidence (17KB total).
    pub fn hpca16() -> NosqConfig {
        NosqConfig {
            log_entries: 12,
            tag_bits: 5,
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

/// The NoSQ-style predictor. See the module docs.
#[derive(Debug)]
pub struct NosqDistance {
    cfg: NosqConfig,
    /// PC-indexed table.
    direct: Vec<Entry>,
    /// (PC ⊕ history)-indexed table.
    hashed: Vec<Entry>,
    max_conf: u8,
    predictions: u64,
    confident: u64,
}

impl NosqDistance {
    /// Builds the predictor.
    pub fn new(cfg: NosqConfig) -> NosqDistance {
        let n = 1usize << cfg.log_entries;
        NosqDistance {
            direct: vec![Entry::default(); n],
            hashed: vec![Entry::default(); n],
            max_conf: ((1u32 << cfg.conf_bits) - 1) as u8,
            cfg,
            predictions: 0,
            confident: 0,
        }
    }

    #[inline]
    fn direct_key(&self, pc: Addr) -> (usize, u32) {
        let h = mix64(pc);
        (
            (h as usize) & ((1 << self.cfg.log_entries) - 1),
            ((h >> 40) as u32) & ((1 << self.cfg.tag_bits) - 1),
        )
    }

    #[inline]
    fn hashed_key(&self, pc: Addr, hist: HistorySnapshot) -> (usize, u32) {
        // Footnote 4: XOR 8 bits of global history with 8 bits of path
        // history, XOR with the load address left-shifted by 4.
        let mixed = (hist.ghist & 0xff) ^ (hist.path as u64 & 0xff) ^ (pc << 4);
        let h = mix64(mixed);
        (
            (h as usize) & ((1 << self.cfg.log_entries) - 1),
            ((h >> 40) as u32) & ((1 << self.cfg.tag_bits) - 1),
        )
    }

    fn train_entry(e: &mut Entry, tag: u32, observed: Option<u64>, max_conf: u8) {
        match observed {
            Some(d) if d <= u8::MAX as u64 => {
                let d = d as u8;
                if e.valid && e.tag == tag {
                    if e.distance == d {
                        e.conf = (e.conf + 1).min(max_conf);
                    } else {
                        // Mispredicting is costly vs. not predicting: reset.
                        e.distance = d;
                        e.conf = 0;
                    }
                } else {
                    *e = Entry {
                        valid: true,
                        tag,
                        distance: d,
                        conf: 0,
                    };
                }
            }
            _ => {
                // No (representable) pair: decay a matching entry.
                if e.valid && e.tag == tag {
                    e.conf = 0;
                }
            }
        }
    }
}

impl DistancePredictor for NosqDistance {
    fn name(&self) -> &'static str {
        "nosq-2table"
    }

    fn predict(&mut self, pc: Addr, hist: HistorySnapshot) -> Option<u64> {
        self.predictions += 1;
        let (di, dt) = self.direct_key(pc);
        let (hi, ht) = self.hashed_key(pc, hist);
        let d = self.direct[di];
        let h = self.hashed[hi];
        let provider = if h.valid && h.tag == ht {
            Some(h) // path-indexed table wins when it hits
        } else if d.valid && d.tag == dt {
            Some(d)
        } else {
            None
        };
        match provider {
            Some(e) if e.conf >= self.max_conf => {
                self.confident += 1;
                Some(e.distance as u64)
            }
            _ => None,
        }
    }

    fn train(&mut self, pc: Addr, hist: HistorySnapshot, observed: Option<u64>) {
        let (di, dt) = self.direct_key(pc);
        let (hi, ht) = self.hashed_key(pc, hist);
        let max = self.max_conf;
        Self::train_entry(&mut self.direct[di], dt, observed, max);
        Self::train_entry(&mut self.hashed[hi], ht, observed, max);
    }

    fn storage_bits(&self) -> usize {
        let per_entry = 1 + self.cfg.tag_bits as usize + 8 + self.cfg.conf_bits as usize;
        2 * (1 << self.cfg.log_entries) * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(bits: u64) -> HistorySnapshot {
        HistorySnapshot {
            ghist: bits,
            path: (bits as u16).rotate_left(3),
        }
    }

    #[test]
    fn stable_distance_becomes_confident() {
        let mut p = NosqDistance::new(NosqConfig::hpca16());
        let pc = 0x400100;
        for _ in 0..20 {
            p.train(pc, h(0), Some(12));
        }
        assert_eq!(p.predict(pc, h(0)), Some(12));
    }

    #[test]
    fn unstable_distance_never_confident() {
        let mut p = NosqDistance::new(NosqConfig::hpca16());
        let pc = 0x400200;
        for i in 0..100 {
            p.train(pc, h(0), Some(if i % 2 == 0 { 5 } else { 9 }));
        }
        assert_eq!(p.predict(pc, h(0)), None);
    }

    #[test]
    fn history_differentiates_only_via_hashed_table() {
        // Distance correlates with history: PC-only table thrashes, but the
        // hashed table sees two different entries and becomes confident.
        let mut p = NosqDistance::new(NosqConfig::hpca16());
        let pc = 0x400300;
        for _ in 0..40 {
            p.train(pc, h(0b0), Some(7));
            p.train(pc, h(0b1), Some(21));
        }
        assert_eq!(p.predict(pc, h(0b0)), Some(7));
        assert_eq!(p.predict(pc, h(0b1)), Some(21));
    }

    #[test]
    fn oversized_distance_trains_as_no_pair() {
        let mut p = NosqDistance::new(NosqConfig::hpca16());
        let pc = 0x400400;
        for _ in 0..20 {
            p.train(pc, h(0), Some(12));
        }
        assert!(p.predict(pc, h(0)).is_some());
        p.train(pc, h(0), Some(10_000)); // unrepresentable
        assert_eq!(p.predict(pc, h(0)), None, "confidence must reset");
    }

    #[test]
    fn storage_is_17kb() {
        let p = NosqDistance::new(NosqConfig::hpca16());
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((16.0..=19.0).contains(&kb), "NoSQ storage {kb}KB");
    }
}
