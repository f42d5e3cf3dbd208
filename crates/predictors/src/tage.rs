//! TAGE conditional branch direction predictor (Seznec & Michaud).
//!
//! Configured per Table 1 of the paper: one bimodal base component plus 12
//! partially tagged components with geometrically increasing history
//! lengths, ~15K entries total, speculative history with snapshot/restore.

use crate::history::{FoldedHistory, GlobalHistory};
use regshare_types::counter::{SatCounter, SignedCounter};
use regshare_types::hasher::mix64;
use regshare_types::Addr;

/// Geometry of one tagged component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentConfig {
    /// log2(number of entries).
    pub log_entries: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// History length in bits.
    pub hist_len: usize,
}

/// Full TAGE geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2(base bimodal entries).
    pub log_base_entries: u32,
    /// Tagged components, shortest history first.
    pub components: Vec<ComponentConfig>,
    /// Useful-counter graceful-reset period (updates).
    pub u_reset_period: u64,
}

impl TageConfig {
    /// The paper's configuration: 1 base + 12 tagged components,
    /// ~15K entries total, histories from 4 to 640 bits.
    pub fn hpca16() -> TageConfig {
        // 8K base + (4×1K + 6×512 + 2×256) tagged = 15.9K entries total.
        let lens = [4usize, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403, 640];
        let log_sizes = [10u32, 10, 10, 10, 9, 9, 9, 9, 9, 9, 8, 8];
        let tag_bits = [8u32, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13];
        TageConfig {
            log_base_entries: 13,
            components: (0..12)
                .map(|i| ComponentConfig {
                    log_entries: log_sizes[i],
                    tag_bits: tag_bits[i],
                    hist_len: lens[i],
                })
                .collect(),
            u_reset_period: 1 << 18,
        }
    }

    /// Total predictor entries (base + tagged).
    pub fn total_entries(&self) -> usize {
        (1usize << self.log_base_entries)
            + self
                .components
                .iter()
                .map(|c| 1usize << c.log_entries)
                .sum::<usize>()
    }
}

#[derive(Debug, Clone, Copy)]
struct TageEntry {
    tag: u32,
    ctr: SignedCounter,
    useful: SatCounter,
}

#[derive(Debug, Clone)]
struct Component {
    cfg: ComponentConfig,
    entries: Vec<TageEntry>,
    folded_idx: FoldedHistory,
    folded_tag0: FoldedHistory,
    folded_tag1: FoldedHistory,
}

impl Component {
    fn new(cfg: ComponentConfig) -> Component {
        Component {
            cfg,
            entries: vec![
                TageEntry {
                    tag: 0,
                    ctr: SignedCounter::new(3),
                    useful: SatCounter::new(2),
                };
                1 << cfg.log_entries
            ],
            folded_idx: FoldedHistory::new(cfg.hist_len, cfg.log_entries),
            folded_tag0: FoldedHistory::new(cfg.hist_len, cfg.tag_bits),
            folded_tag1: FoldedHistory::new(cfg.hist_len, cfg.tag_bits - 1),
        }
    }

    #[inline]
    fn index(&self, pc: Addr, path: u16) -> usize {
        let h = mix64(pc) ^ self.folded_idx.value() as u64 ^ ((path as u64) << 2);
        (h as usize) & ((1 << self.cfg.log_entries) - 1)
    }

    #[inline]
    fn tag(&self, pc: Addr) -> u32 {
        let t = (mix64(pc ^ 0x5a5a) as u32)
            ^ self.folded_tag0.value()
            ^ (self.folded_tag1.value() << 1);
        t & ((1 << self.cfg.tag_bits) - 1)
    }
}

/// Speculative history state, checkpointed per predicted branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageHistory {
    ghist: GlobalHistory,
    path: u16,
    folds: Vec<(FoldedHistory, FoldedHistory, FoldedHistory)>,
}

/// Maximum tagged components a [`Tage`] may have. Predictions carry
/// per-component indices/tags inline (no heap) at this capacity; the
/// paper's geometry uses 12.
pub const MAX_COMPONENTS: usize = 16;

/// The information recorded at prediction time, needed to train the tables
/// when the branch commits. Stored inline (fixed arrays, no heap): one of
/// these is produced per predicted conditional branch and lives in the ROB
/// until commit, so it sits on the simulator's steady-state path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagePrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Providing tagged component (`None` ⇒ base bimodal provided).
    provider: Option<usize>,
    /// Alternate prediction (next-longest hit, or base).
    alt_taken: bool,
    /// Whether the provider entry was a fresh allocation (weak counter).
    provider_weak: bool,
    /// Live components (slots beyond this are zero).
    n_comps: u8,
    /// Table indices captured at prediction time (per component).
    indices: [u32; MAX_COMPONENTS],
    /// Tags captured at prediction time.
    tags: [u32; MAX_COMPONENTS],
    /// Base table index.
    base_index: usize,
}

/// The TAGE predictor.
///
/// # Examples
///
/// ```
/// use regshare_predictors::{Tage, TageConfig};
///
/// let mut tage = Tage::new(TageConfig::hpca16());
/// // A strongly biased branch becomes predictable after training.
/// for _ in 0..64 {
///     let p = tage.predict(0x400000);
///     tage.train(0x400000, &p, true);
///     tage.update_history(true, 0x400000);
/// }
/// let p = tage.predict(0x400000);
/// assert!(p.taken);
/// ```
#[derive(Debug, Clone)]
pub struct Tage {
    base: Vec<SignedCounter>,
    comps: Vec<Component>,
    ghist: GlobalHistory,
    path: u16,
    log_base: u32,
    updates: u64,
    u_reset_period: u64,
    /// Deterministic LFSR for allocation randomization.
    lfsr: u32,
    lookups: u64,
    mispredicts_trained: u64,
}

impl Tage {
    /// Creates a predictor with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than [`MAX_COMPONENTS`] tagged
    /// components or a component with `log_entries >= 32` (prediction
    /// indices are carried as `u32`).
    pub fn new(cfg: TageConfig) -> Tage {
        assert!(
            cfg.components.len() <= MAX_COMPONENTS,
            "TAGE geometry exceeds MAX_COMPONENTS"
        );
        assert!(
            cfg.components.iter().all(|c| c.log_entries < 32),
            "TAGE component too large for u32 indices"
        );
        Tage {
            base: vec![SignedCounter::new(2); 1 << cfg.log_base_entries],
            comps: cfg.components.iter().map(|c| Component::new(*c)).collect(),
            ghist: GlobalHistory::new(),
            path: 0,
            log_base: cfg.log_base_entries,
            updates: 0,
            u_reset_period: cfg.u_reset_period,
            lfsr: 0xace1,
            lookups: 0,
            mispredicts_trained: 0,
        }
    }

    #[inline]
    fn base_index(&self, pc: Addr) -> usize {
        (mix64(pc) as usize) & ((1 << self.log_base) - 1)
    }

    #[inline]
    fn rand(&mut self) -> u32 {
        // 16-bit Galois LFSR: deterministic "randomness" for allocation.
        let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
        self.lfsr = (self.lfsr >> 1) | (bit << 15);
        self.lfsr
    }

    /// Predicts the direction of the conditional branch at `pc` using the
    /// current speculative history.
    pub fn predict(&mut self, pc: Addr) -> TagePrediction {
        self.lookups += 1;
        let base_index = self.base_index(pc);
        let base_taken = self.base[base_index].is_taken();

        let mut indices = [0u32; MAX_COMPONENTS];
        let mut tags = [0u32; MAX_COMPONENTS];
        let mut provider = None;
        let mut alt = None;
        for (i, c) in self.comps.iter().enumerate() {
            let idx = c.index(pc, self.path);
            let tag = c.tag(pc);
            indices[i] = idx as u32;
            tags[i] = tag;
            if c.entries[idx].tag == tag {
                alt = provider;
                provider = Some(i);
            }
        }
        let (taken, alt_taken, provider_weak) = match provider {
            Some(p) => {
                let e = &self.comps[p].entries[indices[p] as usize];
                let alt_taken = match alt {
                    Some(a) => self.comps[a].entries[indices[a] as usize].ctr.is_taken(),
                    None => base_taken,
                };
                // "Weak" provider: newly allocated, low confidence — use alt
                // prediction instead (TAGE's use_alt_on_na, simplified).
                let weak = !e.ctr.is_strong() && e.useful.value() == 0;
                let taken = if weak { alt_taken } else { e.ctr.is_taken() };
                (taken, alt_taken, weak)
            }
            None => (base_taken, base_taken, false),
        };
        TagePrediction {
            taken,
            provider,
            alt_taken,
            provider_weak,
            n_comps: self.comps.len() as u8,
            indices,
            tags,
            base_index,
        }
    }

    /// Pushes the (speculative) outcome of a branch into the history.
    /// Every branch — conditional or not — shifts history, conditionals by
    /// their direction, others by `taken = true`.
    pub fn update_history(&mut self, taken: bool, pc: Addr) {
        for c in &mut self.comps {
            c.folded_idx.push(taken, &self.ghist);
            c.folded_tag0.push(taken, &self.ghist);
            c.folded_tag1.push(taken, &self.ghist);
        }
        self.ghist.push(taken);
        self.path = (self.path << 1) ^ (pc as u16 & 0x7fff);
    }

    /// Snapshots the speculative history (taken when a branch is predicted;
    /// restored on its misprediction).
    pub fn snapshot(&self) -> TageHistory {
        TageHistory {
            ghist: self.ghist,
            path: self.path,
            folds: self
                .comps
                .iter()
                .map(|c| (c.folded_idx, c.folded_tag0, c.folded_tag1))
                .collect(),
        }
    }

    /// [`Tage::snapshot`] into an existing `TageHistory`, reusing its
    /// buffer — the allocation-free path for pooled snapshots (one is taken
    /// per predicted branch, so this sits on the simulator's hot loop).
    pub fn snapshot_into(&self, out: &mut TageHistory) {
        out.ghist = self.ghist;
        out.path = self.path;
        out.folds.clear();
        out.folds.extend(
            self.comps
                .iter()
                .map(|c| (c.folded_idx, c.folded_tag0, c.folded_tag1)),
        );
    }

    /// Restores a speculative-history snapshot.
    pub fn restore(&mut self, snap: &TageHistory) {
        self.ghist = snap.ghist;
        self.path = snap.path;
        for (c, f) in self.comps.iter_mut().zip(&snap.folds) {
            c.folded_idx = f.0;
            c.folded_tag0 = f.1;
            c.folded_tag1 = f.2;
        }
    }

    /// Low bits of the current speculative global history / path, for
    /// building [`regshare_types::HistorySnapshot`]s.
    pub fn history_bits(&self) -> (u64, u16) {
        (self.ghist.low64(), self.path)
    }

    /// Advances a detached history snapshot by one branch outcome, exactly
    /// as [`Tage::update_history`] would advance the live state. Used to
    /// maintain an *architectural* history image at commit, so commit-time
    /// flushes can restore the front-end history without checkpoints.
    pub fn advance_snapshot(&self, snap: &mut TageHistory, taken: bool, pc: Addr) {
        for f in &mut snap.folds {
            f.0.push(taken, &snap.ghist);
            f.1.push(taken, &snap.ghist);
            f.2.push(taken, &snap.ghist);
        }
        snap.ghist.push(taken);
        snap.path = (snap.path << 1) ^ (pc as u16 & 0x7fff);
    }

    /// Trains the predictor with the architectural outcome of a branch,
    /// using the indices/tags captured at prediction time.
    pub fn train(&mut self, _pc: Addr, pred: &TagePrediction, taken: bool) {
        self.updates += 1;
        if self.updates.is_multiple_of(self.u_reset_period) {
            // Graceful useful-counter aging.
            for c in &mut self.comps {
                for e in &mut c.entries {
                    e.useful.decrement();
                }
            }
        }

        let mispredicted = pred.taken != taken;
        if mispredicted {
            self.mispredicts_trained += 1;
        }

        match pred.provider {
            Some(p) => {
                let e = &mut self.comps[p].entries[pred.indices[p] as usize];
                e.ctr.update(taken);
                // Useful bit: provider differed from alternate and was right.
                let provider_dir_taken = {
                    // After the counter update the direction may have flipped;
                    // usefulness is judged on the prediction actually made.
                    pred.taken
                };
                if !pred.provider_weak && provider_dir_taken != pred.alt_taken {
                    if provider_dir_taken == taken {
                        e.useful.increment();
                    } else {
                        e.useful.decrement();
                    }
                }
                // If the weak provider was overridden by alt, still train base
                // when base provided the alt.
                if pred.provider_weak {
                    self.base[pred.base_index].update(taken);
                }
            }
            None => {
                self.base[pred.base_index].update(taken);
            }
        }

        // Allocate a new entry in a longer-history component on misprediction.
        if mispredicted {
            let start = pred.provider.map_or(0, |p| p + 1);
            if start < self.comps.len() {
                // Pick among components with u == 0, preferring shorter
                // histories with some randomization (classic TAGE policy).
                let r = self.rand();
                let mut allocated = false;
                let mut i = start + (r as usize % 2).min(self.comps.len() - 1 - start);
                while i < self.comps.len() {
                    let idx = pred.indices[i] as usize;
                    let e = &mut self.comps[i].entries[idx];
                    if e.useful.value() == 0 {
                        e.tag = pred.tags[i];
                        e.ctr.set(if taken { 0 } else { -1 });
                        allocated = true;
                        break;
                    }
                    i += 1;
                }
                if !allocated {
                    // Decay useful counters on the allocation path.
                    for i in start..self.comps.len() {
                        let idx = pred.indices[i] as usize;
                        self.comps[i].entries[idx].useful.decrement();
                    }
                }
            }
        }
    }

    /// (lookups, trained mispredictions) observed so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.mispredicts_trained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TageConfig {
        TageConfig {
            log_base_entries: 8,
            components: vec![
                ComponentConfig {
                    log_entries: 7,
                    tag_bits: 8,
                    hist_len: 4,
                },
                ComponentConfig {
                    log_entries: 7,
                    tag_bits: 9,
                    hist_len: 12,
                },
                ComponentConfig {
                    log_entries: 7,
                    tag_bits: 10,
                    hist_len: 32,
                },
            ],
            u_reset_period: 1 << 14,
        }
    }

    /// Run a closure producing (pc, outcome) pairs through the predictor and
    /// return the misprediction rate over the last half of the run.
    fn mispredict_rate(mut gen: impl FnMut(usize) -> (Addr, bool), steps: usize) -> f64 {
        let mut tage = Tage::new(small_cfg());
        let mut mis = 0usize;
        let mut counted = 0usize;
        for i in 0..steps {
            let (pc, outcome) = gen(i);
            let p = tage.predict(pc);
            if i >= steps / 2 {
                counted += 1;
                if p.taken != outcome {
                    mis += 1;
                }
            }
            tage.train(pc, &p, outcome);
            tage.update_history(outcome, pc);
        }
        mis as f64 / counted as f64
    }

    #[test]
    fn biased_branch_is_learned() {
        let rate = mispredict_rate(|_| (0x400100, true), 2000);
        assert!(rate < 0.01, "biased branch mispredict rate {rate}");
    }

    #[test]
    fn short_pattern_is_learned() {
        // Period-4 pattern requires history.
        let pat = [true, true, false, true];
        let rate = mispredict_rate(|i| (0x400200, pat[i % 4]), 4000);
        assert!(rate < 0.05, "pattern mispredict rate {rate}");
    }

    #[test]
    fn history_correlated_branch_is_learned() {
        // Branch B's outcome equals branch A's previous outcome: only
        // history-indexed components can capture this.
        let mut a_prev = false;
        let mut tage = Tage::new(small_cfg());
        let mut mis = 0;
        let mut total = 0;
        let mut x = 99u64;
        for i in 0..6000 {
            // Branch A: pseudo-random.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a_out = x & 1 == 1;
            let pa = tage.predict(0x400300);
            tage.train(0x400300, &pa, a_out);
            tage.update_history(a_out, 0x400300);
            // Branch B: copies A.
            let b_out = a_prev;
            let pb = tage.predict(0x400400);
            if i > 3000 {
                total += 1;
                if pb.taken != b_out {
                    mis += 1;
                }
            }
            tage.train(0x400400, &pb, b_out);
            tage.update_history(b_out, 0x400400);
            a_prev = a_out;
        }
        let rate = mis as f64 / total as f64;
        assert!(rate < 0.10, "correlated branch mispredict rate {rate}");
    }

    #[test]
    fn snapshot_restore_round_trips_history() {
        let mut tage = Tage::new(small_cfg());
        for i in 0..100 {
            tage.update_history(i % 3 == 0, 0x400000 + i * 4);
        }
        let snap = tage.snapshot();
        let before = tage.history_bits();
        for i in 0..50 {
            tage.update_history(i % 2 == 0, 0x500000 + i * 4);
        }
        assert_ne!(tage.history_bits(), before);
        tage.restore(&snap);
        assert_eq!(tage.history_bits(), before);
        // Predictions must be identical after restore.
        let p1 = tage.predict(0x400abc);
        tage.restore(&snap);
        let p2 = tage.predict(0x400abc);
        assert_eq!(p1, p2);
    }

    #[test]
    fn hpca16_geometry_is_about_15k_entries() {
        let cfg = TageConfig::hpca16();
        let total = cfg.total_entries();
        assert!((14_000..=17_000).contains(&total), "total entries {total}");
        assert_eq!(cfg.components.len(), 12);
        assert_eq!(cfg.components.last().unwrap().hist_len, 640);
    }
}
