//! Global branch history and incrementally folded history registers.

/// Maximum supported history length in bits.
pub const MAX_HISTORY: usize = 1024;
const WORDS: usize = MAX_HISTORY / 64;

/// A shift register holding the last [`MAX_HISTORY`] branch outcomes.
/// Bit 0 is the most recent branch.
///
/// # Examples
///
/// ```
/// use regshare_predictors::history::GlobalHistory;
/// let mut h = GlobalHistory::new();
/// h.push(true);
/// h.push(false);
/// assert!(!h.bit(0));
/// assert!(h.bit(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalHistory {
    words: [u64; WORDS],
}

impl Default for GlobalHistory {
    fn default() -> Self {
        GlobalHistory { words: [0; WORDS] }
    }
}

impl GlobalHistory {
    /// Creates an all-zero (all not-taken) history.
    pub fn new() -> GlobalHistory {
        GlobalHistory::default()
    }

    /// Shifts in one outcome at position 0.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        let mut carry = u64::from(taken);
        for w in &mut self.words {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
    }

    /// The outcome `pos` branches ago (`pos == 0` is the most recent).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= MAX_HISTORY`.
    #[inline]
    pub fn bit(&self, pos: usize) -> bool {
        assert!(pos < MAX_HISTORY);
        (self.words[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// The low 64 bits of history (for [`regshare_types::HistorySnapshot`]).
    #[inline]
    pub fn low64(&self) -> u64 {
        self.words[0]
    }
}

/// An incrementally maintained fold of the most recent `hist_len` history
/// bits down to `folded_bits` bits, as used by TAGE index/tag functions.
///
/// Pushing a bit costs O(1); the fold always equals the XOR of the history
/// window split into `folded_bits`-wide chunks (verified by tests against a
/// naive recomputation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldedHistory {
    comp: u32,
    hist_len: usize,
    folded_bits: u32,
    /// Position (within the folded register) where the outgoing bit lands.
    out_pos: u32,
}

impl FoldedHistory {
    /// Creates a fold of `hist_len` bits into `folded_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `folded_bits` is 0 or > 32, or `hist_len` exceeds
    /// [`MAX_HISTORY`].
    pub fn new(hist_len: usize, folded_bits: u32) -> FoldedHistory {
        assert!(folded_bits > 0 && folded_bits <= 32);
        assert!(hist_len <= MAX_HISTORY);
        FoldedHistory {
            comp: 0,
            hist_len,
            folded_bits,
            out_pos: (hist_len as u32) % folded_bits,
        }
    }

    /// Updates the fold for a new outcome entering the history, given the
    /// *pre-push* global history (so the outgoing bit can be read).
    #[inline]
    pub fn push(&mut self, new_bit: bool, pre_push_history: &GlobalHistory) {
        if self.hist_len == 0 {
            return;
        }
        let mask = if self.folded_bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.folded_bits) - 1
        };
        // Incoming bit enters at position 0 after a rotate-left by 1.
        self.comp = ((self.comp << 1) | (self.comp >> (self.folded_bits - 1))) & mask;
        self.comp ^= u32::from(new_bit);
        // Outgoing bit: the one that falls off the end of the window.
        let out_bit = pre_push_history.bit(self.hist_len - 1);
        self.comp ^= u32::from(out_bit) << self.out_pos;
        self.comp &= mask;
    }

    /// The folded value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.comp
    }

    /// Recomputes the fold from scratch (slow; used for tests/recovery
    /// verification).
    pub fn recompute(&self, history: &GlobalHistory) -> u32 {
        let mask = if self.folded_bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.folded_bits) - 1
        };
        let mut v = 0u32;
        for i in 0..self.hist_len {
            // Bit i of history goes to fold position (i % folded_bits), but
            // accounting for the rotate-based incremental scheme: position
            // of bit i is (i) mod folded_bits counted with rotation.
            let pos = (i as u32) % self.folded_bits;
            if history.bit(i) {
                v ^= 1 << pos;
            }
        }
        v & mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_history_shifts_across_words() {
        let mut h = GlobalHistory::new();
        h.push(true);
        for _ in 0..70 {
            h.push(false);
        }
        assert!(h.bit(70));
        assert!(!h.bit(69));
        assert!(!h.bit(0));
    }

    #[test]
    fn low64_matches_pushes() {
        let mut h = GlobalHistory::new();
        for taken in [true, false, true, true] {
            h.push(taken);
        }
        // Most recent push is bit 0: pushes T,F,T,T → bits 1,1,0,1 (LSB first).
        assert_eq!(h.low64() & 0xf, 0b1011);
    }

    #[test]
    fn folded_history_matches_naive_recompute() {
        // Pseudo-random outcome stream; check incremental == naive at every step.
        for (hist_len, bits) in [(5usize, 3u32), (17, 7), (64, 11), (130, 12), (640, 13)] {
            let mut h = GlobalHistory::new();
            let mut f = FoldedHistory::new(hist_len, bits);
            let mut x = 0x12345678u64;
            for step in 0..2000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let bit = x & 1 == 1;
                f.push(bit, &h);
                h.push(bit);
                assert_eq!(
                    f.value(),
                    f.recompute(&h),
                    "mismatch at step {step} (len {hist_len}, bits {bits})"
                );
            }
        }
    }

    #[test]
    fn zero_length_fold_is_inert() {
        let mut h = GlobalHistory::new();
        let mut f = FoldedHistory::new(0, 5);
        f.push(true, &h);
        h.push(true);
        assert_eq!(f.value(), 0);
    }
}
