//! SplitMix64: the benchmark's seeded input generator.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64-bit value.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `n` distinct items of `items` in drawn order (all of them if
    /// `n >= items.len()`).
    pub fn sample(&mut self, items: &[String], n: usize) -> Vec<String> {
        let mut pool = items.to_vec();
        let n = n.min(pool.len());
        for i in 0..n {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(n);
        pool
    }
}
