//! The benchmark's own statistics: medians, quartiles, tail percentiles
//! with a sample-count rule, and failure accounting.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones a reader computes from the
/// per-run values. `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs);
    let ld = s.len() as i64;
    let (n, m) = (4i64, ld + 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        (s[(j - 1) as usize] * (n as f64 - delta) + s[j as usize] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the spread measure a
/// metric's bound is compared with. `None` for fewer than two values or a
/// zero median.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`, linear interpolation between
/// closest ranks), or `None` unless at least [`MIN_BEYOND`] samples lie
/// strictly above it — a p90 needs about a hundred samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..100.0).contains(&p) {
        return None;
    }
    let s = sorted(xs);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let v = s[lo] + (s[hi] - s[lo]) * (rank - lo as f64);
    let beyond = s.iter().filter(|&&x| x > v).count();
    (beyond >= MIN_BEYOND).then_some(v)
}

/// Smallest sample count for which [`percentile`] can report `p` when no
/// two samples tie.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n: &usize| {
            let rank = (p / 100.0 * (n - 1) as f64).floor() as usize;
            n - 1 - rank >= MIN_BEYOND
        })
        .expect("some count leaves enough samples beyond")
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed in one run. A failure is a failed
/// output check, a sweep error, or an error reply; `failed_frac` is
/// failures over attempts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted: timed and traced sweep cells, served
    /// requests, and output checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records `n` attempted operations of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        debug_assert!(failed <= n, "more failures than attempts");
        self.attempted += n;
        self.failed += failed;
    }

    /// Records one check; `ok == false` counts as a failure.
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Failures over attempts (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = relative_spread(&xs).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_requires_ten_samples_beyond() {
        // 100 distinct samples: p90 sits at 90.1, with 10 samples above.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0).unwrap();
        assert!((p90 - 90.1).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > p90).count(), 10);
        // 92 samples still leave 10 above the p90; 91 leave 9.
        assert!(percentile(&xs[..92], 90.0).is_some());
        assert_eq!(percentile(&xs[..91], 90.0), None);
        // The median of 21 samples has exactly 10 beyond it; of 19, 9.
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&small, 50.0), Some(11.0));
        assert_eq!(percentile(&small[..19], 50.0), None);
        // Ties at the top do not count as beyond.
        assert_eq!(percentile(&[1.0; 200], 50.0), None);
        assert_eq!(percentile(&xs, 100.0), None);
    }

    #[test]
    fn samples_needed_agrees_with_percentile() {
        for p in [50.0, 90.0] {
            let n = samples_needed(p);
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            assert!(percentile(&xs, p).is_some(), "p{p} with {n}");
            assert!(percentile(&xs[..n - 1], p).is_none(), "p{p} with {}", n - 1);
        }
        assert_eq!(samples_needed(90.0), 92);
        assert_eq!(samples_needed(50.0), 20);
    }

    #[test]
    fn failed_frac_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.add(180, 0);
        t.check(true);
        t.check(false);
        t.add(18, 3);
        assert_eq!(
            t,
            Tally {
                attempted: 200,
                failed: 4
            }
        );
        assert!((t.failed_frac() - 0.02).abs() < 1e-12);
    }
}
