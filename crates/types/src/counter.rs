//! Small saturating counters used by predictors and the ISRB.

/// An `n`-bit saturating up/down counter.
///
/// Used for predictor confidence (4-bit, saturating at 15 per the paper) and
/// for TAGE useful bits. The width is a runtime parameter so experiments can
/// sweep it (the paper's §6.3 counter-width study).
///
/// # Examples
///
/// ```
/// use regshare_types::counter::SatCounter;
/// let mut c = SatCounter::new(4);
/// for _ in 0..20 { c.increment(); }
/// assert_eq!(c.value(), 15);
/// assert!(c.is_saturated());
/// c.reset();
/// assert_eq!(c.value(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u32,
    max: u32,
}

impl SatCounter {
    /// Creates a zeroed counter with the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 31`.
    pub fn new(bits: u32) -> SatCounter {
        assert!(bits > 0 && bits <= 31, "counter width out of range: {bits}");
        SatCounter {
            value: 0,
            max: (1 << bits) - 1,
        }
    }

    /// Current counter value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The saturation value.
    #[inline]
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Increments, saturating at the maximum. Returns `true` if the value
    /// changed (i.e. the counter was not already saturated).
    #[inline]
    pub fn increment(&mut self) -> bool {
        if self.value < self.max {
            self.value += 1;
            true
        } else {
            false
        }
    }

    /// Decrements, saturating at zero. Returns `true` if the value changed.
    #[inline]
    pub fn decrement(&mut self) -> bool {
        if self.value > 0 {
            self.value -= 1;
            true
        } else {
            false
        }
    }

    /// Resets the counter to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Whether the counter is at its maximum.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.value == self.max
    }

    /// Sets the counter to an arbitrary value, clamped to the maximum.
    #[inline]
    pub fn set(&mut self, v: u32) {
        self.value = v.min(self.max);
    }
}

/// A signed saturating counter in `[-2^(bits-1), 2^(bits-1) - 1]`, as used by
/// bimodal/TAGE taken/not-taken predictions.
///
/// # Examples
///
/// ```
/// use regshare_types::counter::SignedCounter;
/// let mut c = SignedCounter::new(3); // range [-4, 3]
/// assert!(!c.is_taken());
/// c.update(true);
/// assert!(c.is_taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignedCounter {
    value: i32,
    min: i32,
    max: i32,
}

impl SignedCounter {
    /// Creates a counter of the given width, initialized to the weakly
    /// not-taken value (-1).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `bits > 31`.
    pub fn new(bits: u32) -> SignedCounter {
        assert!(
            (2..=31).contains(&bits),
            "counter width out of range: {bits}"
        );
        let max = (1 << (bits - 1)) - 1;
        SignedCounter {
            value: -1,
            min: -(max + 1),
            max,
        }
    }

    /// Prediction: `true` (taken) when the value is non-negative.
    #[inline]
    pub fn is_taken(&self) -> bool {
        self.value >= 0
    }

    /// Trains toward `taken`.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        if taken {
            self.value = (self.value + 1).min(self.max);
        } else {
            self.value = (self.value - 1).max(self.min);
        }
    }

    /// Raw value.
    #[inline]
    pub fn value(&self) -> i32 {
        self.value
    }

    /// Whether the counter is at either extreme (high confidence).
    #[inline]
    pub fn is_strong(&self) -> bool {
        self.value == self.min || self.value == self.max
    }

    /// Sets the raw value, clamped to the representable range.
    #[inline]
    pub fn set(&mut self, v: i32) {
        self.value = v.clamp(self.min, self.max);
    }

    /// Resets to the weak state nearest the current direction.
    #[inline]
    pub fn weaken(&mut self) {
        self.value = if self.value >= 0 { 0 } else { -1 };
    }
}

impl crate::snapshot::Snap for SatCounter {
    fn encode(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_u32(self.value);
        w.put_u32(self.max);
    }
    fn decode(r: &mut crate::snapshot::SnapReader<'_>) -> Result<Self, crate::snapshot::SnapError> {
        let value = r.get_u32()?;
        let max = r.get_u32()?;
        if value > max {
            return Err(r.corrupt("SatCounter value"));
        }
        Ok(SatCounter { value, max })
    }
}

impl crate::snapshot::Snap for SignedCounter {
    fn encode(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_u32(self.value as u32);
        w.put_u32(self.min as u32);
        w.put_u32(self.max as u32);
    }
    fn decode(r: &mut crate::snapshot::SnapReader<'_>) -> Result<Self, crate::snapshot::SnapError> {
        let value = r.get_u32()? as i32;
        let min = r.get_u32()? as i32;
        let max = r.get_u32()? as i32;
        if min > max || value < min || value > max {
            return Err(r.corrupt("SignedCounter value"));
        }
        Ok(SignedCounter { value, min, max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_counter_saturates_and_resets() {
        let mut c = SatCounter::new(3);
        assert_eq!(c.max(), 7);
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.value(), 7);
        assert!(c.is_saturated());
        assert!(!c.increment());
        assert!(c.decrement());
        assert_eq!(c.value(), 6);
        c.reset();
        assert_eq!(c.value(), 0);
        assert!(!c.decrement());
    }

    #[test]
    fn sat_counter_set_clamps() {
        let mut c = SatCounter::new(2);
        c.set(100);
        assert_eq!(c.value(), 3);
    }

    #[test]
    #[should_panic]
    fn sat_counter_zero_width_panics() {
        let _ = SatCounter::new(0);
    }

    #[test]
    fn signed_counter_range() {
        let mut c = SignedCounter::new(3);
        for _ in 0..10 {
            c.update(false);
        }
        assert_eq!(c.value(), -4);
        assert!(c.is_strong());
        for _ in 0..10 {
            c.update(true);
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_taken());
    }

    #[test]
    fn signed_counter_weaken() {
        let mut c = SignedCounter::new(3);
        c.set(3);
        c.weaken();
        assert_eq!(c.value(), 0);
        c.set(-4);
        c.weaken();
        assert_eq!(c.value(), -1);
    }
}
