//! Speculative return address stack (RAS).

/// A fixed-capacity circular return-address stack predicting return targets.
///
/// The RAS is updated speculatively at fetch (push on call, pop on return),
/// so the whole stack supports snapshot/restore for misprediction recovery.
/// Entries are static instruction indices.
///
/// # Examples
///
/// ```
/// use regshare_predictors::ReturnAddressStack;
/// let mut ras = ReturnAddressStack::new(32);
/// ras.push(7);
/// assert_eq!(ras.pop(), Some(7));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReturnAddressStack {
    entries: Vec<u32>,
    /// Index of the next free slot (top of stack is `top - 1`).
    top: usize,
    /// Number of valid entries (≤ capacity; old entries get overwritten).
    depth: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> ReturnAddressStack {
        assert!(capacity > 0, "RAS capacity must be positive");
        ReturnAddressStack {
            entries: vec![0; capacity],
            top: 0,
            depth: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Current number of valid entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Pushes a return target (on call). Overwrites the oldest entry when
    /// full, as hardware does.
    pub fn push(&mut self, ret_sidx: u32) {
        let cap = self.entries.len();
        self.entries[self.top] = ret_sidx;
        self.top = (self.top + 1) % cap;
        self.depth = (self.depth + 1).min(cap);
    }

    /// Pops the predicted return target (on return), or `None` if empty.
    pub fn pop(&mut self) -> Option<u32> {
        if self.depth == 0 {
            return None;
        }
        let cap = self.entries.len();
        self.top = (self.top + cap - 1) % cap;
        self.depth -= 1;
        Some(self.entries[self.top])
    }

    /// Snapshot for misprediction recovery.
    pub fn snapshot(&self) -> ReturnAddressStack {
        self.clone()
    }

    /// Restores a snapshot taken with [`Self::snapshot`]. In-place: when
    /// the capacities match (the simulator's case — every snapshot comes
    /// from the same configuration) the entries are copied without
    /// allocating, which keeps snapshot pooling on the recovery path free.
    pub fn restore(&mut self, snap: &ReturnAddressStack) {
        if self.entries.len() == snap.entries.len() {
            self.entries.copy_from_slice(&snap.entries);
        } else {
            self.entries.clone_from(&snap.entries);
        }
        self.top = snap.top;
        self.depth = snap.depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), Some(1));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // evicts 1
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(10);
        ras.push(20);
        let snap = ras.snapshot();
        ras.pop();
        ras.push(99);
        ras.push(98);
        ras.restore(&snap);
        assert_eq!(ras.pop(), Some(20));
        assert_eq!(ras.pop(), Some(10));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = ReturnAddressStack::new(0);
    }
}
