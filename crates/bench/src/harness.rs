//! Run windows and the one measurement protocol shared by all experiments.
//!
//! Every measured cell — the parallel sweep engine (cached or not) and
//! the serve daemon — goes through [`measure_program`]: a fresh machine
//! runs the warmup, runs the measured window, and subtracts the
//! warmup-end stats.

use regshare_core::{CoreConfig, SimStats, Simulator};
use regshare_isa::Program;

/// Warmup/measurement window (µ-ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunWindow {
    /// µ-ops run before measurement starts (caches/predictors warm up).
    pub warmup: u64,
    /// µ-ops measured.
    pub measure: u64,
}

impl RunWindow {
    /// A fast window for smoke tests.
    pub fn quick() -> RunWindow {
        RunWindow {
            warmup: 10_000,
            measure: 40_000,
        }
    }
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name. Owned, so measurements can carry names that only
    /// exist at runtime (workloads resolved from `.scenario` files).
    pub name: String,
    /// Stats over the measured window, by [`SimStats::delta_since`]: the
    /// monotonic counters exclude warmup, but `tracker`, `share_distance`,
    /// `reclaim_check_distance` and `peak_checkpoints` are end-of-run
    /// values that include it.
    pub stats: SimStats,
}

impl Measurement {
    /// IPC over the measured window.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Runs the warmup → measure → delta protocol over an already-built
/// program (the sweep engine builds each workload's program once and
/// reuses it across every configuration variant).
pub fn measure_program(
    name: impl Into<String>,
    program: &Program,
    cfg: CoreConfig,
    window: RunWindow,
) -> Measurement {
    let mut sim = Simulator::new(program, cfg);
    let warm = sim.run(window.warmup);
    let end = sim.run(window.measure);
    Measurement {
        name: name.into(),
        stats: end.delta_since(&warm),
    }
}
