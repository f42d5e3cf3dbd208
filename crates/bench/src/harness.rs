//! Run windows and the one measurement protocol shared by all experiments.
//!
//! Every measured cell — the parallel sweep engine, the resumable
//! checkpointed sweep and the serve daemon — goes through one
//! crate-private `measure`: run to the warmup target, run on to the
//! warmup + measure target, and subtract the warmup-end stats.
//! [`measure_program`] is that protocol on a fresh machine with no
//! checkpoints.

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
    Measurement {
        name: name.into(),
        stats: measure(&mut sim, None, window, 0, |_, _| {}),
    }
}

/// The one warmup → measure → delta protocol every cell runner uses.
///
/// Both phases end at absolute committed-µ-op targets (`window.warmup`,
/// then `window.warmup + window.measure`), so a machine resumed from a
/// snapshot partway through either phase finishes exactly where an
/// uninterrupted run does. `warm` holds the warmup-end stats of a cell
/// resumed mid-measure; the warmup phase is then skipped.
///
/// `on_checkpoint` observes the paused machine every `every` committed
/// µ-ops (never when `every == 0`), together with the warmup-end stats
/// once warmup is over.
pub(crate) fn measure(
    sim: &mut Simulator,
    warm: Option<SimStats>,
    window: RunWindow,
    every: u64,
    mut on_checkpoint: impl FnMut(&Simulator, Option<SimStats>),
) -> SimStats {
    let warm = warm.unwrap_or_else(|| {
        let left = window.warmup - sim.stats().committed;
        sim.run_with_checkpoints(left, every, |s| on_checkpoint(s, None))
    });
    let left = window.warmup + window.measure - sim.stats().committed;
    let end = sim.run_with_checkpoints(left, every, |s| on_checkpoint(s, Some(warm)));
    end.delta_since(&warm)
}
