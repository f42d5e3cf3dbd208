//! Run-window plumbing shared by all experiments.

use regshare_core::{CoreConfig, SimStats, Simulator};
use regshare_isa::Program;
use regshare_workloads::Workload;

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
    /// Stats over the measured window only.
    pub stats: SimStats,
}

impl Measurement {
    /// IPC over the measured window.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Runs `workload` under `cfg` with the given window and returns
/// measured-window statistics.
pub fn measure(workload: &Workload, cfg: CoreConfig, window: RunWindow) -> Measurement {
    measure_with(workload, cfg, window, |_| {})
}

/// Like [`measure`], but over an already-built program — the sweep engine's
/// memoized-program path ([`crate::SweepSpec`] builds each workload's
/// program once and shares it across every configuration variant).
pub fn measure_program(
    name: impl Into<String>,
    program: &Program,
    cfg: CoreConfig,
    window: RunWindow,
) -> Measurement {
    measure_program_with(name, program, cfg, window, |_| {})
}

/// Like [`measure`], with a post-run hook receiving the simulator (for
/// digests, audits or extra probes).
pub fn measure_with(
    workload: &Workload,
    cfg: CoreConfig,
    window: RunWindow,
    inspect: impl FnOnce(&Simulator),
) -> Measurement {
    measure_program_with(
        workload.name.clone(),
        &workload.build(),
        cfg,
        window,
        inspect,
    )
}

/// The one warmup → measure → delta protocol every entry point shares.
fn measure_program_with(
    name: impl Into<String>,
    program: &Program,
    cfg: CoreConfig,
    window: RunWindow,
    inspect: impl FnOnce(&Simulator),
) -> Measurement {
    let mut sim = Simulator::new(program, cfg);
    let warm = sim.run(window.warmup);
    let end = sim.run(window.measure);
    inspect(&sim);
    Measurement {
        name: name.into(),
        stats: end.delta_since(&warm),
    }
}
