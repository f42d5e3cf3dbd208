//! Experiment harness: workload × configuration sweeps reproducing every
//! table and figure of the paper's evaluation.
//!
//! The front door is the **scenario layer** ([`scenario`]): a [`Scenario`]
//! names an experiment — workloads × labelled configuration variants plus
//! [`RunOptions`] — and can come from a built-in preset
//! ([`scenario::preset`]), the validating [`ScenarioBuilder`], or a
//! checked-in `.scenario` file ([`Scenario::load`], a dependency-free TOML
//! subset). [`Scenario::to_sweep`] validates everything (typed
//! [`ScenarioError`]s, no silent misconfigurations) and expands the matrix
//! into a [`SweepSpec`] for the deterministic parallel engine in [`sweep`]:
//! jobs run on a `std::thread` worker pool and merge back in spec order, so
//! output is byte-identical at any parallelism level. [`report`] renders
//! the shared report format, and [`cli`] gives every binary the same
//! `--scenario` / `--preset` / `--warmup` / `--measure` / `--jobs` /
//! `--cache-dir` flags. [`cache`] is the content-addressed store of
//! finished cells that cached sweeps ([`Scenario::run`] with a cache
//! directory) and the serve daemon share.

#![deny(missing_docs)]

pub mod cache;
pub mod cli;
pub mod digest;
pub mod fuzz;
pub mod harness;
pub mod options;
pub mod report;
pub mod scenario;
pub mod sweep;
pub mod table;

pub use digest::cell_digest;
pub use fuzz::FuzzOptions;
pub use harness::{measure_program, Measurement, RunWindow};
pub use options::{RunOptions, ZeroJobsError, DEFAULT_MEASURE, DEFAULT_WARMUP};
pub use report::{render_report, run_scenario};
pub use scenario::{
    preset, valid_name, Scenario, ScenarioBuilder, ScenarioError, VariantSpec, WorkloadSource,
    CONFIG_PRESETS, SCENARIO_PRESETS,
};
pub use sweep::{panic_detail, SweepError, SweepGrid, SweepRow, SweepSpec, Variant};
pub use table::Table;
