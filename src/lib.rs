//! Facade crate re-exporting the whole `regshare` workspace.
//!
//! `regshare` reproduces Perais & Seznec, *Cost Effective Physical Register
//! Sharing* (HPCA 2016): an out-of-order core in which move elimination and
//! speculative memory bypassing let several architectural registers map to
//! one physical register, with the paper's Irredundant Shared Register
//! Buffer (ISRB) doing the reference counting that makes reclaiming those
//! registers safe.
//!
//! Each subsystem lives in its own workspace crate; this crate only renames
//! them under one roof so downstream code and the repo-level examples can
//! write `regshare::core::Simulator` instead of depending on every crate
//! individually:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `regshare-types` | register/sequence identifiers, hashing, counters, stats |
//! | [`isa`] | `regshare-isa` | µ-op ISA, programs, in-order oracle interpreter |
//! | [`mem`] | `regshare-mem` | L1/L2/DRAM timing model, MSHRs, prefetcher |
//! | [`predictors`] | `regshare-predictors` | TAGE, BTB, return-address stack, Store Sets |
//! | [`distance`] | `regshare-distance` | instruction-distance prediction for bypassing |
//! | [`refcount`] | `regshare-refcount` | the ISRB and the baseline sharing trackers |
//! | [`core`] | `regshare-core` | the cycle-level out-of-order core simulator |
//! | [`workloads`] | `regshare-workloads` | synthetic SPEC-like workload suite |
//! | [`mod@bench`] | `regshare-bench` | scenario layer, measurement harness and the deterministic parallel sweep engine |
//! | [`serve`] | `regshare-serve` | persistent simulation daemon with a content-addressed result cache |
//!
//! The experiment front door is the scenario layer: a [`Scenario`] names a
//! (workloads × configurations) experiment, validates it with typed errors,
//! and round-trips through checked-in `.scenario` files — the types below
//! are re-exported at the crate root so downstream experiment drivers can
//! use them without digging into `bench`.
//!
//! # Examples
//!
//! Direct simulation:
//!
//! ```
//! use regshare::core::{CoreConfig, Simulator};
//! use regshare::workloads;
//!
//! let wl = workloads::mini();
//! let program = wl.build();
//! let cfg = CoreConfig::hpca16().with_me().with_smb();
//! cfg.validate().expect("valid config");
//! let mut sim = Simulator::new(&program, cfg);
//! let run = sim.run(1_000);
//! assert_eq!(run.committed, 1_000);
//! ```
//!
//! A whole experiment as data:
//!
//! ```
//! use regshare::{RunOptions, Scenario, VariantSpec};
//!
//! let scenario = Scenario::builder("quick")
//!     .options(RunOptions::default().warmup(500).measure(1_500).jobs(2))
//!     .workloads(&["crafty"])
//!     .variant("base", VariantSpec::hpca16())
//!     .variant("both", VariantSpec::preset("me_smb").isrb_entries(32))
//!     .build()
//!     .expect("validated scenario");
//! let grid = scenario.to_sweep().expect("resolvable").run().expect("sweep completes");
//! assert!(grid.get(0, "both").expect("declared label").ipc() > 0.0);
//! // ...and the same experiment as a checked-in .scenario file:
//! assert_eq!(Scenario::parse(&scenario.render()).unwrap(), scenario);
//! ```

#![deny(missing_docs)]

pub use regshare_bench as bench;
pub use regshare_core as core;
pub use regshare_distance as distance;
pub use regshare_isa as isa;
pub use regshare_mem as mem;
pub use regshare_predictors as predictors;
pub use regshare_refcount as refcount;
pub use regshare_serve as serve;
pub use regshare_types as types;
pub use regshare_workloads as workloads;

pub use regshare_bench::{
    preset, RunOptions, Scenario, ScenarioBuilder, ScenarioError, VariantSpec,
};
pub use regshare_core::ConfigError;
