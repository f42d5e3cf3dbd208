//! The out-of-order core simulator hosting the paper's mechanisms.
//!
//! A cycle-level model of the Table 1 machine: 8-wide fetch/decode/rename,
//! 6-issue, 192-entry ROB, 60-entry unified IQ, 72/48-entry LQ/SQ with
//! 4-cycle store-to-load forwarding, 256+256 physical registers,
//! checkpoint-based branch recovery with a ~20-cycle minimum misprediction
//! penalty, Store Sets memory dependence prediction, and the full memory
//! hierarchy from `regshare-mem`.
//!
//! On top of that substrate it implements the paper's contributions:
//!
//! - **Move elimination** (§2) at rename for eliminable integer (and
//!   optionally FP) moves, gated by a pluggable [`SharingTracker`];
//! - **Speculative Memory Bypassing** (§3) driven by an Instruction
//!   Distance predictor and the commit-side DDT, generalized to load-load
//!   pairs, with value validation at load writeback;
//! - **Bypassing from committed instructions** (§3.3) under lazy register
//!   reclaiming with a third `release_head` ROB pointer;
//! - **Register reference counting** (§4) through any
//!   [`SharingTracker`] implementation — the ISRB by default.
//!
//! # Quick start
//!
//! ```
//! use regshare_core::{CoreConfig, Simulator};
//! use regshare_workloads::mini;
//!
//! let mut cfg = CoreConfig::hpca16();
//! cfg.move_elimination = true;
//! let mut sim = Simulator::new(&mini().build(), cfg);
//! let stats = sim.run(20_000);
//! assert!(stats.ipc() > 0.1);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod lsq;
pub mod rename;
pub mod rob;
pub mod sim;
pub mod stats;

pub use config::{ConfigError, CoreConfig, DistancePredictorKind, TrackerKind};
pub use regshare_refcount::SharingTracker;
pub use sim::Simulator;
pub use stats::SimStats;
