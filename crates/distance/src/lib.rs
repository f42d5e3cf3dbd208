//! Instruction Distance prediction for Speculative Memory Bypassing (§3).
//!
//! Two components, mirroring the paper's Figure 1 infrastructure:
//!
//! - the commit-side **Data Dependency Table** ([`Ddt`]) plus the CSN-holding
//!   **Commit Rename Map** ([`CsnMap`]) identify store-load / load-load
//!   producer pairs after retirement and compute the *Instruction Distance*
//!   (in commit-order µ-ops) between a load and the producer of its data;
//! - a front-end **distance predictor** ([`DistancePredictor`]) predicts
//!   that distance for each load at rename. Two implementations are
//!   provided: the NoSQ-style two-table predictor ([`NosqDistance`]) and the
//!   paper's TAGE-like predictor ([`TageDistance`]), which indexes five
//!   tagged components with mixes of global branch history and path history.

#![deny(missing_docs)]

pub mod csn;
pub mod ddt;
pub mod nosq;
pub mod tage_like;

pub use csn::CsnMap;
pub use ddt::{Ddt, DdtConfig};
pub use nosq::{NosqConfig, NosqDistance};
pub use tage_like::{TageDistance, TageDistanceConfig};

use regshare_types::{Addr, HistorySnapshot};

/// A front-end instruction-distance predictor.
///
/// `predict` is consulted at rename with the load's PC and its fetch-time
/// history snapshot; it returns a distance only when the predictor is
/// confident (saturated confidence counter, §3.1). `train` is called at the
/// load's commit with the architectural distance extracted through the DDT.
pub trait DistancePredictor: std::fmt::Debug {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Confident predicted distance for the load at `pc`, if any.
    fn predict(&mut self, pc: Addr, hist: HistorySnapshot) -> Option<u64>;

    /// Trains with the observed architectural distance (`None` when the DDT
    /// had no pair for this load — trains toward "do not bypass").
    fn train(&mut self, pc: Addr, hist: HistorySnapshot, observed: Option<u64>);

    /// Storage in bits (paper: 12.2KB TAGE-like vs 17KB NoSQ-style).
    fn storage_bits(&self) -> usize;
}
