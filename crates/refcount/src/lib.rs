//! Register reference counting for physical register sharing — the paper's
//! primary contribution.
//!
//! Sharing a physical register between several instructions (move
//! elimination, speculative memory bypassing) breaks the usual register
//! reclaiming rule: committing an instruction no longer guarantees that the
//! previous mapping of its architectural destination is freeable. Some form
//! of reference counting is required, and it must cooperate with
//! checkpoint-based misprediction recovery.
//!
//! This crate provides the [`SharingTracker`] trait — the event interface
//! between an out-of-order core's rename/commit/recovery machinery and a
//! reference-counting scheme — plus six schemes implementing it:
//!
//! | Scheme | Paper section | Recovery | Notes |
//! |---|---|---|---|
//! | [`Isrb`] | §4.3 | checkpoint restore, single cycle | **the contribution**: small fully-associative buffer, two never-decremented counters per entry |
//! | [`UnlimitedTracker`] | §4.2 "ideal" | instant | per-register dual counters, unbounded; the oracle the ISRB is compared against |
//! | [`PerRegCounters`] | §1/§4.2 | **sequential walk** of squashed µ-ops | the conventional scheme the paper argues against |
//! | [`PerRegCounters::roth_matrix`] | §4.2 | flash clear | Roth's 2D ROB×PRF bit-matrix; the counters' decisions, huge storage |
//! | [`Mit`] | §2.2/§4.2 | checkpoint restore | Intel patent scheme; arch-reg bitvectors, **cannot track SMB** |
//! | [`Rda`] | §4.2 | checkpoint restore | Apple patent scheme; one counter/entry, commits must update **every** checkpoint |
//!
//! # The ISRB in one example
//!
//! ```
//! use regshare_refcount::{Isrb, IsrbConfig, SharingTracker, ShareRequest,
//!                         ShareKind, ReclaimRequest, ReclaimDecision};
//! use regshare_types::{ArchReg, PhysReg, RegClass};
//!
//! let mut isrb = Isrb::new(IsrbConfig { entries: 8, counter_bits: 3, ..IsrbConfig::default() });
//! let p1 = PhysReg::new(1);
//! // A load bypasses p1 (SMB): referenced 0 → 1.
//! assert!(isrb.try_share(&ShareRequest {
//!     class: RegClass::Int, preg: p1,
//!     kind: ShareKind::Bypass { arch_dst: ArchReg::int(3) },
//! }));
//! // The first overwrite of a mapping holding p1 commits: kept alive.
//! let r = ReclaimRequest { class: RegClass::Int, preg: p1, arch: ArchReg::int(0), renews: false };
//! assert_eq!(isrb.on_reclaim(&r), ReclaimDecision::Keep);
//! // The second (last) overwrite frees it.
//! assert_eq!(isrb.on_reclaim(&r), ReclaimDecision::Free);
//! ```

#![deny(missing_docs)]

pub mod counters;
pub mod isrb;
pub mod mit;
pub mod rda;
pub mod tracker;
pub mod unlimited;

pub use counters::PerRegCounters;
pub use isrb::{Isrb, IsrbConfig};
pub use mit::Mit;
pub use rda::Rda;
pub use tracker::{
    CheckpointId, CheckpointStack, ReclaimDecision, ReclaimRequest, ShareKind, ShareRequest,
    SharingTracker, StorageReport, TrackerStats,
};
pub use unlimited::UnlimitedTracker;
