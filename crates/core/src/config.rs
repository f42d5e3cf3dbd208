//! Core configuration: Table 1 defaults plus the feature toggles the
//! paper's experiments sweep.

use regshare_distance::{DdtConfig, NosqConfig, TageDistanceConfig};
use regshare_mem::MemConfig;
use regshare_predictors::{StoreSetsConfig, TageConfig};
use regshare_refcount::{
    Isrb, IsrbConfig, Mit, PerRegCounters, Rda, RothMatrix, SharingTracker, UnlimitedTracker,
};
use regshare_types::ARCH_REGS_PER_CLASS;

/// A structural problem in a [`CoreConfig`] that would make the simulator
/// deadlock, panic, or silently model a machine that cannot exist.
///
/// Returned by [`CoreConfig::validate`]; each variant names the offending
/// field so callers (and scenario files) get an actionable message instead
/// of a hung or nonsensical run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A pipeline width is zero (`frontend_width`, `issue_width`,
    /// `commit_width`): no µ-op could ever advance through that stage.
    ZeroWidth(&'static str),
    /// A window structure has no entries (`rob_entries`, `iq_entries`,
    /// `lq_entries`, `sq_entries`): dispatch would stall forever.
    ZeroCapacity(&'static str),
    /// A functional-unit or port count is zero (`alu_units`, `muldiv_units`,
    /// `fp_units`, `fpmuldiv_units`, `mem_ports`): µ-ops of that class
    /// could never issue.
    ZeroUnits(&'static str),
    /// Fewer physical registers per class than architectural registers plus
    /// one: rename could never allocate a destination.
    PrfTooSmall {
        /// Configured `pregs_per_class`.
        pregs: usize,
        /// Minimum legal value (`ARCH_REGS_PER_CLASS + 1`).
        min: usize,
    },
    /// A finite ISRB with more entries than physical registers: each entry
    /// tracks one shared register, so the excess entries are unreachable
    /// (and the paper's storage accounting becomes meaningless).
    IsrbExceedsPrf {
        /// Configured ISRB entries.
        entries: usize,
        /// Configured `pregs_per_class`.
        pregs: usize,
    },
    /// A sharing counter width of zero bits, or wider than the 31 bits the
    /// checkpointed counters can represent.
    CounterBitsOutOfRange {
        /// Which tracker declared the width (`"isrb"` or `"rda"`).
        tracker: &'static str,
        /// The rejected width.
        bits: u32,
    },
    /// Per-register counters with a squash-walk width of zero: recovery
    /// would stall forever on the first squashed µ-op.
    ZeroWalkWidth,
    /// A fully-associative tracker (`mit`, `rda`) with zero entries: it
    /// could never record a sharing, so enabling it is a silent no-op.
    ZeroTrackerEntries(&'static str),
    /// A TAGE geometry the predictor cannot carry inline: more tagged
    /// components than `regshare_predictors::tage::MAX_COMPONENTS`, or a
    /// component with `log_entries >= 32` (prediction indices are `u32`).
    TageGeometry {
        /// Configured tagged components.
        components: usize,
        /// The largest configured `log_entries`.
        max_log_entries: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWidth(field) => write!(f, "{field} must be non-zero"),
            ConfigError::ZeroCapacity(field) => write!(f, "{field} must have at least one entry"),
            ConfigError::ZeroUnits(field) => write!(f, "{field} must be non-zero"),
            ConfigError::PrfTooSmall { pregs, min } => write!(
                f,
                "pregs_per_class = {pregs} cannot cover the {} architectural registers \
                 (minimum {min})",
                ARCH_REGS_PER_CLASS
            ),
            ConfigError::IsrbExceedsPrf { entries, pregs } => write!(
                f,
                "ISRB with {entries} entries is larger than the {pregs}-register PRF \
                 (use 0 for an unlimited ISRB)"
            ),
            ConfigError::CounterBitsOutOfRange { tracker, bits } => {
                write!(f, "{tracker} counter width {bits} is outside 1..=31 bits")
            }
            ConfigError::ZeroWalkWidth => {
                write!(f, "per-register counter walk_width must be non-zero")
            }
            ConfigError::ZeroTrackerEntries(tracker) => {
                write!(f, "{tracker} tracker must have at least one entry")
            }
            ConfigError::TageGeometry {
                components,
                max_log_entries,
            } => write!(
                f,
                "TAGE geometry with {components} tagged components / max log_entries \
                 {max_log_entries} exceeds the inline-prediction limits \
                 ({} components, log_entries < 32)",
                regshare_predictors::tage::MAX_COMPONENTS
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which register reference-counting scheme backs sharing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrackerKind {
    /// The paper's ISRB (§4.3).
    Isrb(IsrbConfig),
    /// Ideal unbounded dual counters.
    Unlimited,
    /// Conventional per-register counters with sequential rollback; the
    /// field is the squash-walk width (µ-ops undone per stall cycle).
    PerRegCounters {
        /// µ-ops whose tracker state can be repaired per recovery cycle.
        walk_width: usize,
    },
    /// Roth's ROB×PRF bit-matrix.
    RothMatrix,
    /// Intel's MIT (move elimination only).
    Mit {
        /// Fully-associative entries.
        entries: usize,
    },
    /// Apple's RDA.
    Rda {
        /// Fully-associative entries.
        entries: usize,
        /// Duplicate-counter width.
        counter_bits: u32,
    },
}

impl TrackerKind {
    /// Instantiates the tracker.
    pub fn build(&self, pregs_per_class: usize, rob_entries: usize) -> Box<dyn SharingTracker> {
        match self {
            TrackerKind::Isrb(cfg) => Box::new(Isrb::new(IsrbConfig {
                pregs_per_class,
                ..*cfg
            })),
            TrackerKind::Unlimited => Box::new(UnlimitedTracker::new()),
            TrackerKind::PerRegCounters { walk_width } => {
                Box::new(PerRegCounters::new(pregs_per_class, *walk_width))
            }
            TrackerKind::RothMatrix => Box::new(RothMatrix::new(pregs_per_class, rob_entries)),
            TrackerKind::Mit { entries } => Box::new(Mit::new(*entries)),
            TrackerKind::Rda {
                entries,
                counter_bits,
            } => Box::new(Rda::new(*entries, *counter_bits)),
        }
    }
}

/// Which Instruction Distance predictor drives SMB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistancePredictorKind {
    /// The paper's TAGE-like predictor (§3.1).
    TageLike(TageDistanceConfig),
    /// The NoSQ-style two-table predictor.
    Nosq(NosqConfig),
}

impl Default for DistancePredictorKind {
    fn default() -> Self {
        DistancePredictorKind::TageLike(TageDistanceConfig::hpca16())
    }
}

/// Full core configuration. [`CoreConfig::hpca16`] reproduces Table 1.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    // --- widths & depths (Table 1) ---
    /// Fetch/decode/rename width (µ-ops per cycle).
    pub frontend_width: usize,
    /// Issue width.
    pub issue_width: usize,
    /// Retire width.
    pub commit_width: usize,
    /// ROB entries.
    pub rob_entries: usize,
    /// Unified IQ entries.
    pub iq_entries: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,
    /// Physical registers per class (INT and FP each).
    pub pregs_per_class: usize,
    /// Fetch-to-rename depth in cycles (deep front-end: the misprediction
    /// penalty is dominated by this refill).
    pub frontend_depth: u64,
    /// Store-to-load forwarding latency (Table 1: 4 cycles = L1 latency).
    pub stlf_latency: u64,
    /// Fetch bubble charged when a taken-path transfer misses the BTB.
    pub btb_miss_bubble: u64,
    /// Functional units: ALU count (1-cycle; also branches/moves).
    pub alu_units: usize,
    /// Integer multiply/divide unit count (3c mul, 25c unpipelined div).
    pub muldiv_units: usize,
    /// FP add units (3c).
    pub fp_units: usize,
    /// FP mul/div units (5c mul, 10c unpipelined div).
    pub fpmuldiv_units: usize,
    /// Shared load/store AGU ports.
    pub mem_ports: usize,
    /// Additional store-only port.
    pub store_ports: usize,

    // --- predictors & memory ---
    /// TAGE branch predictor geometry.
    pub tage: TageConfig,
    /// BTB entries / ways.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return address stack entries.
    pub ras_entries: usize,
    /// Store Sets geometry.
    pub store_sets: StoreSetsConfig,
    /// Memory hierarchy.
    pub mem: MemConfig,

    // --- the paper's features ---
    /// Enable move elimination (§2).
    pub move_elimination: bool,
    /// Also eliminate FP-to-FP moves (recent Intel cores do; the paper's
    /// Figure 5 is integer-only, so this defaults to off).
    pub me_fp_moves: bool,
    /// Enable speculative memory bypassing (§3).
    pub smb: bool,
    /// Generalize SMB to load-load pairs (§3: on by default; §6.2 ablates).
    pub smb_load_load: bool,
    /// Bypass from committed-but-unreleased ROB entries via lazy reclaim
    /// (§3.3; Figure 6(c)).
    pub smb_from_committed: bool,
    /// Distance predictor choice.
    pub distance_predictor: DistancePredictorKind,
    /// DDT geometry.
    pub ddt: DdtConfig,
    /// Reference-counting scheme.
    pub tracker: TrackerKind,
    /// ISRB CAM ports available to rename per cycle (0 = unlimited);
    /// bypasses beyond this abort (§4.3.4).
    pub tracker_rename_ports: usize,
    /// ISRB CAM ports for reclaim per cycle (0 = unlimited); reclaims
    /// beyond this stall commit (§4.3.4).
    pub tracker_reclaim_ports: usize,
}

impl CoreConfig {
    /// The paper's Table 1 machine with all sharing optimizations off.
    pub fn hpca16() -> CoreConfig {
        CoreConfig {
            frontend_width: 8,
            issue_width: 6,
            commit_width: 8,
            rob_entries: 192,
            iq_entries: 60,
            lq_entries: 72,
            sq_entries: 48,
            pregs_per_class: 256,
            frontend_depth: 13,
            stlf_latency: 4,
            btb_miss_bubble: 3,
            alu_units: 4,
            muldiv_units: 1,
            fp_units: 2,
            fpmuldiv_units: 2,
            mem_ports: 2,
            store_ports: 1,
            tage: TageConfig::hpca16(),
            btb_entries: 4096,
            btb_ways: 2,
            ras_entries: 32,
            store_sets: StoreSetsConfig::hpca16(),
            mem: MemConfig::hpca16(),
            move_elimination: false,
            me_fp_moves: false,
            smb: false,
            smb_load_load: true,
            smb_from_committed: false,
            distance_predictor: DistancePredictorKind::default(),
            ddt: DdtConfig::base16k(),
            tracker: TrackerKind::Isrb(IsrbConfig::hpca16()),
            tracker_rename_ports: 0,
            tracker_reclaim_ports: 0,
        }
    }

    /// Table 1 machine with ME enabled.
    pub fn with_me(mut self) -> CoreConfig {
        self.move_elimination = true;
        self
    }

    /// Table 1 machine with SMB enabled.
    pub fn with_smb(mut self) -> CoreConfig {
        self.smb = true;
        self
    }

    /// Replaces the tracker.
    pub fn with_tracker(mut self, tracker: TrackerKind) -> CoreConfig {
        self.tracker = tracker;
        self
    }

    /// Replaces the ISRB entry count (shorthand for the figures' sweeps;
    /// 0 = unlimited).
    pub fn with_isrb_entries(mut self, entries: usize) -> CoreConfig {
        let cfg = match &self.tracker {
            TrackerKind::Isrb(c) => IsrbConfig { entries, ..*c },
            _ => IsrbConfig {
                entries,
                ..IsrbConfig::hpca16()
            },
        };
        self.tracker = TrackerKind::Isrb(cfg);
        self
    }

    /// Checks the configuration for structural impossibilities — zero
    /// widths, empty windows, an ISRB larger than the PRF, zero-width
    /// counters, a zero squash-walk width — returning the first problem as
    /// a typed [`ConfigError`]. Hand-mutated configs used to silently
    /// deadlock or model nonsense machines; every scenario entry point
    /// funnels through this check.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [
            ("frontend_width", self.frontend_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroWidth(field));
            }
        }
        for (field, v) in [
            ("rob_entries", self.rob_entries),
            ("iq_entries", self.iq_entries),
            ("lq_entries", self.lq_entries),
            ("sq_entries", self.sq_entries),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroCapacity(field));
            }
        }
        for (field, v) in [
            ("alu_units", self.alu_units),
            ("muldiv_units", self.muldiv_units),
            ("fp_units", self.fp_units),
            ("fpmuldiv_units", self.fpmuldiv_units),
            ("mem_ports", self.mem_ports),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroUnits(field));
            }
        }
        let min_pregs = ARCH_REGS_PER_CLASS + 1;
        if self.pregs_per_class < min_pregs {
            return Err(ConfigError::PrfTooSmall {
                pregs: self.pregs_per_class,
                min: min_pregs,
            });
        }
        match &self.tracker {
            TrackerKind::Isrb(cfg) => {
                if cfg.entries > self.pregs_per_class {
                    return Err(ConfigError::IsrbExceedsPrf {
                        entries: cfg.entries,
                        pregs: self.pregs_per_class,
                    });
                }
                if cfg.counter_bits == 0 || cfg.counter_bits > 31 {
                    return Err(ConfigError::CounterBitsOutOfRange {
                        tracker: "isrb",
                        bits: cfg.counter_bits,
                    });
                }
            }
            TrackerKind::PerRegCounters { walk_width } => {
                if *walk_width == 0 {
                    return Err(ConfigError::ZeroWalkWidth);
                }
            }
            TrackerKind::Mit { entries } => {
                if *entries == 0 {
                    return Err(ConfigError::ZeroTrackerEntries("mit"));
                }
            }
            TrackerKind::Rda {
                entries,
                counter_bits,
            } => {
                if *entries == 0 {
                    return Err(ConfigError::ZeroTrackerEntries("rda"));
                }
                if *counter_bits == 0 || *counter_bits > 31 {
                    return Err(ConfigError::CounterBitsOutOfRange {
                        tracker: "rda",
                        bits: *counter_bits,
                    });
                }
            }
            TrackerKind::Unlimited | TrackerKind::RothMatrix => {}
        }
        let max_log = self
            .tage
            .components
            .iter()
            .map(|c| c.log_entries)
            .max()
            .unwrap_or(0);
        if self.tage.components.len() > regshare_predictors::tage::MAX_COMPONENTS || max_log >= 32 {
            // `Tage::new` would panic on these; surface them as the typed
            // error this check promises.
            return Err(ConfigError::TageGeometry {
                components: self.tage.components.len(),
                max_log_entries: max_log,
            });
        }
        Ok(())
    }

    /// Digest of the front-end knobs that shape the fetched µ-op stream.
    ///
    /// Keys the content-addressed stream cache in `regshare_isa::stream`:
    /// streams recorded under one fetch-path configuration are never
    /// replayed under another, even for the same program.
    pub fn fetch_path_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = regshare_types::hasher::FastHasher::default();
        format!(
            "{}/{}/{}/{}/{}/{}/{:?}",
            self.frontend_width,
            self.frontend_depth,
            self.btb_miss_bubble,
            self.btb_entries,
            self.btb_ways,
            self.ras_entries,
            self.tage,
        )
        .hash(&mut h);
        h.finish()
    }

    /// Digest of the **whole** configuration: every knob that can change
    /// simulated behaviour, so two configs digest equal iff they simulate
    /// identically.
    ///
    /// This is the read-only content-address of a machine: machine
    /// snapshots pin their context with it (combined with the program
    /// digest), and the serve daemon's result cache keys each
    /// (workload × config × window) cell with it. Process-local only — the
    /// underlying hash is not guaranteed stable across builds, which is
    /// why every on-disk format that embeds it also carries a format
    /// version that is bumped on layout changes.
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = regshare_types::hasher::FastHasher::default();
        h.write(format!("{self:?}").as_bytes());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_tage_geometry_is_a_typed_error_not_a_panic() {
        // `Tage::new` asserts these limits; validate() must catch them
        // first so a bad geometry stays a typed error.
        let mut cfg = CoreConfig::hpca16();
        let extra = cfg.tage.components[0];
        while cfg.tage.components.len() <= regshare_predictors::tage::MAX_COMPONENTS {
            cfg.tage.components.push(extra);
        }
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TageGeometry { components, .. })
                if components == cfg.tage.components.len()
        ));

        let mut cfg = CoreConfig::hpca16();
        cfg.tage.components[0].log_entries = 32;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TageGeometry {
                max_log_entries: 32,
                ..
            })
        ));
    }

    #[test]
    fn table1_defaults() {
        let c = CoreConfig::hpca16();
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.iq_entries, 60);
        assert_eq!((c.lq_entries, c.sq_entries), (72, 48));
        assert_eq!(c.pregs_per_class, 256);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.stlf_latency, 4);
        assert!(!c.move_elimination && !c.smb);
    }

    #[test]
    fn builders_compose() {
        let c = CoreConfig::hpca16()
            .with_me()
            .with_smb()
            .with_isrb_entries(24);
        assert!(c.move_elimination && c.smb);
        match c.tracker {
            TrackerKind::Isrb(i) => assert_eq!(i.entries, 24),
            _ => panic!(),
        }
    }

    #[test]
    fn all_trackers_instantiate() {
        for kind in [
            TrackerKind::Isrb(IsrbConfig::hpca16()),
            TrackerKind::Unlimited,
            TrackerKind::PerRegCounters { walk_width: 8 },
            TrackerKind::RothMatrix,
            TrackerKind::Mit { entries: 8 },
            TrackerKind::Rda {
                entries: 8,
                counter_bits: 3,
            },
        ] {
            let t = kind.build(256, 192);
            assert!(!t.name().is_empty());
        }
    }
}
