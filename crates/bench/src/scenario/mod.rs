//! The scenario layer: named, validated, file-backed experiment
//! definitions.
//!
//! The paper's results are a matrix of (workload × core configuration ×
//! tracker geometry) points. A [`Scenario`] captures one such matrix as
//! *data* — a name, a workload list, run options, and an ordered list of
//! labelled [`VariantSpec`]s — so an experiment can be named, validated,
//! checked into the repo as a `.scenario` file ([`Scenario::parse`] /
//! [`Scenario::render`], a dependency-free TOML subset), shared, and driven
//! through the sweep engine ([`Scenario::to_sweep`]) without recompiling.
//!
//! Three entry points:
//!
//! - [`Scenario::builder`] — the programmatic route, with hard validation:
//!   invalid configs fail with typed [`ScenarioError`]s at
//!   [`ScenarioBuilder::build`] time instead of silently misbehaving;
//! - [`preset`] — the named experiments every binary understands
//!   (`headline`, `smoke`, the paper figures), parsed from the checked-in
//!   `scenarios/<name>.scenario` files;
//! - [`Scenario::load`] — the `.scenario` file front door used by
//!   `paper_report --scenario` and `smoke --scenario`.

mod text;

use crate::options::RunOptions;
use crate::sweep::SweepSpec;
use regshare_core::{ConfigError, CoreConfig, DistancePredictorKind, TrackerKind};
use regshare_distance::{DdtConfig, NosqConfig};
use regshare_refcount::IsrbConfig;
use regshare_workloads::fuzz::FuzzSpec;
use regshare_workloads::{suite, try_by_names, AsmSpec, Workload};

/// Any way a scenario can be malformed: syntax errors in a `.scenario`
/// file, unknown names (presets, trackers, predictors, workloads), misused
/// keys, or a variant whose resolved [`CoreConfig`] fails
/// [`CoreConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A line the text parser could not understand.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A key that is not part of the scenario schema.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The rejected key.
        key: String,
    },
    /// The same key given twice in one scope.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A value of the wrong type for its key.
    WrongType {
        /// 1-based line number.
        line: usize,
        /// The key.
        key: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// A scenario file without a `name` key.
    MissingName,
    /// A name outside the `[A-Za-z0-9_.-]+` identifier charset (which is
    /// what keeps the text format round-trip stable).
    InvalidName {
        /// Which kind of name (`"scenario"`, `"variant label"`, …).
        what: &'static str,
        /// The rejected name.
        name: String,
    },
    /// A note containing a quote, backslash or control character — the
    /// text format has no escape sequences, so it could not be rendered
    /// to a parseable `.scenario` file.
    InvalidNote(String),
    /// A worker count of zero (`RunOptions::jobs` hand-set to `Some(0)`;
    /// the text parser and CLI reject it at their own boundaries).
    ZeroJobs,
    /// A scenario with no variants: there is nothing to sweep.
    NoVariants,
    /// Two variants with the same label (the later one would be
    /// unaddressable in every grid accessor).
    DuplicateVariant(String),
    /// A `preset` value that names no known configuration preset.
    UnknownPreset(String),
    /// A `tracker` value that names no [`TrackerKind`].
    UnknownTracker(String),
    /// A `distance` value that names no [`DistancePredictorKind`].
    UnknownDistance(String),
    /// A `ddt` value that names no known DDT geometry.
    UnknownDdt(String),
    /// A workload name absent from the suite registry.
    UnknownWorkload(String),
    /// A `kind` value that is none of `"suite"`, `"fuzz"`, `"asm"`.
    UnknownKind(String),
    /// A fuzz-only key (`seed`, `profile`, `programs`) without
    /// `kind = "fuzz"`.
    FuzzKeyWithoutKind {
        /// The offending key.
        key: &'static str,
    },
    /// A fuzz scenario that also lists `workloads` (the generated family
    /// *is* the workload list).
    FuzzWithWorkloads,
    /// A `profile` value naming no fuzz generator profile.
    UnknownFuzzProfile(String),
    /// A fuzz scenario generating zero programs.
    ZeroFuzzPrograms,
    /// An asm-only key (`kernel`, `path`) without `kind = "asm"`.
    AsmKeyWithoutKind {
        /// The offending key.
        key: &'static str,
    },
    /// An asm scenario that also lists `workloads` (the kernel selection
    /// *is* the workload list).
    AsmWithWorkloads,
    /// A scenario carrying both a fuzz family and an asm source; only one
    /// generated workload source can apply.
    AsmWithFuzz,
    /// An asm scenario naming both an embedded `kernel` and an external
    /// `path` — pick one (or neither, for the whole corpus).
    AsmKernelAndPath,
    /// A `kernel` value naming no embedded corpus kernel.
    UnknownAsmKernel(String),
    /// An asm `path` that is empty or contains a quote, backslash or
    /// control character — the text format has no escape sequences, so it
    /// could not be rendered to a parseable `.scenario` file.
    InvalidAsmPath(String),
    /// An external assembly file that failed to assemble.
    AsmParse {
        /// The file's path.
        path: String,
        /// The assembler error, including its line number.
        msg: String,
    },
    /// A key that only makes sense for a tracker the variant did not
    /// select (e.g. `walk_width` without `tracker = "counters"`).
    KeyRequiresTracker {
        /// The offending key.
        key: &'static str,
        /// The tracker(s) the key belongs to.
        tracker: &'static str,
    },
    /// The resolved [`CoreConfig`] is structurally impossible.
    Config(ConfigError),
    /// The sweep failed after validation — a worker job died or a grid
    /// accessor was asked for an unknown label (see
    /// [`SweepError`](crate::sweep::SweepError)).
    Sweep(crate::sweep::SweepError),
    /// An error in one specific variant, wrapped with its label.
    InVariant {
        /// The variant's label.
        label: String,
        /// The underlying error.
        source: Box<ScenarioError>,
    },
    /// A `.scenario` file that could not be read.
    Io {
        /// The path given.
        path: String,
        /// The OS error text.
        msg: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ScenarioError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key {key:?}")
            }
            ScenarioError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key {key:?}")
            }
            ScenarioError::WrongType {
                line,
                key,
                expected,
            } => write!(f, "line {line}: {key} expects {expected}"),
            ScenarioError::MissingName => write!(f, "scenario has no `name` key"),
            ScenarioError::InvalidName { what, name } => write!(
                f,
                "invalid {what} name {name:?} (allowed characters: A-Z a-z 0-9 _ . -)"
            ),
            ScenarioError::InvalidNote(note) => write!(
                f,
                "note {note:?} contains a quote, backslash or control character \
                 (the scenario format has no escape sequences)"
            ),
            ScenarioError::ZeroJobs => write!(f, "jobs must be at least 1"),
            ScenarioError::NoVariants => write!(f, "scenario declares no variants"),
            ScenarioError::DuplicateVariant(label) => {
                write!(f, "duplicate variant label {label:?}")
            }
            ScenarioError::UnknownPreset(name) => write!(
                f,
                "unknown config preset {name:?} (known: {})",
                CONFIG_PRESETS
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            ScenarioError::UnknownTracker(name) => write!(
                f,
                "unknown tracker {name:?} (known: isrb, unlimited, counters, roth, mit, rda)"
            ),
            ScenarioError::UnknownDistance(name) => {
                write!(f, "unknown distance predictor {name:?} (known: tage, nosq)")
            }
            ScenarioError::UnknownDdt(name) => write!(
                f,
                "unknown ddt geometry {name:?} (known: base16k, opt1k, unlimited)"
            ),
            ScenarioError::UnknownWorkload(name) => {
                write!(
                    f,
                    "unknown workload {name:?} (see `regshare_workloads::names`, \
                     or fuzz-<profile>-<seed>)"
                )
            }
            ScenarioError::UnknownKind(kind) => {
                write!(
                    f,
                    "unknown scenario kind {kind:?} (known: suite, fuzz, asm)"
                )
            }
            ScenarioError::FuzzKeyWithoutKind { key } => {
                write!(f, "{key} requires kind = \"fuzz\"")
            }
            ScenarioError::FuzzWithWorkloads => write!(
                f,
                "a fuzz scenario generates its workload list; drop `workloads = [...]`"
            ),
            ScenarioError::UnknownFuzzProfile(name) => write!(
                f,
                "unknown fuzz profile {name:?} (known: {})",
                regshare_workloads::fuzz::profile_names().join(", ")
            ),
            ScenarioError::ZeroFuzzPrograms => write!(f, "programs must be at least 1"),
            ScenarioError::AsmKeyWithoutKind { key } => {
                write!(f, "{key} requires kind = \"asm\"")
            }
            ScenarioError::AsmWithWorkloads => write!(
                f,
                "an asm scenario selects its workload list; drop `workloads = [...]`"
            ),
            ScenarioError::AsmWithFuzz => write!(
                f,
                "a scenario cannot combine a fuzz family with an asm source"
            ),
            ScenarioError::AsmKernelAndPath => {
                write!(f, "an asm scenario takes `kernel` or `path`, not both")
            }
            ScenarioError::UnknownAsmKernel(name) => write!(
                f,
                "unknown asm kernel {name:?} (known: {})",
                regshare_workloads::asm::CORPUS
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            ScenarioError::InvalidAsmPath(path) => write!(
                f,
                "asm path {path:?} is empty or contains a quote, backslash \
                 or control character (the scenario format has no escape sequences)"
            ),
            ScenarioError::AsmParse { path, msg } => {
                write!(f, "cannot assemble {path:?}: {msg}")
            }
            ScenarioError::KeyRequiresTracker { key, tracker } => {
                write!(f, "{key} only applies to tracker = {tracker}")
            }
            ScenarioError::Config(e) => write!(f, "invalid core config: {e}"),
            ScenarioError::Sweep(e) => write!(f, "sweep failed: {e}"),
            ScenarioError::InVariant { label, source } => {
                write!(f, "variant {label:?}: {source}")
            }
            ScenarioError::Io { path, msg } => write!(f, "cannot read {path:?}: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Config(e) => Some(e),
            ScenarioError::Sweep(e) => Some(e),
            ScenarioError::InVariant { source, .. } => Some(&**source),
            _ => None,
        }
    }
}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> ScenarioError {
        ScenarioError::Config(e)
    }
}

impl From<crate::sweep::SweepError> for ScenarioError {
    fn from(e: crate::sweep::SweepError) -> ScenarioError {
        ScenarioError::Sweep(e)
    }
}

/// Checks the `[A-Za-z0-9_.-]+` identifier charset shared by scenario
/// names, variant labels and workload names; it is what keeps the text
/// format unambiguous and round-trip stable.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn check_name(what: &'static str, name: &str) -> Result<(), ScenarioError> {
    if valid_name(name) {
        Ok(())
    } else {
        Err(ScenarioError::InvalidName {
            what,
            name: name.to_string(),
        })
    }
}

/// Checks free-text note content: the format has no escape sequences, so a
/// quote, backslash or control character in a note would render to a
/// `.scenario` file that cannot be parsed back.
pub fn valid_note(note: &str) -> bool {
    !note
        .chars()
        .any(|c| c == '"' || c == '\\' || c.is_control())
}

/// The configuration presets a [`VariantSpec`] can start from, with a
/// one-line description each.
pub const CONFIG_PRESETS: [(&str, &str); 5] = [
    ("hpca16", "Table 1 baseline, all sharing off"),
    ("me", "baseline + move elimination"),
    ("smb", "baseline + speculative memory bypassing"),
    ("me_smb", "baseline + both mechanisms"),
    (
        "lazy_reclaim",
        "SMB + bypassing from committed µ-ops (lazy register reclaim)",
    ),
];

fn config_preset(name: &str) -> Result<CoreConfig, ScenarioError> {
    Ok(match name {
        "hpca16" => CoreConfig::hpca16(),
        "me" => CoreConfig::hpca16().with_me(),
        "smb" => CoreConfig::hpca16().with_smb(),
        "me_smb" => CoreConfig::hpca16().with_me().with_smb(),
        "lazy_reclaim" => {
            let mut cfg = CoreConfig::hpca16().with_smb();
            cfg.smb_from_committed = true;
            cfg
        }
        other => return Err(ScenarioError::UnknownPreset(other.to_string())),
    })
}

/// One labelled configuration column of a scenario: a named preset plus
/// explicit overrides. Everything is addressable by string — presets,
/// every [`TrackerKind`], every [`DistancePredictorKind`], the DDT
/// geometries — which is what lets `.scenario` files express the full
/// configuration space.
///
/// Unset (`None`) fields keep the preset's value; [`VariantSpec::to_config`]
/// resolves the spec into a validated [`CoreConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Base preset name (see [`CONFIG_PRESETS`]).
    pub preset: String,
    /// Move elimination (§2).
    pub me: Option<bool>,
    /// FP-to-FP move elimination.
    pub me_fp_moves: Option<bool>,
    /// Speculative memory bypassing (§3).
    pub smb: Option<bool>,
    /// Load-load bypassing (§6.2).
    pub smb_load_load: Option<bool>,
    /// Bypassing from committed µ-ops under lazy reclaim (§3.3).
    pub smb_from_committed: Option<bool>,
    /// Tracker name: `isrb`, `unlimited`, `counters`, `roth`, `mit`, `rda`.
    pub tracker: Option<String>,
    /// ISRB entries (0 = unlimited). Selects the ISRB tracker if no
    /// `tracker` key says otherwise.
    pub isrb_entries: Option<usize>,
    /// Sharing-counter width in bits (ISRB or RDA).
    pub counter_bits: Option<u32>,
    /// Tracker CAM ports available to rename per cycle (0 = unlimited);
    /// bypasses beyond this abort (§4.3.4).
    pub rename_ports: Option<usize>,
    /// Tracker CAM ports available to reclaim per cycle (0 = unlimited);
    /// reclaims beyond this stall commit (§4.3.4).
    pub reclaim_ports: Option<usize>,
    /// Squash-walk width; requires `tracker = "counters"`.
    pub walk_width: Option<usize>,
    /// Associative entries; requires `tracker = "mit"` or `"rda"`.
    pub tracker_entries: Option<usize>,
    /// Distance predictor name: `tage` or `nosq`.
    pub distance: Option<String>,
    /// DDT geometry name: `base16k`, `opt1k` or `unlimited`.
    pub ddt: Option<String>,
    /// Fetch/decode/rename width override.
    pub frontend_width: Option<usize>,
    /// Issue width override.
    pub issue_width: Option<usize>,
    /// Retire width override.
    pub commit_width: Option<usize>,
    /// ROB size override.
    pub rob_entries: Option<usize>,
    /// IQ size override.
    pub iq_entries: Option<usize>,
    /// Load-queue size override.
    pub lq_entries: Option<usize>,
    /// Store-queue size override.
    pub sq_entries: Option<usize>,
    /// Physical registers per class override.
    pub pregs_per_class: Option<usize>,
}

impl VariantSpec {
    /// A spec that is exactly the named preset (overrides can be chained on
    /// top). The name is resolved — and rejected with a typed error — at
    /// [`VariantSpec::to_config`] / [`ScenarioBuilder::build`] time.
    pub fn preset(name: impl Into<String>) -> VariantSpec {
        VariantSpec {
            preset: name.into(),
            me: None,
            me_fp_moves: None,
            smb: None,
            smb_load_load: None,
            smb_from_committed: None,
            tracker: None,
            isrb_entries: None,
            counter_bits: None,
            rename_ports: None,
            reclaim_ports: None,
            walk_width: None,
            tracker_entries: None,
            distance: None,
            ddt: None,
            frontend_width: None,
            issue_width: None,
            commit_width: None,
            rob_entries: None,
            iq_entries: None,
            lq_entries: None,
            sq_entries: None,
            pregs_per_class: None,
        }
    }

    /// The Table 1 baseline preset.
    pub fn hpca16() -> VariantSpec {
        VariantSpec::preset("hpca16")
    }

    /// Sets move elimination.
    pub fn me(mut self, on: bool) -> Self {
        self.me = Some(on);
        self
    }

    /// Sets FP-to-FP move elimination.
    pub fn me_fp_moves(mut self, on: bool) -> Self {
        self.me_fp_moves = Some(on);
        self
    }

    /// Sets speculative memory bypassing.
    pub fn smb(mut self, on: bool) -> Self {
        self.smb = Some(on);
        self
    }

    /// Sets load-load bypassing.
    pub fn smb_load_load(mut self, on: bool) -> Self {
        self.smb_load_load = Some(on);
        self
    }

    /// Sets bypassing from committed µ-ops (lazy reclaim).
    pub fn smb_from_committed(mut self, on: bool) -> Self {
        self.smb_from_committed = Some(on);
        self
    }

    /// Selects a tracker by name.
    pub fn tracker(mut self, name: impl Into<String>) -> Self {
        self.tracker = Some(name.into());
        self
    }

    /// Sets the ISRB entry count (0 = unlimited).
    pub fn isrb_entries(mut self, entries: usize) -> Self {
        self.isrb_entries = Some(entries);
        self
    }

    /// Sets the sharing-counter width.
    pub fn counter_bits(mut self, bits: u32) -> Self {
        self.counter_bits = Some(bits);
        self
    }

    /// Sets the tracker rename/reclaim CAM port counts (0 = unlimited).
    pub fn ports(mut self, rename: usize, reclaim: usize) -> Self {
        self.rename_ports = Some(rename);
        self.reclaim_ports = Some(reclaim);
        self
    }

    /// Sets the per-register-counter squash-walk width.
    pub fn walk_width(mut self, width: usize) -> Self {
        self.walk_width = Some(width);
        self
    }

    /// Sets the MIT/RDA associative entry count.
    pub fn tracker_entries(mut self, entries: usize) -> Self {
        self.tracker_entries = Some(entries);
        self
    }

    /// Selects a distance predictor by name.
    pub fn distance(mut self, name: impl Into<String>) -> Self {
        self.distance = Some(name.into());
        self
    }

    /// Selects a DDT geometry by name.
    pub fn ddt(mut self, name: impl Into<String>) -> Self {
        self.ddt = Some(name.into());
        self
    }

    /// Resolves the spec into a validated [`CoreConfig`]: the preset with
    /// every set override written over it, then [`CoreConfig::validate`].
    pub fn to_config(&self) -> Result<CoreConfig, ScenarioError> {
        let mut cfg = config_preset(&self.preset)?;
        for (v, field) in [
            (self.me, &mut cfg.move_elimination),
            (self.me_fp_moves, &mut cfg.me_fp_moves),
            (self.smb, &mut cfg.smb),
            (self.smb_load_load, &mut cfg.smb_load_load),
            (self.smb_from_committed, &mut cfg.smb_from_committed),
        ] {
            if let Some(v) = v {
                *field = v;
            }
        }
        if let Some(tracker) = self.resolve_tracker(&cfg.tracker)? {
            cfg.tracker = tracker;
        }
        if let Some(name) = &self.distance {
            cfg.distance_predictor = match name.as_str() {
                "tage" => DistancePredictorKind::default(),
                "nosq" => DistancePredictorKind::Nosq(NosqConfig::hpca16()),
                other => return Err(ScenarioError::UnknownDistance(other.to_string())),
            };
        }
        if let Some(name) = &self.ddt {
            cfg.ddt = match name.as_str() {
                "base16k" => DdtConfig::base16k(),
                "opt1k" => DdtConfig::opt1k(),
                "unlimited" => DdtConfig::unlimited(),
                other => return Err(ScenarioError::UnknownDdt(other.to_string())),
            };
        }
        for (v, field) in [
            (self.rename_ports, &mut cfg.tracker_rename_ports),
            (self.reclaim_ports, &mut cfg.tracker_reclaim_ports),
            (self.frontend_width, &mut cfg.frontend_width),
            (self.issue_width, &mut cfg.issue_width),
            (self.commit_width, &mut cfg.commit_width),
            (self.rob_entries, &mut cfg.rob_entries),
            (self.iq_entries, &mut cfg.iq_entries),
            (self.lq_entries, &mut cfg.lq_entries),
            (self.sq_entries, &mut cfg.sq_entries),
            (self.pregs_per_class, &mut cfg.pregs_per_class),
        ] {
            if let Some(v) = v {
                *field = v;
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// The tracker this spec selects over the preset's `current` one
    /// (`None` keeps it), rejecting keys that do not belong to the
    /// selected tracker instead of silently ignoring them.
    fn resolve_tracker(&self, current: &TrackerKind) -> Result<Option<TrackerKind>, ScenarioError> {
        let isrb_geometry = |cur: &TrackerKind, spec: &VariantSpec| -> IsrbConfig {
            let mut cfg = match cur {
                TrackerKind::Isrb(c) => *c,
                _ => IsrbConfig::hpca16(),
            };
            if let Some(n) = spec.isrb_entries {
                cfg.entries = n;
            }
            if let Some(bits) = spec.counter_bits {
                cfg.counter_bits = bits;
            }
            cfg
        };
        let reject_isrb_keys = || -> Result<(), ScenarioError> {
            if self.isrb_entries.is_some() {
                return Err(ScenarioError::KeyRequiresTracker {
                    key: "isrb_entries",
                    tracker: "isrb",
                });
            }
            Ok(())
        };
        let reject_walk = || -> Result<(), ScenarioError> {
            if self.walk_width.is_some() {
                return Err(ScenarioError::KeyRequiresTracker {
                    key: "walk_width",
                    tracker: "counters",
                });
            }
            Ok(())
        };
        let reject_entries = || -> Result<(), ScenarioError> {
            if self.tracker_entries.is_some() {
                return Err(ScenarioError::KeyRequiresTracker {
                    key: "tracker_entries",
                    tracker: "mit / rda",
                });
            }
            Ok(())
        };
        let reject_counter_bits = || -> Result<(), ScenarioError> {
            if self.counter_bits.is_some() {
                return Err(ScenarioError::KeyRequiresTracker {
                    key: "counter_bits",
                    tracker: "isrb / rda",
                });
            }
            Ok(())
        };
        match self.tracker.as_deref() {
            None | Some("isrb") => {
                reject_walk()?;
                reject_entries()?;
                // With no tracker key, ISRB geometry keys re-shape (or
                // switch to) the ISRB, mirroring `with_isrb_entries`.
                let touches_isrb = self.tracker.is_some()
                    || self.isrb_entries.is_some()
                    || self.counter_bits.is_some();
                Ok(touches_isrb.then(|| TrackerKind::Isrb(isrb_geometry(current, self))))
            }
            Some("unlimited") => {
                reject_isrb_keys()?;
                reject_counter_bits()?;
                reject_walk()?;
                reject_entries()?;
                Ok(Some(TrackerKind::Unlimited))
            }
            Some("roth") => {
                reject_isrb_keys()?;
                reject_counter_bits()?;
                reject_walk()?;
                reject_entries()?;
                Ok(Some(TrackerKind::RothMatrix))
            }
            Some("counters") => {
                reject_isrb_keys()?;
                reject_counter_bits()?;
                reject_entries()?;
                Ok(Some(TrackerKind::PerRegCounters {
                    walk_width: self.walk_width.unwrap_or(8),
                }))
            }
            Some("mit") => {
                reject_isrb_keys()?;
                reject_counter_bits()?;
                reject_walk()?;
                Ok(Some(TrackerKind::Mit {
                    entries: self.tracker_entries.unwrap_or(8),
                }))
            }
            Some("rda") => {
                reject_isrb_keys()?;
                reject_walk()?;
                Ok(Some(TrackerKind::Rda {
                    entries: self.tracker_entries.unwrap_or(32),
                    counter_bits: self.counter_bits.unwrap_or(3),
                }))
            }
            Some(other) => Err(ScenarioError::UnknownTracker(other.to_string())),
        }
    }
}

/// A generated workload family: `kind = "fuzz"` in a `.scenario` file.
/// Expands to `programs` consecutive fuzz cases
/// (`fuzz-<profile>-<seed>` … `fuzz-<profile>-<seed+programs-1>`) in place
/// of a hand-listed workload set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzSource {
    /// Generator profile name (see `regshare_workloads::fuzz::profiles`).
    pub profile: String,
    /// First seed of the family.
    pub seed: u64,
    /// Family size.
    pub programs: u32,
}

/// An assembled-kernel workload source: `kind = "asm"` in a `.scenario`
/// file. Selects the embedded `programs/*.asm` corpus (no keys), one
/// kernel from it (`kernel = "quicksort"`), or an external assembly file
/// (`path = "my.asm"`), which is read and assembled when workloads
/// resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmSource {
    /// Embedded corpus kernel short name (see
    /// `regshare_workloads::asm::CORPUS`); `None` selects the whole corpus
    /// unless `path` is given.
    pub kernel: Option<String>,
    /// External assembly file, assembled at resolution time with typed
    /// errors ([`ScenarioError::AsmParse`]).
    pub path: Option<String>,
}

/// A named, validated experiment: workloads × labelled variants, plus run
/// options. The unit the sweep engine, the binaries' CLIs, and `.scenario`
/// files all exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (identifier charset, see [`valid_name`]).
    pub name: String,
    /// Free-text note printed in report headers (empty = none).
    pub note: String,
    /// Window sizes and parallelism; unset fields fall back to the
    /// defaults.
    pub options: RunOptions,
    /// Workload names, resolved against the registry (suite names and
    /// `fuzz-<profile>-<seed>`); empty means the full 36-workload suite —
    /// unless [`Scenario::fuzz`] supplies a generated family instead.
    pub workloads: Vec<String>,
    /// Generated workload family (`kind = "fuzz"`); mutually exclusive
    /// with a non-empty `workloads` list.
    pub fuzz: Option<FuzzSource>,
    /// Assembled-kernel source (`kind = "asm"`); mutually exclusive with
    /// both `fuzz` and a non-empty `workloads` list.
    pub asm: Option<AsmSource>,
    /// Ordered labelled variants; the first is the baseline column.
    pub variants: Vec<(String, VariantSpec)>,
}

impl Scenario {
    /// Starts a [`ScenarioBuilder`].
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                note: String::new(),
                options: RunOptions::default(),
                workloads: Vec::new(),
                fuzz: None,
                asm: None,
                variants: Vec::new(),
            },
        }
    }

    /// Parses the `.scenario` text format. Inverse of [`Scenario::render`]:
    /// `parse(render(s)) == s` for every valid scenario.
    pub fn parse(text_src: &str) -> Result<Scenario, ScenarioError> {
        text::parse(text_src)
    }

    /// Renders the canonical `.scenario` text. Stable: rendering, parsing
    /// and rendering again is byte-identical.
    pub fn render(&self) -> String {
        text::render(self)
    }

    /// Reads and parses a `.scenario` file.
    pub fn load(path: &str) -> Result<Scenario, ScenarioError> {
        let text_src = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.to_string(),
            msg: e.to_string(),
        })?;
        Scenario::parse(&text_src)
    }

    /// The one resolution pass behind [`Scenario::validate`],
    /// [`Scenario::to_sweep`], the checkpointed sweep and the serve daemon:
    /// checks every name and option, and returns the workloads and the
    /// per-variant configurations, so no caller resolves twice.
    pub fn resolve(&self) -> Result<(Vec<Workload>, Vec<CoreConfig>), ScenarioError> {
        check_name("scenario", &self.name)?;
        if !valid_note(&self.note) {
            return Err(ScenarioError::InvalidNote(self.note.clone()));
        }
        if self.options.jobs == Some(0) {
            // The text parser and CLI reject 0 too; a hand-constructed
            // Some(0) would otherwise render to an unparseable file.
            return Err(ScenarioError::ZeroJobs);
        }
        if self.variants.is_empty() {
            return Err(ScenarioError::NoVariants);
        }
        let mut configs = Vec::with_capacity(self.variants.len());
        for (i, (label, spec)) in self.variants.iter().enumerate() {
            check_name("variant label", label)?;
            if self.variants[..i].iter().any(|(l, _)| l == label) {
                return Err(ScenarioError::DuplicateVariant(label.clone()));
            }
            configs.push(spec.to_config().map_err(|e| ScenarioError::InVariant {
                label: label.clone(),
                source: Box::new(e),
            })?);
        }
        Ok((self.resolve_workloads()?, configs))
    }

    /// Full validation: names, labels, options, workload existence, and
    /// every variant's resolved core configuration.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.resolve().map(|_| ())
    }

    /// The workload list this scenario runs over — the generated fuzz
    /// family, the assembled-kernel source, the named workloads, or the
    /// full suite when none is given — with unknown names rejected as
    /// typed errors.
    pub fn resolve_workloads(&self) -> Result<Vec<Workload>, ScenarioError> {
        if self.fuzz.is_some() && self.asm.is_some() {
            return Err(ScenarioError::AsmWithFuzz);
        }
        if let Some(asm) = &self.asm {
            if !self.workloads.is_empty() {
                return Err(ScenarioError::AsmWithWorkloads);
            }
            return match (&asm.kernel, &asm.path) {
                (Some(_), Some(_)) => Err(ScenarioError::AsmKernelAndPath),
                (Some(kernel), None) => AsmSpec::new(kernel)
                    .map(|spec| vec![spec.workload()])
                    .ok_or_else(|| ScenarioError::UnknownAsmKernel(kernel.clone())),
                (None, Some(path)) => {
                    if path.is_empty() || !valid_note(path) {
                        return Err(ScenarioError::InvalidAsmPath(path.clone()));
                    }
                    let src = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
                        path: path.clone(),
                        msg: e.to_string(),
                    })?;
                    let stem = std::path::Path::new(path)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    check_name("asm kernel", &stem)?;
                    AsmSpec::from_source(stem, src)
                        .map(|spec| vec![spec.workload()])
                        .map_err(|e| ScenarioError::AsmParse {
                            path: path.clone(),
                            msg: e.to_string(),
                        })
                }
                (None, None) => Ok(regshare_workloads::asm::corpus_workloads()),
            };
        }
        if let Some(fuzz) = &self.fuzz {
            if !self.workloads.is_empty() {
                return Err(ScenarioError::FuzzWithWorkloads);
            }
            if fuzz.programs == 0 {
                return Err(ScenarioError::ZeroFuzzPrograms);
            }
            return (0..fuzz.programs as u64)
                .map(|i| {
                    FuzzSpec::new(fuzz.profile.clone(), fuzz.seed.wrapping_add(i))
                        .map(|spec| spec.workload())
                        .map_err(ScenarioError::UnknownFuzzProfile)
                })
                .collect();
        }
        if self.workloads.is_empty() {
            return Ok(suite());
        }
        for name in &self.workloads {
            check_name("workload", name)?;
        }
        try_by_names(&self.workloads).map_err(ScenarioError::UnknownWorkload)
    }

    /// Validates the scenario and expands it into a ready-to-run
    /// [`SweepSpec`] — the bridge from declarative scenario to the
    /// deterministic parallel sweep engine.
    pub fn to_sweep(&self) -> Result<SweepSpec, ScenarioError> {
        let (workloads, configs) = self.resolve()?;
        let mut spec = SweepSpec::new(workloads, self.options.window());
        if let Some(jobs) = self.options.jobs {
            spec = spec.jobs(jobs);
        }
        for ((label, _), cfg) in self.variants.iter().zip(configs) {
            spec = spec.variant(label.clone(), cfg);
        }
        Ok(spec)
    }
}

/// Fluent, validating constructor for [`Scenario`].
///
/// # Examples
///
/// ```
/// use regshare_bench::{RunOptions, Scenario, VariantSpec};
///
/// let scenario = Scenario::builder("isrb_sizing")
///     .options(RunOptions::default().warmup(1_000).measure(4_000))
///     .workloads(&["crafty", "hmmer"])
///     .variant("base", VariantSpec::hpca16())
///     .variant("both24", VariantSpec::preset("me_smb").isrb_entries(24))
///     .build()
///     .unwrap();
/// let grid = scenario.to_sweep().unwrap().run().unwrap();
/// assert!(grid.get(0, "both24").unwrap().ipc() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the free-text note shown in report headers.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.scenario.note = note.into();
        self
    }

    /// Sets the run options (window sizes, parallelism).
    pub fn options(mut self, options: RunOptions) -> Self {
        self.scenario.options = options;
        self
    }

    /// Names the workloads to run (replacing any previous list).
    pub fn workloads(mut self, names: &[&str]) -> Self {
        self.scenario.workloads = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Runs over a generated fuzz family instead of named workloads
    /// (`kind = "fuzz"` in scenario files).
    pub fn fuzz(mut self, profile: impl Into<String>, seed: u64, programs: u32) -> Self {
        self.scenario.fuzz = Some(FuzzSource {
            profile: profile.into(),
            seed,
            programs,
        });
        self.scenario.asm = None;
        self
    }

    /// Runs over the whole embedded `programs/*.asm` corpus
    /// (`kind = "asm"` with no selector keys in scenario files).
    pub fn asm_corpus(mut self) -> Self {
        self.scenario.asm = Some(AsmSource {
            kernel: None,
            path: None,
        });
        self.scenario.fuzz = None;
        self
    }

    /// Runs over one embedded corpus kernel (`kind = "asm"` +
    /// `kernel = "<name>"` in scenario files).
    pub fn asm_kernel(mut self, kernel: impl Into<String>) -> Self {
        self.scenario.asm = Some(AsmSource {
            kernel: Some(kernel.into()),
            path: None,
        });
        self.scenario.fuzz = None;
        self
    }

    /// Runs over an external assembly file, read and assembled when
    /// workloads resolve (`kind = "asm"` + `path = "<file>"`).
    pub fn asm_path(mut self, path: impl Into<String>) -> Self {
        self.scenario.asm = Some(AsmSource {
            kernel: None,
            path: Some(path.into()),
        });
        self.scenario.fuzz = None;
        self
    }

    /// Appends a labelled variant.
    pub fn variant(mut self, label: impl Into<String>, spec: VariantSpec) -> Self {
        self.scenario.variants.push((label.into(), spec));
        self
    }

    /// Validates everything and returns the finished scenario; the error
    /// pinpoints the offending variant, key or name.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }
}

/// `(name, file text)` for each entry of `scenarios/` named by `$name`.
macro_rules! preset_files {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../../../../scenarios/", $name, ".scenario")))),*]
    };
}

/// The built-in named scenarios (`--list-presets` in the binaries), as
/// `(name, .scenario text)` pairs. Each covers one of the paper's
/// experiments end to end. The text is the checked-in file itself, so a
/// preset and `--scenario scenarios/<name>.scenario` are the same input.
pub const SCENARIO_PRESETS: [(&str, &str); 9] = preset_files![
    "smoke",
    "headline",
    "fig4_baseline",
    "fig5_me",
    "fig6_smb",
    "fig6c_committed",
    "fig7_combined",
    "fuzz_smoke",
    "asm_kernels",
];

/// Parses the named preset scenario, or `None` for an unknown name.
pub fn preset(name: &str) -> Option<Scenario> {
    let (_, text) = SCENARIO_PRESETS.iter().find(|(n, _)| *n == name)?;
    Some(Scenario::parse(text).expect("checked-in preset files parse"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_builds_and_validates() {
        for (name, _) in SCENARIO_PRESETS {
            let s = preset(name).expect("preset exists");
            assert_eq!(s.name, name);
            s.validate().expect("preset validates");
        }
        assert!(preset("nope").is_none());
    }

    #[test]
    fn preset_matrix_matches_the_hand_built_config() {
        let s = preset("headline").unwrap();
        let (label, spec) = &s.variants[3];
        assert_eq!(label, "both32");
        let cfg = spec.to_config().unwrap();
        let hand = CoreConfig::hpca16()
            .with_me()
            .with_smb()
            .with_isrb_entries(32);
        assert!(cfg.move_elimination && cfg.smb);
        match (cfg.tracker, hand.tracker) {
            (TrackerKind::Isrb(a), TrackerKind::Isrb(b)) => assert_eq!(a, b),
            _ => panic!("both ISRB"),
        }

        // fig6c's eager/lazy pairs must reproduce the old hand-mutated
        // configs: lazy = smb + smb_from_committed at the same ISRB size.
        let s = preset("fig6c_committed").unwrap();
        for (label, entries, lazy) in [
            ("eager-unl", 0usize, false),
            ("lazy-unl", 0, true),
            ("eager-24", 24, false),
            ("lazy-24", 24, true),
        ] {
            let spec = &s.variants.iter().find(|(l, _)| l == label).unwrap().1;
            let cfg = spec.to_config().unwrap();
            assert!(cfg.smb && !cfg.move_elimination, "{label}");
            assert_eq!(cfg.smb_from_committed, lazy, "{label}");
            match cfg.tracker {
                TrackerKind::Isrb(i) => assert_eq!(i.entries, entries, "{label}"),
                _ => panic!("{label}: ISRB expected"),
            }
        }
    }

    #[test]
    fn every_tracker_and_predictor_is_addressable_by_name() {
        for (tracker, expect) in [
            ("isrb", "ISRB"),
            ("unlimited", "unlimited"),
            ("counters", "counters"),
            ("roth", "matrix"),
            ("mit", "MIT"),
            ("rda", "RDA"),
        ] {
            let cfg = VariantSpec::hpca16().tracker(tracker).to_config().unwrap();
            let built = cfg.tracker.build(cfg.pregs_per_class, cfg.rob_entries);
            assert!(
                built.name().to_lowercase().contains(&expect.to_lowercase()),
                "tracker {tracker:?} resolved to {:?}",
                built.name()
            );
        }
        for distance in ["tage", "nosq"] {
            VariantSpec::hpca16()
                .distance(distance)
                .to_config()
                .unwrap();
        }
        for ddt in ["base16k", "opt1k", "unlimited"] {
            VariantSpec::hpca16().ddt(ddt).to_config().unwrap();
        }
    }

    #[test]
    fn unknown_names_fail_with_typed_errors() {
        assert_eq!(
            VariantSpec::preset("hpca17").to_config().unwrap_err(),
            ScenarioError::UnknownPreset("hpca17".into())
        );
        assert_eq!(
            VariantSpec::hpca16()
                .tracker("lru")
                .to_config()
                .unwrap_err(),
            ScenarioError::UnknownTracker("lru".into())
        );
        assert_eq!(
            VariantSpec::hpca16()
                .distance("oracle")
                .to_config()
                .unwrap_err(),
            ScenarioError::UnknownDistance("oracle".into())
        );
        assert_eq!(
            VariantSpec::hpca16().ddt("huge").to_config().unwrap_err(),
            ScenarioError::UnknownDdt("huge".into())
        );
    }

    #[test]
    fn invalid_configs_fail_with_typed_errors_not_silent_runs() {
        // ISRB larger than the PRF.
        let err = Scenario::builder("bad")
            .variant("v", VariantSpec::hpca16().isrb_entries(4096))
            .build()
            .unwrap_err();
        match err {
            ScenarioError::InVariant { label, source } => {
                assert_eq!(label, "v");
                assert_eq!(
                    *source,
                    ScenarioError::Config(ConfigError::IsrbExceedsPrf {
                        entries: 4096,
                        pregs: 256
                    })
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Zero walk width.
        let err = VariantSpec::hpca16()
            .tracker("counters")
            .walk_width(0)
            .to_config()
            .unwrap_err();
        assert_eq!(err, ScenarioError::Config(ConfigError::ZeroWalkWidth));
    }

    #[test]
    fn misplaced_tracker_keys_are_rejected() {
        assert_eq!(
            VariantSpec::hpca16().walk_width(4).to_config().unwrap_err(),
            ScenarioError::KeyRequiresTracker {
                key: "walk_width",
                tracker: "counters"
            }
        );
        assert_eq!(
            VariantSpec::hpca16()
                .tracker("unlimited")
                .isrb_entries(8)
                .to_config()
                .unwrap_err(),
            ScenarioError::KeyRequiresTracker {
                key: "isrb_entries",
                tracker: "isrb"
            }
        );
        assert_eq!(
            VariantSpec::hpca16()
                .tracker_entries(8)
                .to_config()
                .unwrap_err(),
            ScenarioError::KeyRequiresTracker {
                key: "tracker_entries",
                tracker: "mit / rda"
            }
        );
    }

    #[test]
    fn unknown_workloads_and_duplicate_labels_are_rejected() {
        let err = Scenario::builder("bad")
            .workloads(&["crafty", "doom"])
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownWorkload("doom".into()));

        let err = Scenario::builder("bad")
            .variant("base", VariantSpec::hpca16())
            .variant("base", VariantSpec::preset("me"))
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::DuplicateVariant("base".into()));

        let err = Scenario::builder("bad").build().unwrap_err();
        assert_eq!(err, ScenarioError::NoVariants);

        let err = Scenario::builder("no spaces allowed")
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidName { .. }));
    }

    #[test]
    fn hand_set_zero_jobs_is_rejected_before_it_can_render() {
        // The jobs() setter clamps and the parser/CLI reject 0; a
        // pub-field construction is the only way in, and validate()
        // closes it so render() can never emit an unparseable file.
        let mut s = Scenario::builder("x")
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        s.options.jobs = Some(0);
        assert_eq!(s.validate().unwrap_err(), ScenarioError::ZeroJobs);
        assert_eq!(
            Scenario::parse(&s.render()).unwrap_err(),
            ScenarioError::ZeroJobs
        );
    }

    #[test]
    fn fuzz_scenarios_resolve_generated_families_with_typed_guards() {
        let s = Scenario::builder("f")
            .fuzz("memory", 10, 3)
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        let workloads = s.resolve_workloads().unwrap();
        assert_eq!(workloads.len(), 3);
        assert_eq!(workloads[0].name, "fuzz-memory-10");
        assert_eq!(workloads[2].name, "fuzz-memory-12");

        let err = Scenario::builder("f")
            .fuzz("doom", 1, 2)
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownFuzzProfile("doom".into()));

        let err = Scenario::builder("f")
            .fuzz("memory", 1, 0)
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::ZeroFuzzPrograms);

        let err = Scenario::builder("f")
            .workloads(&["crafty"])
            .fuzz("memory", 1, 2)
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::FuzzWithWorkloads);

        // Individual fuzz names also resolve through the registry path.
        let s = Scenario::builder("mixed")
            .workloads(&["crafty", "fuzz-balanced-3"])
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        assert_eq!(s.resolve_workloads().unwrap()[1].name, "fuzz-balanced-3");
    }

    #[test]
    fn asm_scenarios_resolve_kernels_with_typed_guards() {
        let s = Scenario::builder("a")
            .asm_kernel("matmul")
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        let workloads = s.resolve_workloads().unwrap();
        assert_eq!(workloads.len(), 1);
        assert_eq!(workloads[0].name, "asm-matmul");

        let s = Scenario::builder("a")
            .asm_corpus()
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        let workloads = s.resolve_workloads().unwrap();
        assert_eq!(workloads.len(), regshare_workloads::asm::CORPUS.len());
        assert!(workloads.iter().all(|w| w.name.starts_with("asm-")));

        let err = Scenario::builder("a")
            .asm_kernel("doom")
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownAsmKernel("doom".into()));

        let err = Scenario::builder("a")
            .workloads(&["crafty"])
            .asm_corpus()
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::AsmWithWorkloads);

        // kernel + path (only reachable by hand-mutation) is rejected.
        let mut s = Scenario::builder("a")
            .asm_kernel("matmul")
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        s.asm.as_mut().unwrap().path = Some("x.asm".into());
        assert_eq!(s.validate().unwrap_err(), ScenarioError::AsmKernelAndPath);

        // So is a hand-set fuzz family alongside an asm source.
        let mut s = Scenario::builder("a")
            .asm_corpus()
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        s.fuzz = Some(FuzzSource {
            profile: "balanced".into(),
            seed: 1,
            programs: 2,
        });
        assert_eq!(s.validate().unwrap_err(), ScenarioError::AsmWithFuzz);

        // `asm-<kernel>` names also resolve through the registry path.
        let s = Scenario::builder("mixed")
            .workloads(&["crafty", "asm-quicksort"])
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        assert_eq!(s.resolve_workloads().unwrap()[1].name, "asm-quicksort");
    }

    #[test]
    fn asm_path_scenarios_assemble_external_files() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp");
        std::fs::create_dir_all(&dir).unwrap();

        let good = dir.join(format!("asm-path-ok-{}.asm", std::process::id()));
        std::fs::write(&good, "    li r15, 1\n    halt\n").unwrap();
        let s = Scenario::builder("ext")
            .asm_path(good.to_str().unwrap())
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        let workloads = s.resolve_workloads().unwrap();
        assert_eq!(workloads.len(), 1);
        assert!(workloads[0].name.starts_with("asm-asm-path-ok-"));
        assert_eq!(workloads[0].build().len(), 2);
        std::fs::remove_file(&good).ok();

        // Assembly errors surface as typed AsmParse with the asm line.
        let bad = dir.join(format!("asm-path-bad-{}.asm", std::process::id()));
        std::fs::write(&bad, "    bogus r1\n").unwrap();
        let err = Scenario::builder("ext")
            .asm_path(bad.to_str().unwrap())
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap_err();
        match err {
            ScenarioError::AsmParse { msg, .. } => assert!(msg.contains("line 1"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        std::fs::remove_file(&bad).ok();

        // A missing file is an Io error, not a panic.
        let err = Scenario::builder("ext")
            .asm_path(dir.join("nope.asm").to_str().unwrap())
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Io { .. }));
    }

    #[test]
    fn asm_preset_drives_the_sweep_engine() {
        let mut s = preset("asm_kernels").expect("preset exists");
        s.options = RunOptions::default().warmup(300).measure(900).jobs(2);
        let grid = s.to_sweep().unwrap().run().unwrap();
        assert_eq!(grid.workloads().len(), 4);
        assert_eq!(
            grid.labels(),
            &["base", "me", "smb", "both", "lazy"].map(String::from)
        );
        assert!(grid.get(0, "both").unwrap().ipc() > 0.0);
        assert!(grid.workloads()[0].name.starts_with("asm-"));
    }

    #[test]
    fn fuzz_preset_drives_the_sweep_engine() {
        let mut s = preset("fuzz_smoke").expect("preset exists");
        s.options = RunOptions::default().warmup(300).measure(900).jobs(2);
        let grid = s.to_sweep().unwrap().run().unwrap();
        assert_eq!(grid.workloads().len(), 8);
        assert!(grid.get(0, "both").unwrap().ipc() > 0.0);
        assert!(grid.workloads()[0].name.starts_with("fuzz-balanced-"));
    }

    #[test]
    fn unescapable_notes_are_rejected_not_rendered_broken() {
        // The format has no escape sequences: a quote, backslash or
        // newline in the note would render to unparseable text, so
        // validation rejects it up front.
        for note in ["say \"hi\"", "back\\slash", "two\nlines"] {
            let err = Scenario::builder("x")
                .note(note)
                .variant("base", VariantSpec::hpca16())
                .build()
                .unwrap_err();
            assert_eq!(err, ScenarioError::InvalidNote(note.to_string()));
        }
        // Ordinary punctuation and non-ASCII text stay allowed.
        let s = Scenario::builder("x")
            .note("geomean +5.5% (µ-ops, ISRB=32)")
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        assert_eq!(Scenario::parse(&s.render()).unwrap(), s);
    }

    #[test]
    fn scenario_drives_the_sweep_engine() {
        let s = Scenario::builder("tiny")
            .options(RunOptions::default().warmup(500).measure(1_500).jobs(2))
            .workloads(&["crafty"])
            .variant("base", VariantSpec::hpca16())
            .variant("both", VariantSpec::preset("me_smb"))
            .build()
            .unwrap();
        let grid = s.to_sweep().unwrap().run().unwrap();
        assert_eq!(grid.labels(), &["base".to_string(), "both".to_string()]);
        assert!(grid.get(0, "both").unwrap().ipc() > 0.0);
        assert_eq!(grid.get(0, "base").unwrap().name, "crafty");
    }
}
