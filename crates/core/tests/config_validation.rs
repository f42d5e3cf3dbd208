//! Every structurally impossible configuration `CoreConfig::validate`
//! must reject, and the exact typed error it must reject it with. Before
//! validation existed these configs silently deadlocked the simulator or
//! modelled machines that cannot exist.

use regshare_core::{ConfigError, CoreConfig, TrackerKind, MAX_STRUCTURE_ENTRIES};
use regshare_refcount::IsrbConfig;

/// Validates the Table 1 machine after `mutate` has been applied to it.
fn check(mutate: impl FnOnce(&mut CoreConfig)) -> Result<(), ConfigError> {
    let mut cfg = CoreConfig::hpca16();
    mutate(&mut cfg);
    cfg.validate()
}

/// Validates the Table 1 machine with `pregs` registers per class and an
/// `entries`-entry ISRB (0 = unlimited).
fn sized(pregs: usize, entries: usize) -> Result<(), ConfigError> {
    let mut cfg = CoreConfig::hpca16().with_isrb_entries(entries);
    cfg.pregs_per_class = pregs;
    cfg.validate()
}

#[test]
fn table1_machine_is_valid() {
    assert_eq!(CoreConfig::hpca16().validate(), Ok(()));
    assert_eq!(CoreConfig::hpca16().with_me().with_smb().validate(), Ok(()));
}

#[test]
fn every_paper_design_point_is_valid() {
    for entries in [0, 8, 16, 24, 32] {
        let cfg = CoreConfig::hpca16()
            .with_me()
            .with_smb()
            .with_isrb_entries(entries);
        cfg.validate().expect("paper design point");
    }
}

#[test]
fn zero_widths_are_rejected_with_the_field_name() {
    for (field, f) in [
        (
            "frontend_width",
            Box::new(|c: &mut CoreConfig| c.frontend_width = 0) as Box<dyn Fn(&mut CoreConfig)>,
        ),
        (
            "issue_width",
            Box::new(|c: &mut CoreConfig| c.issue_width = 0),
        ),
        (
            "commit_width",
            Box::new(|c: &mut CoreConfig| c.commit_width = 0),
        ),
    ] {
        let err = check(&*f).unwrap_err();
        assert_eq!(err, ConfigError::ZeroWidth(field));
        assert!(err.to_string().contains(field), "message names the field");
    }
}

#[test]
fn empty_windows_are_rejected_with_the_field_name() {
    for (field, f) in [
        (
            "rob_entries",
            Box::new(|c: &mut CoreConfig| c.rob_entries = 0) as Box<dyn Fn(&mut CoreConfig)>,
        ),
        (
            "iq_entries",
            Box::new(|c: &mut CoreConfig| c.iq_entries = 0),
        ),
        (
            "lq_entries",
            Box::new(|c: &mut CoreConfig| c.lq_entries = 0),
        ),
        (
            "sq_entries",
            Box::new(|c: &mut CoreConfig| c.sq_entries = 0),
        ),
    ] {
        let err = check(&*f).unwrap_err();
        assert_eq!(err, ConfigError::ZeroCapacity(field));
    }
}

#[test]
fn zero_functional_units_are_rejected() {
    for (field, f) in [
        (
            "alu_units",
            Box::new(|c: &mut CoreConfig| c.alu_units = 0) as Box<dyn Fn(&mut CoreConfig)>,
        ),
        (
            "muldiv_units",
            Box::new(|c: &mut CoreConfig| c.muldiv_units = 0),
        ),
        ("fp_units", Box::new(|c: &mut CoreConfig| c.fp_units = 0)),
        (
            "fpmuldiv_units",
            Box::new(|c: &mut CoreConfig| c.fpmuldiv_units = 0),
        ),
        ("mem_ports", Box::new(|c: &mut CoreConfig| c.mem_ports = 0)),
    ] {
        let err = check(&*f).unwrap_err();
        assert_eq!(err, ConfigError::ZeroUnits(field));
    }
}

#[test]
fn prf_must_cover_the_architectural_registers() {
    // 16 architectural registers per class: 16 pregs leaves rename no
    // destination to allocate, 17 is the floor.
    let err = check(|c| c.pregs_per_class = 16).unwrap_err();
    assert_eq!(err, ConfigError::PrfTooSmall { pregs: 16, min: 17 });
    // (unlimited ISRB: a 32-entry ISRB over a 17-register PRF would trip
    // the IsrbExceedsPrf check first)
    assert!(sized(17, 0).is_ok());
}

#[test]
fn structures_beyond_a_physreg_index_are_rejected() {
    // A `PhysReg` index is 16 bits: 65 536 registers per class is the
    // largest file that does not alias, and no other structure may be
    // sized beyond it either (a request could otherwise allocate
    // gigabytes before its first cycle).
    type Set = fn(&mut CoreConfig, usize);
    let fields: [(&str, Set); 7] = [
        ("pregs_per_class", |c, n| c.pregs_per_class = n),
        ("rob_entries", |c, n| c.rob_entries = n),
        ("iq_entries", |c, n| c.iq_entries = n),
        ("lq_entries", |c, n| c.lq_entries = n),
        ("sq_entries", |c, n| c.sq_entries = n),
        ("mit entries", |c, n| {
            c.tracker = TrackerKind::Mit { entries: n }
        }),
        ("rda entries", |c, n| {
            c.tracker = TrackerKind::Rda {
                entries: n,
                counter_bits: 3,
            }
        }),
    ];
    assert_eq!(MAX_STRUCTURE_ENTRIES, 65_536);
    for (field, set) in fields {
        assert_eq!(check(|c| set(c, MAX_STRUCTURE_ENTRIES)), Ok(()), "{field}");
        let err = check(|c| set(c, 65_537)).unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooLarge {
                field,
                entries: 65_537
            }
        );
        assert!(err.to_string().contains(field), "message names the field");
    }
}

#[test]
fn isrb_larger_than_prf_is_rejected() {
    let err = sized(64, 65).unwrap_err();
    assert_eq!(
        err,
        ConfigError::IsrbExceedsPrf {
            entries: 65,
            pregs: 64
        }
    );
    // entries == pregs is the degenerate-but-legal maximum, and 0 means
    // unlimited rather than "zero entries".
    assert!(sized(64, 64).is_ok());
    assert!(sized(64, 0).is_ok());
}

#[test]
fn isrb_counter_width_must_fit_a_checkpointable_counter() {
    for bits in [0u32, 32, 64] {
        let err = check(|c| {
            c.tracker = TrackerKind::Isrb(IsrbConfig {
                counter_bits: bits,
                ..IsrbConfig::hpca16()
            })
        })
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::CounterBitsOutOfRange {
                tracker: "isrb",
                bits
            }
        );
    }
    for bits in [1u32, 3, 31] {
        assert!(check(|c| c.tracker = TrackerKind::Isrb(IsrbConfig {
            counter_bits: bits,
            ..IsrbConfig::hpca16()
        }))
        .is_ok());
    }
}

#[test]
fn zero_walk_width_is_rejected() {
    let err = check(|c| c.tracker = TrackerKind::PerRegCounters { walk_width: 0 }).unwrap_err();
    assert_eq!(err, ConfigError::ZeroWalkWidth);
}

#[test]
fn empty_associative_trackers_are_rejected() {
    let err = check(|c| c.tracker = TrackerKind::Mit { entries: 0 }).unwrap_err();
    assert_eq!(err, ConfigError::ZeroTrackerEntries("mit"));

    let err = check(|c| {
        c.tracker = TrackerKind::Rda {
            entries: 0,
            counter_bits: 3,
        }
    })
    .unwrap_err();
    assert_eq!(err, ConfigError::ZeroTrackerEntries("rda"));

    let err = check(|c| {
        c.tracker = TrackerKind::Rda {
            entries: 32,
            counter_bits: 0,
        }
    })
    .unwrap_err();
    assert_eq!(
        err,
        ConfigError::CounterBitsOutOfRange {
            tracker: "rda",
            bits: 0
        }
    );
}

#[test]
fn config_error_implements_std_error() {
    let err: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroWalkWidth);
    assert!(!err.to_string().is_empty());
}

/// One table covering *every* `ConfigError` variant: a mutation of the
/// Table 1 machine that must trip exactly that variant, plus a fragment
/// its message must contain. The match in `covered` is exhaustive, so adding a variant
/// without extending the table is a compile error here.
#[test]
fn every_config_error_variant_has_a_rejection_path_and_message() {
    fn covered(err: &ConfigError) -> &'static str {
        // Exhaustive: a new variant fails to compile until it is added to
        // the table below and given a needle here.
        match err {
            ConfigError::ZeroWidth(_) => "must be non-zero",
            ConfigError::ZeroCapacity(_) => "at least one entry",
            ConfigError::ZeroUnits(_) => "must be non-zero",
            ConfigError::PrfTooSmall { .. } => "architectural registers",
            ConfigError::TooLarge { .. } => "larger than the maximum",
            ConfigError::IsrbExceedsPrf { .. } => "larger than",
            ConfigError::CounterBitsOutOfRange { .. } => "outside 1..=31",
            ConfigError::ZeroWalkWidth => "walk_width",
            ConfigError::ZeroTrackerEntries(_) => "at least one entry",
            ConfigError::TageGeometry { .. } => "TAGE",
        }
    }

    type Case = (&'static str, Box<dyn Fn(&mut CoreConfig)>, ConfigError);
    let cases: Vec<Case> = vec![
        (
            "zero width",
            Box::new(|c| c.frontend_width = 0),
            ConfigError::ZeroWidth("frontend_width"),
        ),
        (
            "zero capacity",
            Box::new(|c| c.rob_entries = 0),
            ConfigError::ZeroCapacity("rob_entries"),
        ),
        (
            "zero units",
            Box::new(|c| c.alu_units = 0),
            ConfigError::ZeroUnits("alu_units"),
        ),
        (
            "prf too small",
            Box::new(|c| c.pregs_per_class = 16),
            ConfigError::PrfTooSmall { pregs: 16, min: 17 },
        ),
        (
            "too large",
            Box::new(|c| c.rob_entries = MAX_STRUCTURE_ENTRIES + 1),
            ConfigError::TooLarge {
                field: "rob_entries",
                entries: MAX_STRUCTURE_ENTRIES + 1,
            },
        ),
        (
            "isrb exceeds prf",
            Box::new(|c| {
                c.tracker = TrackerKind::Isrb(IsrbConfig {
                    entries: 1000,
                    ..IsrbConfig::hpca16()
                })
            }),
            ConfigError::IsrbExceedsPrf {
                entries: 1000,
                pregs: CoreConfig::hpca16().pregs_per_class,
            },
        ),
        (
            "counter bits out of range",
            Box::new(|c| {
                c.tracker = TrackerKind::Isrb(IsrbConfig {
                    counter_bits: 0,
                    ..IsrbConfig::hpca16()
                })
            }),
            ConfigError::CounterBitsOutOfRange {
                tracker: "isrb",
                bits: 0,
            },
        ),
        (
            "zero walk width",
            Box::new(|c| c.tracker = TrackerKind::PerRegCounters { walk_width: 0 }),
            ConfigError::ZeroWalkWidth,
        ),
        (
            "zero tracker entries",
            Box::new(|c| c.tracker = TrackerKind::Mit { entries: 0 }),
            ConfigError::ZeroTrackerEntries("mit"),
        ),
        (
            "tage geometry",
            Box::new(|c| c.tage.components[0].log_entries = 32),
            {
                let mut c = CoreConfig::hpca16();
                c.tage.components[0].log_entries = 32;
                ConfigError::TageGeometry {
                    components: c.tage.components.len(),
                    max_log_entries: 32,
                }
            },
        ),
    ];

    for (what, mutate, expected) in &cases {
        let err = check(&**mutate).unwrap_err();
        assert_eq!(&err, expected, "{what}");
        let needle = covered(&err);
        assert!(
            err.to_string().contains(needle),
            "{what}: message {:?} lacks {needle:?}",
            err.to_string()
        );
    }

    // Every variant the match above names appears in the table — the two
    // lists can only drift if someone edits one without the other, and the
    // exhaustive match already pins the enum side.
    let covered_variants: Vec<_> = cases
        .iter()
        .map(|(_, _, e)| std::mem::discriminant(e))
        .collect();
    for i in 0..covered_variants.len() {
        for j in i + 1..covered_variants.len() {
            assert_ne!(
                covered_variants[i], covered_variants[j],
                "rows {i} and {j} exercise the same variant"
            );
        }
    }
    assert_eq!(
        covered_variants.len(),
        10,
        "one case per ConfigError variant"
    );
}
