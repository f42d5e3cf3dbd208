//! Malformed checkpoint images: every way an image can be wrong maps to
//! the matching typed error when a sweep resumes from it — never a panic,
//! and never a sweep resumed from cells recorded for another experiment.
//!
//! The images are written here by hand in the documented layout (the
//! `RGSH` header, then one `Option<(workload, SimStats)>` slot per cell in
//! row-major order), so a layout change in the writer fails these tests
//! too.

use regshare_bench::checkpoint::{run_sweep, CheckpointError, Checkpointing};
use regshare_bench::{scenario_digest, RunOptions, Scenario, VariantSpec};
use regshare_core::SimStats;
use regshare_types::snapshot::{
    write_header, Snap, SnapError, SnapWriter, FORMAT_VERSION, SNAPSHOT,
};

/// Header layout: magic `[0..4]`, version `[4..8]`, digest `[8..16]`.
const VERSION_OFFSET: usize = 4;
const DIGEST_OFFSET: usize = 8;
const HEADER_LEN: usize = 16;

fn scenario() -> Scenario {
    Scenario::builder("image_errors")
        .options(RunOptions::default().warmup(300).measure(900).jobs(2))
        .workloads(&["crafty", "hmmer"])
        .variant("base", VariantSpec::hpca16())
        .variant("both", VariantSpec::preset("me_smb"))
        .build()
        .unwrap()
}

/// A complete image for `scenario`: every cell recorded, so a resume that
/// accepts it measures nothing.
fn full_image(scenario: &Scenario) -> Vec<u8> {
    let cells: Vec<Option<(String, SimStats)>> = ["crafty", "crafty", "hmmer", "hmmer"]
        .iter()
        .map(|name| Some((name.to_string(), SimStats::default())))
        .collect();
    let mut w = SnapWriter::new();
    write_header(&mut w, SNAPSHOT, scenario_digest(scenario));
    cells.encode(&mut w);
    w.finish()
}

/// Writes `bytes` to a per-test file and resumes `scenario` from it.
fn resume(tag: &str, scenario: &Scenario, bytes: &[u8]) -> Result<(), CheckpointError> {
    let path = std::env::temp_dir()
        .join(format!("regshare-image-{}-{tag}.ckpt", std::process::id()))
        .to_str()
        .unwrap()
        .to_string();
    std::fs::write(&path, bytes).unwrap();
    let plan = Checkpointing {
        resume: Some(path.clone()),
        ..Checkpointing::default()
    };
    let result = run_sweep(scenario, &plan).map(|_| ());
    let _ = std::fs::remove_file(&path);
    result
}

fn image_error(result: Result<(), CheckpointError>) -> SnapError {
    match result {
        Err(CheckpointError::Snapshot(e)) => e,
        other => panic!("expected an image decode error, got {other:?}"),
    }
}

#[test]
fn every_corruption_yields_the_matching_typed_error() {
    let s = scenario();
    let bytes = full_image(&s);
    resume("intact", &s, &bytes).expect("the intact image resumes");

    struct Case {
        name: &'static str,
        mutate: fn(Vec<u8>) -> Vec<u8>,
        expect: fn(&SnapError) -> bool,
    }
    let cases = [
        Case {
            name: "foreign magic",
            mutate: |mut b| {
                b[0] ^= 0xFF;
                b
            },
            expect: |e| matches!(e, SnapError::BadMagic { .. }),
        },
        Case {
            name: "future format version",
            mutate: |mut b| {
                b[VERSION_OFFSET..VERSION_OFFSET + 4]
                    .copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
                b
            },
            expect: |e| {
                matches!(
                    e,
                    SnapError::BadVersion { found, supported }
                        if *found == FORMAT_VERSION + 1 && *supported == FORMAT_VERSION
                )
            },
        },
        Case {
            name: "flipped scenario digest",
            mutate: |mut b| {
                b[DIGEST_OFFSET] ^= 0xFF;
                b
            },
            expect: |e| matches!(e, SnapError::ConfigDigestMismatch { .. }),
        },
        Case {
            name: "truncated mid-header",
            mutate: |b| b[..HEADER_LEN - 3].to_vec(),
            expect: |e| matches!(e, SnapError::ShortRead { .. }),
        },
        Case {
            name: "truncated mid-body",
            mutate: |b| {
                let keep = b.len() / 2;
                b[..keep].to_vec()
            },
            expect: |e| matches!(e, SnapError::ShortRead { .. } | SnapError::Corrupt { .. }),
        },
        Case {
            name: "last byte missing",
            mutate: |mut b| {
                b.pop();
                b
            },
            expect: |e| matches!(e, SnapError::ShortRead { .. } | SnapError::Corrupt { .. }),
        },
        Case {
            name: "trailing garbage",
            mutate: |mut b| {
                b.push(0xAB);
                b
            },
            expect: |e| matches!(e, SnapError::Corrupt { what, .. } if *what == "trailing bytes"),
        },
        Case {
            name: "empty stream",
            mutate: |_| Vec::new(),
            expect: |e| matches!(e, SnapError::ShortRead { .. }),
        },
    ];

    for case in &cases {
        let e = image_error(resume("case", &s, &(case.mutate)(bytes.clone())));
        assert!(
            (case.expect)(&e),
            "{}: wrong error variant: {e:?}",
            case.name
        );
    }
}

#[test]
fn wrong_configuration_is_refused_by_digest() {
    let s = scenario();
    let mut other = s.clone();
    other.variants[1].1 = VariantSpec::preset("me_smb").isrb_entries(24);
    let e = image_error(resume("config", &other, &full_image(&s)));
    assert!(matches!(e, SnapError::ConfigDigestMismatch { .. }), "{e:?}");
}

#[test]
fn wrong_program_is_refused_by_digest() {
    let s = scenario();
    let other = Scenario::builder("image_errors")
        .options(s.options)
        .workloads(&["crafty", "mcf"])
        .variant("base", VariantSpec::hpca16())
        .variant("both", VariantSpec::preset("me_smb"))
        .build()
        .unwrap();
    let e = image_error(resume("program", &other, &full_image(&s)));
    assert!(matches!(e, SnapError::ConfigDigestMismatch { .. }), "{e:?}");
}

/// Truncating the image at *any* prefix must produce a typed error, not a
/// panic or a successful resume.
#[test]
fn truncation_sweep_never_panics() {
    let s = scenario();
    let bytes = full_image(&s);
    for cut in 0..bytes.len() {
        image_error(resume("cut", &s, &bytes[..cut]));
    }
}

/// Flipping any byte after the header must never panic; it may fail with
/// a typed error or — for bytes that only affect recorded stats or empty
/// a slot — resume successfully.
#[test]
fn byte_flip_sweep_never_panics() {
    let s = scenario();
    let bytes = full_image(&s);
    for offset in (HEADER_LEN..bytes.len()).step_by(7) {
        let mut mutated = bytes.clone();
        mutated[offset] ^= 0x55;
        match resume("flip", &s, &mutated) {
            Ok(()) | Err(CheckpointError::Snapshot(_) | CheckpointError::Invalid(_)) => {}
            Err(other) => panic!("flip at {offset}: unexpected {other:?}"),
        }
    }
}
