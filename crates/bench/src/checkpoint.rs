//! Resumable sweeps: an on-disk record of every finished cell.
//!
//! Every cell of a sweep is a short, independent, deterministic
//! warmup + measure run, so a finished cell's stats are all the progress
//! a crash needs to keep. A checkpointed run is the ordinary parallel
//! sweep plus an image write after each finished cell. The image holds one
//! slot per (workload × variant) cell in row-major order — the cell's
//! [`Measurement`] (workload name and measured stats) once it has
//! finished, empty until then. It is written when the run starts and rewritten atomically after
//! every finished cell, so a kill at any point loses only the cells in
//! flight. Resuming re-runs just the cells the image does not hold, at any
//! `--jobs`; since each cell is a pure function of (program,
//! configuration, window), the finished [`SweepGrid`] and its report are
//! **byte-identical** to an uninterrupted run. On success the image file
//! is deleted.
//!
//! The image is pinned to its scenario by a digest header over the
//! scenario's canonical rendering with the window resolved and the
//! parallelism cleared, so resuming is robust to `--jobs` and to *where*
//! the window came from (flags, file, defaults) while a different
//! scenario or window is refused with a typed
//! [`SnapError::ConfigDigestMismatch`].
//!
//! What to checkpoint is a run plan ([`Checkpointing`]) passed beside the
//! scenario, never part of it; [`run_sweep`] is the plain parallel sweep
//! when the plan names no image.

use crate::harness::Measurement;
use crate::report::render_report;
use crate::scenario::{Scenario, ScenarioError};
use crate::sweep::SweepGrid;
use regshare_types::snapshot::{
    read_header, write_header, Snap, SnapError, SnapReader, SnapWriter, SNAPSHOT,
};
use std::sync::Mutex;

/// How one run of a scenario checkpoints: the CLI's `--checkpoint-file`
/// and `--resume`. Naming either turns checkpointing on; the default plan
/// does none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpointing {
    /// Where the image is written; defaults to `resume`.
    pub file: Option<String>,
    /// Continue from this image, written by an earlier checkpointed run of
    /// the same scenario.
    pub resume: Option<String>,
}

/// Any way a checkpointed run can fail: an invalid scenario, a malformed
/// or mismatched image, or filesystem trouble.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The scenario itself is invalid.
    Scenario(ScenarioError),
    /// The image file is corrupt, truncated, or recorded under a
    /// different scenario/window.
    Snapshot(SnapError),
    /// The image decoded cleanly but does not fit this scenario's sweep
    /// (a slot count other than the matrix's cell count, or a recorded
    /// cell name that is not the workload at that position).
    Invalid(String),
    /// The resume path names a file that does not exist.
    Missing {
        /// The path given.
        path: String,
    },
    /// The checkpoint file could not be read, written, or replaced.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        msg: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Scenario(e) => write!(f, "{e}"),
            CheckpointError::Snapshot(e) => write!(f, "bad checkpoint image: {e}"),
            CheckpointError::Invalid(msg) => write!(f, "checkpoint does not fit scenario: {msg}"),
            CheckpointError::Missing { path } => {
                write!(f, "nothing to resume: {path:?} does not exist")
            }
            CheckpointError::Io { path, msg } => write!(f, "checkpoint file {path:?}: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Scenario(e) => Some(e),
            CheckpointError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScenarioError> for CheckpointError {
    fn from(e: ScenarioError) -> CheckpointError {
        CheckpointError::Scenario(e)
    }
}

impl From<SnapError> for CheckpointError {
    fn from(e: SnapError) -> CheckpointError {
        CheckpointError::Snapshot(e)
    }
}

impl From<crate::sweep::SweepError> for CheckpointError {
    fn from(e: crate::sweep::SweepError) -> CheckpointError {
        CheckpointError::Scenario(ScenarioError::Sweep(e))
    }
}

// The digest pinning an image to its scenario lives in the shared digest
// module, so checkpoint images and the serve daemon's result cache key
// experiments identically.
pub use crate::digest::scenario_digest;

/// One image slot: the finished cell's workload name and stats.
type Cell = Option<Measurement>;

/// The image: the header, then one [`Cell`] per sweep cell, row-major.
fn encode_image(digest: u64, cells: &[Cell]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    write_header(&mut w, SNAPSHOT, digest);
    w.put_len(cells.len());
    for cell in cells {
        cell.encode(&mut w);
    }
    w.finish()
}

fn decode_image(bytes: &[u8], digest: u64) -> Result<Vec<Cell>, SnapError> {
    let mut r = SnapReader::new(bytes);
    read_header(&mut r, SNAPSHOT, digest)?;
    let cells = Snap::decode(&mut r)?;
    r.expect_eof()?;
    Ok(cells)
}

fn io_err(path: &str, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_string(),
        msg: e.to_string(),
    }
}

/// Writes the image atomically: a sibling `.tmp` file renamed over the
/// target, so a kill mid-write can never leave a torn checkpoint.
fn write_image(path: &str, digest: u64, cells: &[Cell]) -> Result<(), CheckpointError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, encode_image(digest, cells)).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Loads an image and checks it against the sweep's row-major cell
/// workloads.
fn load_image(path: &str, digest: u64, workloads: &[String]) -> Result<Vec<Cell>, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckpointError::Missing {
                path: path.to_string(),
            }
        } else {
            io_err(path, e)
        }
    })?;
    let cells = decode_image(&bytes, digest)?;
    if cells.len() != workloads.len() {
        return Err(CheckpointError::Invalid(format!(
            "image has {} cells, sweep has {}",
            cells.len(),
            workloads.len()
        )));
    }
    for (i, (cell, expected)) in cells.iter().zip(workloads).enumerate() {
        if let Some(m) = cell.as_ref().filter(|m| m.name != *expected) {
            return Err(CheckpointError::Invalid(format!(
                "cell {i} records workload {:?}, scenario has {expected:?}",
                m.name
            )));
        }
    }
    Ok(cells)
}

/// Runs the scenario's sweep under a checkpointing plan.
///
/// - Neither `file` nor `resume` set: the plain parallel engine
///   ([`Scenario::to_sweep`]), no files touched.
/// - `file = path`: the same engine, writing the image to `path` at the
///   start and after every finished cell; the file is deleted on success.
/// - `resume = path`: loads the image first and measures only the cells
///   it does not hold. Images go to `file` if given, else back to `path`.
///
/// # Errors
///
/// Typed [`CheckpointError`]s for invalid scenarios, missing/corrupt/
/// foreign images, failed cells, and filesystem failures. A failed run
/// leaves its image behind, so a resume measures only what is missing.
pub fn run_sweep(scenario: &Scenario, plan: &Checkpointing) -> Result<SweepGrid, CheckpointError> {
    let spec = scenario.to_sweep()?;
    let Some(path) = plan.file.as_deref().or(plan.resume.as_deref()) else {
        return Ok(spec.run()?);
    };
    let digest = scenario_digest(scenario);
    let workloads = spec.cell_workloads();
    let cells = match plan.resume.as_deref() {
        Some(resume) => load_image(resume, digest, &workloads)?,
        None => vec![None; workloads.len()],
    };
    write_image(path, digest, &cells)?;

    // The image as it stands, and the first failed write (reported once
    // every cell is done).
    let image = Mutex::new((cells.clone(), None));
    let grid = spec.run_resumed(cells, |i, m| {
        let mut image = image.lock().expect("image writer does not panic");
        let (cells, failed) = &mut *image;
        cells[i] = Some(m.clone());
        if let Err(e) = write_image(path, digest, cells) {
            failed.get_or_insert(e);
        }
    })?;
    if let (_, Some(e)) = image.into_inner().expect("image writer does not panic") {
        return Err(e);
    }

    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err(path, e)),
    }
    Ok(grid)
}

/// [`run_sweep`] plus the standard report rendering — the checkpoint-aware
/// equivalent of [`crate::run_scenario`].
pub fn run_report(scenario: &Scenario, plan: &Checkpointing) -> Result<String, CheckpointError> {
    let grid = run_sweep(scenario, plan)?;
    Ok(render_report(scenario, &grid)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::RunOptions;
    use crate::scenario::VariantSpec;
    use regshare_core::{SimStats, Simulator};

    fn tiny(name: &str) -> Scenario {
        Scenario::builder(name)
            .options(RunOptions::default().warmup(500).measure(1_500).jobs(2))
            .workloads(&["crafty", "hmmer"])
            .variant("base", VariantSpec::hpca16())
            .variant("both", VariantSpec::preset("me_smb"))
            .build()
            .unwrap()
    }

    fn tmp_path(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("regshare-ckpt-{}-{tag}.ckpt", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    fn resume(path: &str) -> Checkpointing {
        Checkpointing {
            resume: Some(path.to_string()),
            ..Checkpointing::default()
        }
    }

    fn assert_same_grid(a: &SweepGrid, b: &SweepGrid) {
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.workloads().len(), b.workloads().len());
        for w in 0..a.workloads().len() {
            for label in a.labels() {
                assert_eq!(
                    a.get(w, label).unwrap().stats,
                    b.get(w, label).unwrap().stats,
                    "{label}/{w}"
                );
            }
        }
    }

    /// The row-major image slot of the reference grid's cell `i`.
    fn cell(grid: &SweepGrid, i: usize) -> Cell {
        Some(grid.get(i / 2, &grid.labels()[i % 2]).unwrap().clone())
    }

    #[test]
    fn checkpointed_run_matches_the_parallel_engine_and_cleans_up() {
        let plain = tiny("ckpt_eq");
        let reference = plain.to_sweep().unwrap().run().unwrap();

        let path = tmp_path("eq");
        let plan = Checkpointing {
            file: Some(path.clone()),
            resume: None,
        };
        let grid = run_sweep(&plain, &plan).unwrap();
        assert_same_grid(&grid, &reference);
        assert!(
            !std::path::Path::new(&path).exists(),
            "image not deleted after success"
        );
        // Reports are byte-identical too (the end-to-end CI contract).
        assert_eq!(
            run_report(&plain, &plan).unwrap(),
            render_report(&plain, &reference).unwrap()
        );
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_grid() {
        let plain = tiny("ckpt_resume");
        let reference = plain.to_sweep().unwrap().run().unwrap();
        let digest = scenario_digest(&plain);
        let window = plain.options.window();
        let path = tmp_path("resume");
        let resumes_to_reference = |scenario: &Scenario, cells: &[Cell]| {
            write_image(&path, digest, cells).unwrap();
            let grid = run_sweep(scenario, &resume(&path)).unwrap();
            assert_same_grid(&grid, &reference);
            assert!(!std::path::Path::new(&path).exists());
        };

        // Cell 0 (crafty/base) measured by hand, as two relative runs.
        let program = regshare_workloads::try_by_names(&["crafty".to_string()]).unwrap()[0].build();
        let base_cfg = plain.variants[0].1.to_config().unwrap();
        let mut sim = Simulator::new(&program, base_cfg);
        let warm = sim.run(window.warmup);
        let end = sim.run(window.measure);
        let cell0 = Some(Measurement {
            name: "crafty".to_string(),
            stats: end.delta_since(&warm),
        });

        // Killed before any cell finished: the image written at start.
        resumes_to_reference(&plain, &[None, None, None, None]);
        // Cells 0 and 3 done, as out-of-order workers leave it.
        resumes_to_reference(&plain, &[cell0.clone(), None, None, cell(&reference, 3)]);
        // Resumed at another worker count than the writer's.
        let mut serial = plain.clone();
        serial.options.jobs = Some(1);
        resumes_to_reference(&serial, &[cell0, cell(&reference, 1), None, None]);

        // Recorded cells are taken as they are, never re-measured.
        let sentinel = SimStats {
            cycles: 7,
            ..SimStats::default()
        };
        let mut cells = vec![None; 4];
        cells[2] = Some(Measurement {
            name: "hmmer".to_string(),
            stats: sentinel,
        });
        write_image(&path, digest, &cells).unwrap();
        let grid = run_sweep(&plain, &resume(&path)).unwrap();
        assert_eq!(grid.get(1, "base").unwrap().stats, sentinel);
        assert_eq!(
            grid.get(1, "both").unwrap().stats,
            reference.get(1, "both").unwrap().stats
        );
    }

    #[test]
    fn image_layout_is_pinned() {
        let bytes = encode_image(0x0102_0304_0506_0708, &[None]);
        // Header: magic, version 3 as u32 LE, digest as u64 LE; then the
        // slot count as u64 LE and one empty-slot tag.
        assert_eq!(
            bytes[..16],
            *b"RGSH\x03\0\0\0\x08\x07\x06\x05\x04\x03\x02\x01"
        );
        assert_eq!(bytes[16..], [1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            decode_image(&bytes, 0x0102_0304_0506_0708).as_deref(),
            Ok([None])
        ));
    }

    #[test]
    fn foreign_or_broken_images_fail_with_typed_errors() {
        let s = tiny("ckpt_err");
        let digest = scenario_digest(&s);
        let empty: Vec<Cell> = vec![None; 4];

        // Missing file.
        assert!(matches!(
            run_sweep(&s, &resume(&tmp_path("nonexistent"))).unwrap_err(),
            CheckpointError::Missing { .. }
        ));

        // Same scenario, different window → different digest, refused.
        let path = tmp_path("foreign");
        let mut other = s.clone();
        other.options = RunOptions::default().warmup(600).measure(1_500);
        write_image(&path, scenario_digest(&other), &empty).unwrap();
        let resumed = resume(&path);
        assert!(matches!(
            run_sweep(&s, &resumed).unwrap_err(),
            CheckpointError::Snapshot(SnapError::ConfigDigestMismatch { .. })
        ));

        // ...but the worker count does NOT change the digest.
        let mut replumbed = s.clone();
        replumbed.options.jobs = Some(7);
        assert_eq!(scenario_digest(&replumbed), digest);

        // An image the previous format version wrote is refused by version.
        let mut old = encode_image(digest, &empty);
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, old).unwrap();
        assert_eq!(
            run_sweep(&s, &resumed).unwrap_err(),
            CheckpointError::Snapshot(SnapError::BadVersion {
                found: 2,
                supported: 3
            })
        );

        // More or fewer slots than the sweep has cells.
        for n in [3, 5] {
            write_image(&path, digest, &vec![None; n]).unwrap();
            assert!(matches!(
                run_sweep(&s, &resumed).unwrap_err(),
                CheckpointError::Invalid(_)
            ));
        }

        // A recorded cell naming the wrong workload.
        let mut misnamed = empty.clone();
        misnamed[1] = Some(Measurement {
            name: "hmmer".to_string(),
            stats: SimStats::default(),
        });
        write_image(&path, digest, &misnamed).unwrap();
        assert!(matches!(
            run_sweep(&s, &resumed).unwrap_err(),
            CheckpointError::Invalid(_)
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
