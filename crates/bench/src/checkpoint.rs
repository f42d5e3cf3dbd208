//! Resumable sweeps: periodic on-disk checkpoints of a running scenario.
//!
//! A checkpointed run writes a single image file as it goes: the list of
//! already-measured cells plus — mid-cell — a complete versioned machine
//! snapshot ([`Simulator::save_snapshot`]). Killing the process at any
//! point loses at most one checkpoint interval of committed µ-ops; resuming
//! with the same scenario finishes the sweep and produces output
//! **byte-identical** to an uninterrupted run (the commit budget is an
//! absolute committed-count target, so an observational checkpoint
//! callback cannot perturb the machine — see
//! [`Simulator::run_with_checkpoints`]).
//!
//! The image is pinned to its scenario by a digest header over the
//! scenario's canonical rendering with the window resolved and the
//! parallelism cleared, so resuming is robust to `--jobs` and to *where*
//! the window came from (flags, file, defaults) while a different
//! scenario or window is refused with a typed
//! [`SnapError::ConfigDigestMismatch`]. Each embedded machine snapshot
//! additionally self-validates against its (configuration, program) pair.
//!
//! Checkpointed execution is serial (one cell at a time, in the same
//! row-major order the parallel engine merges in); the measurement
//! protocol is identical, so the finished [`SweepGrid`] matches the
//! parallel engine's cell for cell. What to checkpoint is a run plan
//! ([`Checkpointing`]) passed beside the scenario, never part of it;
//! [`run_sweep`] falls back to the parallel engine when the plan requests
//! no checkpointing. On success the image file is deleted.

use crate::harness::Measurement;
use crate::report::render_report;
use crate::scenario::{Scenario, ScenarioError};
use crate::sweep::SweepGrid;
use regshare_core::{CoreConfig, SimStats, Simulator};
use regshare_isa::Program;
use regshare_types::snapshot::{
    read_header, write_header, Snap, SnapError, SnapReader, SnapWriter,
};
use std::num::NonZeroU64;

/// How one run of a scenario checkpoints: the CLI's `--checkpoint-every`,
/// `--checkpoint-file` and `--resume`. The default plan does none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpointing {
    /// Write an image every this many committed µ-ops.
    pub every: Option<NonZeroU64>,
    /// Where images are written; defaults to `resume`, else
    /// [`default_checkpoint_path`].
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
    /// different scenario/window (or its machine snapshot under a
    /// different configuration/program).
    Snapshot(SnapError),
    /// The image decoded cleanly but does not fit this scenario's sweep
    /// (e.g. more completed cells than the matrix has, or a recorded cell
    /// name that is not the workload at that position).
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

/// The decoded image payload: measured cells in row-major order plus an
/// optional mid-cell machine state.
struct Image {
    /// Checkpoint interval the writing run used (committed µ-ops).
    interval: u64,
    /// Finished cells, a prefix of the row-major (workload × variant)
    /// order; `completed.len()` is the next cell index.
    completed: Vec<(String, SimStats)>,
    /// In-flight cell `completed.len()`: warmup-end stats (`None` while
    /// still warming up) and the machine snapshot bytes.
    in_progress: Option<(Option<SimStats>, Vec<u8>)>,
}

fn encode_image(digest: u64, image: &Image) -> Vec<u8> {
    let mut w = SnapWriter::new();
    write_header(&mut w, digest);
    w.put_u64(image.interval);
    image.completed.encode(&mut w);
    image.in_progress.encode(&mut w);
    w.finish()
}

fn decode_image(bytes: &[u8], digest: u64) -> Result<Image, SnapError> {
    let mut r = SnapReader::new(bytes);
    read_header(&mut r, digest)?;
    let interval = r.get_u64()?;
    if interval == 0 {
        return Err(r.corrupt("zero checkpoint interval"));
    }
    let completed = Snap::decode(&mut r)?;
    let in_progress = Snap::decode(&mut r)?;
    r.expect_eof()?;
    Ok(Image {
        interval,
        completed,
        in_progress,
    })
}

fn io_err(path: &str, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_string(),
        msg: e.to_string(),
    }
}

/// Writes the image atomically: a sibling `.tmp` file renamed over the
/// target, so a kill mid-write can never leave a torn checkpoint.
fn write_image(path: &str, digest: u64, image: &Image) -> Result<(), CheckpointError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, encode_image(digest, image)).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

fn load_image(path: &str, digest: u64) -> Result<Image, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckpointError::Missing {
                path: path.to_string(),
            }
        } else {
            io_err(path, e)
        }
    })?;
    Ok(decode_image(&bytes, digest)?)
}

/// The default image path when the caller names none: `<scenario>.ckpt`
/// in the working directory.
pub fn default_checkpoint_path(scenario: &Scenario) -> String {
    format!("{}.ckpt", scenario.name)
}

/// Runs the scenario's sweep under a checkpointing plan.
///
/// - Neither `every` nor `resume` set: the plain parallel engine
///   ([`Scenario::to_sweep`]), no files touched.
/// - `every = n`: serial resumable execution, writing the image to `file`
///   (default [`default_checkpoint_path`]) every `n` committed µ-ops and
///   after every finished cell; the file is deleted on success.
/// - `resume = path`: loads the image first and continues from it. A
///   requested interval overrides the recorded one. Subsequent
///   checkpoints go to `file` if given, else back to `path`.
///
/// # Errors
///
/// Typed [`CheckpointError`]s for invalid scenarios, missing/corrupt/
/// foreign images, and filesystem failures.
pub fn run_sweep(scenario: &Scenario, plan: &Checkpointing) -> Result<SweepGrid, CheckpointError> {
    scenario.validate()?;
    if plan.every.is_none() && plan.resume.is_none() {
        return Ok(scenario.to_sweep()?.run()?);
    }
    run_checkpointed(scenario, plan)
}

/// [`run_sweep`] plus the standard report rendering — the checkpoint-aware
/// equivalent of [`crate::run_scenario`].
pub fn run_report(scenario: &Scenario, plan: &Checkpointing) -> Result<String, CheckpointError> {
    let grid = run_sweep(scenario, plan)?;
    Ok(render_report(scenario, &grid)?)
}

fn run_checkpointed(
    scenario: &Scenario,
    plan: &Checkpointing,
) -> Result<SweepGrid, CheckpointError> {
    let workloads = scenario.resolve_workloads()?;
    let labels: Vec<String> = scenario.variants.iter().map(|(l, _)| l.clone()).collect();
    let mut configs: Vec<CoreConfig> = Vec::with_capacity(scenario.variants.len());
    for (label, spec) in &scenario.variants {
        configs.push(spec.to_config().map_err(|e| ScenarioError::InVariant {
            label: label.clone(),
            source: Box::new(e),
        })?);
    }
    let window = scenario.options.window();
    let digest = scenario_digest(scenario);
    let total = workloads.len() * labels.len();
    let path = plan
        .file
        .clone()
        .or_else(|| plan.resume.clone())
        .unwrap_or_else(|| default_checkpoint_path(scenario));
    let path = path.as_str();

    let mut interval = plan.every.map(NonZeroU64::get);
    let mut done: Vec<(String, SimStats)> = Vec::new();
    let mut in_progress: Option<(Option<SimStats>, Vec<u8>)> = None;
    if let Some(resume) = plan.resume.as_deref() {
        let image = load_image(resume, digest)?;
        interval = interval.or(Some(image.interval));
        done = image.completed;
        in_progress = image.in_progress;
        if done.len() > total || (done.len() == total && in_progress.is_some()) {
            return Err(CheckpointError::Invalid(format!(
                "{} completed cells recorded, sweep has {total}",
                done.len()
            )));
        }
        for (i, (name, _)) in done.iter().enumerate() {
            let expected = &workloads[i / labels.len()].name;
            if name != expected {
                return Err(CheckpointError::Invalid(format!(
                    "cell {i} records workload {name:?}, scenario has {expected:?}"
                )));
            }
        }
    }
    // A fresh run reaches here only with `every` set, and a resumed image
    // records the (non-zero) interval it was written with.
    let every = interval.expect("checkpointed run without an interval");

    let mut programs: Vec<Option<Program>> = workloads.iter().map(|_| None).collect();

    while done.len() < total {
        let i = done.len();
        let (w, v) = (i / labels.len(), i % labels.len());
        let program = &*programs[w].get_or_insert_with(|| workloads[w].build());
        let name = workloads[w].name.clone();
        let cfg = configs[v].clone();

        let (mut sim, mut warm) = match in_progress.take() {
            Some((warm, machine)) => (Simulator::resume_from(program, cfg, &machine)?, warm),
            None => (Simulator::new(program, cfg), None),
        };

        // Warmup phase. The commit budget is absolute, so resuming at
        // `committed` µ-ops and running the remainder reproduces the
        // uninterrupted run exactly.
        if warm.is_none() {
            let committed = sim.stats().committed;
            let warm_stats = sim.run_with_checkpoints(window.warmup - committed, every, |s| {
                let _ = write_image(
                    path,
                    digest,
                    &Image {
                        interval: every,
                        completed: done.clone(),
                        in_progress: Some((None, s.save_snapshot())),
                    },
                );
            });
            warm = Some(warm_stats);
        }
        let warm_stats = warm.expect("warmup stats recorded");

        // Measure phase, against the absolute warmup+measure target.
        let committed = sim.stats().committed;
        let target = window.warmup + window.measure;
        let end = sim.run_with_checkpoints(target - committed, every, |s| {
            let _ = write_image(
                path,
                digest,
                &Image {
                    interval: every,
                    completed: done.clone(),
                    in_progress: Some((Some(warm_stats), s.save_snapshot())),
                },
            );
        });
        done.push((name, end.delta_since(&warm_stats)));

        // A cell boundary is always durable, even with a huge interval.
        write_image(
            path,
            digest,
            &Image {
                interval: every,
                completed: done.clone(),
                in_progress: None,
            },
        )?;
    }

    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err(path, e)),
    }

    let cells = done
        .into_iter()
        .map(|(name, stats)| Measurement { name, stats })
        .collect();
    Ok(SweepGrid::from_parts(workloads, labels, cells)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::RunOptions;
    use crate::scenario::VariantSpec;

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

    #[test]
    fn checkpointed_run_matches_the_parallel_engine_and_cleans_up() {
        let plain = tiny("ckpt_eq");
        let reference = plain.to_sweep().unwrap().run().unwrap();

        // A short interval fires the writer many times per cell; the
        // observational hook must not perturb a single statistic.
        let path = tmp_path("eq");
        let plan = Checkpointing {
            every: NonZeroU64::new(100),
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
    fn resume_mid_cell_reproduces_the_uninterrupted_grid() {
        let plain = tiny("ckpt_resume");
        let reference = plain.to_sweep().unwrap().run().unwrap();
        let digest = scenario_digest(&plain);
        let window = plain.options.window();

        // Hand-craft the image a killed run would have left behind:
        // cell 0 finished, cell 1 (crafty/both) killed mid-measure.
        let program = regshare_workloads::try_by_names(&["crafty".to_string()]).unwrap()[0].build();
        let base_cfg = plain.variants[0].1.to_config().unwrap();
        let both_cfg = plain.variants[1].1.to_config().unwrap();

        let mut sim = Simulator::new(&program, base_cfg);
        let warm = sim.run(window.warmup);
        let end = sim.run(window.measure);
        let cell0 = ("crafty".to_string(), end.delta_since(&warm));

        let mut sim = Simulator::new(&program, both_cfg);
        let warm1 = sim.run(window.warmup);
        sim.run(700); // mid-measure
        let image = Image {
            interval: 250,
            completed: vec![cell0],
            in_progress: Some((Some(warm1), sim.save_snapshot())),
        };
        let path = tmp_path("resume");
        write_image(&path, digest, &image).unwrap();

        let grid = run_sweep(&plain, &resume(&path)).unwrap();
        assert_same_grid(&grid, &reference);
        assert!(!std::path::Path::new(&path).exists());
    }

    #[test]
    fn foreign_or_broken_images_fail_with_typed_errors() {
        let s = tiny("ckpt_err");
        let digest = scenario_digest(&s);
        let empty = Image {
            interval: 100,
            completed: Vec::new(),
            in_progress: None,
        };

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

        // Truncated image → typed decode error.
        let bytes = encode_image(digest, &empty);
        for cut in [3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_image(&bytes[..cut], digest).is_err(), "cut {cut}");
        }

        // More completed cells than the sweep has.
        let fat = Image {
            interval: 100,
            completed: (0..5)
                .map(|_| ("crafty".to_string(), SimStats::default()))
                .collect(),
            in_progress: None,
        };
        write_image(&path, digest, &fat).unwrap();
        assert!(matches!(
            run_sweep(&s, &resumed).unwrap_err(),
            CheckpointError::Invalid(_)
        ));

        // A recorded cell naming the wrong workload.
        let misnamed = Image {
            interval: 100,
            completed: vec![("hmmer".to_string(), SimStats::default())],
            in_progress: None,
        };
        write_image(&path, digest, &misnamed).unwrap();
        assert!(matches!(
            run_sweep(&s, &resumed).unwrap_err(),
            CheckpointError::Invalid(_)
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
