//! Checkpointed sweeps: the parallel sweep run against the cell cache.
//!
//! Every cell of a sweep is a short, independent, deterministic
//! warmup + measure run, so a finished cell's stats are all the progress
//! a crash needs to keep — and that is exactly what the content-addressed
//! [`Cache`] holds. Given a cache directory, [`run_sweep`] looks every
//! cell up under its [`cell_digest`](crate::cell_digest), measures only
//! the misses on the ordinary parallel engine, and stores each one as soon
//! as it finishes. A kill loses only the cells in flight; a rerun on the
//! same directory measures just the missing cells, at any `--jobs`. Since
//! each cell is a pure function of (program, configuration, window), the
//! finished [`SweepGrid`] and its report are **byte-identical** to an
//! uninterrupted run. The directory is kept on success, and the serve
//! daemon may share it: a cell either one finished is a hit for the other.
//!
//! What to cache is a run plan (the CLI's `--cache-dir`) passed beside the
//! scenario, never part of it; [`run_sweep`] is the plain parallel sweep
//! when no directory is named.

use crate::cache::{Cache, CacheError};
use crate::harness::Measurement;
use crate::report::render_report;
use crate::scenario::{Scenario, ScenarioError};
use crate::sweep::SweepGrid;
use std::sync::Mutex;

/// Runs the scenario's sweep, checkpointed into `cache_dir` if one is
/// named (created if missing): cells the directory holds are taken as
/// they are, and every cell measured is stored the moment it finishes.
/// A damaged entry is discarded and its cell recomputed
/// ([`Cache::lookup`]).
///
/// # Errors
///
/// [`ScenarioError`]s for invalid scenarios and failed cells, and
/// [`ScenarioError::Cache`] for a directory that cannot be opened or
/// written, or for an asm `path` scenario ([`CacheError::HostPath`]),
/// which is refused before any cell runs. Cells stored before a failure
/// stay in the directory, so a rerun measures only what is missing.
pub fn run_sweep(scenario: &Scenario, cache_dir: Option<&str>) -> Result<SweepGrid, ScenarioError> {
    let spec = scenario.to_sweep()?;
    let Some(dir) = cache_dir else {
        return Ok(spec.run()?);
    };
    if let Some(path) = scenario.host_path() {
        return Err(CacheError::HostPath {
            path: path.to_string(),
        }
        .into());
    }
    let cache = Cache::open(dir, None)?;
    let keys = spec.cell_keys();
    let cells = keys
        .iter()
        .map(|(name, key)| {
            let stats = cache.lookup(*key, name)?;
            Some(Measurement {
                name: name.clone(),
                stats,
            })
        })
        .collect();
    // The first failed store, reported once every cell is done.
    let failed = Mutex::new(None);
    let grid = spec.run_resumed(cells, |i, m| {
        if let Err(e) = cache.store(keys[i].1, &m.name, &m.stats) {
            failed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(e);
        }
    })?;
    match failed.into_inner().unwrap_or_else(|e| e.into_inner()) {
        Some(e) => Err(e.into()),
        None => Ok(grid),
    }
}

/// [`run_sweep`] plus the standard report rendering.
pub fn run_report(scenario: &Scenario, cache_dir: Option<&str>) -> Result<String, ScenarioError> {
    let grid = run_sweep(scenario, cache_dir)?;
    Ok(render_report(scenario, &grid)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::cell_digest;
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

    /// A fresh, empty per-test directory path.
    fn tmp_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("regshare-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_string()
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

    /// The cache key of the tiny scenario's row-major cell `i`.
    fn key(scenario: &Scenario, i: usize) -> u64 {
        let (workload, variant) = (&scenario.workloads[i / 2], &scenario.variants[i % 2].1);
        cell_digest(
            workload,
            &variant.to_config().unwrap(),
            scenario.options.window(),
        )
    }

    #[test]
    fn checkpointed_run_matches_the_parallel_engine_and_cleans_up() {
        let plain = tiny("ckpt_eq");
        let reference = plain.to_sweep().unwrap().run().unwrap();

        let dir = tmp_dir("eq");
        let grid = run_sweep(&plain, Some(&dir)).unwrap();
        assert_same_grid(&grid, &reference);
        // One entry per cell and no temp file left behind; the directory
        // itself is kept for the next run or a daemon.
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let mut expected: Vec<String> = (0..4)
            .map(|i| format!("{:016x}.cell", key(&plain, i)))
            .collect();
        expected.sort();
        assert_eq!(files, expected);
        // Reports are byte-identical too (the end-to-end CI contract),
        // and so is the rerun served entirely from the directory.
        let report = render_report(&plain, &reference).unwrap();
        assert_eq!(run_report(&plain, Some(&dir)).unwrap(), report);
        assert_eq!(run_report(&plain, None).unwrap(), report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_grid() {
        let plain = tiny("ckpt_resume");
        let reference = plain.to_sweep().unwrap().run().unwrap();
        let window = plain.options.window();
        let dir = tmp_dir("resume");
        let reference_cell = |i: usize| reference.get(i / 2, &reference.labels()[i % 2]).unwrap();
        // Pre-fills a fresh directory with `cells`, as a killed run leaves
        // it, then reruns `scenario` on it.
        let rerun = |scenario: &Scenario, cells: &[(usize, &Measurement)]| {
            let _ = std::fs::remove_dir_all(&dir);
            let cache = Cache::open(&dir, None).unwrap();
            for (i, m) in cells {
                cache.store(key(&plain, *i), &m.name, &m.stats).unwrap();
            }
            run_sweep(scenario, Some(&dir)).unwrap()
        };

        // Cell 0 (crafty/base) measured by hand, as two relative runs.
        let program = regshare_workloads::try_by_names(&["crafty".to_string()]).unwrap()[0].build();
        let base_cfg = plain.variants[0].1.to_config().unwrap();
        let mut sim = Simulator::new(&program, base_cfg);
        let warm = sim.run(window.warmup);
        let end = sim.run(window.measure);
        let cell0 = Measurement {
            name: "crafty".to_string(),
            stats: end.delta_since(&warm),
        };

        // Killed before any cell finished.
        assert_same_grid(&rerun(&plain, &[]), &reference);
        // Cells 0 and 3 done, as out-of-order workers leave it.
        assert_same_grid(
            &rerun(&plain, &[(0, &cell0), (3, reference_cell(3))]),
            &reference,
        );
        // Rerun at another worker count than the writer's.
        let mut serial = plain.clone();
        serial.options.jobs = Some(1);
        assert_same_grid(
            &rerun(&serial, &[(0, &cell0), (1, reference_cell(1))]),
            &reference,
        );

        // Stored cells are taken as they are, never re-measured.
        let sentinel = Measurement {
            name: "hmmer".to_string(),
            stats: SimStats {
                cycles: 7,
                ..SimStats::default()
            },
        };
        let grid = rerun(&plain, &[(2, &sentinel)]);
        assert_eq!(grid.get(1, "base").unwrap().stats, sentinel.stats);
        assert_eq!(
            grid.get(1, "both").unwrap().stats,
            reference.get(1, "both").unwrap().stats
        );

        // A damaged entry is discarded and its cell recomputed — and
        // stored again, intact.
        let path = Cache::open(&dir, None).unwrap().entry_path(key(&plain, 2));
        std::fs::write(&path, b"RGSC\x01").unwrap();
        assert_same_grid(&run_sweep(&plain, Some(&dir)).unwrap(), &reference);
        let cache = Cache::open(&dir, None).unwrap();
        assert_eq!(
            cache.load(key(&plain, 2), "hmmer"),
            Ok(Some(reference_cell(2).stats))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn host_paths_and_unusable_directories_fail_with_typed_errors() {
        // An asm file from the host is named by its stem, like the
        // embedded kernel: refused before any cell runs or is stored.
        let asm = Scenario::builder("ckpt_asm_path")
            .options(RunOptions::default().warmup(500).measure(1_500))
            .asm_path(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../programs/quicksort.asm"
            ))
            .variant("base", VariantSpec::hpca16())
            .build()
            .unwrap();
        let dir = tmp_dir("asm");
        assert!(matches!(
            run_sweep(&asm, Some(&dir)).unwrap_err(),
            ScenarioError::Cache(CacheError::HostPath { .. })
        ));
        assert!(!std::path::Path::new(&dir).exists(), "nothing was written");
        // Without a cache directory the same scenario runs.
        assert!(run_sweep(&asm, None).is_ok());

        // A directory path that is a regular file.
        let file = tmp_dir("file");
        std::fs::write(&file, b"").unwrap();
        assert!(matches!(
            run_sweep(&tiny("ckpt_file"), Some(&file)).unwrap_err(),
            ScenarioError::Cache(CacheError::Io { .. })
        ));
        std::fs::remove_file(&file).unwrap();
    }
}
