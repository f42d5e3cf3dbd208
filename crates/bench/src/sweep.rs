//! Deterministic parallel sweep engine.
//!
//! Every figure in the paper's evaluation is a (workload × configuration)
//! matrix. A [`SweepSpec`] declares that matrix once — a list of workloads
//! and a list of labelled [`Variant`] core configurations — and [`SweepSpec::run`]
//! expands it into independent jobs, shards them across a `std::thread`
//! worker pool, and merges the results back **in spec order** into a
//! [`SweepGrid`].
//!
//! Determinism: each job is a pure function of (program, config, window), so
//! scheduling order cannot affect any individual result, and because the
//! grid is assembled by job index rather than completion order, the rendered
//! tables and `csv:` blocks are byte-identical whether the sweep runs on one
//! thread or sixteen. [`SweepSpec::jobs`] sets the worker count (default:
//! available parallelism).
//!
//! Programs are memoized per workload: each of the synthetic programs is
//! built exactly once (lazily, by whichever worker first needs it) and
//! shared read-only across every configuration variant.
//!
//! A sweep may run against the content-addressed cell [`Cache`] (what
//! `Scenario::run` does under `--cache-dir`): each worker looks its cell
//! up under [`cell_digest`], measures only on a miss, and stores the
//! result at once — so a workload whose cells are all hits is never built.

use crate::cache::{Cache, CacheError};
use crate::digest::cell_digest;
use crate::harness::{measure_program, Measurement, RunWindow};
use crate::options::RunOptions;
use regshare_core::CoreConfig;
use regshare_isa::Program;
use regshare_types::stats::{geomean, speedup_pct};
use regshare_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};

/// Any way a sweep can fail at run time: a grid accessor asked for a label
/// the spec never declared, a worker job died (a simulator bug surfaced as
/// a panic — caught so long-running callers like the serve daemon degrade
/// to an error reply instead of aborting), hand-assembled cells with the
/// wrong shape, or a cell the cache could not store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// A label no variant of this sweep carries.
    UnknownVariant {
        /// The unresolvable label.
        label: String,
    },
    /// One (workload × variant) job panicked instead of measuring.
    JobFailed {
        /// The workload's name.
        workload: String,
        /// The variant's label.
        label: String,
        /// The panic payload, if it was a string.
        detail: String,
    },
    /// [`SweepGrid::from_parts`] got a cell count that does not match
    /// `workloads × labels`.
    Shape {
        /// `workloads.len() * labels.len()`.
        expected: usize,
        /// The cell count actually supplied.
        got: usize,
    },
    /// The first cell a cached sweep could not store, reported once every
    /// cell is done (the cells stored before it stay in the cache).
    Cache(CacheError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownVariant { label } => {
                write!(f, "unknown sweep variant {label:?}")
            }
            SweepError::JobFailed {
                workload,
                label,
                detail,
            } => write!(f, "sweep job {workload}/{label} failed: {detail}"),
            SweepError::Shape { expected, got } => write!(
                f,
                "grid shape mismatch: expected {expected} cells, got {got}"
            ),
            SweepError::Cache(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Renders a caught panic payload into a human-readable detail string
/// (used for [`SweepError::JobFailed`], and by the serve daemon's
/// per-cell failure reporting).
pub fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// One labelled core configuration of a sweep.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Column label (used by [`SweepGrid::get`] / row accessors).
    pub label: String,
    /// The configuration to measure.
    pub cfg: CoreConfig,
}

/// A declarative (workloads × variants) sweep.
///
/// # Examples
///
/// ```
/// use regshare_bench::{RunWindow, SweepSpec};
/// use regshare_core::CoreConfig;
/// use regshare_workloads::mini;
///
/// let grid = SweepSpec::new(vec![mini()], RunWindow { warmup: 500, measure: 1_500 })
///     .variant("base", CoreConfig::hpca16())
///     .variant("both", CoreConfig::hpca16().with_me().with_smb())
///     .jobs(2)
///     .run()
///     .unwrap();
/// let row = grid.rows().next().unwrap();
/// assert!(row.get("base").unwrap().ipc() > 0.0);
/// assert!(row.get("both").unwrap().ipc() > 0.0);
/// ```
#[derive(Debug)]
pub struct SweepSpec {
    workloads: Vec<Workload>,
    variants: Vec<Variant>,
    window: RunWindow,
    jobs: Option<usize>,
    cache: Option<Cache>,
}

impl SweepSpec {
    /// Creates a spec over `workloads` with no variants yet.
    pub fn new(workloads: Vec<Workload>, window: RunWindow) -> SweepSpec {
        SweepSpec {
            workloads,
            variants: Vec::new(),
            window,
            jobs: None,
            cache: None,
        }
    }

    /// Appends a labelled configuration column.
    ///
    /// # Panics
    ///
    /// Panics if `label` is already taken — a duplicate would silently
    /// shadow the later variant's measurements in every grid accessor.
    pub fn variant(mut self, label: impl Into<String>, cfg: CoreConfig) -> SweepSpec {
        let label = label.into();
        assert!(
            self.variants.iter().all(|v| v.label != label),
            "duplicate sweep variant label {label:?}"
        );
        self.variants.push(Variant { label, cfg });
        self
    }

    /// Overrides the worker count (otherwise available parallelism
    /// decides).
    pub fn jobs(mut self, jobs: usize) -> SweepSpec {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Runs against `cache`: cells it holds are taken as they are, and
    /// every cell measured is stored the moment it finishes.
    pub(crate) fn cache(mut self, cache: Cache) -> SweepSpec {
        self.cache = Some(cache);
        self
    }

    /// The worker count this spec will run with.
    pub fn job_count(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| RunOptions::default().job_count())
    }

    /// Expands the matrix into jobs, runs them on the worker pool, and
    /// merges the measurements back in spec order.
    ///
    /// A worker panic (a simulator bug) is caught and reported as
    /// [`SweepError::JobFailed`] naming the cell, so long-running callers
    /// — the serve daemon above all — degrade to an error instead of
    /// aborting the process. Under a cache, a damaged entry is discarded
    /// and its cell measured ([`Cache::lookup`]), and the first failed
    /// store is returned as [`SweepError::Cache`] once every cell is done.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no variants (an API-misuse bug in the
    /// caller; every scenario front door rejects it long before here).
    pub fn run(self) -> Result<SweepGrid, SweepError> {
        assert!(
            !self.variants.is_empty(),
            "sweep spec needs at least one variant"
        );
        let n_variants = self.variants.len();
        // Lazy per-workload program memoization: built once by whichever
        // worker first misses, shared read-only by all variants.
        let programs: Vec<OnceLock<Program>> =
            self.workloads.iter().map(|_| OnceLock::new()).collect();
        let failed_store = Mutex::new(None);
        let cells = par_map(self.workloads.len() * n_variants, self.job_count(), |i| {
            let (workload, variant) = (
                &self.workloads[i / n_variants],
                &self.variants[i % n_variants],
            );
            let name = workload.name.as_str();
            let cached = self
                .cache
                .as_ref()
                .map(|cache| (cache, cell_digest(name, &variant.cfg, self.window)));
            if let Some(stats) = cached.and_then(|(cache, key)| cache.lookup(key, name)) {
                return Ok(Measurement {
                    name: name.to_string(),
                    stats,
                });
            }
            // The only shared state is the program cache; a panicked
            // job leaves it usable, so AssertUnwindSafe holds.
            let cell = catch_unwind(AssertUnwindSafe(|| {
                let program = programs[i / n_variants].get_or_init(|| workload.build());
                measure_program(name, program, variant.cfg.clone(), self.window)
            }))
            .map_err(|payload| SweepError::JobFailed {
                workload: workload.name.clone(),
                label: variant.label.clone(),
                detail: panic_detail(payload),
            })?;
            if let Some((cache, key)) = cached {
                if let Err(e) = cache.store(key, name, &cell.stats) {
                    failed_store
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .get_or_insert(e);
                }
            }
            Ok(cell)
        });
        let cells = cells.into_iter().collect::<Result<_, _>>()?;
        if let Some(e) = failed_store.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(SweepError::Cache(e));
        }
        Ok(SweepGrid {
            cells,
            workloads: self.workloads,
            labels: self.variants.into_iter().map(|v| v.label).collect(),
        })
    }
}

/// Maps `f` over `0..n` on up to `jobs` scoped worker threads and returns
/// the results **in index order**, whatever order they finished in — the
/// one thread pool behind the sweep engine and the fuzz runner. Workers
/// claim indices from a shared counter, so one slow job never idles the
/// others. A panic in `f` reaches the caller once every worker has
/// stopped; callers that must survive one catch it inside `f`.
pub(crate) fn par_map<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = jobs.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The receiver outlives every sender inside this scope.
                let _ = tx.send((i, f(i)));
            });
        }
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index is claimed by a worker"))
        .collect()
}

/// The completed (workload × variant) measurement matrix, in spec order.
#[derive(Debug)]
pub struct SweepGrid {
    workloads: Vec<Workload>,
    labels: Vec<String>,
    /// Row-major: `cells[w * labels.len() + v]`.
    cells: Vec<Measurement>,
}

impl SweepGrid {
    /// Assembles a grid from already-measured cells in row-major order
    /// (`cells[w * labels.len() + v]`) — the merge path for cells obtained
    /// outside the parallel engine: the serve daemon's cache-aware
    /// scheduler.
    ///
    /// Rejects a cell count that does not match `workloads × labels` with
    /// [`SweepError::Shape`] instead of asserting, so the daemon's merge
    /// path cannot abort the process.
    pub fn from_parts(
        workloads: Vec<Workload>,
        labels: Vec<String>,
        cells: Vec<Measurement>,
    ) -> Result<SweepGrid, SweepError> {
        let expected = workloads.len() * labels.len();
        if cells.len() != expected {
            return Err(SweepError::Shape {
                expected,
                got: cells.len(),
            });
        }
        Ok(SweepGrid {
            workloads,
            labels,
            cells,
        })
    }

    /// The workloads, in spec order.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The variant labels, in spec order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    fn variant_index(&self, label: &str) -> Result<usize, SweepError> {
        self.labels
            .iter()
            .position(|l| l == label)
            .ok_or_else(|| SweepError::UnknownVariant {
                label: label.to_string(),
            })
    }

    /// The measurement for workload index `w` under `label`; a label the
    /// spec never declared is [`SweepError::UnknownVariant`], not a panic.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range workload index.
    pub fn get(&self, w: usize, label: &str) -> Result<&Measurement, SweepError> {
        Ok(&self.cells[w * self.labels.len() + self.variant_index(label)?])
    }

    /// The measurement for the workload named `name` under `label`;
    /// `None` if either name is absent from this sweep.
    pub fn by_name(&self, name: &str, label: &str) -> Option<&Measurement> {
        let w = self.workloads.iter().position(|wl| wl.name == name)?;
        self.get(w, label).ok()
    }

    /// Iterates rows (one per workload) in spec order.
    pub fn rows(&self) -> impl Iterator<Item = SweepRow<'_>> {
        (0..self.workloads.len()).map(move |w| SweepRow { grid: self, w })
    }

    /// Geomean speedup (percent) of `label` over `base` across all
    /// workloads of the sweep.
    pub fn geomean_speedup(&self, base: &str, label: &str) -> Result<f64, SweepError> {
        let mut ratios = Vec::with_capacity(self.workloads.len());
        for w in 0..self.workloads.len() {
            ratios.push(
                1.0 + speedup_pct(self.get(w, base)?.ipc(), self.get(w, label)?.ipc()) / 100.0,
            );
        }
        Ok((geomean(&ratios).unwrap_or(1.0) - 1.0) * 100.0)
    }
}

/// One workload's row of a [`SweepGrid`].
#[derive(Debug, Clone, Copy)]
pub struct SweepRow<'a> {
    grid: &'a SweepGrid,
    w: usize,
}

impl<'a> SweepRow<'a> {
    /// The row's workload.
    pub fn workload(&self) -> &'a Workload {
        &self.grid.workloads[self.w]
    }

    /// The row's measurement under `label`; an unknown label is
    /// [`SweepError::UnknownVariant`], not a panic.
    pub fn get(&self, label: &str) -> Result<&'a Measurement, SweepError> {
        self.grid.get(self.w, label)
    }

    /// Speedup (percent) of `label` over `base` for this workload.
    pub fn speedup(&self, base: &str, label: &str) -> Result<f64, SweepError> {
        Ok(speedup_pct(self.get(base)?.ipc(), self.get(label)?.ipc()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_workloads::mini;
    use std::sync::{Condvar, Mutex};

    fn tiny_window() -> RunWindow {
        RunWindow {
            warmup: 500,
            measure: 1_500,
        }
    }

    #[test]
    fn grid_is_indexed_in_spec_order() {
        let grid = SweepSpec::new(vec![mini()], tiny_window())
            .variant("base", CoreConfig::hpca16())
            .variant("me", CoreConfig::hpca16().with_me())
            .jobs(2)
            .run()
            .unwrap();
        assert_eq!(grid.labels(), &["base".to_string(), "me".to_string()]);
        assert_eq!(grid.workloads().len(), 1);
        let row = grid.rows().next().unwrap();
        assert_eq!(row.workload().name, "mini");
        assert!(row.get("base").unwrap().ipc() > 0.0);
        assert!(grid.by_name("mini", "me").is_some());
        assert!(grid.by_name("absent", "me").is_none());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let spec = |jobs| {
            SweepSpec::new(vec![mini()], tiny_window())
                .variant("base", CoreConfig::hpca16())
                .variant("both", CoreConfig::hpca16().with_me().with_smb())
                .jobs(jobs)
                .run()
                .unwrap()
        };
        let (a, b) = (spec(1), spec(3));
        for w in 0..1 {
            for label in ["base", "both"] {
                assert_eq!(
                    a.get(w, label).unwrap().stats,
                    b.get(w, label).unwrap().stats
                );
            }
        }
    }

    #[test]
    fn unknown_label_is_a_typed_error_not_a_panic() {
        let grid = SweepSpec::new(vec![mini()], tiny_window())
            .variant("base", CoreConfig::hpca16())
            .jobs(1)
            .run()
            .unwrap();
        let err = grid.get(0, "nope").unwrap_err();
        assert_eq!(
            err,
            SweepError::UnknownVariant {
                label: "nope".into()
            }
        );
        assert!(err.to_string().contains("unknown sweep variant"));
        let row = grid.rows().next().unwrap();
        assert!(row.get("nope").is_err());
        assert!(row.speedup("base", "nope").is_err());
        assert!(grid.geomean_speedup("nope", "base").is_err());
        assert!(grid.by_name("mini", "nope").is_none());
    }

    #[test]
    fn worker_panics_surface_as_job_failed_not_aborts() {
        // A hand-built spec with an unregistered profile builds a workload
        // whose program generation panics inside the worker.
        let doomed = regshare_workloads::fuzz::FuzzSpec {
            profile: "doom".into(),
            seed: 1,
        }
        .workload();
        let err = SweepSpec::new(vec![mini(), doomed], tiny_window())
            .variant("base", CoreConfig::hpca16())
            .jobs(2)
            .run()
            .unwrap_err();
        match err {
            SweepError::JobFailed {
                workload,
                label,
                detail,
            } => {
                assert_eq!(workload, "fuzz-doom-1");
                assert_eq!(label, "base");
                assert!(detail.contains("unknown fuzz profile"), "{detail}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A fresh, empty per-test cache directory.
    fn tmp_cache(tag: &str) -> (std::path::PathBuf, Cache) {
        let dir = std::env::temp_dir().join(format!("regshare-sweep-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir, None).unwrap();
        (dir, cache)
    }

    /// Stats no simulation produces, so a served cell is told from a
    /// measured one.
    fn sentinel() -> regshare_core::SimStats {
        regshare_core::SimStats {
            cycles: 7,
            ..Default::default()
        }
    }

    #[test]
    fn workloads_whose_cells_are_all_hits_are_never_built() {
        // Building this workload panics (see the test above), so a sweep
        // that succeeds never built it.
        let doomed = regshare_workloads::fuzz::FuzzSpec {
            profile: "doom".into(),
            seed: 1,
        }
        .workload();
        let (dir, cache) = tmp_cache("never-built");
        let configs = [CoreConfig::hpca16(), CoreConfig::hpca16().with_me()];
        for cfg in &configs {
            let key = cell_digest("fuzz-doom-1", cfg, tiny_window());
            cache.store(key, "fuzz-doom-1", &sentinel()).unwrap();
        }
        let [base, me] = configs;
        let grid = SweepSpec::new(vec![doomed], tiny_window())
            .variant("base", base)
            .variant("me", me)
            .jobs(2)
            .cache(cache)
            .run()
            .unwrap();
        for label in ["base", "me"] {
            let cell = grid.get(0, label).unwrap();
            assert_eq!(
                (cell.name.as_str(), cell.stats),
                ("fuzz-doom-1", sentinel())
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_resumed_measures_only_missing_cells_and_hands_each_back() {
        // A resumed run: the cache holds one of the two cells, as a killed
        // sweep leaves it.
        let both_cfg = CoreConfig::hpca16().with_me().with_smb();
        let spec = || {
            SweepSpec::new(vec![mini()], tiny_window())
                .variant("base", CoreConfig::hpca16())
                .variant("both", both_cfg.clone())
                .jobs(2)
        };
        let reference = spec().run().unwrap();
        let (dir, cache) = tmp_cache("resumed");
        let base_key = cell_digest("mini", &CoreConfig::hpca16(), tiny_window());
        let both_key = cell_digest("mini", &both_cfg, tiny_window());
        cache.store(base_key, "mini", &sentinel()).unwrap();

        let grid = spec()
            .cache(Cache::open(&dir, None).unwrap())
            .run()
            .unwrap();
        // The stored cell is taken as it is, never re-measured ...
        assert_eq!(grid.get(0, "base").unwrap().stats, sentinel());
        // ... the missing one is measured ...
        let both = reference.get(0, "both").unwrap().stats;
        assert_eq!(grid.get(0, "both").unwrap().stats, both);
        // ... and handed back to the cache under its content address,
        // with the hit left as it was.
        assert_eq!(cache.load(both_key, "mini"), Ok(Some(both)));
        assert_eq!(cache.load(base_key, "mini"), Ok(Some(sentinel())));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_failed_store_is_returned_after_the_sweep() {
        let (dir, cache) = tmp_cache("store-fails");
        // Every store now fails: its temp file has no directory to go in.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = SweepSpec::new(vec![mini()], tiny_window())
            .variant("base", CoreConfig::hpca16())
            .variant("me", CoreConfig::hpca16().with_me())
            .jobs(2)
            .cache(cache)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SweepError::Cache(CacheError::Io { .. })),
            "{err:?}"
        );
        assert!(!dir.exists(), "a store never recreates the directory");
        // A scenario run reports it as the cache error it is.
        assert!(matches!(
            crate::scenario::ScenarioError::from(err),
            crate::scenario::ScenarioError::Cache(CacheError::Io { .. })
        ));
    }

    #[test]
    fn par_map_returns_results_in_index_order() {
        let n = 7;
        let squares: Vec<usize> = (0..n).map(|i| i * i).collect();
        assert_eq!(par_map(n, 1, |i| i * i), squares);
        // More workers than jobs, each job held until the next index has
        // finished: results arrive in reverse and must still merge in
        // index order.
        let lowest_done = (Mutex::new(n), Condvar::new());
        let got = par_map(n, 16, |i| {
            let (lock, cv) = &lowest_done;
            let mut lowest = cv
                .wait_while(lock.lock().unwrap(), |l| *l != i + 1)
                .unwrap();
            *lowest = i;
            cv.notify_all();
            i * i
        });
        assert_eq!(got, squares);
    }

    #[test]
    fn par_map_over_no_jobs_is_empty() {
        // As in a sweep with no workloads.
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn from_parts_rejects_shape_mismatches() {
        let grid = SweepSpec::new(vec![mini()], tiny_window())
            .variant("base", CoreConfig::hpca16())
            .jobs(1)
            .run()
            .unwrap();
        let cell = grid.get(0, "base").unwrap().clone();
        let rebuilt = SweepGrid::from_parts(
            grid.workloads().to_vec(),
            grid.labels().to_vec(),
            vec![cell.clone()],
        )
        .unwrap();
        assert_eq!(rebuilt.get(0, "base").unwrap().stats, cell.stats);
        let err = SweepGrid::from_parts(
            grid.workloads().to_vec(),
            grid.labels().to_vec(),
            vec![cell.clone(), cell],
        )
        .unwrap_err();
        assert_eq!(
            err,
            SweepError::Shape {
                expected: 1,
                got: 2
            }
        );
    }
}
