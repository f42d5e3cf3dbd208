//! The cache-aware scheduling engine behind the daemon.
//!
//! [`Engine::submit`] takes a parsed [`Scenario`] and produces the same
//! report the batch binaries print — but per (workload × configuration ×
//! window) **cell** rather than per run:
//!
//! 1. a request naming a host file (`kind = "asm"` with `path = ...`) is
//!    rejected with [`ServeError::HostPath`] before anything reads it, and
//!    one of more than [`MAX_REQUEST_CELLS`] cells with
//!    [`ServeError::TooManyCells`] before anything is resolved; the rest
//!    is validated with the scenario layer's typed errors;
//! 2. every cell is content-addressed with
//!    [`regshare_bench::cell_digest`] and looked up in the persistent
//!    [`Cache`];
//! 3. misses are **coalesced** against the in-flight table — two
//!    concurrent requests needing the same cell trigger exactly one
//!    simulation — and scheduled onto the worker pool under admission
//!    control: when the number of queued-plus-running cells would exceed
//!    the cap, the request is rejected with the typed, retriable
//!    [`ServeError::Busy`] instead of growing the queue without bound;
//! 4. the request waits for its cells under a deadline
//!    ([`ServeError::Timeout`] on expiry — the cells keep computing and
//!    warm the cache for the retry), then merges everything in spec
//!    order and renders the body.
//!
//! Because the sweep engine is deterministic, a cache hit and a fresh
//! computation yield byte-identical stats, so the rendered table is
//! byte-identical whether the request was served cold, warm, or half-and-
//! half — provenance is reported *next to* the body, never inside it.

use regshare_bench::cache::{Cache, CacheError};
use regshare_bench::digest::cell_digest;
use regshare_bench::harness::{measure_program, Measurement, RunWindow};
use regshare_bench::report::render_report;
use regshare_bench::scenario::{Scenario, ScenarioError};
use regshare_bench::sweep::{panic_detail, SweepError, SweepGrid};
use regshare_core::{CoreConfig, SimStats};
use regshare_isa::Program;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The most cells one request may name. Resolving a scenario builds its
/// workload list in memory (a fuzz family eagerly) before admission
/// control counts a cell, and one short request can ask for four billion
/// programs, so this bound is checked first, on the source's count. It is
/// far above the largest checked-in scenario (`fig7_combined`, 252 cells).
pub const MAX_REQUEST_CELLS: usize = 16_384;

/// Any way a request can fail. Everything is typed: the protocol layer
/// maps each variant to a wire error kind, and `Busy`/`Timeout` are
/// explicitly retriable.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The submitted scenario is invalid (unknown names, bad config...).
    Scenario(ScenarioError),
    /// The submitted scenario names an assembly file on the daemon's host
    /// (`kind = "asm"` with `path = ...`). The daemon never reads host
    /// files on a client's behalf; embedded `kernel = ...` sources work.
    HostPath,
    /// The submitted scenario names more cells than one request may
    /// ([`MAX_REQUEST_CELLS`]); refused before anything is resolved.
    TooManyCells {
        /// Cells the scenario names (workloads × variants).
        cells: usize,
        /// The cap.
        max: usize,
    },
    /// The cache directory could not be opened or written.
    Cache(CacheError),
    /// Admission control: the job queue is full. Admission is checked
    /// per *cell*, so a partially-admitted request's earlier cells keep
    /// computing and warm the cache — a retry makes progress. Retriable.
    Busy {
        /// Cells queued or running when the request was rejected.
        pending: usize,
        /// The configured cap.
        max: usize,
    },
    /// The request's cells did not all finish within the deadline. The
    /// computations keep running and warm the cache, so a retry makes
    /// progress. Retriable.
    Timeout {
        /// The configured per-request deadline.
        ms: u64,
    },
    /// One cell's simulation died (a panic, caught so the daemon keeps
    /// serving). Failures are **not** cached, so a retry recomputes the
    /// cell — but an unchanged request will fail the same way.
    Cell {
        /// The workload whose cell failed.
        workload: String,
        /// The variant label of the failed cell.
        label: String,
        /// The panic payload, if it was a string.
        detail: String,
    },
    /// The completed cells could not be merged into a grid or rendered
    /// (a sweep-layer shape or label error — indicates an engine bug).
    Grid(SweepError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Scenario(e) => write!(f, "{e}"),
            ServeError::HostPath => write!(
                f,
                "the daemon does not read host files: asm `path` is rejected \
                 (use an embedded `kernel = ...`)"
            ),
            ServeError::TooManyCells { cells, max } => write!(
                f,
                "the scenario names {cells} cells; a request may name at most {max}"
            ),
            ServeError::Cache(e) => write!(f, "{e}"),
            ServeError::Busy { pending, max } => write!(
                f,
                "server is at capacity ({pending}/{max} cells in flight); retry later"
            ),
            ServeError::Timeout { ms } => write!(
                f,
                "request exceeded the {ms} ms deadline; the cells keep \
                 computing — retry to pick them up from the cache"
            ),
            ServeError::Cell {
                workload,
                label,
                detail,
            } => write!(f, "cell {workload}/{label} failed: {detail}"),
            ServeError::Grid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Scenario(e) => Some(e),
            ServeError::Cache(e) => Some(e),
            ServeError::Grid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScenarioError> for ServeError {
    fn from(e: ScenarioError) -> ServeError {
        ServeError::Scenario(e)
    }
}

impl From<CacheError> for ServeError {
    fn from(e: CacheError) -> ServeError {
        ServeError::Cache(e)
    }
}

impl From<SweepError> for ServeError {
    fn from(e: SweepError) -> ServeError {
        ServeError::Grid(e)
    }
}

/// Response body format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The standard report (byte-identical to the batch binaries).
    Table,
    /// A JSON document with per-cell provenance.
    Json,
}

/// A served result: the rendered body plus per-request provenance.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Rendered report (table) or JSON document.
    pub body: String,
    /// Cells in the request's matrix.
    pub cells: usize,
    /// Cells served from the persistent cache.
    pub cached: usize,
    /// Cells this request had to wait on a simulation for (fresh or
    /// coalesced onto another request's in-flight computation).
    pub computed: usize,
}

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Cache directory (created if missing).
    pub cache_dir: String,
    /// Byte cap for the cache; `None` = unbounded.
    pub cache_max_bytes: Option<u64>,
    /// Worker threads; 0 = available parallelism.
    pub workers: usize,
    /// Admission cap: maximum queued-plus-running cells.
    pub max_pending: usize,
    /// Per-request deadline in milliseconds.
    pub timeout_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_dir: ".regshare-cache".to_string(),
            cache_max_bytes: None,
            workers: 0,
            max_pending: 1024,
            timeout_ms: 120_000,
        }
    }
}

/// One cell's rendezvous between the worker that computes it and every
/// request waiting on it. The payload is an *outcome*: `Err` carries the
/// rendered panic detail of a cell whose simulation died, so waiters get
/// a typed error instead of hanging until their deadline.
struct Slot {
    outcome: Mutex<Option<Result<SimStats, String>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, outcome: Result<SimStats, String>) {
        *self.outcome.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.ready.notify_all();
    }

    /// `None` on deadline expiry; otherwise the cell's outcome.
    fn wait_until(&self, deadline: Instant) -> Option<Result<SimStats, String>> {
        let mut guard = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = guard.as_ref() {
                return Some(outcome.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }
}

/// One unit of work for the pool.
struct Job {
    key: u64,
    workload: String,
    program: Arc<Program>,
    cfg: CoreConfig,
    window: RunWindow,
    slot: Arc<Slot>,
}

/// State shared between the engine front and the worker threads.
struct Shared {
    cache: Cache,
    /// Cells currently queued or computing, keyed by content address.
    inflight: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Queued-plus-running cell count (admission control).
    pending: AtomicUsize,
    /// Cells actually simulated since engine start — THE exactly-once
    /// witness: a warm request leaves it untouched.
    computed: AtomicU64,
    /// Cells served from the persistent cache since engine start.
    hits: AtomicU64,
    /// Requests accepted (valid scenarios) since engine start.
    requests: AtomicU64,
}

impl Shared {
    fn run_job(&self, job: Job) {
        let Job {
            key,
            workload,
            program,
            cfg,
            window,
            slot,
        } = job;
        // A panicking simulation must not take the worker thread (and with
        // it the daemon's capacity) down: catch it, publish the detail to
        // every waiter, and keep serving.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            measure_program(workload.clone(), &program, cfg, window)
        }))
        .map_err(panic_detail);
        let outcome = match outcome {
            Ok(m) => {
                self.computed.fetch_add(1, Ordering::Relaxed);
                // Persist before publishing: once the slot is filled and
                // the in-flight entry removed, later lookups must find the
                // cache hit. Failures are NOT persisted — a retry gets a
                // fresh computation, not a replayed panic.
                if let Err(e) = self.cache.store(key, &workload, &m.stats) {
                    eprintln!("serve: cache store failed (serving from memory): {e}");
                }
                Ok(m.stats)
            }
            Err(detail) => Err(detail),
        };
        slot.fill(outcome);
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
        self.pending.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The persistent, cache-aware scheduler. Cheap to share (`Arc`) across
/// connection threads; dropping it drains the worker pool.
pub struct Engine {
    shared: Arc<Shared>,
    /// Senders are cloned per enqueue; `None` after shutdown.
    tx: Mutex<Option<mpsc::Sender<Job>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    timeout: Duration,
    max_pending: usize,
}

impl Engine {
    /// Opens the cache and starts the worker pool.
    pub fn new(config: EngineConfig) -> Result<Engine, ServeError> {
        let cache = Cache::open(&config.cache_dir, config.cache_max_bytes)?;
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let shared = Arc::new(Shared {
            cache,
            inflight: Mutex::new(HashMap::new()),
            pending: AtomicUsize::new(0),
            computed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || loop {
                let job = {
                    let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                    guard.recv()
                };
                match job {
                    Ok(job) => shared.run_job(job),
                    Err(_) => break, // engine dropped
                }
            }));
        }
        Ok(Engine {
            shared,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
            timeout: Duration::from_millis(config.timeout_ms),
            max_pending: config.max_pending,
        })
    }

    /// Cells actually simulated since engine start. A request served
    /// entirely from the persistent cache leaves this unchanged — the
    /// acceptance witness for warm serving.
    pub fn computed_cells(&self) -> u64 {
        self.shared.computed.load(Ordering::Relaxed)
    }

    /// Cells served from the persistent cache since engine start.
    pub fn cache_hits(&self) -> u64 {
        self.shared.hits.load(Ordering::Relaxed)
    }

    /// Requests accepted (validated) since engine start.
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// The cache this engine serves from.
    pub fn cache(&self) -> &Cache {
        &self.shared.cache
    }

    /// Serves one request. See the module docs for the full pipeline.
    pub fn submit(&self, scenario: &Scenario, format: Format) -> Result<ServeResponse, ServeError> {
        if scenario.host_path().is_some() {
            return Err(ServeError::HostPath);
        }
        let cells = scenario.cell_count();
        if cells > MAX_REQUEST_CELLS {
            return Err(ServeError::TooManyCells {
                cells,
                max: MAX_REQUEST_CELLS,
            });
        }
        let (workloads, configs) = scenario.resolve()?;
        self.shared.requests.fetch_add(1, Ordering::Relaxed);

        let window = scenario.options.window();
        let nv = configs.len();
        let n = workloads.len() * nv;
        let label_of = |i: usize| scenario.variants[i % nv].0.clone();
        let mut stats: Vec<Option<SimStats>> = vec![None; n];
        let mut from_cache = vec![false; n];
        // Duplicate keys inside one request (two labels resolving to the
        // same machine) share one resolution.
        let mut first_of_key: HashMap<u64, usize> = HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        let mut waits: Vec<(usize, Arc<Slot>)> = Vec::new();
        // Programs are built at most once per workload per request, and
        // only when some cell of that workload actually misses.
        let mut programs: Vec<Option<Arc<Program>>> = vec![None; workloads.len()];

        for i in 0..n {
            let (w, v) = (i / nv, i % nv);
            let name = &workloads[w].name;
            let key = cell_digest(name, &configs[v], window);
            if let Some(&j) = first_of_key.get(&key) {
                dups.push((i, j));
                continue;
            }
            first_of_key.insert(key, i);

            if let Some(hit) = self.shared.cache.lookup(key, name) {
                stats[i] = Some(hit);
                from_cache[i] = true;
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                continue;
            }

            // Build (or reuse) the program before taking the in-flight
            // lock; on the rare attach the build is wasted, never wrong.
            // A panicking build (a broken generator) is a typed per-cell
            // failure, not a dead connection thread.
            let program = match &programs[w] {
                Some(p) => Arc::clone(p),
                None => {
                    match catch_unwind(AssertUnwindSafe(|| Arc::new(workloads[w].build())))
                        .map_err(panic_detail)
                    {
                        Ok(p) => {
                            programs[w] = Some(Arc::clone(&p));
                            p
                        }
                        Err(detail) => {
                            return Err(ServeError::Cell {
                                workload: workloads[w].name.clone(),
                                label: label_of(i),
                                detail,
                            })
                        }
                    }
                }
            };

            let slot = {
                let mut inflight = self
                    .shared
                    .inflight
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if let Some(slot) = inflight.get(&key) {
                    // Coalesce onto the computation already in flight.
                    Arc::clone(slot)
                } else if let Ok(Some(hit)) = self.shared.cache.load(key, name) {
                    // The cell completed between our miss and this lock
                    // (successful workers persist before unpublishing). A
                    // vanished in-flight entry with no cache hit was a
                    // *failed* cell — fall through and recompute it.
                    stats[i] = Some(hit);
                    from_cache[i] = true;
                    self.shared.hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                } else {
                    let pending = self.shared.pending.load(Ordering::Relaxed);
                    if pending >= self.max_pending {
                        return Err(ServeError::Busy {
                            pending,
                            max: self.max_pending,
                        });
                    }
                    self.shared.pending.fetch_add(1, Ordering::Relaxed);
                    let slot = Arc::new(Slot::new());
                    inflight.insert(key, Arc::clone(&slot));
                    let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(tx) = tx.as_ref() {
                        let _ = tx.send(Job {
                            key,
                            workload: name.clone(),
                            program,
                            cfg: configs[v].clone(),
                            window,
                            slot: Arc::clone(&slot),
                        });
                    }
                    slot
                }
            };
            waits.push((i, slot));
        }

        // Wait for every miss under one request-wide deadline. A cell
        // whose simulation died surfaces as a typed per-cell failure —
        // the daemon degrades to an error reply and keeps serving.
        let deadline = Instant::now() + self.timeout;
        for (i, slot) in waits {
            match slot.wait_until(deadline) {
                Some(Ok(computed)) => stats[i] = Some(computed),
                Some(Err(detail)) => {
                    return Err(ServeError::Cell {
                        workload: workloads[i / nv].name.clone(),
                        label: label_of(i),
                        detail,
                    })
                }
                None => {
                    return Err(ServeError::Timeout {
                        ms: self.timeout.as_millis() as u64,
                    })
                }
            }
        }
        for (i, j) in dups {
            stats[i] = stats[j];
            from_cache[i] = from_cache[j];
        }

        let cached = from_cache.iter().filter(|&&c| c).count();
        let mut cells: Vec<Measurement> = Vec::with_capacity(n);
        for (i, st) in stats.into_iter().enumerate() {
            match st {
                Some(stats) => cells.push(Measurement {
                    name: workloads[i / nv].name.clone(),
                    stats,
                }),
                // Unreachable by construction (every non-dup cell is a hit
                // or a wait, and dups copy) — but a hole in the matrix is
                // an error reply, never a dead connection thread.
                None => {
                    return Err(ServeError::Cell {
                        workload: workloads[i / nv].name.clone(),
                        label: label_of(i),
                        detail: "cell was never scheduled or resolved".to_string(),
                    })
                }
            }
        }
        let labels: Vec<String> = scenario.variants.iter().map(|(l, _)| l.clone()).collect();
        let grid = SweepGrid::from_parts(workloads, labels, cells)?;
        let body = match format {
            Format::Table => render_report(scenario, &grid)?,
            Format::Json => json_report(scenario, &grid, &from_cache)?,
        };
        Ok(ServeResponse {
            body,
            cells: n,
            cached,
            computed: n - cached,
        })
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Close the queue, then drain the pool: in-flight cells finish
        // (and land in the cache) before the engine disappears.
        *self.tx.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Renders the JSON body: scenario identity, resolved window, and one
/// object per cell with IPC, raw cycle/µ-op counts and `cached`
/// provenance. Hand-rolled like `BENCH_*.json` — the workspace is
/// dependency-free. Scenario names/notes need no escaping: validation
/// already rejects quotes, backslashes and control characters. A grid
/// missing a label is a typed [`SweepError`], not a panic.
fn json_report(
    scenario: &Scenario,
    grid: &SweepGrid,
    from_cache: &[bool],
) -> Result<String, SweepError> {
    let window = scenario.options.window();
    let labels = grid.labels();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", scenario.name));
    if !scenario.note.is_empty() {
        out.push_str(&format!("  \"note\": \"{}\",\n", scenario.note));
    }
    out.push_str(&format!(
        "  \"window\": {{ \"warmup\": {}, \"measure\": {} }},\n",
        window.warmup, window.measure
    ));
    out.push_str(&format!(
        "  \"variants\": [{}],\n",
        labels
            .iter()
            .map(|l| format!("\"{l}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"cells\": [\n");
    let nv = labels.len();
    let mut first = true;
    for (w, row) in grid.rows().enumerate() {
        for (v, label) in labels.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let m = row.get(label)?;
            out.push_str(&format!(
                "    {{ \"workload\": \"{}\", \"variant\": \"{label}\", \
                 \"ipc\": {:.6}, \"cycles\": {}, \"committed\": {}, \
                 \"cached\": {} }}",
                row.workload().name,
                m.ipc(),
                m.stats.cycles,
                m.stats.committed,
                from_cache[w * nv + v]
            ));
        }
    }
    out.push_str("\n  ]\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_bench::VariantSpec;
    use std::path::PathBuf;

    /// A cache rooted inside `target/tmp` (unique per test, wiped on entry).
    fn tmp_cache(name: &str) -> Cache {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("engine-unit-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::open(&dir, None).expect("cache opens")
    }

    #[test]
    fn slot_failure_reaches_every_waiter() {
        let slot = Arc::new(Slot::new());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait_until(Instant::now() + Duration::from_secs(30)))
        };
        slot.fill(Err("simulated cell death".to_string()));
        assert_eq!(
            waiter.join().unwrap(),
            Some(Err("simulated cell death".to_string()))
        );
    }

    #[test]
    fn panicking_job_publishes_a_failure_and_releases_capacity() {
        let shared = Shared {
            cache: tmp_cache("panicking-job"),
            inflight: Mutex::new(HashMap::new()),
            pending: AtomicUsize::new(1),
            computed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        };
        let program = Arc::new(
            regshare_isa::asm::assemble("    li r15, 1\n    halt\n").expect("tiny program"),
        );
        // A PRF smaller than the architectural register file trips rename's
        // internal assert — exactly the class of simulator bug the worker
        // must survive. (The scenario layer can never produce this config;
        // the test bypasses validation on purpose.)
        let mut cfg = VariantSpec::hpca16().to_config().expect("valid preset");
        cfg.pregs_per_class = 1;
        let key = 0xdead_beef_u64;
        let slot = Arc::new(Slot::new());
        shared
            .inflight
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&slot));

        shared.run_job(Job {
            key,
            workload: "tiny".to_string(),
            program,
            cfg,
            window: RunWindow {
                warmup: 10,
                measure: 50,
            },
            slot: Arc::clone(&slot),
        });

        // The slot carries the panic detail, not a hang or an abort...
        let outcome = slot.wait_until(Instant::now()).expect("slot filled");
        let detail = outcome.expect_err("job must have failed");
        assert!(!detail.is_empty(), "panic detail rendered");
        // ...capacity is released and the in-flight entry unpublished...
        assert_eq!(shared.pending.load(Ordering::Relaxed), 0);
        assert!(shared.inflight.lock().unwrap().is_empty());
        assert_eq!(shared.computed.load(Ordering::Relaxed), 0);
        // ...and the failure was NOT cached: a retry recomputes.
        assert_eq!(shared.cache.load(key, "tiny").unwrap(), None);
    }

    #[test]
    fn error_display_names_the_failed_cell() {
        let e = ServeError::Cell {
            workload: "asm-matmul".to_string(),
            label: "both".to_string(),
            detail: "index out of bounds".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "cell asm-matmul/both failed: index out of bounds"
        );
        let g = ServeError::Grid(SweepError::Shape {
            expected: 4,
            got: 3,
        });
        assert_eq!(
            g.to_string(),
            "grid shape mismatch: expected 4 cells, got 3"
        );
    }
}
