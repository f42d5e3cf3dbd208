//! The batch phase: sweep rounds, untraced through `SweepSpec::run` or
//! traced through the benchmark's own cell loop, plus the model record.

use crate::trace::Tracer;
use regshare_bench::{render_report, Measurement, Scenario, SweepGrid};
use regshare_core::{CoreConfig, SimStats, Simulator};
use regshare_isa::{stream_cache_stats, Machine, Program, StreamCacheStats};
use regshare_types::snapshot::{Snap, SnapWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What one round did.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Rendered report.
    pub report: String,
    /// Wall clock of the whole round (sweep + render).
    pub wall_s: f64,
    /// Cells simulated.
    pub cells: u64,
    /// Measured-window µ-ops committed, over all cells.
    pub committed: u64,
    /// Measured-window cycles, over all cells.
    pub cycles: u64,
    /// `SweepSpec::run` (untraced) or the cell loop (traced).
    pub run_s: f64,
    /// `render_report`.
    pub render_s: f64,
    /// Per-layer sums over cells (traced rounds only).
    pub layers: Layers,
}

/// Per-layer host time and counts of one traced round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Program builds (`Workload::build`).
    pub build_s: f64,
    /// `Simulator::new`.
    pub new_s: f64,
    /// `Simulator::run` over the warmup window.
    pub warmup_s: f64,
    /// `Simulator::run` over the measured window.
    pub measure_s: f64,
    /// Sum of whole-cell spans.
    pub busy_s: f64,
    /// The slowest cell.
    pub max_cell_s: f64,
    /// Stream-memo counter growth over the round.
    pub decodes: u64,
    /// Replayed µ-ops.
    pub replayed: u64,
    /// Stream constructions that hit the memo.
    pub hits: u64,
    /// Stream constructions that missed.
    pub misses: u64,
    /// Streams published into the memo.
    pub published: u64,
    /// Oracle and audit checks made.
    pub checks: u64,
    /// Checks that failed.
    pub check_failures: u64,
}

/// One untraced round: `SweepSpec::run` + `render_report`, the user's
/// `paper_report` path.
pub fn untraced_round(s: &Scenario) -> Result<(Round, SweepGrid), String> {
    let t0 = Instant::now();
    let spec = s.to_sweep().map_err(|e| e.to_string())?;
    let grid = spec.run().map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = render_report(s, &grid).map_err(|e| e.to_string())?;
    let render_s = t1.elapsed().as_secs_f64();
    let mut round = Round {
        report,
        wall_s: t0.elapsed().as_secs_f64(),
        run_s,
        render_s,
        ..Round::default()
    };
    for row in grid.rows() {
        for label in grid.labels() {
            let st = &row.get(label).map_err(|e| e.to_string())?.stats;
            round.cells += 1;
            round.committed += st.committed;
            round.cycles += st.cycles;
        }
    }
    Ok((round, grid))
}

/// One cell's outcome in the traced loop.
struct CellOut {
    stats: SimStats,
    failed_checks: u64,
}

/// One traced round: the same cells as [`untraced_round`], driven by the
/// benchmark's own worker pool so each call into a layer gets a span.
/// With `check`, every cell is also compared with the in-order oracle
/// (`Machine::run_digest` against `arch_digest`) and passes
/// `audit_registers`; the check runs outside the cell's spans.
pub fn traced_round(
    s: &Scenario,
    jobs: usize,
    tracer: &Tracer,
    check: bool,
) -> Result<Round, String> {
    let workloads = s.resolve_workloads().map_err(|e| e.to_string())?;
    let mut configs: Vec<CoreConfig> = Vec::with_capacity(s.variants.len());
    for (_, spec) in &s.variants {
        configs.push(spec.to_config().map_err(|e| e.to_string())?);
    }
    let window = s.options.window();
    let nv = configs.len();
    let n = workloads.len() * nv;
    let programs: Vec<OnceLock<Program>> = workloads.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let cells: Mutex<Vec<Option<Result<CellOut, String>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let layers = Mutex::new(Layers::default());
    let memo0 = stream_cache_stats();
    let trace = tracer.id();
    let mut local = tracer.local();
    let round_span = local.open("sweep.round", trace, 0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n).max(1) {
            scope.spawn(|| {
                let mut local = tracer.local();
                let mut mine = Layers::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (w, v) = (i / nv, i % nv);
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        let cell = local.open("sweep.cell", trace, round_span.id());
                        let program = programs[w].get_or_init(|| {
                            let (p, secs) = local
                                .time("workloads.build", trace, cell.id(), || workloads[w].build());
                            mine.build_s += secs;
                            p
                        });
                        let (mut sim, secs) = local.time("core.new", trace, cell.id(), || {
                            Simulator::new(program, configs[v].clone())
                        });
                        mine.new_s += secs;
                        let (warm, secs) = local.time("core.run_warmup", trace, cell.id(), || {
                            sim.run(window.warmup)
                        });
                        mine.warmup_s += secs;
                        let (end, secs) = local.time("core.run_measure", trace, cell.id(), || {
                            sim.run(window.measure)
                        });
                        mine.measure_s += secs;
                        let secs = local.close(cell);
                        mine.busy_s += secs;
                        mine.max_cell_s = mine.max_cell_s.max(secs);
                        let mut failed_checks = 0;
                        if check {
                            let oracle =
                                Machine::new(Arc::new(program.clone())).run_digest(end.committed);
                            failed_checks += u64::from(oracle != sim.arch_digest());
                            failed_checks += u64::from(sim.audit_registers().is_err());
                            mine.checks += 2;
                        }
                        CellOut {
                            stats: end.delta_since(&warm),
                            failed_checks,
                        }
                    }))
                    .map_err(regshare_bench::panic_detail);
                    cells.lock().expect("cell table poisoned")[i] = Some(out);
                }
                let mut all = layers.lock().expect("layer totals poisoned");
                all.build_s += mine.build_s;
                all.new_s += mine.new_s;
                all.warmup_s += mine.warmup_s;
                all.measure_s += mine.measure_s;
                all.busy_s += mine.busy_s;
                all.max_cell_s = all.max_cell_s.max(mine.max_cell_s);
                all.checks += mine.checks;
            });
        }
    });
    let run_s = t0.elapsed().as_secs_f64();
    let mut layers = layers.into_inner().expect("layer totals poisoned");
    let mut round = Round::default();
    let mut measured = Vec::with_capacity(n);
    for (i, cell) in cells
        .into_inner()
        .expect("cell table poisoned")
        .into_iter()
        .enumerate()
    {
        let out = match cell {
            Some(Ok(out)) => out,
            Some(Err(detail)) => return Err(format!("traced cell {i} failed: {detail}")),
            None => return Err(format!("traced cell {i} produced no result")),
        };
        layers.check_failures += out.failed_checks;
        round.cells += 1;
        round.committed += out.stats.committed;
        round.cycles += out.stats.cycles;
        measured.push(Measurement {
            name: workloads[i / nv].name.clone(),
            stats: out.stats,
        });
    }
    let labels = s.variants.iter().map(|(l, _)| l.clone()).collect();
    let grid = SweepGrid::from_parts(workloads, labels, measured).map_err(|e| e.to_string())?;
    let (report, render_s) = local.time("sweep.render", trace, round_span.id(), || {
        render_report(s, &grid)
    });
    local.close(round_span);
    let memo = memo_growth(&memo0, &stream_cache_stats());
    layers.decodes = memo.oracle_decodes;
    layers.replayed = memo.replayed_uops;
    layers.hits = memo.stream_hits;
    layers.misses = memo.stream_misses;
    layers.published = memo.streams_published;
    round.report = report.map_err(|e| e.to_string())?;
    round.wall_s = t0.elapsed().as_secs_f64();
    round.run_s = run_s;
    round.render_s = render_s;
    round.layers = layers;
    Ok(round)
}

fn memo_growth(a: &StreamCacheStats, b: &StreamCacheStats) -> StreamCacheStats {
    StreamCacheStats {
        oracle_decodes: b.oracle_decodes - a.oracle_decodes,
        replayed_uops: b.replayed_uops - a.replayed_uops,
        stream_hits: b.stream_hits - a.stream_hits,
        stream_misses: b.stream_misses - a.stream_misses,
        streams_published: b.streams_published - a.streams_published,
    }
}

/// Model-side record of a batch grid: deterministic numbers a
/// performance-only change must leave identical. The model is not
/// validated against hardware — the repository holds no reference
/// measurements — so no error figure is given.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    /// Geomean IPC of the baseline column.
    pub ipc_geomean: f64,
    /// Geomean speedup (percent) of the ME+SMB column over the baseline.
    pub speedup_geomean: f64,
    /// FNV-1a over every cell's encoded measured-window `SimStats`, in
    /// grid order, folded to 48 bits so it is exact as a JSON number.
    pub stats_digest: u64,
}

/// The model record of `grid` for the (baseline, ME+SMB) label pair.
pub fn model(grid: &SweepGrid, (base, me_smb): (&str, &str)) -> Result<Model, String> {
    let mut ipcs = Vec::new();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for row in grid.rows() {
        ipcs.push(row.get(base).map_err(|e| e.to_string())?.ipc());
        for label in grid.labels() {
            let mut w = SnapWriter::new();
            row.get(label)
                .map_err(|e| e.to_string())?
                .stats
                .encode(&mut w);
            for b in w.finish() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let ipc_geomean = regshare_types::stats::geomean(&ipcs).unwrap_or(0.0);
    Ok(Model {
        ipc_geomean,
        speedup_geomean: grid
            .geomean_speedup(base, me_smb)
            .map_err(|e| e.to_string())?,
        stats_digest: (digest ^ (digest >> 48)) & ((1 << 48) - 1),
    })
}
