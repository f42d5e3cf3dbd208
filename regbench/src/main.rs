//! `regbench`: the end-to-end and per-layer benchmark of the regshare
//! workspace. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path regbench/Cargo.toml -- \
//!     --workload sweep_headline --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod batch;
mod host;
mod plan;
mod rng;
mod serve;
mod stats;
mod trace;

use batch::{Model, Round};
use plan::Plan;
use regshare_bench::{cell_digest, Scenario};
use regshare_serve::{Cache, Format};
use serve::{Daemon, Kind};
use stats::{median, percentile, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 3;
/// Rounds of in-process `Engine::submit` over the warm pool (traced run).
const SUBMIT_WARM_ROUNDS: usize = 5;
/// Fresh cold scenarios submitted in-process (traced run).
const SUBMIT_COLD: u64 = 20;
/// Entries written to a scratch cache to time `Cache::store`.
const STORE_PROBES: u64 = 50;
/// Cold-request index of the first in-process probe, far beyond any
/// index the closed loop reaches, so probes get their own fresh cells.
const PROBE_BASE: u64 = 1_000_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("an integer"))?;
                if args.seconds == 0 {
                    return Err(bad("at least 1"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !plan::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload: expected one of {:?}, got {:?}",
            plan::WORKLOADS,
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("regbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("regbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".regbench").join(format!("run-{}", std::process::id()));
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(out) => {
            println!("{}", out.json());
            if out.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("regbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One named metric value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|mt| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    mt.name, mt.value, mt.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// The report of an in-process sweep of `s`: what every served body and
/// every round must equal.
fn reference(s: &Scenario) -> Result<String, String> {
    regshare_bench::run_scenario(s).map_err(|e| e.to_string())
}

/// A tail percentile, or a failed check when the sample count cannot
/// support it.
fn tail(xs: &[f64], p: f64, tally: &mut Tally) -> f64 {
    let v = percentile(xs, p);
    tally.check(v.is_some());
    v.unwrap_or(0.0)
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Everything set-up produced.
struct Setup {
    daemon: Daemon,
    warm_refs: Vec<String>,
    /// The warm pass's round: its report is the batch reference.
    warm_round: Round,
    model: Model,
    setup_s: f64,
    parse_s: f64,
    resolve_s: f64,
}

/// Set-up: scenario parse and resolve, program builds, daemon start, bind,
/// connect and warm-pool prefill, repeated [`SETUP_REPS`] times (median),
/// plus one warm pass of the batch scenario, which fills the process-wide
/// stream memo and gives the reference report.
fn setup(plan: &Plan, nproc: usize, scratch: &Path, tally: &mut Tally) -> Result<Setup, String> {
    let warm_refs = plan
        .warm
        .iter()
        .map(reference)
        .collect::<Result<Vec<_>, _>>()?;
    let texts: Vec<String> = std::iter::once(&plan.batch)
        .chain(&plan.warm)
        .map(Scenario::render)
        .collect();
    let (mut reps, mut parse_s, mut resolve_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut daemon: Option<Daemon> = None;
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            d.shutdown()?;
        }
        let t0 = Instant::now();
        let parsed = texts
            .iter()
            .map(|t| Scenario::parse(t))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        parse_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let mut workloads = Vec::new();
        for s in &parsed {
            workloads.push(s.resolve_workloads().map_err(|e| e.to_string())?);
        }
        resolve_s.push(t1.elapsed().as_secs_f64());
        for w in &workloads[0] {
            std::hint::black_box(w.build());
        }
        let d = Daemon::start(&scratch.join(format!("cache{rep}")), nproc, nproc)?;
        for (s, want) in parsed[1..].iter().zip(&warm_refs) {
            let got = d.engine.submit(s, Format::Table);
            tally.check(matches!(got, Ok(ref r) if r.body == *want));
        }
        reps.push(t0.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let t0 = Instant::now();
    let (warm_round, grid) = batch::untraced_round(&plan.batch)?;
    let warm_pass_s = t0.elapsed().as_secs_f64();
    tally.add(warm_round.cells, 0);
    let model = batch::model(&grid, plan.model_labels)?;
    Ok(Setup {
        daemon: daemon.expect("at least one set-up rep"),
        warm_refs,
        warm_round,
        model,
        setup_s: warm_pass_s + med(reps),
        parse_s: med(parse_s),
        resolve_s: med(resolve_s),
    })
}

/// The batch phase: rounds until `budget_s` is spent, each round's report
/// checked against `reference`. In the traced run untraced and traced
/// rounds alternate, and a workload with oracle checks first runs one
/// checked traced round outside the timing. Returns (untraced, traced).
fn batch_phase(
    plan: &Plan,
    nproc: usize,
    reference: &str,
    tracer: Option<&Tracer>,
    budget_s: f64,
    tally: &mut Tally,
) -> (Vec<Round>, Vec<Round>) {
    if let (Some(tracer), true) = (tracer, plan.oracle_check) {
        match batch::traced_round(&plan.batch, nproc, tracer, true) {
            Ok(r) => {
                tally.add(r.cells, 0);
                tally.add(r.layers.checks, r.layers.check_failures);
                tally.check(r.report == reference);
            }
            Err(e) => {
                eprintln!("regbench: checked round failed: {e}");
                tally.add(1, 1);
            }
        }
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        match batch::untraced_round(&plan.batch) {
            Ok((r, _)) => {
                tally.add(r.cells, 0);
                tally.check(r.report == reference);
                plain.push(r);
            }
            Err(e) => {
                eprintln!("regbench: sweep failed: {e}");
                tally.add(1, 1);
                break;
            }
        }
        if let Some(tracer) = tracer {
            match batch::traced_round(&plan.batch, nproc, tracer, false) {
                Ok(r) => {
                    tally.add(r.cells, 0);
                    tally.check(r.report == reference);
                    traced.push(r);
                }
                Err(e) => {
                    eprintln!("regbench: traced round failed: {e}");
                    tally.add(1, 1);
                    break;
                }
            }
        }
        if t0.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    (plain, traced)
}

/// Checks every served body: warm ones against the prefill reference,
/// cold ones against an in-process sweep of the same scenario.
fn check_served(plan: &Plan, lr: &serve::LoopResult, warm_refs: &[String], tally: &mut Tally) {
    for s in &lr.samples {
        let ok = match (&s.reply, s.kind) {
            (Err(e), _) => {
                eprintln!("regbench: request {} failed: {e}", s.k);
                false
            }
            (Ok(body), Kind::Warm) => *body == warm_refs[s.warm],
            (Ok(body), Kind::Cold) => reference(&plan.cold(s.k)).is_ok_and(|r| r == *body),
        };
        tally.check(ok);
    }
}

/// Batch throughput, the median over `rounds` of each round's rate:
/// (cells/s, kµops/s, kcycles/s). A median of rounds shrugs off a round
/// slowed by a burst of host contention.
fn throughput(rounds: &[Round]) -> (f64, f64, f64) {
    let rate = |f: fn(&Round) -> u64| med(rounds.iter().map(|r| ratio(f(r) as f64, r.wall_s)));
    (
        rate(|r| r.cells),
        rate(|r| r.committed) / 1e3,
        rate(|r| r.cycles) / 1e3,
    )
}

/// The serve layer's traced probes: in-process `Engine::submit` of warm
/// and fresh cold scenarios, and direct `Cache::load` / `Cache::store`.
struct ServeProbes {
    submit_warm_ms: f64,
    submit_cold_ms: f64,
    cache_load_ms: f64,
    cache_store_ms: f64,
}

fn serve_probes(
    plan: &Plan,
    st: &Setup,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<ServeProbes, String> {
    let engine = &st.daemon.engine;
    let mut warm = Vec::new();
    for _ in 0..SUBMIT_WARM_ROUNDS {
        for (s, want) in plan.warm.iter().zip(&st.warm_refs) {
            let t = Instant::now();
            let got = engine.submit(s, Format::Table);
            warm.push(ms_since(t));
            tally.check(matches!(got, Ok(ref r) if r.body == *want && r.computed == 0));
        }
    }
    let mut cold = Vec::new();
    for j in 0..SUBMIT_COLD {
        let s = plan.cold(PROBE_BASE + j);
        let t = Instant::now();
        let got = engine.submit(&s, Format::Table);
        cold.push(ms_since(t));
        let want = reference(&s)?;
        tally.check(matches!(got, Ok(ref r) if r.body == want && r.cached == 0));
    }
    let mut loads = Vec::new();
    for s in &plan.warm {
        let window = s.options.window();
        let workloads = s.resolve_workloads().map_err(|e| e.to_string())?;
        for (_, spec) in &s.variants {
            let cfg = spec.to_config().map_err(|e| e.to_string())?;
            for w in &workloads {
                let key = cell_digest(&w.name, &cfg, window);
                let t = Instant::now();
                let hit = engine.cache().load(key, &w.name);
                loads.push(ms_since(t));
                tally.check(matches!(hit, Ok(Some(_))));
            }
        }
    }
    let probe = Cache::open(scratch.join("store-probe"), None).map_err(|e| e.to_string())?;
    let stats = regshare_core::SimStats::default();
    let mut stores = Vec::new();
    for key in 0..STORE_PROBES {
        let t = Instant::now();
        let stored = probe.store(key, "store-probe", &stats);
        stores.push(ms_since(t));
        tally.check(stored.is_ok());
    }
    Ok(ServeProbes {
        submit_warm_ms: med(warm),
        submit_cold_ms: med(cold),
        cache_load_ms: med(loads),
        cache_store_ms: med(stores),
    })
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let noise0 = host::Noise::read();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let plan = Plan::new(&args.workload, args.seed, nproc).expect("workload name was checked");
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    println!(
        "regbench: workload={} seed={} seconds={} trace={} nproc={nproc}",
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut st = setup(&plan, nproc, scratch, &mut tally)?;
    let spans = args.trace.then_some(&tracer);
    let batch_s = args.seconds as f64 * plan.batch_share;
    let (plain, traced) = batch_phase(
        &plan,
        nproc,
        &st.warm_round.report,
        spans,
        batch_s,
        &mut tally,
    );
    // Peak memory of set-up and the batch phase, taken before the serve
    // phase: fresh cold programs differ in footprint from seed to seed.
    let peak_rss_mb = host::peak_rss_mb();
    let lr = serve::closed_loop(
        &mut st.daemon,
        &plan,
        args.seed,
        Duration::from_secs_f64(args.seconds as f64 - batch_s),
        spans,
    );
    check_served(&plan, &lr, &st.warm_refs, &mut tally);
    let probes = if args.trace {
        Some(serve_probes(&plan, &st, scratch, &mut tally)?)
    } else {
        None
    };

    let warm_ms = serve::rtts_ms(&lr.samples, Kind::Warm);
    let cold_ms = serve::rtts_ms(&lr.samples, Kind::Cold);
    let (cells_per_s, kuops, kcycles) = throughput(&plain);
    let end_to_end = vec![
        m("setup_s", st.setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m("cells_per_s", cells_per_s, "1/s"),
        m("sim_kuops_per_s", kuops, "kuop/s"),
        m("sim_kcycles_per_s", kcycles, "kcycle/s"),
        m(
            "req_per_s",
            ratio(lr.samples.len() as f64, lr.elapsed_s),
            "1/s",
        ),
        m("warm_p50_ms", tail(&warm_ms, 50.0, &mut tally), "ms"),
        m("warm_p90_ms", tail(&warm_ms, 90.0, &mut tally), "ms"),
        m("cold_p50_ms", tail(&cold_ms, 50.0, &mut tally), "ms"),
        m("cold_p90_ms", tail(&cold_ms, 90.0, &mut tally), "ms"),
    ];
    let engine = &st.daemon.engine;
    let (computed, hits) = (engine.computed_cells(), engine.cache_hits());
    let cache_bytes = engine.cache().total_bytes().unwrap_or(0);

    let noise = host::Noise::read().since(&noise0);
    println!(
        "host: steal_ticks={} nonvoluntary_ctxt_switches={}",
        noise.steal_ticks, noise.nonvoluntary_ctxt_switches
    );
    println!(
        "model: ipc_geomean={:.6} speedup_geomean_pct={:+.4} stats_digest={} \
         (deterministic; unvalidated against hardware, no reference measurements)",
        st.model.ipc_geomean, st.model.speedup_geomean, st.model.stats_digest
    );
    let rates: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.1}", ratio(r.cells as f64, r.wall_s)))
        .collect();
    println!("rounds: cells_per_s=[{}]", rates.join(" "));
    let spread = |xs: &[f64]| stats::relative_spread(xs).map_or("-".into(), |v| format!("{v:.4}"));
    let round_walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    println!(
        "samples: batch_rounds={} (iqr/median {}) traced_rounds={} warm_requests={} \
         (iqr/median {}) cold_requests={} (iqr/median {})",
        plain.len(),
        spread(&round_walls),
        traced.len(),
        warm_ms.len(),
        spread(&warm_ms),
        cold_ms.len(),
        spread(&cold_ms)
    );

    let metrics = if let Some(p) = probes {
        let (traced_cps, traced_kuops, traced_kcycles) = throughput(&traced);
        println!("trace: end-to-end, untraced rounds vs traced rounds in this run");
        for (name, a, b) in [
            ("cells_per_s", cells_per_s, traced_cps),
            ("sim_kuops_per_s", kuops, traced_kuops),
            ("sim_kcycles_per_s", kcycles, traced_kcycles),
        ] {
            println!(
                "  {name:<18} untraced={a:.3} traced={b:.3} diff={:+.2}%",
                100.0 * ratio(b - a, a)
            );
        }
        for mt in &end_to_end {
            println!("  traced-run {:<18} {:.4} {}", mt.name, mt.value, mt.unit);
        }
        println!("trace: span self time by layer call (count, total s, self s)");
        for (name, (n, total, own)) in tracer.self_times() {
            println!("  {name:<22} {n:>7} {total:>10.4} {own:>10.4}");
        }
        let spans_path =
            PathBuf::from(".regbench").join(format!("spans-{}-{}.jsonl", plan.name, args.seed));
        tracer
            .write_jsonl(&spans_path)
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
        println!("trace: spans written to {}", spans_path.display());
        let layer = |f: fn(&Round) -> f64| med(traced.iter().map(f));
        let rtt_warm = med(warm_ms.iter().copied());
        let rtt_cold = med(cold_ms.iter().copied());
        vec![
            m("scenario.parse_s", st.parse_s, "s"),
            m("scenario.resolve_s", st.resolve_s, "s"),
            m("workloads.build_s", layer(|r| r.layers.build_s), "s"),
            m("core.new_s", layer(|r| r.layers.new_s), "s"),
            m("core.run_warmup_s", layer(|r| r.layers.warmup_s), "s"),
            m("core.run_measure_s", layer(|r| r.layers.measure_s), "s"),
            m(
                "core.ns_per_uop",
                layer(|r| 1e9 * ratio(r.layers.measure_s, r.committed as f64)),
                "ns",
            ),
            m(
                "core.ns_per_cycle",
                layer(|r| 1e9 * ratio(r.layers.measure_s, r.cycles as f64)),
                "ns",
            ),
            m("core.committed", layer(|r| r.committed as f64), "count"),
            m("core.cycles", layer(|r| r.cycles as f64), "count"),
            m(
                "isa.replay_frac",
                layer(|r| {
                    let l = &r.layers;
                    ratio(l.replayed as f64, (l.replayed + l.decodes) as f64)
                }),
                "fraction",
            ),
            m(
                "isa.oracle_decodes",
                layer(|r| r.layers.decodes as f64),
                "count",
            ),
            m("isa.stream_hits", layer(|r| r.layers.hits as f64), "count"),
            m(
                "isa.stream_misses",
                layer(|r| r.layers.misses as f64),
                "count",
            ),
            m(
                "isa.memo_streams",
                layer(|r| r.layers.published as f64),
                "count",
            ),
            m("sweep.run_s", med(plain.iter().map(|r| r.run_s)), "s"),
            m("sweep.render_s", med(plain.iter().map(|r| r.render_s)), "s"),
            m("sweep.cell_busy_s", layer(|r| r.layers.busy_s), "s"),
            m("sweep.max_cell_s", layer(|r| r.layers.max_cell_s), "s"),
            m(
                "sweep.parallel_eff",
                med(traced
                    .iter()
                    .map(|r| ratio(r.layers.busy_s, nproc as f64 * r.run_s))),
                "fraction",
            ),
            m("serve.rtt_warm_ms", rtt_warm, "ms"),
            m("serve.rtt_cold_ms", rtt_cold, "ms"),
            m("serve.submit_warm_ms", p.submit_warm_ms, "ms"),
            m("serve.submit_cold_ms", p.submit_cold_ms, "ms"),
            m("serve.transport_warm_ms", rtt_warm - p.submit_warm_ms, "ms"),
            m("serve.transport_cold_ms", rtt_cold - p.submit_cold_ms, "ms"),
            m("serve.cache_load_ms", p.cache_load_ms, "ms"),
            m("serve.cache_store_ms", p.cache_store_ms, "ms"),
            m("serve.cache_bytes", cache_bytes as f64, "bytes"),
            m("serve.computed_cells", computed as f64, "count"),
            m("serve.cache_hits", hits as f64, "count"),
            m(
                "serve.hit_frac",
                ratio(hits as f64, (hits + computed) as f64),
                "fraction",
            ),
            m("model.ipc_geomean", st.model.ipc_geomean, "ipc"),
            m("model.speedup_geomean", st.model.speedup_geomean, "%"),
            m("model.stats_digest", st.model.stats_digest as f64, "count"),
            m(
                "trace.overhead_pct",
                100.0 * ratio(cells_per_s - traced_cps, cells_per_s),
                "%",
            ),
        ]
    } else {
        end_to_end
    };
    st.daemon.shutdown()?;
    let mut metrics = metrics;
    for mt in &mut metrics {
        // JSON has no NaN or infinity; such a value is a failed check.
        if !mt.value.is_finite() {
            tally.check(false);
            mt.value = 0.0;
        }
    }
    for mt in &metrics {
        println!("{:<26} {:>16.4} {}", mt.name, mt.value, mt.unit);
    }
    println!(
        "failed_frac={:.6} (failed {} of {} operations)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    Ok(Outcome { tally, metrics })
}
