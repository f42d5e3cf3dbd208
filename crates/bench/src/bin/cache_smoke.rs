//! Stream-cache smoke gate: runs one sweep twice in the same process and
//! asserts the second pass is served entirely from the memoized µ-op
//! streams — zero interpreter decodes, all front-end traffic replayed —
//! and that warmth is invisible in the report bytes.
//!
//! Accepts the standard scenario front-door flags (`--preset`,
//! `--scenario`, `--warmup`, `--measure`, `--jobs`); defaults to the
//! `smoke` preset at a 2 000 + 8 000 µ-op window unless a flag or the
//! scenario file sets one. A window that, with the furthest any variant's
//! fetch runs ahead of commit (`CoreConfig::fetch_run_ahead`), reaches past
//! the stream cache's `RECORD_CAP` is refused (exit 2): warm streams would
//! run live past the recorded prefix, so the gate could only fail.
//! `--cache-dir` is refused too: cells served from disk would skip the
//! front end this gate measures.
//!
//! Stdout is deterministic (run it twice and diff). The cold pass's decode
//! count goes to stderr: it depends on which worker records a shared
//! stream first, so it changes from run to run.

use regshare_bench::cli::run_front_door;
use regshare_bench::run_scenario;
use regshare_isa::stream::RECORD_CAP;
use regshare_isa::stream_cache_stats;

/// The default window: the one CI runs.
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 8_000;

fn main() {
    let (args, mut scenario) = run_front_door("cache_smoke", "smoke");
    if args.cache_dir.is_some() {
        eprintln!("cache_smoke: --cache-dir is not supported (the gate must simulate every cell)");
        std::process::exit(2);
    }
    let warmup = *scenario.options.warmup.get_or_insert(WARMUP);
    let measure = *scenario.options.measure.get_or_insert(MEASURE);
    // A variant that does not resolve fails the run below.
    let configs = scenario
        .variants
        .iter()
        .filter_map(|(_, v)| v.to_config().ok());
    let run_ahead = configs.map(|c| c.fetch_run_ahead()).max().unwrap_or(0);
    if warmup.saturating_add(measure).saturating_add(run_ahead) > RECORD_CAP as u64 {
        eprintln!(
            "cache_smoke: a {warmup} + {measure} µ-op window, plus fetch running up to \
             {run_ahead} µ-ops ahead of commit, exceeds the stream cache's RECORD_CAP of \
             {RECORD_CAP} µ-ops; warm runs would decode past it"
        );
        std::process::exit(2);
    }

    let run = || match run_scenario(&scenario) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("cache_smoke: {e}");
            std::process::exit(1);
        }
    };

    let before = stream_cache_stats();
    let first = run();
    let after_cold = stream_cache_stats();
    let second = run();
    let after_warm = stream_cache_stats();

    let cold_decodes = after_cold.oracle_decodes - before.oracle_decodes;
    let warm_decodes = after_warm.oracle_decodes - after_cold.oracle_decodes;
    let warm_replays = after_warm.replayed_uops - after_cold.replayed_uops;

    eprintln!("cache_smoke: cold pass decoded {cold_decodes} uops");
    println!("cache_smoke: warm pass decoded {warm_decodes}, replayed {warm_replays}");

    let mut failed = false;
    if cold_decodes == 0 {
        eprintln!("cache_smoke: cold pass decoded nothing — sweep too small to prove anything");
        failed = true;
    }
    if warm_decodes != 0 {
        eprintln!("cache_smoke: warm pass hit the interpreter {warm_decodes} times (want 0)");
        failed = true;
    }
    if warm_replays == 0 {
        eprintln!("cache_smoke: warm pass replayed nothing from the stream cache");
        failed = true;
    }
    if first != second {
        eprintln!("cache_smoke: warm report differs from cold report — cache warmth leaked");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    print!("{second}");
}
