//! Stream-cache smoke gate: runs one sweep twice in the same process and
//! asserts the second pass is served entirely from the memoized µ-op
//! streams — zero interpreter decodes, all front-end traffic replayed —
//! and that warmth is invisible in the report bytes.
//!
//! Accepts the standard scenario front-door flags (`--preset`,
//! `--scenario`, `--warmup`, `--measure`, `--jobs`); defaults to the
//! `smoke` preset. `--cache-dir` is refused: cells served from disk would
//! skip the front end this gate measures.

use regshare_bench::cli::run_front_door;
use regshare_bench::run_scenario;
use regshare_isa::stream_cache_stats;

fn main() {
    let (args, scenario) = run_front_door("cache_smoke", "smoke");
    if args.cache_dir.is_some() {
        eprintln!("cache_smoke: --cache-dir is not supported (the gate must simulate every cell)");
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

    println!(
        "cache_smoke: cold pass decoded {cold_decodes} uops; \
         warm pass decoded {warm_decodes}, replayed {warm_replays}"
    );

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
