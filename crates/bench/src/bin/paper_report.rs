//! Generates a compact paper-vs-measured report (the source material for
//! EXPERIMENTS.md). By default it runs the `headline` preset scenario; any
//! other experiment can be selected with `--preset <name>` or driven from a
//! checked-in `.scenario` file — the two front doors produce byte-identical
//! output for equivalent definitions (CI asserts this against
//! `scenarios/headline.scenario`).
//!
//! ```sh
//! cargo run --release -p regshare-bench --bin paper_report -- --measure 120000
//! cargo run --release -p regshare-bench --bin paper_report -- \
//!     --scenario scenarios/headline.scenario
//! cargo run --release -p regshare-bench --bin paper_report -- --list-presets
//! ```
//!
//! The whole (workload × config) matrix runs through the parallel sweep
//! engine (`--jobs` workers), so wall clock scales with cores while the
//! report stays byte-identical to a serial run. With `--cache-dir <dir>`
//! every finished cell is stored in the content-addressed cell cache, so a
//! killed run, rerun on the same directory, measures only the missing
//! cells and still prints what an uninterrupted one does.

use regshare_bench::cli::run_front_door;
use regshare_bench::render_report;

fn main() {
    let (args, scenario) = run_front_door("paper_report", "headline");
    let run = scenario.run(args.cache_dir.as_deref());
    match run.and_then(|grid| Ok(render_report(&scenario, &grid)?)) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("paper_report: {e}");
            std::process::exit(1);
        }
    }
}
