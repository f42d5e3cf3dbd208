//! Quick shape check: ME / SMB / combined speedups on a few workloads.
//!
//! By default runs the `smoke` preset scenario and appends per-mechanism
//! diagnostics (elimination / bypass rates, traps, false dependencies) to
//! the standard report. `--scenario <file>` / `--preset <name>` swap in any
//! other experiment (standard report only — the diagnostic columns need the
//! smoke preset's `me`/`smb` variants). Output is byte-identical at any
//! `--jobs` level; CI diffs a serial against a sharded run.

use regshare_bench::cli::run_front_door;
use regshare_bench::{render_report, Table};

fn main() {
    let (args, scenario) = run_front_door("smoke", "smoke");
    // One sweep for every scenario (checkpointed into `--cache-dir` if
    // given). Non-default experiments get the standard report only; the
    // built-in smoke preset additionally prints its per-mechanism
    // diagnostics below. Gate on how the scenario was selected, not on its
    // self-declared name — a user file named "smoke" need not have the
    // preset's variant labels.
    let run = scenario.run(args.cache_dir.as_deref()).and_then(|grid| {
        let report = render_report(&scenario, &grid)?;
        Ok((grid, report))
    });
    let (grid, report) = match run {
        Ok(done) => done,
        Err(e) => {
            eprintln!("smoke: {e}");
            std::process::exit(1);
        }
    };
    print!("{report}");
    let is_builtin_smoke =
        args.scenario_path.is_none() && args.preset.as_deref().unwrap_or("smoke") == "smoke";
    if !is_builtin_smoke {
        return;
    }

    let mut t = Table::new(vec![
        "bench", "elim", "bypassed", "traps_b", "traps_s", "fdep_b", "fdep_s",
    ]);
    for row in grid.rows() {
        let base = row.get("base").expect("smoke preset label");
        let me = row.get("me").expect("smoke preset label");
        let smb = row.get("smb").expect("smoke preset label");
        t.row(vec![
            row.workload().name.clone(),
            format!("{:.2}%", me.stats.pct_renamed_eliminated()),
            format!("{:.1}%", smb.stats.pct_loads_bypassed()),
            format!("{}", base.stats.memory_traps),
            format!("{}", smb.stats.memory_traps),
            format!("{}", base.stats.false_dependencies),
            format!("{}", smb.stats.false_dependencies),
        ]);
    }
    println!("\n# per-mechanism diagnostics\n");
    t.print();
    eprintln!("[smoke: {} jobs]", scenario.options.job_count());
}
