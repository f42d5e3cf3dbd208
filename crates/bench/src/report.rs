//! Generic scenario report: one rendering shared by every scenario front
//! door, so a `.scenario` file and the equivalent built-in preset produce
//! byte-identical output.
//!
//! Layout: a header naming the scenario (plus its note and resolved
//! window), then one [`Table`] with the first variant as the baseline
//! column (`<label>_ipc`) and a speedup column per remaining variant, the
//! `csv:` echo, and geomean-speedup footers.

use crate::scenario::{Scenario, ScenarioError};
use crate::sweep::{SweepError, SweepGrid};
use crate::table::Table;
use regshare_types::stats::geomean;

/// Renders the standard report for a completed grid (header, table, CSV,
/// geomean footers). `scenario` supplies the names; `grid` must be the
/// result of running that scenario's sweep — a grid missing that
/// scenario's labels is a typed [`SweepError`], not a panic.
pub fn render_report(scenario: &Scenario, grid: &SweepGrid) -> Result<String, SweepError> {
    let window = scenario.options.window();
    let mut out = String::new();
    out.push_str(&format!("# scenario: {}\n", scenario.name));
    if !scenario.note.is_empty() {
        out.push_str(&format!("# {}\n", scenario.note));
    }
    out.push_str(&format!(
        "window: {} warmup + {} measured µ-ops per run\n\n",
        window.warmup, window.measure
    ));

    let labels = grid.labels();
    let base = &labels[0];
    let mut header = vec!["bench".to_string(), format!("{base}_ipc")];
    header.extend(labels[1..].iter().map(|l| format!("{l}%")));
    let mut t = Table::new(header);
    let mut base_ipcs = Vec::new();
    for row in grid.rows() {
        let mut cells = vec![
            row.workload().name.clone(),
            format!("{:.3}", row.get(base)?.ipc()),
        ];
        base_ipcs.push(row.get(base)?.ipc());
        for label in &labels[1..] {
            cells.push(format!("{:+.2}", row.speedup(base, label)?));
        }
        t.row(cells);
    }
    if labels.len() == 1 {
        t.footer(format!(
            "geomean {base} IPC: {:.3}",
            geomean(&base_ipcs).unwrap_or(0.0)
        ));
    }
    for label in &labels[1..] {
        t.footer(format!(
            "geomean speedup, {label} vs {base}: {:+.2}%",
            grid.geomean_speedup(base, label)?
        ));
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Validates the scenario, runs its sweep, and renders the standard
/// report — the whole `--scenario` front door in one call. Sweep-time
/// failures surface as [`ScenarioError::Sweep`].
pub fn run_scenario(scenario: &Scenario) -> Result<String, ScenarioError> {
    crate::checkpoint::run_report(scenario, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::RunOptions;
    use crate::scenario::VariantSpec;

    fn tiny() -> Scenario {
        Scenario::builder("tiny")
            .note("unit-test scenario")
            .options(RunOptions::default().warmup(500).measure(1_500).jobs(2))
            .workloads(&["crafty"])
            .variant("base", VariantSpec::hpca16())
            .variant("both", VariantSpec::preset("me_smb"))
            .build()
            .unwrap()
    }

    #[test]
    fn report_contains_header_table_and_footers() {
        let s = tiny();
        let out = run_scenario(&s).unwrap();
        assert!(out.starts_with("# scenario: tiny\n# unit-test scenario\n"));
        assert!(out.contains("window: 500 warmup + 1500 measured µ-ops per run"));
        assert!(out.contains("bench"));
        assert!(out.contains("base_ipc"));
        assert!(out.contains("both%"));
        assert!(out.contains("csv:bench,base_ipc,both%"));
        assert!(out.contains("geomean speedup, both vs base:"));
    }

    #[test]
    fn report_is_identical_for_parsed_and_programmatic_scenarios() {
        let s = tiny();
        let reparsed = Scenario::parse(&s.render()).unwrap();
        assert_eq!(run_scenario(&s).unwrap(), run_scenario(&reparsed).unwrap());
    }
}
