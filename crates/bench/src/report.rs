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

/// Validates the scenario, runs its sweep ([`Scenario::run`], uncached),
/// and renders the standard report — the whole `--scenario` front door in
/// one call. Sweep-time failures surface as [`ScenarioError::Sweep`].
pub fn run_scenario(scenario: &Scenario) -> Result<String, ScenarioError> {
    Ok(render_report(scenario, &scenario.run(None)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Cache, CacheError};
    use crate::digest::cell_digest;
    use crate::harness::Measurement;
    use crate::options::RunOptions;
    use crate::scenario::VariantSpec;
    use regshare_core::{SimStats, Simulator};

    fn tiny() -> Scenario {
        Scenario::builder("tiny")
            .note("unit-test scenario")
            .options(RunOptions::default().warmup(500).measure(1_500).jobs(2))
            .workloads(&["crafty", "hmmer"])
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

    /// A fresh, empty per-test directory path.
    fn tmp_dir(tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("regshare-cached-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_string()
    }

    fn assert_same_grid(a: &SweepGrid, b: &SweepGrid) {
        let cells = |g: &SweepGrid| -> Vec<SimStats> {
            g.rows()
                .flat_map(|r| g.labels().iter().map(move |l| r.get(l).unwrap().stats))
                .collect()
        };
        assert_eq!(a.labels(), b.labels());
        assert_eq!(cells(a), cells(b));
    }

    /// The cache key of the tiny scenario's row-major cell `i`.
    fn key(s: &Scenario, i: usize) -> u64 {
        let (workloads, configs) = s.resolve().unwrap();
        cell_digest(&workloads[i / 2].name, &configs[i % 2], s.options.window())
    }

    #[test]
    fn cached_run_matches_the_parallel_engine_and_keeps_one_entry_per_cell() {
        let plain = tiny();
        let reference = plain.to_sweep().unwrap().run().unwrap();

        let dir = tmp_dir("eq");
        let grid = plain.run(Some(&dir)).unwrap();
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
        let cached = plain.run(Some(&dir)).unwrap();
        assert_eq!(render_report(&plain, &cached).unwrap(), report);
        assert_eq!(run_scenario(&plain).unwrap(), report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rerun_on_a_partial_directory_reproduces_the_uninterrupted_grid() {
        let plain = tiny();
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
            scenario.run(Some(&dir)).unwrap()
        };

        // Cell 0 (crafty/base) measured by hand, as two relative runs.
        let program = regshare_workloads::try_by_names(&["crafty"]).unwrap()[0].build();
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
        // Each measured cell was stored under its content address, and
        // the hit was left as it was.
        let cache = Cache::open(&dir, None).unwrap();
        for i in 0..4 {
            let want = if i == 2 {
                sentinel.stats
            } else {
                reference_cell(i).stats
            };
            let name = &reference_cell(i).name;
            assert_eq!(cache.load(key(&plain, i), name), Ok(Some(want)), "{i}");
        }

        // A damaged entry is discarded and its cell recomputed — and
        // stored again, intact.
        std::fs::write(cache.entry_path(key(&plain, 2)), b"RGSC\x01").unwrap();
        assert_same_grid(&plain.run(Some(&dir)).unwrap(), &reference);
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
        let asm = Scenario::builder("cached_asm_path")
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
            asm.run(Some(&dir)).unwrap_err(),
            ScenarioError::Cache(CacheError::HostPath { .. })
        ));
        assert!(!std::path::Path::new(&dir).exists(), "nothing was written");
        // Without a cache directory the same scenario runs.
        assert!(asm.run(None).is_ok());

        // A directory path that is a regular file.
        let file = tmp_dir("file");
        std::fs::write(&file, b"").unwrap();
        assert!(matches!(
            tiny().run(Some(&file)).unwrap_err(),
            ScenarioError::Cache(CacheError::Io { .. })
        ));
        std::fs::remove_file(&file).unwrap();
    }
}
