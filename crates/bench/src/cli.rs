//! Shared command-line front door for the experiment binaries.
//!
//! Every binary (`smoke`, `paper_report`) understands the same flags:
//!
//! ```text
//! --scenario <file>   run a .scenario file instead of the built-in preset
//! --preset <name>     run a named built-in scenario (see --list-presets)
//! --warmup <uops>     override the warmup window
//! --measure <uops>    override the measured window
//! --jobs <n>          override the sweep worker count
//! --cache-dir <dir>   take finished cells from <dir>, store new ones there
//! --list-presets      list the built-in scenarios and exit
//! --list-workloads    list the workload registry and exit
//! --help              usage
//! ```
//!
//! Flag > scenario file > default, in that order (see [`crate::options`]).
//! `--cache-dir` names the content-addressed cell cache (the same flag and
//! directory format as the serve daemon's) that checkpoints the run: it is
//! passed beside the scenario to [`Scenario::run`], never folded into it.

use crate::options::RunOptions;
use crate::scenario::{preset, Scenario, ScenarioError, SCENARIO_PRESETS};

/// Parsed command line for a scenario-driven binary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliArgs {
    /// `--scenario <file>`.
    pub scenario_path: Option<String>,
    /// `--preset <name>`.
    pub preset: Option<String>,
    /// `--warmup` / `--measure` / `--jobs` overrides.
    pub overrides: RunOptions,
    /// `--cache-dir <dir>`.
    pub cache_dir: Option<String>,
    /// `--list-presets`.
    pub list_presets: bool,
    /// `--list-workloads`.
    pub list_workloads: bool,
    /// `--help`.
    pub help: bool,
}

impl CliArgs {
    /// Parses raw arguments (without the binary name). Unknown flags and
    /// malformed values return a message for stderr.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<CliArgs, String> {
        let args: Vec<String> = args.collect();
        let mut out = CliArgs::default();
        let mut i = 0;
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--scenario" => out.scenario_path = Some(value(&mut i)?),
                "--preset" => out.preset = Some(value(&mut i)?),
                "--warmup" => {
                    let v = value(&mut i)?;
                    out.overrides.warmup =
                        Some(v.parse().map_err(|_| format!("bad --warmup value {v:?}"))?);
                }
                "--measure" => {
                    let v = value(&mut i)?;
                    out.overrides.measure = Some(
                        v.parse()
                            .map_err(|_| format!("bad --measure value {v:?}"))?,
                    );
                }
                "--jobs" => {
                    let v = value(&mut i)?;
                    let n: usize = v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?;
                    // Same typed rejection as scenario files and RunOptions.
                    out.overrides = out
                        .overrides
                        .try_jobs(n)
                        .map_err(|e| format!("--jobs: {e}"))?;
                }
                "--cache-dir" => out.cache_dir = Some(value(&mut i)?),
                "--list-presets" => out.list_presets = true,
                "--list-workloads" => out.list_workloads = true,
                "--help" | "-h" => out.help = true,
                other => return Err(format!("unknown flag {other:?} (try --help)")),
            }
            i += 1;
        }
        if out.scenario_path.is_some() && out.preset.is_some() {
            return Err("--scenario and --preset are mutually exclusive".to_string());
        }
        Ok(out)
    }

    /// Resolves the scenario to run: `--scenario` file, `--preset` name, or
    /// the binary's default preset — with the CLI's window/jobs overrides
    /// already applied on top.
    pub fn resolve_scenario(&self, default_preset: &str) -> Result<Scenario, ScenarioError> {
        let mut scenario = if let Some(path) = &self.scenario_path {
            Scenario::load(path)?
        } else {
            let name = self.preset.as_deref().unwrap_or(default_preset);
            preset(name).ok_or_else(|| ScenarioError::UnknownPreset(name.to_string()))?
        };
        scenario.options = self.overrides.over(scenario.options);
        Ok(scenario)
    }
}

/// The `--list-presets` listing (stable output: name, then the preset
/// file's `note`).
pub fn preset_listing() -> String {
    let mut out = String::from("built-in scenarios (run with --preset <name>):\n");
    for (name, _) in SCENARIO_PRESETS {
        let note = preset(name).expect("listed preset").note;
        out.push_str(&format!("  {name:<16} {note}\n"));
    }
    out
}

/// The `--list-workloads` listing: the suite registry, in suite order,
/// plus the fuzz generator's naming scheme — everything a scenario file's
/// `workloads = [...]` may reference.
pub fn workload_listing() -> String {
    let mut out = String::from("workload registry (scenario `workloads = [...]` names):\n");
    for name in regshare_workloads::names() {
        out.push_str(&format!("  {name}\n"));
    }
    out.push_str(
        "generated workloads: fuzz-<profile>-<seed> (see README \"Fuzzing\"); profiles:\n",
    );
    for p in regshare_workloads::fuzz::profiles() {
        out.push_str(&format!("  {:<10} {}\n", p.name, p.description));
    }
    out
}

/// The shared usage text.
pub fn usage(bin: &str, default_preset: &str) -> String {
    format!(
        "usage: {bin} [--scenario <file> | --preset <name>] \
         [--warmup <uops>] [--measure <uops>] [--jobs <n>] \
         [--cache-dir <dir>] \
         [--list-presets] [--list-workloads]\n\
         default: --preset {default_preset}"
    )
}

/// The whole shared binary prologue: parses `std::env::args`, prints
/// usage / listings and exits for the informational flags and for errors,
/// and otherwise returns the resolved scenario (overrides applied).
/// `smoke` and `paper_report` differ only in what they do with the
/// returned scenario.
pub fn run_front_door(bin: &str, default_preset: &str) -> (CliArgs, Scenario) {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{bin}: {msg}");
            eprintln!("{}", usage(bin, default_preset));
            std::process::exit(2);
        }
    };
    if args.help {
        println!("{}", usage(bin, default_preset));
        std::process::exit(0);
    }
    if args.list_presets {
        print!("{}", preset_listing());
        std::process::exit(0);
    }
    if args.list_workloads {
        print!("{}", workload_listing());
        std::process::exit(0);
    }
    match args.resolve_scenario(default_preset) {
        Ok(scenario) => (args, scenario),
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        CliArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--scenario",
            "x.scenario",
            "--warmup",
            "100",
            "--measure",
            "200",
            "--jobs",
            "3",
        ])
        .unwrap();
        assert_eq!(a.scenario_path.as_deref(), Some("x.scenario"));
        assert_eq!(a.overrides.warmup, Some(100));
        assert_eq!(a.overrides.measure, Some(200));
        assert_eq!(a.overrides.jobs, Some(3));
        assert!(parse(&["--list-presets"]).unwrap().list_presets);
        assert!(parse(&["--help"]).unwrap().help);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--warmup"]).is_err());
        assert!(parse(&["--warmup", "lots"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--cache-dir"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--scenario", "a", "--preset", "b"]).is_err());
    }

    #[test]
    fn checkpoint_flags_fill_the_run_plan() {
        let a = parse(&["--preset", "smoke", "--cache-dir", "cells"]).unwrap();
        assert_eq!(a.cache_dir.as_deref(), Some("cells"));
        // The plan never leaks into the experiment it runs.
        assert_eq!(
            a.resolve_scenario("headline").unwrap(),
            preset("smoke").unwrap()
        );
        // Resuming is rerunning on the same directory: no `--resume`.
        assert!(parse(&["--resume", "cells"]).is_err());
    }

    #[test]
    fn resolves_presets_and_applies_overrides() {
        let a = parse(&["--preset", "smoke", "--warmup", "42"]).unwrap();
        let s = a.resolve_scenario("headline").unwrap();
        assert_eq!(s.name, "smoke");
        assert_eq!(s.options.warmup, Some(42));

        let a = parse(&[]).unwrap();
        assert_eq!(a.resolve_scenario("headline").unwrap().name, "headline");

        let a = parse(&["--preset", "nope"]).unwrap();
        assert!(matches!(
            a.resolve_scenario("headline").unwrap_err(),
            ScenarioError::UnknownPreset(_)
        ));
    }

    #[test]
    fn listing_names_every_preset() {
        let listing = preset_listing();
        for (name, _) in SCENARIO_PRESETS {
            let note = preset(name).unwrap().note;
            assert!(!note.is_empty(), "{name} has no note");
            assert!(
                listing
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(name) && l.ends_with(&note)),
                "{name}'s line does not carry its file note {note:?}"
            );
        }
    }
}
