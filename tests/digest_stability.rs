//! Digest stability: every checked-in `scenarios/*.scenario`, run through
//! the simulator, must reproduce two golden digests per cell and keep its
//! register accounting clean:
//!
//! - `arch_digest`, the committed architectural trace, captured from the
//!   pre-refactor core;
//! - a timing digest, FNV-1a over the `SimStats::encode` bytes of the
//!   end-of-run stats (cycles, every counter and the tracker's
//!   `TrackerStats`).
//!
//! This is the contract that lets the hot loop be refactored for speed:
//! any change to the committed trace or to the cycle count — however
//! small — shows up as a digest mismatch here.
//!
//! To re-capture the goldens after an *intentional* model change:
//!
//! ```text
//! REGSHARE_UPDATE_GOLDENS=1 cargo test --test digest_stability
//! ```
//!
//! and commit the rewritten `tests/golden_digests.txt` with an explanation
//! of why the trace legitimately changed.

use regshare::bench::Scenario;
use regshare::core::{SimStats, Simulator};
use regshare::types::snapshot::{Snap, SnapWriter};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Small fixed window: large enough to exercise branches, traps, sharing
/// and recovery on every workload; small enough that the full scenario
/// matrix stays cheap in debug builds.
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 4_000;

/// Per-scenario workload cap. Scenarios that default to the full
/// 36-workload suite are sampled; explicitly named workload lists are
/// sampled the same way, keeping the matrix O(scenarios × variants).
const WORKLOAD_CAP: usize = 3;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_path() -> PathBuf {
    repo_root().join("tests/golden_digests.txt")
}

fn scenario_paths() -> Vec<PathBuf> {
    let dir = repo_root().join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {dir:?}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .scenario files in {dir:?}");
    paths
}

/// FNV-1a over the canonical `Snap` encoding of `stats`.
fn stats_digest(stats: &SimStats) -> u64 {
    let mut w = SnapWriter::new();
    stats.encode(&mut w);
    w.finish().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs every (scenario × workload × variant) cell and renders one line
/// per cell: `<scenario>/<workload>/<variant> <arch> <timing>`, each
/// digest as 16 hex digits.
fn capture() -> String {
    let mut out = String::new();
    for path in scenario_paths() {
        let scenario = Scenario::load(path.to_str().expect("utf-8 path"))
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let workloads = scenario
            .resolve_workloads()
            .unwrap_or_else(|e| panic!("{path:?}: {e}"));
        for wl in workloads.iter().take(WORKLOAD_CAP) {
            let program = wl.build();
            for (label, spec) in &scenario.variants {
                let cfg = spec
                    .to_config()
                    .unwrap_or_else(|e| panic!("{path:?} variant {label}: {e}"));
                let mut sim = Simulator::new(&program, cfg);
                sim.run(WARMUP);
                sim.run(MEASURE);
                sim.audit_registers().unwrap_or_else(|e| {
                    panic!(
                        "{}/{}/{label}: register audit failed: {e}",
                        scenario.name, wl.name
                    )
                });
                writeln!(
                    out,
                    "{}/{}/{label} {:016x} {:016x}",
                    scenario.name,
                    wl.name,
                    sim.arch_digest(),
                    stats_digest(&sim.stats())
                )
                .expect("write to string");
            }
        }
    }
    out
}

#[test]
fn scenario_digests_match_pre_refactor_goldens() {
    let actual = capture();
    let path = golden_path();
    if std::env::var_os("REGSHARE_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        eprintln!("golden digests rewritten: {path:?}");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {path:?}: {e}\n\
             (run with REGSHARE_UPDATE_GOLDENS=1 to capture goldens)"
        )
    });
    if actual != golden {
        // Report the first few diverging lines, not a 100-line dump.
        let mut diffs = actual
            .lines()
            .zip(golden.lines())
            .filter(|(a, g)| a != g)
            .take(5)
            .map(|(a, g)| format!("  got      {a}\n  expected {g}"))
            .collect::<Vec<_>>();
        if actual.lines().count() != golden.lines().count() {
            diffs.push(format!(
                "  line count changed: got {}, expected {}",
                actual.lines().count(),
                golden.lines().count()
            ));
        }
        panic!(
            "committed trace or timing diverged from the goldens \
             ({} cells checked):\n{}",
            golden.lines().count(),
            diffs.join("\n")
        );
    }
}
