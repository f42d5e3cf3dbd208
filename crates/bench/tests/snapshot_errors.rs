//! Cache entries that do not belong to a cell are never served.
//!
//! `Cache::load` decodes bytes from disk that a crash, a full disk or
//! another program may have cut short or altered: every prefix and every
//! flipped byte of an entry comes back as `Ok` or a typed `CacheError` —
//! never a panic. (Each corruption's exact error is pinned by the cache
//! module's unit tests and the serve crate's `cache_correctness` suite.)
//! And a cached sweep never takes a cell recorded for another
//! experiment: a different configuration or program is a different
//! content address, so its cells are measured afresh.

use regshare_bench::cache::{Cache, CacheError};
use regshare_bench::{
    cell_digest, measure_program, RunOptions, RunWindow, Scenario, SweepGrid, VariantSpec,
};
use regshare_core::{CoreConfig, SimStats};
use regshare_types::snapshot::SnapError;
use std::path::PathBuf;

const KEY: u64 = 0x5eed;

/// A fresh, empty per-test directory.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regshare-entry-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh cache holding one real measured entry under [`KEY`], and the
/// entry's bytes.
fn entry(tag: &str) -> (Cache, PathBuf, Vec<u8>) {
    let dir = tmp_dir(tag);
    let cache = Cache::open(&dir, None).unwrap();
    let window = RunWindow {
        warmup: 300,
        measure: 900,
    };
    let program = regshare_workloads::mini().build();
    let m = measure_program("mini", &program, CoreConfig::hpca16(), window);
    cache.store(KEY, "mini", &m.stats).unwrap();
    let bytes = std::fs::read(cache.entry_path(KEY)).unwrap();
    assert_eq!(cache.load(KEY, "mini"), Ok(Some(m.stats)));
    (cache, dir, bytes)
}

/// Writes `bytes` as [`KEY`]'s entry and loads it.
fn load(cache: &Cache, bytes: &[u8]) -> Result<Option<SimStats>, CacheError> {
    std::fs::write(cache.entry_path(KEY), bytes).unwrap();
    cache.load(KEY, "mini")
}

/// Truncating the entry at *any* prefix, down to the empty file, must
/// produce a typed error, not a panic or a hit.
#[test]
fn truncation_sweep_never_panics() {
    let (cache, dir, bytes) = entry("cut");
    for cut in 0..bytes.len() {
        match load(&cache, &bytes[..cut]) {
            Err(CacheError::Entry(SnapError::ShortRead { .. })) if cut == 0 => {}
            Err(CacheError::Entry(_)) if cut > 0 => {}
            other => panic!("cut at {cut}: unexpected {other:?}"),
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// Flipping any byte must never panic; it may fail with a typed error or —
/// for bytes that only affect the stored counters — load successfully.
#[test]
fn byte_flip_sweep_never_panics() {
    let (cache, dir, bytes) = entry("flip");
    for offset in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[offset] ^= 0x55;
        match load(&cache, &mutated) {
            Ok(Some(_)) | Err(CacheError::Entry(_)) => {}
            other => panic!("flip at {offset}: unexpected {other:?}"),
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

fn scenario() -> Scenario {
    Scenario::builder("entry_errors")
        .options(RunOptions::default().warmup(300).measure(900).jobs(2))
        .workloads(&["crafty", "hmmer"])
        .variant("base", VariantSpec::hpca16())
        .variant("both", VariantSpec::preset("me_smb"))
        .build()
        .unwrap()
}

/// The stats stored for every cell of [`scenario`]: a value no
/// simulation produces, so a served entry is told from a measured cell.
fn sentinel() -> SimStats {
    SimStats {
        cycles: 7,
        ..SimStats::default()
    }
}

/// Sweeps `other` over a directory holding [`sentinel`] stats for every
/// cell of [`scenario`]; returns that grid and a fresh run of `other`.
fn sweep_over_recorded_cells(tag: &str, other: &Scenario) -> (SweepGrid, SweepGrid) {
    let s = scenario();
    let dir = tmp_dir(tag);
    let cache = Cache::open(&dir, None).unwrap();
    for w in s.resolve_workloads().unwrap() {
        for (_, spec) in &s.variants {
            let key = cell_digest(&w.name, &spec.to_config().unwrap(), s.options.window());
            cache.store(key, &w.name, &sentinel()).unwrap();
        }
    }
    let grid = other.run(Some(dir.to_str().unwrap())).unwrap();
    std::fs::remove_dir_all(dir).unwrap();
    (grid, other.to_sweep().unwrap().run().unwrap())
}

#[test]
fn wrong_configuration_is_refused_by_digest() {
    let mut other = scenario();
    other.variants[1].1 = VariantSpec::preset("me_smb").isrb_entries(24);
    let (grid, fresh) = sweep_over_recorded_cells("config", &other);
    for w in 0..2 {
        // The unchanged machine is the same cell; the changed one is not.
        assert_eq!(grid.get(w, "base").unwrap().stats, sentinel());
        assert_eq!(
            grid.get(w, "both").unwrap().stats,
            fresh.get(w, "both").unwrap().stats
        );
    }
}

#[test]
fn wrong_program_is_refused_by_digest() {
    let s = scenario();
    let other = Scenario::builder("entry_errors")
        .options(s.options)
        .workloads(&["crafty", "mcf"])
        .variant("base", VariantSpec::hpca16())
        .variant("both", VariantSpec::preset("me_smb"))
        .build()
        .unwrap();
    let (grid, fresh) = sweep_over_recorded_cells("program", &other);
    for label in ["base", "both"] {
        assert_eq!(grid.get(0, label).unwrap().stats, sentinel());
        assert_eq!(
            grid.get(1, label).unwrap().stats,
            fresh.get(1, label).unwrap().stats
        );
    }
}
