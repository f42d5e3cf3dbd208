//! Cache correctness: cold/warm byte-identity, persistence across engine
//! restarts, one store shared with cached batch sweeps, eviction
//! that never corrupts survivors, and typed rejection of damaged entries
//! (the decoder's no-panic sweeps are in `regshare-bench`'s
//! `snapshot_errors` suite).

use regshare_bench::cache::CACHE_FORMAT_VERSION;
use regshare_bench::digest::cell_digest;
use regshare_bench::{render_report, RunOptions, Scenario, VariantSpec};
use regshare_core::{CoreConfig, SimStats};
use regshare_serve::engine::{Engine, EngineConfig, Format};
use regshare_serve::{Cache, CacheError};
use regshare_types::snapshot::SnapError;
use std::path::{Path, PathBuf};

fn tiny(name: &str) -> Scenario {
    Scenario::builder(name)
        .options(RunOptions::default().warmup(500).measure(1_500))
        .workloads(&["crafty", "hmmer"])
        .variant("base", VariantSpec::hpca16())
        .variant("both", VariantSpec::preset("me_smb"))
        .build()
        .unwrap()
}

/// A fresh per-test cache directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("regshare-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn as_str(&self) -> String {
        self.0.to_str().unwrap().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn engine(dir: &TempDir) -> Engine {
    Engine::new(EngineConfig {
        cache_dir: dir.as_str(),
        workers: 2,
        ..EngineConfig::default()
    })
    .unwrap()
}

#[test]
fn cold_then_warm_is_byte_identical_and_fully_cached() {
    let dir = TempDir::new("cold-warm");
    let scenario = tiny("serve_cold_warm");
    let eng = engine(&dir);

    let cold = eng.submit(&scenario, Format::Table).unwrap();
    assert_eq!(cold.cells, 4);
    assert_eq!(cold.cached, 0);
    assert_eq!(cold.computed, 4);
    assert_eq!(eng.computed_cells(), 4);

    // The served body is exactly what the batch path renders.
    let grid = scenario.to_sweep().unwrap().run().unwrap();
    assert_eq!(cold.body, render_report(&scenario, &grid).unwrap());

    let warm = eng.submit(&scenario, Format::Table).unwrap();
    assert_eq!(warm.cached, 4);
    assert_eq!(warm.computed, 0);
    assert_eq!(warm.body, cold.body, "cache hits must be invisible");
    assert_eq!(eng.computed_cells(), 4, "warm request simulated nothing");
}

#[test]
fn cache_survives_engine_restart() {
    let dir = TempDir::new("restart");
    let scenario = tiny("serve_restart");
    let cold_body = {
        let eng = engine(&dir);
        eng.submit(&scenario, Format::Table).unwrap().body
        // Engine dropped here: worker pool drained, cache files on disk.
    };

    let eng2 = engine(&dir);
    let warm = eng2.submit(&scenario, Format::Table).unwrap();
    assert_eq!(warm.computed, 0, "a fresh engine must hit the disk cache");
    assert_eq!(warm.cached, 4);
    assert_eq!(eng2.computed_cells(), 0);
    assert_eq!(warm.body, cold_body);
}

#[test]
fn batch_sweep_warms_the_daemon_cache() {
    let dir = TempDir::new("batch-warm");
    let scenario = tiny("serve_batch_warm");
    let grid = scenario.run(Some(&dir.as_str())).unwrap();

    // A daemon on the batch run's directory simulates nothing and serves
    // exactly the batch report.
    let eng = engine(&dir);
    let warm = eng.submit(&scenario, Format::Table).unwrap();
    assert_eq!(warm.computed, 0);
    assert_eq!(warm.cached, 4);
    assert_eq!(eng.computed_cells(), 0);
    assert_eq!(warm.body, render_report(&scenario, &grid).unwrap());
}

#[test]
fn json_body_carries_provenance_and_flips_on_warm() {
    let dir = TempDir::new("json");
    let scenario = tiny("serve_json");
    let eng = engine(&dir);

    let cold = eng.submit(&scenario, Format::Json).unwrap();
    assert_eq!(cold.body.matches("\"cached\": false").count(), 4);
    let warm = eng.submit(&scenario, Format::Json).unwrap();
    assert_eq!(warm.body.matches("\"cached\": true").count(), 4);
    // Everything except provenance is identical.
    assert_eq!(
        cold.body.replace("\"cached\": false", "\"cached\": true"),
        warm.body
    );
}

fn fake_stats(seed: u64) -> SimStats {
    SimStats {
        cycles: 1_000 + seed,
        committed: 2_000 + seed,
        ..SimStats::default()
    }
}

#[test]
fn eviction_under_size_cap_never_corrupts_survivors() {
    let dir = TempDir::new("evict");
    // Each entry is a few dozen bytes; cap to roughly three entries.
    let one_entry = {
        let probe = Cache::open(dir.path(), None).unwrap();
        probe.store(0, "w0", &fake_stats(0)).unwrap();
        probe.total_bytes().unwrap()
    };
    let _ = std::fs::remove_dir_all(dir.path());
    let cap = one_entry * 3;
    let cache = Cache::open(dir.path(), Some(cap)).unwrap();

    for key in 0..16u64 {
        let name = format!("w{key}");
        cache.store(key, &name, &fake_stats(key)).unwrap();
        assert!(
            cache.total_bytes().unwrap() <= cap,
            "cap enforced after store {key}"
        );
        // Every surviving entry still decodes to exactly what was stored.
        let mut survivors = 0;
        for k in 0..=key {
            let name = format!("w{k}");
            match cache.load(k, &name) {
                Ok(Some(stats)) => {
                    assert_eq!(stats, fake_stats(k), "entry {k} intact");
                    survivors += 1;
                }
                Ok(None) => {} // evicted: fine
                Err(e) => panic!("entry {k} corrupted by eviction: {e}"),
            }
        }
        assert!(survivors >= 1, "the just-written entry always survives");
        assert!(
            cache.load(key, &format!("w{key}")).unwrap().is_some(),
            "the just-written entry itself is never the victim"
        );
    }
}

#[test]
fn lru_hits_protect_entries_from_eviction() {
    let dir = TempDir::new("lru");
    let one_entry = {
        let probe = Cache::open(dir.path(), None).unwrap();
        probe.store(0, "w0", &fake_stats(0)).unwrap();
        probe.total_bytes().unwrap()
    };
    let _ = std::fs::remove_dir_all(dir.path());
    let cache = Cache::open(dir.path(), Some(one_entry * 2)).unwrap();

    cache.store(1, "w1", &fake_stats(1)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    cache.store(2, "w2", &fake_stats(2)).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    // Touch entry 1: it becomes the most recently used.
    assert!(cache.load(1, "w1").unwrap().is_some());
    std::thread::sleep(std::time::Duration::from_millis(20));
    // Storing a third entry must evict 2 (LRU), not the freshly-hit 1.
    cache.store(3, "w3", &fake_stats(3)).unwrap();
    assert!(cache.load(1, "w1").unwrap().is_some(), "hit entry kept");
    assert!(cache.load(2, "w2").unwrap().is_none(), "LRU entry evicted");
    assert!(cache.load(3, "w3").unwrap().is_some());
}

#[test]
fn truncated_and_foreign_entries_are_rejected_with_typed_errors() {
    let dir = TempDir::new("reject");
    let cache = Cache::open(dir.path(), None).unwrap();
    cache.store(7, "w7", &fake_stats(7)).unwrap();
    let path = cache.entry_path(7);
    let good = std::fs::read(&path).unwrap();

    // Truncated mid-payload: ShortRead.
    std::fs::write(&path, &good[..good.len() - 3]).unwrap();
    match cache.load(7, "w7") {
        Err(CacheError::Entry(SnapError::ShortRead { .. })) => {}
        other => panic!("truncated entry: got {other:?}"),
    }

    // Another kind of file: BadMagic.
    let mut foreign = good.clone();
    foreign[..4].copy_from_slice(b"NOPE");
    std::fs::write(&path, &foreign).unwrap();
    match cache.load(7, "w7") {
        Err(CacheError::Entry(SnapError::BadMagic { found })) => {
            assert_eq!(&found, b"NOPE");
        }
        other => panic!("foreign magic: got {other:?}"),
    }

    // A future format version: BadVersion, never reinterpretation.
    let mut vers = good.clone();
    vers[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &vers).unwrap();
    match cache.load(7, "w7") {
        Err(CacheError::Entry(SnapError::BadVersion { found, supported })) => {
            assert_eq!(found, 99);
            assert_eq!(supported, CACHE_FORMAT_VERSION);
        }
        other => panic!("foreign version: got {other:?}"),
    }

    // An entry renamed over another cell's address: digest mismatch.
    std::fs::write(&path, &good).unwrap();
    std::fs::rename(&path, cache.entry_path(8)).unwrap();
    match cache.load(8, "w8") {
        Err(CacheError::Entry(SnapError::ConfigDigestMismatch { found, expected })) => {
            assert_eq!(found, 7);
            assert_eq!(expected, 8);
        }
        other => panic!("mis-addressed entry: got {other:?}"),
    }

    // Trailing garbage after a valid payload: Corrupt, not silent accept.
    let mut long = good.clone();
    long.extend_from_slice(&[0u8; 4]);
    std::fs::write(cache.entry_path(7), &long).unwrap();
    match cache.load(7, "w7") {
        Err(CacheError::Entry(SnapError::Corrupt { .. })) => {}
        other => panic!("oversize entry: got {other:?}"),
    }
}

#[test]
fn engine_recomputes_over_a_damaged_entry() {
    let dir = TempDir::new("heal");
    let scenario = tiny("serve_heal");
    let eng = engine(&dir);
    let cold = eng.submit(&scenario, Format::Table).unwrap();

    // Damage exactly one cell's entry on disk.
    let window = scenario.options.window();
    let cfg: CoreConfig = VariantSpec::hpca16().to_config().unwrap();
    let key = cell_digest("crafty", &cfg, window);
    let path = eng.cache().entry_path(key);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..10]).unwrap();

    let healed = eng.submit(&scenario, Format::Table).unwrap();
    assert_eq!(healed.computed, 1, "only the damaged cell is recomputed");
    assert_eq!(healed.cached, 3);
    assert_eq!(healed.body, cold.body, "healed result is byte-identical");
    // And the heal is persistent: the next request is fully cached.
    let warm = eng.submit(&scenario, Format::Table).unwrap();
    assert_eq!(warm.computed, 0);
}
