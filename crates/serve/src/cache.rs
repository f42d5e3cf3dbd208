//! The persistent content-addressed result cache.
//!
//! One file per simulated cell, named by the cell's content address
//! ([`regshare_bench::cell_digest`], rendered as 16 hex digits +
//! `.cell`). Entries are written atomically — a sibling `.tmp` file
//! renamed over the target, the same discipline checkpoint images use —
//! so a crash mid-write can never leave a torn entry, and concurrent
//! writers of the *same* cell are harmless (both write identical bytes,
//! the deterministic engine guarantees it).
//!
//! Entry layout: the [`regshare_types::cache`] header (magic, format
//! version, cell digest), then the workload name and the measured-window
//! [`SimStats`], then end of stream. [`Cache::load`] rejects truncated,
//! foreign-version or mis-addressed entries with typed [`CacheError`]s —
//! the caller decides whether a bad entry is fatal (tests) or a
//! recompute (the engine).
//!
//! Eviction: with a byte cap set, every store sweeps the directory and
//! deletes least-recently-used entries (hits refresh an entry's mtime)
//! until the total is back under the cap. Eviction only ever unlinks
//! whole files, so surviving entries are untouched — there is no index
//! or journal to corrupt.

use regshare_core::SimStats;
use regshare_types::cache::CACHE;
use regshare_types::snapshot::{
    read_header, write_header, Snap, SnapError, SnapReader, SnapWriter,
};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Any way the cache can fail: a malformed entry or filesystem trouble.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// The entry file is truncated, foreign-version, mis-addressed or
    /// structurally corrupt.
    Entry(SnapError),
    /// A file or directory could not be read, written or replaced.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        msg: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Entry(e) => write!(f, "bad cache entry: {e}"),
            CacheError::Io { path, msg } => write!(f, "cache file {path:?}: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Entry(e) => Some(e),
            CacheError::Io { .. } => None,
        }
    }
}

impl From<SnapError> for CacheError {
    fn from(e: SnapError) -> CacheError {
        CacheError::Entry(e)
    }
}

fn io_err(path: &Path, e: std::io::Error) -> CacheError {
    CacheError::Io {
        path: path.display().to_string(),
        msg: e.to_string(),
    }
}

/// The on-disk store: a directory of content-addressed `.cell` files.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    max_bytes: Option<u64>,
}

impl Cache {
    /// Opens (creating if needed) the cache directory. `max_bytes` caps
    /// the total size of all entries; `None` means unbounded.
    pub fn open(dir: impl Into<PathBuf>, max_bytes: Option<u64>) -> Result<Cache, CacheError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(Cache { dir, max_bytes })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path holding `key`'s entry.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.cell"))
    }

    fn encode(key: u64, workload: &str, stats: &SimStats) -> Vec<u8> {
        let mut w = SnapWriter::new();
        write_header(&mut w, CACHE, key);
        workload.to_string().encode(&mut w);
        stats.encode(&mut w);
        w.finish()
    }

    fn decode(bytes: &[u8], key: u64, workload: &str) -> Result<SimStats, CacheError> {
        let mut r = SnapReader::new(bytes);
        read_header(&mut r, CACHE, key)?;
        let name = String::decode(&mut r)?;
        if name != workload {
            // The digest already covers the name; a mismatch means the
            // file was renamed over another cell's address.
            return Err(r.corrupt("cell workload name").into());
        }
        let stats = SimStats::decode(&mut r)?;
        r.expect_eof()?;
        Ok(stats)
    }

    /// Looks `key` up. `Ok(None)` is a clean miss; a present-but-invalid
    /// entry is a typed [`CacheError`], never a silently-wrong result. A
    /// hit refreshes the entry's mtime (LRU eviction order).
    pub fn load(&self, key: u64, workload: &str) -> Result<Option<SimStats>, CacheError> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        let stats = Self::decode(&bytes, key, workload)?;
        // Best-effort LRU touch; a read-only cache still serves hits.
        if let Ok(f) = std::fs::File::options().write(true).open(&path) {
            let _ = f.set_modified(SystemTime::now());
        }
        Ok(Some(stats))
    }

    /// Stores `key`'s result atomically (`.tmp` + rename), then enforces
    /// the byte cap by evicting least-recently-used entries (never the
    /// one just written).
    pub fn store(&self, key: u64, workload: &str, stats: &SimStats) -> Result<(), CacheError> {
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!("{key:016x}.tmp"));
        std::fs::write(&tmp, Self::encode(key, workload, stats)).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        if self.max_bytes.is_some() {
            self.evict_to_cap(&path)?;
        }
        Ok(())
    }

    fn entries(&self) -> Result<Vec<(PathBuf, u64, SystemTime)>, CacheError> {
        let mut out = Vec::new();
        let iter = std::fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in iter {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("cell") {
                continue;
            }
            // An entry racing deletion is simply no longer part of the
            // listing.
            if let Ok(meta) = entry.metadata() {
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((path, meta.len(), mtime));
            }
        }
        Ok(out)
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> Result<usize, CacheError> {
        Ok(self.entries()?.len())
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> Result<bool, CacheError> {
        Ok(self.len()? == 0)
    }

    /// Total bytes currently stored.
    pub fn total_bytes(&self) -> Result<u64, CacheError> {
        Ok(self.entries()?.iter().map(|(_, len, _)| len).sum())
    }

    /// Deletes least-recently-used entries (stable-ordered by mtime, then
    /// file name) until the total is under the cap, keeping `just_written`
    /// even if the cap is smaller than that single entry.
    fn evict_to_cap(&self, just_written: &Path) -> Result<(), CacheError> {
        let cap = match self.max_bytes {
            Some(cap) => cap,
            None => return Ok(()),
        };
        let mut entries = self.entries()?;
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        entries.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        for (path, len, _) in entries {
            if total <= cap {
                break;
            }
            if path == just_written {
                continue;
            }
            match std::fs::remove_file(&path) {
                Ok(()) => total -= len,
                // Already gone (another writer evicted it): fine.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => total -= len,
                Err(e) => return Err(io_err(&path, e)),
            }
        }
        Ok(())
    }
}
