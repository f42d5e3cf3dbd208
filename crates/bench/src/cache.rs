//! The content-addressed store of finished cells.
//!
//! One file per simulated (workload × configuration × window) cell, named
//! by the cell's content address ([`crate::cell_digest`], rendered as 16
//! hex digits + `.cell`). The serve daemon and the cached batch sweep
//! ([`crate::Scenario::run`] with a cache directory) read and write the
//! same directory: a cell either of them finished is a hit for both.
//!
//! Entry layout, flat little-endian in the [`regshare_types::snapshot`]
//! codec:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RGSC"
//! 4       4     cache format version (u32 LE), currently 1
//! 8       8     cell digest (u64 LE): content address of the entry
//! 16      ...   workload name, then the measured-window SimStats
//! ```
//!
//! [`Cache::load`] rejects truncated, foreign-version or mis-addressed
//! entries with typed [`CacheError`]s — never a panic or a silently wrong
//! result. [`Cache::lookup`] is the one damaged-entry rule both users
//! apply: discard the entry, say so on stderr, recompute the cell.
//!
//! Entries are written atomically: each writer fills its own uniquely
//! named `.tmp` file and renames it over the target, so a crash mid-write
//! never leaves a torn entry, and concurrent writers of the same cell
//! (which write identical bytes — the engine is deterministic) never
//! disturb one another.
//!
//! Eviction: with a byte cap set, every store sweeps the directory and
//! deletes least-recently-used entries (hits refresh an entry's mtime)
//! until the total is back under the cap. Eviction only ever unlinks
//! whole files, so surviving entries are untouched — there is no index
//! or journal to corrupt.

use regshare_core::SimStats;
use regshare_types::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Magic bytes opening every cache entry.
pub const CACHE_MAGIC: [u8; 4] = *b"RGSC";

/// Current cache-entry format version. Bump on ANY payload layout change
/// (including a layout change of the stats the payload embeds): there is
/// no migration path, an old entry is refused (and recomputed), never
/// reinterpreted.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Any way the cache can fail: a malformed entry, a scenario whose cells
/// cannot be addressed, or filesystem trouble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The entry file is truncated, foreign-version, mis-addressed or
    /// structurally corrupt.
    Entry(SnapError),
    /// The scenario assembles a file from the host (`kind = "asm"` with
    /// `path = ...`). Its cells are named by the file stem, which an
    /// embedded kernel may share, so storing them would poison the
    /// directory for every other reader.
    HostPath {
        /// The asm path the scenario names.
        path: String,
    },
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
            CacheError::HostPath { path } => write!(
                f,
                "asm file {path:?} cannot be cached: its cells are named by the \
                 file stem, which an embedded kernel may share (use `kernel = ...` \
                 or run without a cache directory)"
            ),
            CacheError::Io { path, msg } => write!(f, "cache file {path:?}: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Entry(e) => Some(e),
            _ => None,
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

fn encode(key: u64, workload: &str, stats: &SimStats) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_bytes(&CACHE_MAGIC);
    w.put_u32(CACHE_FORMAT_VERSION);
    w.put_u64(key);
    workload.to_string().encode(&mut w);
    stats.encode(&mut w);
    w.finish()
}

/// Decodes an entry, checking in order: magic, version, digest, workload
/// name, stats, end of stream.
fn decode(bytes: &[u8], key: u64, workload: &str) -> Result<SimStats, SnapError> {
    let mut r = SnapReader::new(bytes);
    let magic: [u8; 4] = r.get_bytes(4)?.try_into().unwrap();
    if magic != CACHE_MAGIC {
        return Err(SnapError::BadMagic { found: magic });
    }
    let version = r.get_u32()?;
    if version != CACHE_FORMAT_VERSION {
        return Err(SnapError::BadVersion {
            found: version,
            supported: CACHE_FORMAT_VERSION,
        });
    }
    let found = r.get_u64()?;
    if found != key {
        return Err(SnapError::ConfigDigestMismatch {
            found,
            expected: key,
        });
    }
    if String::decode(&mut r)? != workload {
        // The digest already covers the name; a mismatch means the file
        // was renamed over another cell's address.
        return Err(r.corrupt("cell workload name"));
    }
    let stats = SimStats::decode(&mut r)?;
    r.expect_eof()?;
    Ok(stats)
}

/// Per-process sequence number that makes every writer's temp file unique.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

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

    /// The path holding `key`'s entry.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.cell"))
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
        let stats = decode(&bytes, key, workload)?;
        // Best-effort LRU touch; a read-only cache still serves hits.
        if let Ok(f) = std::fs::File::options().write(true).open(&path) {
            let _ = f.set_modified(SystemTime::now());
        }
        Ok(Some(stats))
    }

    /// [`Cache::load`] under the damaged-entry rule every reader shares:
    /// an entry that fails to load is deleted with one line on stderr and
    /// reported as a miss, so the cell is recomputed — never served wrong
    /// and never fatal.
    pub fn lookup(&self, key: u64, workload: &str) -> Option<SimStats> {
        self.load(key, workload).unwrap_or_else(|e| {
            eprintln!("cache: discarding bad entry {key:016x}: {e}");
            let _ = std::fs::remove_file(self.entry_path(key));
            None
        })
    }

    /// Stores `key`'s result atomically (a temp file private to this call,
    /// renamed over the entry), then enforces the byte cap by evicting
    /// least-recently-used entries (never the one just written).
    pub fn store(&self, key: u64, workload: &str, stats: &SimStats) -> Result<(), CacheError> {
        let path = self.entry_path(key);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{key:016x}.{}.{seq}.tmp", std::process::id()));
        std::fs::write(&tmp, encode(key, workload, stats)).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        self.evict_to_cap(&path)
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
        let Some(cap) = self.max_bytes else {
            return Ok(());
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

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64) -> SimStats {
        SimStats {
            cycles,
            ..SimStats::default()
        }
    }

    #[test]
    fn round_trips_and_checks_in_order() {
        let bytes = encode(0x0102_0304_0506_0708, "crafty", &stats(7));
        // Pinned so existing cache directories keep loading: magic,
        // version as u32 LE, digest as u64 LE.
        assert_eq!(
            bytes[..16],
            *b"RGSC\x01\0\0\0\x08\x07\x06\x05\x04\x03\x02\x01"
        );
        assert_eq!(
            decode(&bytes, 0x0102_0304_0506_0708, "crafty"),
            Ok(stats(7))
        );
    }

    #[test]
    fn header_checks_in_order() {
        let bytes = encode(7, "crafty", &stats(7));
        // Each check fires before the next: a foreign magic wins over a
        // foreign version, which wins over a foreign digest.
        let mut foreign = bytes.clone();
        foreign[..5].copy_from_slice(b"NOPE\x09");
        assert!(matches!(
            decode(&foreign, 42, "crafty"),
            Err(SnapError::BadMagic { found }) if found == *b"NOPE"
        ));
        foreign[..4].copy_from_slice(&CACHE_MAGIC);
        assert!(matches!(
            decode(&foreign, 42, "crafty"),
            Err(SnapError::BadVersion { found: 9, .. })
        ));
        foreign[4..8].copy_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
        assert_eq!(
            decode(&foreign, 42, "crafty"),
            Err(SnapError::ConfigDigestMismatch {
                found: 7,
                expected: 42
            })
        );
    }

    #[test]
    fn foreign_streams_are_refused_with_typed_errors() {
        // Foreign version.
        let mut bytes = encode(42, "w", &stats(1));
        bytes[4] = CACHE_FORMAT_VERSION as u8 + 1;
        assert_eq!(
            decode(&bytes, 42, "w"),
            Err(SnapError::BadVersion {
                found: CACHE_FORMAT_VERSION + 1,
                supported: CACHE_FORMAT_VERSION,
            })
        );

        // Wrong cell digest (a file renamed over another cell's address).
        let bytes = encode(7, "w", &stats(1));
        assert_eq!(
            decode(&bytes, 42, "w"),
            Err(SnapError::ConfigDigestMismatch {
                found: 7,
                expected: 42
            })
        );

        // Right digest, wrong workload name.
        assert!(matches!(
            decode(&bytes, 7, "other"),
            Err(SnapError::Corrupt {
                what: "cell workload name",
                ..
            })
        ));

        // Truncation anywhere in the header.
        for cut in [0, 3, 7, 15] {
            assert!(matches!(
                decode(&bytes[..cut], 7, "w"),
                Err(SnapError::ShortRead { .. })
            ));
        }
    }

    #[test]
    fn concurrent_stores_of_one_key_all_succeed() {
        let dir = std::env::temp_dir().join(format!("regshare-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir, None).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        cache.store(42, "crafty", &stats(7)).unwrap();
                        assert_eq!(cache.load(42, "crafty"), Ok(Some(stats(7))));
                    }
                });
            }
        });
        // Every temp file was renamed into place: one entry, nothing else.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
