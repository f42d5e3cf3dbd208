//! Content-addressed result-cache entry codec.
//!
//! The serve daemon (`regshare-serve`) persists one file per simulated
//! (workload × configuration × window) cell. Each file is a flat
//! little-endian stream in the same discipline as [`crate::snapshot`] but
//! under its **own** magic and version, because the two formats evolve
//! independently: a machine-snapshot layout bump does not invalidate
//! cached results, and a result-payload change does not refuse old
//! machine snapshots.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RGSC"
//! 4       4     cache format version (u32 LE), currently 1
//! 8       8     cell digest (u64 LE): content address of the entry
//! ```
//!
//! The header is the snapshot header under another [`StreamFormat`], so
//! [`read_header`](crate::snapshot::read_header) with [`CACHE`] refuses a
//! stream whose magic, version or digest does not match, with the same
//! typed [`SnapError`](crate::snapshot::SnapError)s the snapshot codec
//! uses — a truncated or foreign-version cache file is a *diagnosed*
//! rejection, never a panic or a silently-wrong result.

use crate::snapshot::StreamFormat;

/// Magic bytes opening every cache-entry stream.
pub const CACHE_MAGIC: [u8; 4] = *b"RGSC";

/// Current cache-entry format version. Bump on ANY payload layout change
/// (including a layout change of the stats the payload embeds) — like the
/// snapshot format, there is no migration path: an old entry is refused
/// (and recomputed), never reinterpreted.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Cache entries: [`CACHE_MAGIC`], [`CACHE_FORMAT_VERSION`].
pub const CACHE: StreamFormat = StreamFormat {
    magic: CACHE_MAGIC,
    version: CACHE_FORMAT_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{read_header, write_header, SnapError, SnapReader, SnapWriter, SNAPSHOT};

    fn entry(digest: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        write_header(&mut w, CACHE, digest);
        w.put_u64(0xfeed);
        w.finish()
    }

    #[test]
    fn round_trips_and_checks_in_order() {
        let bytes = entry(0x0102_0304_0506_0708);
        // Pinned so existing cache directories keep loading: magic,
        // version as u32 LE, digest as u64 LE.
        assert_eq!(
            bytes[..16],
            *b"RGSC\x01\0\0\0\x08\x07\x06\x05\x04\x03\x02\x01"
        );
        let mut r = SnapReader::new(&bytes);
        read_header(&mut r, CACHE, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(r.get_u64().unwrap(), 0xfeed);
        r.expect_eof().unwrap();
    }

    #[test]
    fn foreign_streams_are_refused_with_typed_errors() {
        // A machine snapshot is NOT a cache entry: different magic.
        let mut w = SnapWriter::new();
        write_header(&mut w, SNAPSHOT, 42);
        let snap = w.finish();
        assert!(matches!(
            read_header(&mut SnapReader::new(&snap), CACHE, 42),
            Err(SnapError::BadMagic { .. })
        ));

        // Foreign version.
        let mut bytes = entry(42);
        bytes[4] = CACHE_FORMAT_VERSION as u8 + 1;
        assert_eq!(
            read_header(&mut SnapReader::new(&bytes), CACHE, 42),
            Err(SnapError::BadVersion {
                found: CACHE_FORMAT_VERSION + 1,
                supported: CACHE_FORMAT_VERSION,
            })
        );

        // Wrong cell digest (a file renamed over another cell's address).
        let bytes = entry(7);
        assert_eq!(
            read_header(&mut SnapReader::new(&bytes), CACHE, 42),
            Err(SnapError::ConfigDigestMismatch {
                found: 7,
                expected: 42
            })
        );

        // Truncation anywhere in the header.
        let bytes = entry(42);
        for cut in [0, 3, 7, 15] {
            assert!(matches!(
                read_header(&mut SnapReader::new(&bytes[..cut]), CACHE, 42),
                Err(SnapError::ShortRead { .. })
            ));
        }
    }
}
