//! Dependency-free binary codec for the workspace's on-disk streams: the
//! entries of the content-addressed cell cache (`regshare-bench`'s
//! `cache` module), which hold a workload name and its measured
//! `SimStats`.
//!
//! Streams are flat little-endian byte sequences with length-prefixed
//! containers — no self-description, no schema evolution, no external
//! crates. Every read is bounds-checked, and every malformed input maps to
//! a typed [`SnapError`] naming what was wrong; values are written and read
//! one by one via [`Snap`].
//!
//! # Examples
//!
//! ```
//! use regshare_types::snapshot::{Snap, SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! Some(7u64).encode(&mut w);
//! let bytes = w.finish();
//! let mut r = SnapReader::new(&bytes);
//! assert_eq!(Option::<u64>::decode(&mut r).unwrap(), Some(7));
//! ```

use std::fmt;

/// Typed decode failure. Every malformed input maps to one of these —
/// decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream does not start with its format's magic — not this kind
    /// of stream at all.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The stream was written by a different format version.
    BadVersion {
        /// Version recorded in the stream.
        found: u32,
        /// The only version this build reads.
        supported: u32,
    },
    /// The stream was recorded for a different experiment: a cache entry
    /// stored under another cell's address.
    ConfigDigestMismatch {
        /// Digest recorded in the stream.
        found: u64,
        /// Digest of the cell being looked up.
        expected: u64,
    },
    /// The stream ended before a field could be read in full.
    ShortRead {
        /// Byte offset at which the read started.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
        /// Total stream length.
        len: usize,
    },
    /// A structurally invalid value (bad enum tag, out-of-range index,
    /// non-UTF-8 string...).
    Corrupt {
        /// Byte offset of the offending value.
        offset: usize,
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic { found } => {
                write!(f, "not a regshare snapshot (magic {found:02x?})")
            }
            SnapError::BadVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported \
                 (this build reads version {supported})"
            ),
            SnapError::ConfigDigestMismatch { found, expected } => write!(
                f,
                "snapshot was captured under a different configuration \
                 (digest {found:016x}, expected {expected:016x})"
            ),
            SnapError::ShortRead {
                offset,
                needed,
                len,
            } => write!(
                f,
                "snapshot truncated: need {needed} byte(s) at offset {offset}, \
                 stream is {len} byte(s)"
            ),
            SnapError::Corrupt { offset, what } => {
                write!(f, "snapshot corrupt at offset {offset}: invalid {what}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only little-endian stream builder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    #[inline]
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a container length as a `u64`.
    #[inline]
    pub fn put_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Appends raw bytes with no length prefix (fixed-size payloads).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes the writer, returning the stream.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a snapshot stream; every read is bounds-checked and
/// returns [`SnapError::ShortRead`] instead of panicking.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte stream.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes left in the stream.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Builds a [`SnapError::Corrupt`] anchored at the current offset —
    /// for decoders rejecting a structurally invalid value (enum tag,
    /// range check) they have already consumed.
    pub fn corrupt(&self, what: &'static str) -> SnapError {
        SnapError::Corrupt {
            offset: self.pos,
            what,
        }
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::ShortRead {
                offset: self.pos,
                needed: n,
                len: self.buf.len(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.get_bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.get_bytes(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    #[inline]
    pub fn get_u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.get_bytes(16)?.try_into().unwrap()))
    }

    /// Reads a container length, rejecting lengths that could not
    /// possibly fit in the remaining stream (every element encodes to at
    /// least one byte), so corrupt prefixes cannot trigger huge
    /// allocations.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        let raw = self.get_u64()?;
        let len = usize::try_from(raw).map_err(|_| self.corrupt("container length"))?;
        if len > self.remaining() {
            return Err(SnapError::ShortRead {
                offset: self.pos,
                needed: len,
                len: self.buf.len(),
            });
        }
        Ok(len)
    }

    /// Fails with [`SnapError::Corrupt`] unless the stream is fully
    /// consumed — trailing garbage means the payload and the reader
    /// disagree about the layout.
    pub fn expect_eof(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(self.corrupt("trailing bytes"));
        }
        Ok(())
    }
}

/// An owned value with a canonical binary encoding.
pub trait Snap: Sized {
    /// Appends the canonical encoding of `self`.
    fn encode(&self, w: &mut SnapWriter);
    /// Decodes one value, consuming exactly what [`Snap::encode`] wrote.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snap for $ty {
            #[inline]
            fn encode(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            #[inline]
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    };
}

snap_prim!(u64, put_u64, get_u64);
snap_prim!(u128, put_u128, get_u128);

impl Snap for usize {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.get_u64()?).map_err(|_| r.corrupt("usize"))
    }
}

impl Snap for String {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let bytes = r.get_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| r.corrupt("utf-8 string"))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(r.corrupt("Option tag")),
        }
    }
}

/// Implements [`Snap`] for a struct by encoding its listed fields in
/// order. The field list is the layout contract — keep it exhaustive and
/// stable, and bump the format version of every stream embedding the type
/// when it changes.
#[macro_export]
macro_rules! impl_snap {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::snapshot::Snap for $ty {
            fn encode(&self, w: &mut $crate::snapshot::SnapWriter) {
                $( $crate::snapshot::Snap::encode(&self.$field, w); )*
            }
            fn decode(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapError> {
                Ok(Self { $( $field: $crate::snapshot::Snap::decode(r)? ),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunningMean;

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        v.encode(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        r.expect_eof().unwrap();
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(u64::MAX);
        round_trip(u128::MAX - 7);
        round_trip(usize::MAX);
        round_trip(String::from("snapshot"));
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(RunningMean::new());
        let mut m = RunningMean::new();
        for sample in [7, 3, u64::MAX] {
            m.add(sample);
        }
        round_trip(m);
    }

    #[test]
    fn short_reads_are_typed_not_panics() {
        let mut w = SnapWriter::new();
        w.put_u32(7);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            u64::decode(&mut r),
            Err(SnapError::ShortRead { needed: 8, .. })
        ));
    }

    #[test]
    fn huge_length_prefix_is_rejected_before_allocating() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            String::decode(&mut r),
            Err(SnapError::ShortRead { .. })
        ));
    }

    #[test]
    fn invalid_tags_are_corrupt() {
        let mut r = SnapReader::new(&[9u8]);
        assert_eq!(
            Option::<u64>::decode(&mut r).unwrap_err(),
            SnapError::Corrupt {
                offset: 1,
                what: "Option tag"
            }
        );
    }

    #[test]
    fn errors_display_their_payload() {
        let cases: Vec<(SnapError, &str)> = vec![
            (SnapError::BadMagic { found: *b"NOPE" }, "not a regshare"),
            (
                SnapError::BadVersion {
                    found: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (
                SnapError::ConfigDigestMismatch {
                    found: 1,
                    expected: 2,
                },
                "different configuration",
            ),
            (
                SnapError::ShortRead {
                    offset: 4,
                    needed: 8,
                    len: 6,
                },
                "truncated",
            ),
            (
                SnapError::Corrupt {
                    offset: 3,
                    what: "Option tag",
                },
                "invalid Option tag",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
