//! Dependency-free binary snapshot codec shared by every stateful crate.
//!
//! Snapshots are flat little-endian byte streams with length-prefixed
//! containers — no self-description, no schema evolution, no external
//! crates. A snapshot file starts with a fixed header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RGSH"
//! 4       4     format version (u32 LE), currently 2
//! 8       8     context digest (u64 LE): CoreConfig ⊕ Program
//! ```
//!
//! The header is the compatibility contract: [`read_header`] refuses a
//! stream whose magic, version or digest does not match, with a typed
//! [`SnapError`] naming exactly what disagreed. Everything after the
//! header is the subsystem payload, written field by field via the
//! [`Snap`] (owned value) and [`Snapshot`] (load-into-place) traits.
//!
//! Canonical form: encoders must be deterministic functions of logical
//! state — hash maps are written in sorted key order ([`encode_map_sorted`])
//! — so `encode(decode(bytes)) == bytes` holds for every valid snapshot.
//!
//! # Examples
//!
//! ```
//! use regshare_types::snapshot::{Snap, SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! vec![1u64, 2, 3].encode(&mut w);
//! let bytes = w.finish();
//! let mut r = SnapReader::new(&bytes);
//! assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![1, 2, 3]);
//! ```

use crate::{ArchReg, Cycle, HistorySnapshot, PhysReg, RegClass, SeqNum};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Magic bytes opening every snapshot stream.
pub const MAGIC: [u8; 4] = *b"RGSH";

/// Current snapshot format version. Bump on ANY layout change — there is
/// deliberately no migration path: an old snapshot is refused, never
/// reinterpreted. Version 2: RDA free-slot stack joined the payload.
pub const FORMAT_VERSION: u32 = 2;

/// Typed decode failure. Every malformed input maps to one of these —
/// decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream does not start with its format's magic ([`MAGIC`] for a
    /// snapshot) — not this kind of stream at all.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The stream was written by a different format version.
    BadVersion {
        /// Version recorded in the stream.
        found: u32,
        /// The only version this build reads ([`FORMAT_VERSION`] for a
        /// snapshot).
        supported: u32,
    },
    /// The stream was captured under a different `CoreConfig`/program.
    ConfigDigestMismatch {
        /// Digest recorded in the stream.
        found: u64,
        /// Digest of the configuration we tried to restore onto.
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

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
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

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
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

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.get_bytes(2)?.try_into().unwrap()))
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

/// The identity of a versioned stream: the magic its header opens with and
/// the one format version this build reads. Every stream header is
/// `magic`, then `version` (u32 LE), then a digest (u64 LE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFormat {
    /// Magic bytes opening the stream.
    pub magic: [u8; 4],
    /// Format version written, and the only one read.
    pub version: u32,
}

/// Machine snapshots and checkpoint images: [`MAGIC`], [`FORMAT_VERSION`].
pub const SNAPSHOT: StreamFormat = StreamFormat {
    magic: MAGIC,
    version: FORMAT_VERSION,
};

/// Writes a stream header: `format`'s magic and version, then `digest`.
pub fn write_header(w: &mut SnapWriter, format: StreamFormat, digest: u64) {
    w.put_bytes(&format.magic);
    w.put_u32(format.version);
    w.put_u64(digest);
}

/// Reads and validates a stream header against `format` and
/// `expected_digest`, in check order: magic, version, digest.
pub fn read_header(
    r: &mut SnapReader<'_>,
    format: StreamFormat,
    expected_digest: u64,
) -> Result<(), SnapError> {
    let magic: [u8; 4] = r.get_bytes(4)?.try_into().unwrap();
    if magic != format.magic {
        return Err(SnapError::BadMagic { found: magic });
    }
    let version = r.get_u32()?;
    if version != format.version {
        return Err(SnapError::BadVersion {
            found: version,
            supported: format.version,
        });
    }
    let digest = r.get_u64()?;
    if digest != expected_digest {
        return Err(SnapError::ConfigDigestMismatch {
            found: digest,
            expected: expected_digest,
        });
    }
    Ok(())
}

/// An owned value with a canonical binary encoding.
///
/// For plain data (counters, queue entries, µ-ops). Stateful subsystems
/// that must be rebuilt from their configuration first implement
/// [`Snapshot`] instead.
pub trait Snap: Sized {
    /// Appends the canonical encoding of `self`.
    fn encode(&self, w: &mut SnapWriter);
    /// Decodes one value, consuming exactly what [`Snap::encode`] wrote.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// A stateful subsystem that saves into / loads from a snapshot stream
/// **in place** (the receiver is first rebuilt from its configuration,
/// then overwritten with the recorded state). Object-safe, so trait
/// objects like the sharing trackers can participate.
pub trait Snapshot {
    /// Appends the subsystem's complete logical state.
    fn save_state(&self, w: &mut SnapWriter);
    /// Overwrites the subsystem's state from the stream.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
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

snap_prim!(u8, put_u8, get_u8);
snap_prim!(u16, put_u16, get_u16);
snap_prim!(u32, put_u32, get_u32);
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

impl Snap for i32 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u32(*self as u32);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.get_u32()? as i32)
    }
}

impl Snap for i64 {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.get_u64()? as i64)
    }
}

impl Snap for bool {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.corrupt("bool")),
        }
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

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<T: Snap> Snap for Box<T> {
    fn encode(&self, w: &mut SnapWriter) {
        (**self).encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn encode(&self, w: &mut SnapWriter) {
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(r)?);
        }
        match out.try_into() {
            Ok(arr) => Ok(arr),
            // We pushed exactly N elements above.
            Err(_) => unreachable!("array length mismatch"),
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Snap for RegClass {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(self.index() as u8);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(RegClass::Int),
            1 => Ok(RegClass::Fp),
            _ => Err(r.corrupt("RegClass")),
        }
    }
}

impl Snap for ArchReg {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(self.flat() as u8);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let flat = r.get_u8()? as usize;
        if flat >= ArchReg::COUNT {
            return Err(r.corrupt("ArchReg"));
        }
        Ok(ArchReg::from_flat(flat))
    }
}

impl Snap for PhysReg {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u16(self.index() as u16);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PhysReg::new(r.get_u16()? as usize))
    }
}

impl Snap for SeqNum {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SeqNum(r.get_u64()?))
    }
}

impl Snap for Cycle {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Cycle(r.get_u64()?))
    }
}

impl Snap for HistorySnapshot {
    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.ghist);
        w.put_u16(self.path);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(HistorySnapshot {
            ghist: r.get_u64()?,
            path: r.get_u16()?,
        })
    }
}

/// Encodes a hash map in **sorted key order** — the canonical form that
/// makes `encode(decode(bytes)) == bytes` hold regardless of the map's
/// insertion history.
pub fn encode_map_sorted<K, V, S>(map: &HashMap<K, V, S>, w: &mut SnapWriter)
where
    K: Snap + Ord,
    V: Snap,
    S: BuildHasher,
{
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.put_len(entries.len());
    for (k, v) in entries {
        k.encode(w);
        v.encode(w);
    }
}

/// Decodes a hash map written by [`encode_map_sorted`].
pub fn decode_map<K, V, S>(r: &mut SnapReader<'_>) -> Result<HashMap<K, V, S>, SnapError>
where
    K: Snap + Eq + Hash,
    V: Snap,
    S: BuildHasher + Default,
{
    let len = r.get_len()?;
    let mut map = HashMap::with_capacity_and_hasher(len, S::default());
    for _ in 0..len {
        let k = K::decode(r)?;
        let v = V::decode(r)?;
        map.insert(k, v);
    }
    Ok(map)
}

/// Implements [`Snap`] for a struct by encoding its listed fields in
/// order. The field list is the layout contract — keep it exhaustive and
/// stable, and bump [`FORMAT_VERSION`] when it changes.
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
    use crate::hasher::FastMap;

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
        round_trip(0xabu8);
        round_trip(0xab_cdu16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(u128::MAX - 7);
        round_trip(usize::MAX);
        round_trip(-42i32);
        round_trip(i64::MIN);
        round_trip(true);
        round_trip(String::from("snapshot"));
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u32, 2, 3]);
        round_trip(VecDeque::from(vec![9u64, 8]));
        round_trip([1u16, 2, 3]);
        round_trip((1u8, 2u64));
        round_trip((1u8, 2u64, String::from("x")));
        round_trip(Box::new(5u32));
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(RegClass::Fp);
        round_trip(ArchReg::fp(3));
        round_trip(PhysReg::new(129));
        round_trip(SeqNum(77));
        round_trip(Cycle(123_456));
        round_trip(HistorySnapshot {
            ghist: 0b1011,
            path: 0x7fff,
        });
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
            Vec::<u64>::decode(&mut r),
            Err(SnapError::ShortRead { .. })
        ));
    }

    #[test]
    fn invalid_tags_are_corrupt() {
        for (bytes, what) in [
            (vec![2u8], "bool"),
            (vec![9u8], "Option tag"),
            (vec![5u8], "RegClass"),
            (vec![200u8], "ArchReg"),
        ] {
            let mut r = SnapReader::new(&bytes);
            let err = match what {
                "bool" => bool::decode(&mut r).unwrap_err(),
                "Option tag" => Option::<u8>::decode(&mut r).unwrap_err(),
                "RegClass" => RegClass::decode(&mut r).unwrap_err(),
                _ => ArchReg::decode(&mut r).unwrap_err(),
            };
            assert_eq!(err, SnapError::Corrupt { offset: 1, what });
        }
    }

    #[test]
    fn header_checks_in_order() {
        const DIGEST: u64 = 0x0102_0304_0506_0708;
        let mut w = SnapWriter::new();
        write_header(&mut w, SNAPSHOT, DIGEST);
        let good = w.finish();
        // Pinned so existing images keep loading: magic, version as u32 LE,
        // digest as u64 LE.
        assert_eq!(good, *b"RGSH\x02\0\0\0\x08\x07\x06\x05\x04\x03\x02\x01");
        let mut r = SnapReader::new(&good);
        read_header(&mut r, SNAPSHOT, DIGEST).unwrap();
        r.expect_eof().unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_header(&mut SnapReader::new(&bad_magic), SNAPSHOT, DIGEST),
            Err(SnapError::BadMagic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = FORMAT_VERSION as u8 + 1;
        assert!(matches!(
            read_header(&mut SnapReader::new(&bad_version), SNAPSHOT, DIGEST),
            Err(SnapError::BadVersion { .. })
        ));

        assert_eq!(
            read_header(&mut SnapReader::new(&good), SNAPSHOT, 0x9999),
            Err(SnapError::ConfigDigestMismatch {
                found: DIGEST,
                expected: 0x9999
            })
        );
    }

    #[test]
    fn maps_encode_canonically() {
        let mut a: FastMap<u64, u64> = FastMap::default();
        let mut b: FastMap<u64, u64> = FastMap::default();
        for k in [9u64, 3, 7, 1] {
            a.insert(k, k * 2);
        }
        for k in [1u64, 7, 3, 9] {
            b.insert(k, k * 2);
        }
        let enc = |m: &FastMap<u64, u64>| {
            let mut w = SnapWriter::new();
            encode_map_sorted(m, &mut w);
            w.finish()
        };
        assert_eq!(enc(&a), enc(&b));
        let bytes = enc(&a);
        let decoded: FastMap<u64, u64> = decode_map(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(decoded, a);
        assert_eq!(enc(&decoded), bytes);
    }

    #[test]
    fn errors_display_their_payload() {
        let cases: Vec<(SnapError, &str)> = vec![
            (SnapError::BadMagic { found: *b"NOPE" }, "not a regshare"),
            (
                SnapError::BadVersion {
                    found: 9,
                    supported: FORMAT_VERSION,
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
                    what: "bool",
                },
                "invalid bool",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
