//! Sparse byte-addressable memory for the functional interpreter.

use regshare_types::hasher::{mix64, FastMap};
use regshare_types::Addr;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse paged memory.
///
/// Uninitialized bytes read as a deterministic pseudo-random pattern derived
/// from the address ([`mix64`]), so data-dependent branches over untouched
/// memory behave identically across runs without pre-initialization.
///
/// # Examples
///
/// ```
/// use regshare_isa::mem::SparseMemory;
/// let mut m = SparseMemory::new();
/// m.write(0x2000, 8, 0xdead_beef);
/// assert_eq!(m.read(0x2000, 8), 0xdead_beef);
/// // Deterministic "uninitialized" reads:
/// assert_eq!(m.read(0x9000, 8), m.read(0x9000, 8));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    pages: FastMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Deterministic content of an untouched byte.
    #[inline]
    fn background_byte(addr: Addr) -> u8 {
        (mix64(addr >> 3) >> ((addr & 7) * 8)) as u8
    }

    #[inline]
    fn read_byte(&self, addr: Addr) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => Self::background_byte(addr),
        }
    }

    #[inline]
    fn write_byte(&mut self, addr: Addr, value: u8) {
        let page = self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| {
            let mut p = Box::new([0u8; PAGE_SIZE]);
            let base = addr & !((PAGE_SIZE as u64) - 1);
            for (i, b) in p.iter_mut().enumerate() {
                *b = Self::background_byte(base + i as u64);
            }
            p
        });
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `size` bytes (1, 2, 4 or 8) little-endian, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not one of 1, 2, 4, 8.
    pub fn read(&self, addr: Addr, size: u8) -> u64 {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        let mut v = 0u64;
        for i in (0..size as u64).rev() {
            v = (v << 8) | self.read_byte(addr + i) as u64;
        }
        v
    }

    /// Writes the low `size` bytes (1, 2, 4 or 8) of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not one of 1, 2, 4, 8.
    pub fn write(&mut self, addr: Addr, size: u8, value: u64) {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        for i in 0..size as u64 {
            self.write_byte(addr + i, (value >> (i * 8)) as u8);
        }
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// A copy-on-write overlay over a base [`SparseMemory`], used for wrong-path
/// execution: wrong-path stores land in the overlay and never reach the
/// architectural memory.
///
/// # Examples
///
/// ```
/// use regshare_isa::mem::{SparseMemory, MemOverlay};
/// let mut base = SparseMemory::new();
/// base.write(0x100, 8, 7);
/// let mut ov = MemOverlay::new();
/// ov.write(0x100, 8, 99);
/// assert_eq!(ov.read(&base, 0x100, 8), 99);
/// assert_eq!(base.read(0x100, 8), 7); // base untouched
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemOverlay {
    bytes: FastMap<u64, u8>,
}

impl MemOverlay {
    /// Creates an empty overlay.
    pub fn new() -> MemOverlay {
        MemOverlay::default()
    }

    /// Reads through the overlay, falling back to `base`.
    pub fn read(&self, base: &SparseMemory, addr: Addr, size: u8) -> u64 {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        let mut v = 0u64;
        for i in (0..size as u64).rev() {
            let b = self
                .bytes
                .get(&(addr + i))
                .copied()
                .unwrap_or_else(|| base.read_byte(addr + i));
            v = (v << 8) | b as u64;
        }
        v
    }

    /// Writes into the overlay only.
    pub fn write(&mut self, addr: Addr, size: u8, value: u64) {
        assert!(matches!(size, 1 | 2 | 4 | 8), "bad access size {size}");
        for i in 0..size as u64 {
            self.bytes.insert(addr + i, (value >> (i * 8)) as u8);
        }
    }

    /// Number of overlaid bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the overlay is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip_all_sizes() {
        let mut m = SparseMemory::new();
        for (size, val) in [
            (1u8, 0xabu64),
            (2, 0xbeef),
            (4, 0xdead_beef),
            (8, 0x0123_4567_89ab_cdef),
        ] {
            let addr = 0x4000 + size as u64 * 64;
            m.write(addr, size, val);
            assert_eq!(m.read(addr, size), val);
        }
    }

    #[test]
    fn narrow_write_preserves_neighbors() {
        let mut m = SparseMemory::new();
        m.write(0x100, 8, 0x1111_2222_3333_4444);
        m.write(0x102, 2, 0xffff);
        assert_eq!(m.read(0x100, 8), 0x1111_2222_ffff_4444);
    }

    #[test]
    fn background_is_deterministic_and_survives_neighbor_write() {
        let m0 = SparseMemory::new();
        let before = m0.read(0x7008, 8);
        let mut m1 = SparseMemory::new();
        // Touch the same page elsewhere; untouched bytes must keep their
        // deterministic background value.
        m1.write(0x7000, 8, 42);
        assert_eq!(m1.read(0x7008, 8), before);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let addr = (1 << 12) - 4; // straddles a page boundary
        m.write(addr, 8, 0xa5a5_5a5a_1234_5678);
        assert_eq!(m.read(addr, 8), 0xa5a5_5a5a_1234_5678);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn overlay_reads_through_and_isolates_writes() {
        let mut base = SparseMemory::new();
        base.write(0x200, 8, 0x10);
        let mut ov = MemOverlay::new();
        assert!(ov.is_empty());
        assert_eq!(ov.read(&base, 0x200, 8), 0x10);
        ov.write(0x204, 4, 0x77);
        assert_eq!(ov.read(&base, 0x200, 8), 0x0000_0077_0000_0010);
        assert_eq!(base.read(0x200, 8), 0x10);
        assert_eq!(ov.len(), 4);
    }

    #[test]
    #[should_panic]
    fn bad_size_panics() {
        let m = SparseMemory::new();
        let _ = m.read(0, 3);
    }
}
