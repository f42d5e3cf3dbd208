//! Commit Sequence Number tracking through the Commit Rename Map (Figure 1).

use regshare_types::{ArchReg, SeqNum};

/// The CSN side of the Commit Rename Map: for each architectural register,
/// the commit sequence number of the instruction that produced its current
/// architectural value.
///
/// At commit, register-defining instructions write their CSN here; a
/// committing store then reads the CSN of its data register's producer and
/// deposits it in the DDT (§3.1).
///
/// # Examples
///
/// ```
/// use regshare_distance::CsnMap;
/// use regshare_types::{ArchReg, SeqNum};
///
/// let mut m = CsnMap::new();
/// m.define(ArchReg::int(1), SeqNum(10));
/// assert_eq!(m.producer(ArchReg::int(1)), Some(SeqNum(10)));
/// assert_eq!(m.producer(ArchReg::int(2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct CsnMap {
    csn: [Option<SeqNum>; ArchReg::COUNT],
}

impl Default for CsnMap {
    fn default() -> Self {
        CsnMap {
            csn: [None; ArchReg::COUNT],
        }
    }
}

impl CsnMap {
    /// Creates an empty map.
    pub fn new() -> CsnMap {
        CsnMap::default()
    }

    /// Records that the instruction with sequence number `csn` committed a
    /// definition of `reg`.
    #[inline]
    pub fn define(&mut self, reg: ArchReg, csn: SeqNum) {
        self.csn[reg.flat()] = Some(csn);
    }

    /// CSN of the committed producer of `reg`'s current value, if known.
    #[inline]
    pub fn producer(&self, reg: ArchReg) -> Option<SeqNum> {
        self.csn[reg.flat()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redefine_overwrites() {
        let mut m = CsnMap::new();
        m.define(ArchReg::int(0), SeqNum(1));
        m.define(ArchReg::int(0), SeqNum(5));
        assert_eq!(m.producer(ArchReg::int(0)), Some(SeqNum(5)));
    }

    #[test]
    fn classes_are_distinct() {
        let mut m = CsnMap::new();
        m.define(ArchReg::int(3), SeqNum(7));
        assert_eq!(m.producer(ArchReg::fp(3)), None);
    }
}
