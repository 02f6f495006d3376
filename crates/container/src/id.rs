//! Container identifiers.

use std::fmt;

/// A container id: a dense `u32` index rendered as a short Docker-style
/// hex hash.
///
/// Ids are allocated sequentially by the node simulation, which keeps
/// experiment output stable across runs *and* makes the raw value usable
/// as a direct array index in the dense (headless) cluster path.  Four
/// bytes cover four billion containers per worker — far beyond any
/// simulated session — and halve the footprint of every id-bearing
/// record, which matters at one million workers.  Displayed as 12 hex
/// digits so logs look like `docker ps` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(u32);

impl ContainerId {
    /// Construct from a raw integer.
    pub const fn from_raw(raw: u32) -> Self {
        ContainerId(raw)
    }

    /// The raw integer value.
    pub const fn as_raw(self) -> u32 {
        self.0
    }

    /// The raw value widened to a `usize` array index (dense path).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Short hex rendering, like the 12-character ids `docker ps` shows.
    ///
    /// The raw id is mixed through a SplitMix64 finalizer so consecutive
    /// containers don't produce visually adjacent hashes.  The mix widens
    /// to 64 bits first, so renderings are identical to the old `u64` ids
    /// for every value a node actually allocates.
    pub fn short_hex(self) -> String {
        let mut z = (self.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        format!("{:012x}", z & 0xFFFF_FFFF_FFFF)
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_hex_is_stable_and_distinct() {
        let a = ContainerId::from_raw(1).short_hex();
        let b = ContainerId::from_raw(2).short_hex();
        assert_eq!(a.len(), 12);
        assert_ne!(a, b);
        assert_eq!(a, ContainerId::from_raw(1).short_hex());
    }

    #[test]
    fn display_matches_short_hex() {
        let id = ContainerId::from_raw(77);
        assert_eq!(id.to_string(), id.short_hex());
    }

    #[test]
    fn id_is_four_bytes() {
        // The dense cluster path depends on compact ids: a fat id would
        // silently bloat every per-container record.
        assert_eq!(std::mem::size_of::<ContainerId>(), 4);
        assert_eq!(std::mem::size_of::<Option<ContainerId>>(), 8);
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(ContainerId::from_raw(41).index(), 41);
    }
}
