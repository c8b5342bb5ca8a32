//! Array geometry: logical↔physical mapping for RAID10.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::iter::FusedIterator;

/// Whether a disk holds the primary or the mirror copy of its pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiskRole {
    /// The primary copy (`P_i` in the paper).
    Primary,
    /// The mirror copy (`M_i`).
    Mirror,
}

/// Error returned by geometry operations on invalid addresses or
/// configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// The configuration itself is invalid.
    InvalidConfig(String),
    /// An address or extent falls outside the logical address space.
    OutOfRange {
        /// Requested start address.
        offset: u64,
        /// Requested length.
        bytes: u64,
        /// The logical capacity that was exceeded.
        capacity: u64,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::InvalidConfig(msg) => write!(f, "invalid array configuration: {msg}"),
            GeometryError::OutOfRange {
                offset,
                bytes,
                capacity,
            } => write!(
                f,
                "extent [{offset}, {}) exceeds logical capacity {capacity}",
                offset + bytes
            ),
        }
    }
}

impl Error for GeometryError {}

/// A physically contiguous extent on both disks of one mirrored pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysExtent {
    /// Mirrored-pair index.
    pub pair: usize,
    /// Byte offset within the pair's disks (same on primary and mirror).
    pub offset: u64,
    /// Extent length in bytes.
    pub bytes: u64,
    /// Logical address this extent maps back to (for destage bookkeeping).
    pub logical: u64,
}

/// RAID10 array geometry.
///
/// Disk numbering: primaries are `0..pairs`, mirrors are `pairs..2·pairs`,
/// so `P_i = i` and `M_i = pairs + i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayGeometry {
    pairs: usize,
    stripe_unit: u64,
    data_region: u64,
    logger_region: u64,
}

impl ArrayGeometry {
    /// Creates a geometry with `pairs` mirrored pairs, the given stripe
    /// unit, and per-disk data/logger region sizes in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidConfig`] if any parameter is zero
    /// (a zero logger region is allowed — plain RAID10 has no logger) or
    /// the data region is not a multiple of the stripe unit.
    pub fn new(
        pairs: usize,
        stripe_unit: u64,
        data_region: u64,
        logger_region: u64,
    ) -> Result<Self, GeometryError> {
        if pairs == 0 {
            return Err(GeometryError::InvalidConfig("zero mirrored pairs".into()));
        }
        if stripe_unit == 0 {
            return Err(GeometryError::InvalidConfig("zero stripe unit".into()));
        }
        if data_region == 0 {
            return Err(GeometryError::InvalidConfig("zero data region".into()));
        }
        if !data_region.is_multiple_of(stripe_unit) {
            return Err(GeometryError::InvalidConfig(format!(
                "data region {data_region} is not a multiple of the stripe unit {stripe_unit}"
            )));
        }
        Ok(ArrayGeometry {
            pairs,
            stripe_unit,
            data_region,
            logger_region,
        })
    }

    /// Number of mirrored pairs.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Total number of disks (`2 × pairs`).
    pub fn disks(&self) -> usize {
        self.pairs * 2
    }

    /// Stripe unit in bytes.
    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// Per-disk data-region size in bytes.
    pub fn data_region(&self) -> u64 {
        self.data_region
    }

    /// Per-disk logger-region size in bytes (zero for plain RAID10).
    pub fn logger_region(&self) -> u64 {
        self.logger_region
    }

    /// Byte offset at which the logger region starts on every disk.
    pub fn logger_base(&self) -> u64 {
        self.data_region
    }

    /// Usable logical capacity of the array.
    pub fn logical_capacity(&self) -> u64 {
        self.data_region * self.pairs as u64
    }

    /// Disk id of pair `pair`'s primary.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of range.
    pub fn primary_disk(&self, pair: usize) -> usize {
        assert!(pair < self.pairs, "pair {pair} out of range");
        pair
    }

    /// Disk id of pair `pair`'s mirror.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of range.
    pub fn mirror_disk(&self, pair: usize) -> usize {
        assert!(pair < self.pairs, "pair {pair} out of range");
        self.pairs + pair
    }

    /// Role and pair of a disk id.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range.
    pub fn disk_role(&self, disk: usize) -> (DiskRole, usize) {
        assert!(disk < self.disks(), "disk {disk} out of range");
        if disk < self.pairs {
            (DiskRole::Primary, disk)
        } else {
            (DiskRole::Mirror, disk - self.pairs)
        }
    }

    /// Maps a logical byte address to its position on the owning pair.
    /// The returned extent is clipped to the end of the stripe unit.
    ///
    /// # Errors
    ///
    /// [`GeometryError::OutOfRange`] if the address is past the end of the
    /// logical space.
    pub fn map(&self, offset: u64, bytes: u64) -> Result<PhysExtent, GeometryError> {
        self.check_range(offset, bytes)?;
        Ok(locate(self.pairs as u64, self.stripe_unit, offset, bytes))
    }

    fn check_range(&self, offset: u64, bytes: u64) -> Result<(), GeometryError> {
        if offset + bytes > self.logical_capacity() {
            return Err(GeometryError::OutOfRange {
                offset,
                bytes,
                capacity: self.logical_capacity(),
            });
        }
        Ok(())
    }

    /// Inverse of [`map`](Self::map) for a single address: given a pair and
    /// a physical offset, returns the logical address.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of range or the offset is in the logger
    /// region.
    pub fn unmap(&self, pair: usize, phys_offset: u64) -> u64 {
        assert!(pair < self.pairs, "pair {pair} out of range");
        assert!(
            phys_offset < self.data_region,
            "offset {phys_offset} is in the logger region"
        );
        let disk_stripe = phys_offset / self.stripe_unit;
        let within = phys_offset % self.stripe_unit;
        (disk_stripe * self.pairs as u64 + pair as u64) * self.stripe_unit + within
    }

    /// Splits a logical extent into per-pair physical extents, in logical
    /// order. Adjacent fragments that land on the same pair contiguously
    /// are *not* merged (each fragment is at most one stripe unit) —
    /// callers that care coalesce themselves. The iterator copies the
    /// mapping constants it needs, so it borrows nothing.
    ///
    /// # Errors
    ///
    /// [`GeometryError::OutOfRange`] if the extent exceeds the logical
    /// space.
    pub fn split(&self, offset: u64, bytes: u64) -> Result<Split, GeometryError> {
        self.check_range(offset, bytes)?;
        Ok(Split {
            pairs: self.pairs as u64,
            stripe_unit: self.stripe_unit,
            cur: offset,
            end: offset + bytes,
        })
    }
}

/// Maps `offset` onto its pair, clipping `bytes` to the end of the
/// stripe unit.
fn locate(pairs: u64, stripe_unit: u64, offset: u64, bytes: u64) -> PhysExtent {
    let stripe = offset / stripe_unit;
    let within = offset % stripe_unit;
    PhysExtent {
        pair: (stripe % pairs) as usize,
        offset: stripe / pairs * stripe_unit + within,
        bytes: bytes.min(stripe_unit - within),
        logical: offset,
    }
}

/// The per-pair physical extents of a logical extent, in logical order
/// (see [`ArrayGeometry::split`]).
#[derive(Debug, Clone)]
pub struct Split {
    pairs: u64,
    stripe_unit: u64,
    cur: u64,
    end: u64,
}

impl Iterator for Split {
    type Item = PhysExtent;

    fn next(&mut self) -> Option<PhysExtent> {
        if self.cur >= self.end {
            return None;
        }
        let ext = locate(self.pairs, self.stripe_unit, self.cur, self.end - self.cur);
        self.cur += ext.bytes;
        Some(ext)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

impl ExactSizeIterator for Split {
    /// Stripe units the rest of the extent touches.
    fn len(&self) -> usize {
        if self.cur >= self.end {
            return 0;
        }
        ((self.end - 1) / self.stripe_unit - self.cur / self.stripe_unit + 1) as usize
    }
}

impl FusedIterator for Split {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SU: u64 = 64 * 1024;

    fn geo() -> ArrayGeometry {
        ArrayGeometry::new(10, SU, 10 << 30, 8 << 30).unwrap()
    }

    #[test]
    fn basic_mapping_round_robin() {
        let g = geo();
        for i in 0..30u64 {
            let e = g.map(i * SU, SU).unwrap();
            assert_eq!(e.pair, (i % 10) as usize);
            assert_eq!(e.offset, (i / 10) * SU);
            assert_eq!(e.bytes, SU);
        }
    }

    #[test]
    fn map_clips_at_stripe_boundary() {
        let g = geo();
        let e = g.map(SU - 4096, 8192).unwrap();
        assert_eq!(e.bytes, 4096);
        assert_eq!(e.pair, 0);
    }

    #[test]
    fn split_tiles_request_exactly() {
        let g = geo();
        let exts: Vec<_> = g.split(SU / 2, 5 * SU).unwrap().collect();
        let total: u64 = exts.iter().map(|e| e.bytes).sum();
        assert_eq!(total, 5 * SU);
        // Fragments are logically contiguous.
        let mut cur = SU / 2;
        for e in &exts {
            assert_eq!(e.logical, cur);
            cur += e.bytes;
        }
    }

    #[test]
    fn unmap_inverts_map() {
        let g = geo();
        for off in [0, 4096, SU - 1, SU, 13 * SU + 17, (10 << 30) * 10 - 4096] {
            let e = g.map(off, 1).unwrap();
            assert_eq!(g.unmap(e.pair, e.offset), off, "offset {off}");
        }
    }

    #[test]
    fn disk_numbering() {
        let g = geo();
        assert_eq!(g.primary_disk(3), 3);
        assert_eq!(g.mirror_disk(3), 13);
        assert_eq!(g.disk_role(3), (DiskRole::Primary, 3));
        assert_eq!(g.disk_role(13), (DiskRole::Mirror, 3));
        assert_eq!(g.disks(), 20);
    }

    #[test]
    fn capacities() {
        let g = geo();
        assert_eq!(g.logical_capacity(), 10 * (10u64 << 30));
        assert_eq!(g.logger_base(), 10u64 << 30);
    }

    #[test]
    fn out_of_range_rejected() {
        let g = geo();
        let cap = g.logical_capacity();
        assert!(matches!(
            g.map(cap, 1),
            Err(GeometryError::OutOfRange { .. })
        ));
        assert!(g.map(cap - 1, 1).is_ok());
        assert!(g.split(cap - 100, 200).is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ArrayGeometry::new(0, SU, 1 << 30, 0).is_err());
        assert!(ArrayGeometry::new(4, 0, 1 << 30, 0).is_err());
        assert!(ArrayGeometry::new(4, SU, 0, 0).is_err());
        assert!(ArrayGeometry::new(4, SU, SU + 1, 0).is_err());
        // Zero logger region is fine (plain RAID10).
        assert!(ArrayGeometry::new(4, SU, 1 << 30, 0).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let e = GeometryError::OutOfRange {
            offset: 10,
            bytes: 5,
            capacity: 12,
        };
        assert!(e.to_string().contains("[10, 15)"));
    }

    proptest! {
        #[test]
        fn prop_split_tiles_exactly(
            pairs in 1usize..16,
            su_kib in prop::sample::select(vec![16u64, 32, 64]),
            start in 0u64..1_000_000,
            len in 1u64..2_000_000,
        ) {
            let su = su_kib * 1024;
            let g = ArrayGeometry::new(pairs, su, 1 << 30, 0).unwrap();
            prop_assume!(start + len <= g.logical_capacity());
            let exts = g.split(start, len).unwrap();
            prop_assert_eq!(exts.len(), exts.clone().count());
            let mut cur = start;
            for e in exts {
                prop_assert_eq!(e.logical, cur);
                prop_assert!(e.bytes > 0 && e.bytes <= su);
                prop_assert!(e.offset + e.bytes <= g.data_region());
                cur += e.bytes;
            }
            prop_assert_eq!(cur, start + len);
        }

        #[test]
        fn prop_map_unmap_bijection(
            pairs in 1usize..16,
            off in 0u64..(1u64 << 30),
        ) {
            let g = ArrayGeometry::new(pairs, 64 * 1024, 1 << 30, 0).unwrap();
            prop_assume!(off < g.logical_capacity());
            let e = g.map(off, 1).unwrap();
            prop_assert_eq!(g.unmap(e.pair, e.offset), off);
        }

        #[test]
        fn prop_distinct_logical_distinct_physical(
            a in 0u64..(1u64 << 28),
            b in 0u64..(1u64 << 28),
        ) {
            prop_assume!(a != b);
            let g = ArrayGeometry::new(7, 16 * 1024, 1 << 28, 0).unwrap();
            prop_assume!(a < g.logical_capacity() && b < g.logical_capacity());
            let ea = g.map(a, 1).unwrap();
            let eb = g.map(b, 1).unwrap();
            prop_assert!(ea.pair != eb.pair || ea.offset != eb.offset);
        }
    }
}
