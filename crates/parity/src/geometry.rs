//! RAID5 layout: block-striping with left-symmetric rotating parity.
//!
//! A row of the array holds `disks − 1` data stripe units plus one parity
//! unit; the parity unit rotates right-to-left across rows so parity
//! traffic spreads over all spindles.

use serde::{Deserialize, Serialize};
use std::iter::FusedIterator;

/// One physically contiguous piece of a logical request on RAID5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Raid5Extent {
    /// Disk holding the data.
    pub data_disk: usize,
    /// Byte offset of the data on that disk.
    pub offset: u64,
    /// Extent length in bytes.
    pub bytes: u64,
    /// Stripe row the extent lives in.
    pub row: u64,
    /// Disk holding the row's parity.
    pub parity_disk: usize,
    /// Byte offset of the row's parity unit (same on-disk offset space).
    pub parity_offset: u64,
}

/// Left-symmetric RAID5 geometry.
///
/// # Example
///
/// ```
/// use rolo_parity::Raid5Geometry;
///
/// let g = Raid5Geometry::new(5, 64 * 1024, 1 << 30);
/// assert_eq!(g.logical_capacity(), 4 << 30); // 4 data units per row
/// let e = g.map(0, 4096);
/// // Row 0's parity sits on the last disk.
/// assert_eq!(e.parity_disk, 4);
/// assert_ne!(e.data_disk, e.parity_disk);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Raid5Geometry {
    disks: usize,
    stripe_unit: u64,
    /// Per-disk data-region size (must be a multiple of the stripe unit).
    data_region: u64,
}

impl Raid5Geometry {
    /// Creates a geometry over `disks` drives.
    ///
    /// # Panics
    ///
    /// Panics unless `disks ≥ 3`, the stripe unit is non-zero and the
    /// data region is a non-zero multiple of the stripe unit.
    pub fn new(disks: usize, stripe_unit: u64, data_region: u64) -> Self {
        assert!(disks >= 3, "RAID5 needs at least three disks");
        assert!(stripe_unit > 0, "zero stripe unit");
        assert!(
            data_region > 0 && data_region.is_multiple_of(stripe_unit),
            "data region must be a non-zero multiple of the stripe unit"
        );
        Raid5Geometry {
            disks,
            stripe_unit,
            data_region,
        }
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.disks
    }

    /// Stripe unit in bytes.
    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// Stripe rows available.
    pub fn rows(&self) -> u64 {
        self.data_region / self.stripe_unit
    }

    /// Usable logical capacity: `(disks − 1)` data units per row.
    pub fn logical_capacity(&self) -> u64 {
        self.rows() * (self.disks as u64 - 1) * self.stripe_unit
    }

    /// The disk holding parity for `row` (left-symmetric: rotates
    /// backwards from the last disk).
    pub fn parity_disk(&self, row: u64) -> usize {
        let n = self.disks as u64;
        ((n - 1) - (row % n)) as usize
    }

    /// Maps a logical byte address to its location, clipped to the end of
    /// the stripe unit.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range or `bytes` is zero.
    pub fn map(&self, offset: u64, bytes: u64) -> Raid5Extent {
        assert!(bytes > 0, "zero-length extent");
        assert!(
            offset + bytes <= self.logical_capacity(),
            "extent [{offset}, {}) exceeds capacity {}",
            offset + bytes,
            self.logical_capacity()
        );
        self.locate(offset, bytes)
    }

    /// [`map`](Self::map) without the range checks.
    fn locate(&self, offset: u64, bytes: u64) -> Raid5Extent {
        let data_per_row = (self.disks as u64 - 1) * self.stripe_unit;
        let row = offset / data_per_row;
        let in_row = offset % data_per_row;
        let unit_index = in_row / self.stripe_unit;
        let within = in_row % self.stripe_unit;
        let parity_disk = self.parity_disk(row);
        // Left-symmetric: data units fill the slots after the parity
        // disk, wrapping around.
        let data_disk = ((parity_disk as u64 + 1 + unit_index) % self.disks as u64) as usize;
        let disk_offset = row * self.stripe_unit + within;
        Raid5Extent {
            data_disk,
            offset: disk_offset,
            bytes: bytes.min(self.stripe_unit - within),
            row,
            parity_disk,
            parity_offset: row * self.stripe_unit,
        }
    }

    /// Splits a logical extent into stripe-unit-bounded pieces, in
    /// logical order. The iterator copies the geometry's three
    /// constants, so it borrows nothing.
    ///
    /// # Panics
    ///
    /// Panics if the extent exceeds the logical capacity.
    pub fn split(&self, offset: u64, bytes: u64) -> Raid5Split {
        assert!(
            offset + bytes <= self.logical_capacity(),
            "extent [{offset}, {}) exceeds capacity {}",
            offset + bytes,
            self.logical_capacity()
        );
        Raid5Split {
            geometry: self.clone(),
            cur: offset,
            end: offset + bytes,
        }
    }
}

/// The stripe-unit-bounded pieces of a logical extent, in logical order
/// (see [`Raid5Geometry::split`]).
#[derive(Debug, Clone)]
pub struct Raid5Split {
    geometry: Raid5Geometry,
    cur: u64,
    end: u64,
}

impl Iterator for Raid5Split {
    type Item = Raid5Extent;

    fn next(&mut self) -> Option<Raid5Extent> {
        if self.cur >= self.end {
            return None;
        }
        let e = self.geometry.locate(self.cur, self.end - self.cur);
        self.cur += e.bytes;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

impl ExactSizeIterator for Raid5Split {
    /// Stripe units the rest of the extent touches.
    fn len(&self) -> usize {
        if self.cur >= self.end {
            return 0;
        }
        let su = self.geometry.stripe_unit;
        ((self.end - 1) / su - self.cur / su + 1) as usize
    }
}

impl FusedIterator for Raid5Split {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SU: u64 = 64 * 1024;

    fn geo() -> Raid5Geometry {
        Raid5Geometry::new(5, SU, 1 << 30)
    }

    #[test]
    fn parity_rotates_across_rows() {
        let g = geo();
        let ps: Vec<usize> = (0..5).map(|r| g.parity_disk(r)).collect();
        assert_eq!(ps, vec![4, 3, 2, 1, 0]);
        assert_eq!(g.parity_disk(5), 4); // wraps
    }

    #[test]
    fn data_never_lands_on_parity_disk() {
        let g = geo();
        for unit in 0..200u64 {
            let e = g.map(unit * SU, SU);
            assert_ne!(e.data_disk, e.parity_disk, "unit {unit}");
        }
    }

    #[test]
    fn row_units_cover_all_non_parity_disks() {
        let g = geo();
        // Units 0..4 of row 0 must land on four distinct non-parity disks.
        let mut disks: Vec<usize> = (0..4).map(|u| g.map(u * SU, SU).data_disk).collect();
        disks.sort_unstable();
        assert_eq!(disks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capacity_accounts_for_parity() {
        let g = geo();
        assert_eq!(g.logical_capacity(), 4 << 30);
        assert_eq!(g.rows(), (1 << 30) / SU);
    }

    #[test]
    fn split_tiles_exactly() {
        let g = geo();
        let split = g.split(SU / 2, 3 * SU);
        assert_eq!(split.len(), 4);
        let exts: Vec<_> = split.collect();
        assert_eq!(exts.len(), 4);
        let total: u64 = exts.iter().map(|e| e.bytes).sum();
        assert_eq!(total, 3 * SU);
        for e in &exts {
            assert!(e.bytes <= SU);
            assert!(e.offset + e.bytes <= 1 << 30);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn out_of_range_panics() {
        let g = geo();
        g.map(g.logical_capacity(), 1);
    }

    proptest! {
        #[test]
        fn prop_distinct_logical_units_distinct_physical(
            a in 0u64..24_000,
            b in 0u64..24_000,
        ) {
            prop_assume!(a != b);
            let g = Raid5Geometry::new(7, 16 * 1024, 64 << 20);
            prop_assume!((a + 1) * 16 * 1024 <= g.logical_capacity());
            prop_assume!((b + 1) * 16 * 1024 <= g.logical_capacity());
            let ea = g.map(a * 16 * 1024, 1);
            let eb = g.map(b * 16 * 1024, 1);
            prop_assert!(ea.data_disk != eb.data_disk || ea.offset != eb.offset);
        }

        #[test]
        fn prop_split_preserves_bytes(start in 0u64..(3u64 << 30), len in 1u64..(8u64 << 20)) {
            let g = Raid5Geometry::new(5, 64 * 1024, 1 << 30);
            prop_assume!(start + len <= g.logical_capacity());
            let split = g.split(start, len);
            let pieces = split.len();
            let exts: Vec<_> = split.collect();
            prop_assert_eq!(pieces, exts.len());
            let total: u64 = exts.iter().map(|e| e.bytes).sum();
            prop_assert_eq!(total, len);
            // Logical continuity.
            let mut cur = start;
            for e in &exts {
                let expect = g.map(cur, 1);
                prop_assert_eq!(expect.data_disk, e.data_disk);
                prop_assert_eq!(expect.offset, e.offset);
                cur += e.bytes;
            }
        }
    }
}
