//! Extent-granular integrity tracking for silent-corruption modeling.
//!
//! The simulator does not move payload bytes, so "corruption" is modeled
//! as metadata: an [`IntegrityMap`] records which byte extents of a disk
//! currently hold data whose end-to-end checksum would fail verification.
//! The fault injector inserts extents when a latent sector error (LSE)
//! lands; reads and the scrub engine query and clear them. An extent is
//! *latent* while it sits in the map — the danger window the scrub engine
//! exists to shrink (DESIGN.md §11).
//!
//! Extents are kept disjoint: an injection that overlaps an existing
//! latent extent is skipped by the caller (the sector is already bad),
//! which keeps every injected extent individually accountable in the
//! repaired-by-scrub / repaired-on-read / lost classification.

use rolo_sim::ExtentMap;

/// The byte extents of one disk that currently fail checksum
/// verification, disjoint by construction. Each extent is valued by its
/// injection number, so touching injections stay separate extents.
#[derive(Debug, Clone, Default)]
pub struct IntegrityMap {
    extents: ExtentMap<u64>,
    injections: u64,
}

impl IntegrityMap {
    /// Creates an empty map (no latent corruption).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no extent is latent.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Number of latent extents.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// Total latent bytes.
    pub fn bytes(&self) -> u64 {
        self.extents.bytes()
    }

    /// True if `[start, start + len)` touches any latent extent.
    pub fn overlaps(&self, start: u64, len: u64) -> bool {
        self.extents.overlapping(start, len).next().is_some()
    }

    /// Marks `[start, start + len)` latent. Returns `false` (and leaves
    /// the map unchanged) if the extent overlaps an existing one or is
    /// empty — the caller skips the injection so each recorded extent
    /// stays individually classifiable.
    pub fn insert(&mut self, start: u64, len: u64) -> bool {
        if len == 0 || self.overlaps(start, len) {
            return false;
        }
        self.injections += 1;
        self.extents.assign(start, len, self.injections, |_, _| {});
        true
    }

    /// Removes and returns every latent extent touching
    /// `[start, start + len)`, in offset order. Extents are taken
    /// wholesale: any I/O or scrub chunk that touches a latent extent is
    /// deemed to detect (and repair or lose) all of it.
    pub fn take_overlapping(&mut self, start: u64, len: u64) -> Vec<(u64, u64)> {
        let doomed: Vec<(u64, u64)> = self
            .extents
            .overlapping(start, len)
            .map(|(s, l, _)| (s, l))
            .collect();
        for &(s, l) in &doomed {
            self.extents.remove(s, l, |_, _| {});
        }
        doomed
    }

    /// Clears every latent extent touching `[start, start + len)` and
    /// returns how many whole extents were removed.
    pub fn clear_overlapping(&mut self, start: u64, len: u64) -> usize {
        self.take_overlapping(start, len).len()
    }

    /// Removes every extent and returns how many there were (used when a
    /// disk is replaced: the spare starts clean).
    pub fn reset(&mut self) -> usize {
        let n = self.extents.len();
        self.extents.clear();
        n
    }

    /// Iterates `(start, len)` over the latent extents in offset order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.extents.iter().map(|(s, l, _)| (s, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_overlap() {
        let mut m = IntegrityMap::new();
        assert!(m.insert(100, 50));
        assert!(m.overlaps(100, 1));
        assert!(m.overlaps(149, 1));
        assert!(!m.overlaps(150, 1));
        assert!(!m.overlaps(0, 100));
        assert!(m.overlaps(0, 101));
        assert!(m.overlaps(140, 1000));
        assert_eq!(m.len(), 1);
        assert_eq!(m.bytes(), 50);
    }

    #[test]
    fn overlapping_insert_rejected() {
        let mut m = IntegrityMap::new();
        assert!(m.insert(100, 50));
        assert!(!m.insert(149, 10));
        assert!(!m.insert(90, 20));
        assert!(!m.insert(100, 50));
        assert!(!m.insert(0, 0));
        assert!(m.insert(150, 10));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn clear_overlapping_removes_whole_extents() {
        let mut m = IntegrityMap::new();
        m.insert(0, 10);
        m.insert(100, 50);
        m.insert(200, 10);
        assert_eq!(m.clear_overlapping(140, 70), 2);
        assert_eq!(m.len(), 1);
        assert!(m.overlaps(0, 10));
        assert!(!m.overlaps(100, 200));
        assert_eq!(m.clear_overlapping(500, 10), 0);
        assert_eq!(m.reset(), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn take_overlapping_returns_extents_in_order() {
        let mut m = IntegrityMap::new();
        m.insert(100, 50);
        m.insert(200, 10);
        m.insert(400, 10);
        assert_eq!(m.take_overlapping(120, 100), vec![(100, 50), (200, 10)]);
        assert_eq!(m.len(), 1);
        assert!(m.take_overlapping(0, 50).is_empty());
    }
}
