//! Tracking of inconsistent (stale) mirror extents per mirrored pair.
//!
//! While writes are redirected to a logger, the write-targeted mirror
//! copies go stale. Each pair's stale extents are kept as a set of
//! disjoint, maximally-merged byte ranges over the pair's physical disk
//! offsets. Destage processes drain the map front-to-back, bundling
//! contiguous blocks into large destage I/Os (§VI: "spatial locality is
//! exploited to bundle as many data blocks with successive location as
//! possible in one destaging I/O operation").

use rolo_sim::ExtentMap;

/// Disjoint, merged set of stale extents for one mirrored pair.
///
/// # Example
///
/// ```
/// use rolo_core::dirty::DirtyMap;
///
/// let mut d = DirtyMap::new();
/// d.mark(0, 4096);
/// d.mark(4096, 4096);           // adjacent: merges
/// assert_eq!(d.extent_count(), 1);
/// assert_eq!(d.bytes(), 8192);
/// let (off, len) = d.take_next(1 << 20).unwrap();
/// assert_eq!((off, len), (0, 8192));
/// assert!(d.is_clean());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyMap(ExtentMap<()>);

impl DirtyMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total stale bytes.
    pub fn bytes(&self) -> u64 {
        self.0.bytes()
    }

    /// Number of disjoint extents.
    pub fn extent_count(&self) -> usize {
        self.0.len()
    }

    /// True if nothing is stale.
    pub fn is_clean(&self) -> bool {
        self.0.is_empty()
    }

    /// Marks `[offset, offset + len)` stale, merging with any overlapping
    /// or adjacent extents.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn mark(&mut self, offset: u64, len: u64) {
        self.0.assign(offset, len, (), |_, _| {});
    }

    /// Removes and returns the lowest-addressed stale run, clipped to
    /// `max_bytes` — the next destage I/O.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is zero.
    pub fn take_next(&mut self, max_bytes: u64) -> Option<(u64, u64)> {
        self.0.pop_front(max_bytes).map(|(off, len, ())| (off, len))
    }

    /// Removes any staleness within `[offset, offset + len)` (e.g. the
    /// range was just overwritten in place on the mirror).
    pub fn clear_range(&mut self, offset: u64, len: u64) {
        self.0.remove(offset, len, |_, _| {});
    }

    /// Iterates over the stale extents in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.0.iter().map(|(o, l, ())| (o, l))
    }

    /// Debug invariant check: extents disjoint, non-adjacent, accounted.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.0.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mark_merges_overlap() {
        let mut d = DirtyMap::new();
        d.mark(100, 100);
        d.mark(150, 100); // overlaps
        assert_eq!(d.extent_count(), 1);
        assert_eq!(d.bytes(), 150);
        d.check_invariants().unwrap();
    }

    #[test]
    fn mark_merges_spanning_several() {
        let mut d = DirtyMap::new();
        d.mark(0, 10);
        d.mark(20, 10);
        d.mark(40, 10);
        d.mark(5, 40); // swallows all three
        assert_eq!(d.extent_count(), 1);
        assert_eq!(d.bytes(), 50);
        d.check_invariants().unwrap();
    }

    #[test]
    fn disjoint_marks_stay_disjoint() {
        let mut d = DirtyMap::new();
        d.mark(0, 10);
        d.mark(100, 10);
        assert_eq!(d.extent_count(), 2);
        assert_eq!(d.bytes(), 20);
    }

    #[test]
    fn take_next_clips() {
        let mut d = DirtyMap::new();
        d.mark(0, 1000);
        assert_eq!(d.take_next(300), Some((0, 300)));
        assert_eq!(d.take_next(300), Some((300, 300)));
        assert_eq!(d.bytes(), 400);
        assert_eq!(d.take_next(10_000), Some((600, 400)));
        assert!(d.take_next(1).is_none());
        assert!(d.is_clean());
    }

    #[test]
    fn clear_range_splits() {
        let mut d = DirtyMap::new();
        d.mark(0, 100);
        d.clear_range(40, 20);
        assert_eq!(d.bytes(), 80);
        let ext: Vec<_> = d.iter().collect();
        assert_eq!(ext, vec![(0, 40), (60, 40)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn clear_range_across_extents() {
        let mut d = DirtyMap::new();
        d.mark(0, 10);
        d.mark(20, 10);
        d.mark(40, 10);
        d.clear_range(5, 40);
        let ext: Vec<_> = d.iter().collect();
        assert_eq!(ext, vec![(0, 5), (45, 5)]);
        d.check_invariants().unwrap();
    }

    #[test]
    fn clear_empty_range_is_noop() {
        let mut d = DirtyMap::new();
        d.mark(0, 10);
        d.clear_range(5, 0);
        assert_eq!(d.bytes(), 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_invariants_under_random_ops(
            ops in proptest::collection::vec((0u8..3, 0u64..10_000, 1u64..500), 1..150)
        ) {
            let mut d = DirtyMap::new();
            for (op, off, len) in ops {
                match op {
                    0 | 1 => d.mark(off, len),
                    _ => d.clear_range(off, len),
                }
                prop_assert!(d.check_invariants().is_ok());
            }
        }

        #[test]
        fn prop_marked_bytes_drainable(
            marks in proptest::collection::vec((0u64..100_000, 1u64..1_000), 1..60)
        ) {
            let mut d = DirtyMap::new();
            for (off, len) in &marks {
                d.mark(*off, *len);
            }
            let total = d.bytes();
            let mut drained = 0;
            while let Some((_, l)) = d.take_next(777) {
                drained += l;
            }
            prop_assert_eq!(drained, total);
            prop_assert!(d.is_clean());
        }
    }
}
