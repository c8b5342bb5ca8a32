//! Logger-region space management (§III-E "Free space management").
//!
//! Each disk participating in logging dedicates a byte range (its *logger
//! region*) to sequential log appends. The paper manages this region with
//! used/unused region lists; this module implements the same structure:
//!
//! * allocation is **append-style**: a request is satisfied from the
//!   lowest-addressed free region(s), splitting across free regions when
//!   necessary (each returned piece is written sequentially);
//! * every allocated segment is tagged with the mirrored pair whose data
//!   it holds and the logging period in which it was written;
//! * **reclamation is by predicate** — when a destage process for a pair
//!   completes, all of that pair's segments become stale and are freed in
//!   one sweep (the paper's "proactive reclamation");
//! * adjacent free regions are coalesced so the unused list stays short
//!   (the paper's background compaction of the unused region list): the
//!   list is an [`ExtentMap`], which never holds two touching extents.

use rolo_sim::ExtentMap;

/// A live segment of logged data within a logger region. A region keeps
/// one per allocated piece until its pair reclaims it, so the tags are
/// narrowed to 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogSegment {
    pair: u32,
    period: u32,
    /// Absolute byte offset on the disk.
    pub offset: u64,
    /// Segment length in bytes.
    pub bytes: u64,
}

const _: () = assert!(std::mem::size_of::<LogSegment>() <= 24);

impl LogSegment {
    /// Mirrored pair whose second copies this segment holds.
    pub fn pair(&self) -> usize {
        self.pair as usize
    }

    /// Logging period during which the segment was written.
    pub fn period(&self) -> u64 {
        u64::from(self.period)
    }
}

/// Manager of one disk's logger region.
///
/// # Example
///
/// ```
/// use rolo_core::logspace::LoggerSpace;
///
/// let mut ls = LoggerSpace::new(1 << 30, 8 << 20); // region at 1 GiB, 8 MiB long
/// let mut allocated = 0;
/// assert!(ls.alloc(64 * 1024, 0, 1, |piece| allocated += piece.bytes));
/// assert_eq!(allocated, 64 * 1024);
/// assert_eq!(ls.used_bytes(), 64 * 1024);
/// let freed = ls.reclaim(|seg| seg.pair() == 0);
/// assert_eq!(freed, 64 * 1024);
/// assert_eq!(ls.used_bytes(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct LoggerSpace {
    base: u64,
    size: u64,
    /// Free regions, coalesced.
    free: ExtentMap<()>,
    /// Live segments, unordered.
    used: Vec<LogSegment>,
}

impl LoggerSpace {
    /// Creates a fully free logger region `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(base: u64, size: u64) -> Self {
        assert!(size > 0, "logger region must be non-empty");
        let mut free = ExtentMap::new();
        free.assign(base, size, (), |_, _| {});
        LoggerSpace {
            base,
            size,
            free,
            used: Vec::new(),
        }
    }

    /// Start of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total region size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes currently holding live segments.
    pub fn used_bytes(&self) -> u64 {
        self.size - self.free.bytes()
    }

    /// Bytes available for allocation.
    pub fn free_bytes(&self) -> u64 {
        self.free.bytes()
    }

    /// Occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.used_bytes() as f64 / self.size as f64
    }

    /// Live segments (unordered).
    pub fn segments(&self) -> &[LogSegment] {
        &self.used
    }

    /// Allocates `bytes` for `pair` during `period`, lowest-address-first,
    /// splitting across free regions if needed, and hands each piece to
    /// `piece` in address order. Returns `false` (and allocates nothing)
    /// if there is not enough space.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero, or if `pair` or `period` does not fit
    /// in 32 bits.
    #[must_use]
    pub fn alloc(
        &mut self,
        bytes: u64,
        pair: usize,
        period: u64,
        mut piece: impl FnMut(LogSegment),
    ) -> bool {
        assert!(bytes > 0, "zero-byte log allocation");
        if bytes > self.free_bytes() {
            return false;
        }
        let pair = u32::try_from(pair).expect("pair index fits in 32 bits");
        let period = u32::try_from(period).expect("logging period fits in 32 bits");
        let mut remaining = bytes;
        while remaining > 0 {
            let (offset, take, ()) = self
                .free
                .pop_front(remaining)
                .expect("free accounting out of sync");
            let seg = LogSegment {
                pair,
                period,
                offset,
                bytes: take,
            };
            self.used.push(seg);
            piece(seg);
            remaining -= take;
        }
        true
    }

    /// Frees every live segment matching `stale`, coalescing the freed
    /// space. Returns the number of bytes reclaimed.
    ///
    /// The unused region list is minimal (one fragment per maximal free
    /// run) on return, regardless of the order in which the stale
    /// segments were visited: the free list is an [`ExtentMap`], which
    /// merges touching extents on every insertion.
    pub fn reclaim<F: FnMut(&LogSegment) -> bool>(&mut self, mut stale: F) -> u64 {
        let mut freed = 0;
        let mut i = 0;
        while i < self.used.len() {
            if stale(&self.used[i]) {
                let seg = self.used.swap_remove(i);
                freed += seg.bytes;
                self.free.assign(seg.offset, seg.bytes, (), |_, _| {
                    debug_assert!(false, "freed a free region")
                });
            } else {
                i += 1;
            }
        }
        debug_assert_eq!(self.free.check_invariants(), Ok(()));
        freed
    }

    /// Number of fragments in the free list (1 when fully coalesced and
    /// nothing is allocated in the middle).
    pub fn free_fragments(&self) -> usize {
        self.free.len()
    }

    /// Debug invariant check: free regions are disjoint, within bounds,
    /// non-adjacent, and free plus used bytes fill the region.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.free.check_invariants()?;
        for (off, len, ()) in self.free.iter() {
            if off < self.base || off + len > self.base + self.size {
                return Err(format!("free region [{off}, {}) out of bounds", off + len));
            }
        }
        let used_total: u64 = self.used.iter().map(|s| s.bytes).sum();
        if self.free.bytes() + used_total != self.size {
            return Err(format!(
                "space leak: free {} + used {used_total} != size {}",
                self.free.bytes(),
                self.size
            ));
        }
        // Used segments must not overlap free regions or each other.
        let mut spans: Vec<(u64, u64)> = self
            .used
            .iter()
            .map(|s| (s.offset, s.bytes))
            .chain(self.free.iter().map(|(o, l, ())| (o, l)))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[0].0 + w[0].1 > w[1].0 {
                return Err(format!("overlapping spans at {}", w[1].0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`LoggerSpace::alloc`], collecting the pieces.
    fn pieces(
        ls: &mut LoggerSpace,
        bytes: u64,
        pair: usize,
        period: u64,
    ) -> Option<Vec<LogSegment>> {
        let mut out = Vec::new();
        ls.alloc(bytes, pair, period, |seg| out.push(seg))
            .then_some(out)
    }

    #[test]
    fn fresh_region_fully_free() {
        let ls = LoggerSpace::new(100, 1000);
        assert_eq!(ls.free_bytes(), 1000);
        assert_eq!(ls.used_bytes(), 0);
        assert_eq!(ls.occupancy(), 0.0);
        ls.check_invariants().unwrap();
    }

    #[test]
    fn alloc_is_sequential_from_base() {
        let mut ls = LoggerSpace::new(100, 1000);
        let a = pieces(&mut ls, 300, 0, 0).unwrap();
        assert_eq!(
            a,
            vec![LogSegment {
                pair: 0,
                period: 0,
                offset: 100,
                bytes: 300
            }]
        );
        let b = pieces(&mut ls, 200, 1, 0).unwrap();
        assert_eq!(b[0].offset, 400);
        ls.check_invariants().unwrap();
    }

    #[test]
    fn alloc_fails_without_mutation_when_full() {
        let mut ls = LoggerSpace::new(0, 512);
        pieces(&mut ls, 512, 0, 0).unwrap();
        assert!(pieces(&mut ls, 1, 0, 0).is_none());
        assert_eq!(ls.free_bytes(), 0);
        ls.check_invariants().unwrap();
    }

    #[test]
    fn alloc_splits_across_fragments() {
        let mut ls = LoggerSpace::new(0, 1000);
        pieces(&mut ls, 400, 0, 0).unwrap(); // [0,400) pair0
        pieces(&mut ls, 200, 1, 0).unwrap(); // [400,600) pair1
        pieces(&mut ls, 400, 0, 0).unwrap(); // [600,1000) pair0
                                             // Free pair 0 → fragments [0,400) and [600,1000).
        assert_eq!(ls.reclaim(|s| s.pair() == 0), 800);
        assert_eq!(ls.free_fragments(), 2);
        // 600-byte allocation must span both fragments.
        let segs = pieces(&mut ls, 600, 2, 1).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].offset, 0);
        assert_eq!(segs[0].bytes, 400);
        assert_eq!(segs[1].offset, 600);
        assert_eq!(segs[1].bytes, 200);
        ls.check_invariants().unwrap();
    }

    #[test]
    fn reclaim_by_pair_and_period() {
        let mut ls = LoggerSpace::new(0, 1000);
        pieces(&mut ls, 100, 0, 0).unwrap();
        pieces(&mut ls, 100, 1, 0).unwrap();
        pieces(&mut ls, 100, 0, 1).unwrap();
        let freed = ls.reclaim(|s| s.pair() == 0 && s.period() == 0);
        assert_eq!(freed, 100);
        assert_eq!(ls.used_bytes(), 200);
        ls.check_invariants().unwrap();
    }

    #[test]
    fn coalescing_restores_single_region() {
        let mut ls = LoggerSpace::new(0, 1000);
        for i in 0..10 {
            pieces(&mut ls, 100, i, 0).unwrap();
        }
        assert_eq!(ls.free_bytes(), 0);
        // Free odd pairs, then even: after both sweeps one region remains.
        ls.reclaim(|s| s.pair() % 2 == 1);
        ls.check_invariants().unwrap();
        ls.reclaim(|_| true);
        assert_eq!(ls.free_fragments(), 1);
        assert_eq!(ls.free_bytes(), 1000);
        ls.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "zero-byte log allocation")]
    fn zero_alloc_panics() {
        pieces(&mut LoggerSpace::new(0, 100), 0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "logging period fits in 32 bits")]
    fn oversized_period_panics_instead_of_wrapping() {
        let mut ls = LoggerSpace::new(0, 100);
        let last = u64::from(u32::MAX);
        assert_eq!(pieces(&mut ls, 1, 0, last).unwrap()[0].period(), last);
        pieces(&mut ls, 1, 0, last + 1);
    }

    /// Minimal fragment count for the current layout: one fragment per
    /// maximal gap between live segments (reference model for the
    /// minimality regression below).
    fn minimal_fragments(ls: &LoggerSpace) -> usize {
        let mut segs: Vec<(u64, u64)> = ls.segments().iter().map(|s| (s.offset, s.bytes)).collect();
        segs.sort_unstable();
        let mut frags = 0;
        let mut pos = ls.base();
        for (off, len) in segs {
            if off > pos {
                frags += 1;
            }
            pos = off + len;
        }
        if pos < ls.base() + ls.size() {
            frags += 1;
        }
        frags
    }

    #[test]
    fn reclaim_leaves_minimal_free_list() {
        let mut ls = LoggerSpace::new(0, 1200);
        for i in 0..12 {
            pieces(&mut ls, 100, i % 3, 0).unwrap();
        }
        // Freeing pair 0 releases every third 100-byte slot: four
        // disjoint gaps, none mergeable.
        ls.reclaim(|s| s.pair() == 0);
        assert_eq!(ls.free_fragments(), minimal_fragments(&ls));
        // Freeing the rest must fold everything back to one run even
        // though the stale segments are visited in swap_remove order.
        ls.reclaim(|_| true);
        assert_eq!(ls.free_fragments(), 1);
        ls.check_invariants().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_free_fragments_minimal_after_interleavings(ops in proptest::collection::vec((0u8..3, 1u64..2048, 0usize..4, 0u64..4), 1..200)) {
            let mut ls = LoggerSpace::new(4096, 64 * 1024);
            for (op, bytes, pair, period) in ops {
                match op {
                    0 | 1 => {
                        let _ = pieces(&mut ls, bytes, pair, period);
                    }
                    _ => {
                        ls.reclaim(|s| s.pair() == pair && s.period() <= period);
                    }
                }
                prop_assert_eq!(ls.free_fragments(), minimal_fragments(&ls));
            }
        }

        #[test]
        fn prop_invariants_under_random_ops(ops in proptest::collection::vec((0u8..3, 1u64..2048, 0usize..4, 0u64..4), 1..200)) {
            let mut ls = LoggerSpace::new(4096, 64 * 1024);
            for (op, bytes, pair, period) in ops {
                match op {
                    0 | 1 => {
                        let _ = pieces(&mut ls, bytes, pair, period);
                    }
                    _ => {
                        ls.reclaim(|s| s.pair() == pair && s.period() <= period);
                    }
                }
                prop_assert!(ls.check_invariants().is_ok(), "{:?}", ls.check_invariants());
                prop_assert!(ls.used_bytes() + ls.free_bytes() == ls.size());
            }
        }

        #[test]
        fn prop_alloc_reclaim_round_trip(sizes in proptest::collection::vec(1u64..4096, 1..50)) {
            let total: u64 = sizes.iter().sum();
            let mut ls = LoggerSpace::new(0, total);
            for (i, s) in sizes.iter().enumerate() {
                let segs = pieces(&mut ls, *s, i, 0).unwrap();
                let got: u64 = segs.iter().map(|x| x.bytes).sum();
                prop_assert_eq!(got, *s);
            }
            prop_assert_eq!(ls.free_bytes(), 0);
            prop_assert_eq!(ls.reclaim(|_| true), total);
            prop_assert_eq!(ls.free_fragments(), 1);
        }
    }
}
