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

/// A live piece of logged data within a logger region. A region keeps
/// one per allocated piece until its pair reclaims it, so the piece is
/// 16 bytes: the length is narrowed to 32 bits and the tags to 16, each
/// with a checked conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogSegment {
    offset: u64,
    bytes: u32,
    pair: u16,
    period: u16,
}

const _: () = assert!(std::mem::size_of::<LogSegment>() <= 16);

impl LogSegment {
    /// Absolute byte offset on the disk.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Piece length in bytes.
    pub fn bytes(&self) -> u64 {
        u64::from(self.bytes)
    }

    /// Mirrored pair whose second copies this piece holds.
    pub fn pair(&self) -> usize {
        usize::from(self.pair)
    }

    /// Logging period during which the piece was written.
    pub fn period(&self) -> u64 {
        u64::from(self.period)
    }
}

/// `log2` of the pieces per chunk of a [`PieceList`]: 2,048 pieces,
/// 32 KiB.
const CHUNK_SHIFT: u32 = 11;
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// The live pieces in fixed-size chunks: every chunk but the last is
/// full and none is empty, so the list's capacity exceeds its length by
/// less than one chunk, where a doubling `Vec` may leave half its slots
/// empty. [`Self::swap_remove`] fills the hole with the last piece, so
/// the list holds its pieces in the order a `Vec` with `swap_remove`
/// would.
#[derive(Debug, Clone, Default)]
struct PieceList {
    chunks: Vec<Vec<LogSegment>>,
    len: usize,
}

impl PieceList {
    /// Index of the first piece at or after `from` that matches
    /// `pred`, scanning chunk by chunk.
    fn position_from(
        &self,
        from: usize,
        mut pred: impl FnMut(&LogSegment) -> bool,
    ) -> Option<usize> {
        let mut start = from;
        while start < self.len {
            let chunk = &self.chunks[start >> CHUNK_SHIFT];
            if let Some(at) = chunk[start & (CHUNK - 1)..].iter().position(&mut pred) {
                return Some(start + at);
            }
            start = (start | (CHUNK - 1)) + 1;
        }
        None
    }

    fn push(&mut self, piece: LogSegment) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => last.push(piece),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(piece);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    /// Removes and returns piece `i`, moving the last piece into its
    /// place; a chunk is freed as soon as it empties.
    fn swap_remove(&mut self, i: usize) -> LogSegment {
        assert!(i < self.len, "piece index out of range");
        let last_chunk = self
            .chunks
            .last_mut()
            .expect("a non-empty list has a chunk");
        let last = last_chunk.pop().expect("no chunk is empty");
        if last_chunk.is_empty() {
            self.chunks.pop();
        }
        self.len -= 1;
        if i == self.len {
            last
        } else {
            std::mem::replace(&mut self.chunks[i >> CHUNK_SHIFT][i & (CHUNK - 1)], last)
        }
    }

    fn iter(&self) -> impl Iterator<Item = &LogSegment> + '_ {
        self.chunks.iter().flatten()
    }

    /// Every chunk but the last is full, none is empty, and `len`
    /// counts them.
    fn check_invariants(&self) -> Result<(), String> {
        let counted: usize = self.chunks.iter().map(Vec::len).sum();
        let (last, full) = match self.chunks.split_last() {
            Some((last, full)) => (last.len(), full),
            None => (CHUNK, &[][..]),
        };
        if counted != self.len || last == 0 || full.iter().any(|c| c.len() != CHUNK) {
            return Err(format!(
                "piece list of {} pieces in chunks of {:?}",
                self.len,
                self.chunks.iter().map(Vec::len).collect::<Vec<_>>()
            ));
        }
        Ok(())
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
/// assert!(ls.alloc(64 * 1024, 0, 1, |piece| allocated += piece.bytes()));
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
    /// Live pieces, unordered.
    used: PieceList,
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
            used: PieceList::default(),
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

    /// Live pieces, in the list's order: allocation order until a
    /// reclaim moves the last piece into each freed slot.
    pub fn segments(&self) -> impl Iterator<Item = &LogSegment> + '_ {
        self.used.iter()
    }

    /// Allocates `bytes` for `pair` during `period`, lowest-address-first,
    /// splitting across free regions if needed, and hands each piece to
    /// `piece` in address order. Returns `false` (and allocates nothing)
    /// if there is not enough space.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or does not fit in 32 bits, or if
    /// `pair` or `period` does not fit in 16 bits.
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
        let mut remaining = u32::try_from(bytes).expect("log allocation fits in 32 bits");
        let pair = u16::try_from(pair).expect("pair index fits in 16 bits");
        let period = u16::try_from(period).expect("logging period fits in 16 bits");
        while remaining > 0 {
            let (offset, take, ()) = self
                .free
                .pop_front(u64::from(remaining))
                .expect("free accounting out of sync");
            let take = u32::try_from(take).expect("a piece is no longer than its allocation");
            let seg = LogSegment {
                offset,
                bytes: take,
                pair,
                period,
            };
            self.used.push(seg);
            piece(seg);
            remaining -= take;
        }
        true
    }

    /// Frees every live piece matching `stale`, coalescing the freed
    /// space. Returns the number of bytes reclaimed.
    ///
    /// The unused region list is minimal (one fragment per maximal free
    /// run) on return, regardless of the order in which the stale
    /// pieces were visited: the free list is an [`ExtentMap`], which
    /// merges touching extents on every insertion.
    pub fn reclaim<F: FnMut(&LogSegment) -> bool>(&mut self, mut stale: F) -> u64 {
        let mut freed = 0;
        let mut from = 0;
        // The piece moved into a freed slot is tested next, as a
        // `swap_remove` loop over a `Vec` would.
        while let Some(at) = self.used.position_from(from, &mut stale) {
            let seg = self.used.swap_remove(at);
            freed += seg.bytes();
            self.free.assign(seg.offset, seg.bytes(), (), |_, _| {
                debug_assert!(false, "freed a free region")
            });
            from = at;
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
    /// non-adjacent, and free plus used bytes fill the region; the piece
    /// list keeps no empty chunk and no partly filled one but its last.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.used.check_invariants()?;
        self.free.check_invariants()?;
        for (off, len, ()) in self.free.iter() {
            if off < self.base || off + len > self.base + self.size {
                return Err(format!("free region [{off}, {}) out of bounds", off + len));
            }
        }
        let used_total: u64 = self.used.iter().map(LogSegment::bytes).sum();
        if self.free.bytes() + used_total != self.size {
            return Err(format!(
                "space leak: free {} + used {used_total} != size {}",
                self.free.bytes(),
                self.size
            ));
        }
        // Used pieces must not overlap free regions or each other.
        let mut spans: Vec<(u64, u64)> = self
            .used
            .iter()
            .map(|s| (s.offset, s.bytes()))
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
    #[should_panic(expected = "logging period fits in 16 bits")]
    fn oversized_period_panics_instead_of_wrapping() {
        let mut ls = LoggerSpace::new(0, 100);
        let last = u64::from(u16::MAX);
        assert_eq!(pieces(&mut ls, 1, 0, last).unwrap()[0].period(), last);
        pieces(&mut ls, 1, 0, last + 1);
    }

    #[test]
    #[should_panic(expected = "pair index fits in 16 bits")]
    fn oversized_pair_panics_instead_of_wrapping() {
        let mut ls = LoggerSpace::new(0, 100);
        let last = usize::from(u16::MAX);
        assert_eq!(pieces(&mut ls, 1, last, 0).unwrap()[0].pair(), last);
        pieces(&mut ls, 1, last + 1, 0);
    }

    #[test]
    #[should_panic(expected = "log allocation fits in 32 bits")]
    fn oversized_allocation_panics_instead_of_wrapping() {
        let mut ls = LoggerSpace::new(0, 16 << 30);
        let last = u64::from(u32::MAX);
        assert_eq!(pieces(&mut ls, last, 0, 0).unwrap()[0].bytes(), last);
        pieces(&mut ls, last + 1, 0, 0);
    }

    /// Pieces cross chunk boundaries both ways: the list keeps `Vec`'s
    /// `swap_remove` order, and frees a chunk as soon as it empties.
    #[test]
    fn piece_list_spans_chunks_in_vec_order() {
        let mut list = PieceList::default();
        let mut reference = Vec::new();
        for i in 0..2 * CHUNK as u64 + 3 {
            let piece = LogSegment {
                offset: i,
                bytes: 1,
                pair: (i % 5) as u16,
                period: 0,
            };
            list.push(piece);
            reference.push(piece);
        }
        assert_eq!(list.chunks.len(), 3);
        // The first and last of each chunk, a middle piece, and the
        // list's own last piece.
        for i in [0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 7, 2 * CHUNK - 3] {
            assert_eq!(list.swap_remove(i), reference.swap_remove(i));
            assert!(list.iter().eq(reference.iter()));
            list.check_invariants().unwrap();
        }
        assert_eq!(list.chunks.len(), 2, "the emptied third chunk is freed");
        while list.len > 0 {
            let i = list.len / 3;
            assert_eq!(list.swap_remove(i), reference.swap_remove(i));
        }
        assert!(list.chunks.is_empty());
        list.check_invariants().unwrap();
    }

    /// Minimal fragment count for the current layout: one fragment per
    /// maximal gap between live segments (reference model for the
    /// minimality regression below).
    fn minimal_fragments(ls: &LoggerSpace) -> usize {
        let mut segs: Vec<(u64, u64)> = ls.segments().map(|s| (s.offset, s.bytes())).collect();
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

    /// The live list as a `Vec` with `swap_remove` would hold it: the
    /// order the list held before it was chunked, which
    /// `RoloPolicy::pump_compaction` reads (the first piece of a pair).
    #[derive(Default)]
    struct VecReference(Vec<LogSegment>);

    impl VecReference {
        fn reclaim(&mut self, mut stale: impl FnMut(&LogSegment) -> bool) {
            let mut i = 0;
            while i < self.0.len() {
                if stale(&self.0[i]) {
                    self.0.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Thousands of pieces, so allocations and reclaims cross chunk
        /// boundaries both ways; after every operation the list holds
        /// the reference's pieces in the reference's order.
        #[test]
        fn prop_piece_list_keeps_vec_swap_remove_order(ops in proptest::collection::vec((0u8..7, 1usize..600, 1u64..96, 0usize..5, 0u64..4), 1..24)) {
            let mut ls = LoggerSpace::new(512, 1 << 20);
            let mut reference = VecReference::default();
            for (op, count, bytes, pair, period) in ops {
                match op {
                    0..=2 => {
                        for k in 0..count as u64 {
                            let period = (period + k / 64) % 4;
                            let _ = ls.alloc(bytes, pair, period, |seg| reference.0.push(seg));
                        }
                    }
                    3 | 4 => {
                        ls.reclaim(|s| s.pair() == pair);
                        reference.reclaim(|s| s.pair() == pair);
                    }
                    5 => {
                        ls.reclaim(|s| s.pair() == pair && s.period() <= period);
                        reference.reclaim(|s| s.pair() == pair && s.period() <= period);
                    }
                    _ => {
                        ls.reclaim(|_| true);
                        reference.reclaim(|_| true);
                    }
                }
                prop_assert!(ls.segments().eq(reference.0.iter()));
                prop_assert!(ls.check_invariants().is_ok(), "{:?}", ls.check_invariants());
            }
        }
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
                let got: u64 = segs.iter().map(|x| x.bytes()).sum();
                prop_assert_eq!(got, *s);
            }
            prop_assert_eq!(ls.free_bytes(), 0);
            prop_assert_eq!(ls.reclaim(|_| true), total);
            prop_assert_eq!(ls.free_fragments(), 1);
        }
    }
}
