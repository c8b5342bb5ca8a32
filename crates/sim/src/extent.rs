//! Disjoint byte-extent maps.
//!
//! Most of the simulator's bookkeeping is sets of byte extents: the
//! stale-mirror lists that destage drains front to back, the logger
//! region's unused-region list, the journal's live-extent index and the
//! per-disk integrity maps. [`ExtentMap`] is the one interval structure
//! behind all of them. Its single invariant: extents are non-empty and
//! disjoint, and touching extents with equal values are always merged.
//!
//! The value type picks the merge rule. With `()` every touching pair
//! merges (a plain extent set); with an owner id, same-owner neighbours
//! merge; with a value unique to each extent, nothing ever merges.
//!
//! The extents live in address-ordered *runs* of at most `RUN` entries,
//! with a `heads` vector holding each run's first start. An update does
//! one two-level binary search (`heads`, then one run) to the last extent
//! that starts at or before the range's end, walks back over the few
//! extents the range reaches, and splices at most three pieces in their
//! place. A run that overflows splits in half; a run that empties is
//! dropped. Equality compares extents, never the run layout.

use std::fmt;

/// One extent: `(start, len, value)`.
type Entry<V> = (u64, u64, V);

/// An entry's position: `(run, index within the run)`.
type Pos = (usize, usize);

/// Extents per run in production maps.
const DEFAULT_RUN: usize = 128;

/// Non-empty, disjoint extents `[start, start + len)`, each carrying a
/// value, with touching equal-valued extents merged.
///
/// `RUN` is the most extents one run holds (at least 2). The default
/// bounds a splice's copy to one run's tail while keeping `heads`
/// short; tests shrink it to force operations across run boundaries.
///
/// # Example
///
/// ```
/// use rolo_sim::ExtentMap;
///
/// let mut m: ExtentMap<u8> = ExtentMap::new();
/// m.assign(0, 100, 1, |_, _| {});
/// m.assign(100, 50, 1, |_, _| {}); // touching, equal value: merges
/// m.assign(50, 20, 2, |old, bytes| assert_eq!((old, bytes), (1, 20)));
/// let extents: Vec<_> = m.iter().collect();
/// assert_eq!(extents, vec![(0, 50, 1), (50, 20, 2), (70, 80, 1)]);
/// assert_eq!(m.bytes(), 150);
/// ```
#[derive(Clone)]
pub struct ExtentMap<V, const RUN: usize = DEFAULT_RUN> {
    /// Non-empty runs of at most `RUN` extents, in address order.
    runs: Vec<Vec<Entry<V>>>,
    /// `heads[r]` is the start of `runs[r]`'s first extent.
    heads: Vec<u64>,
    bytes: u64,
}

impl<V, const RUN: usize> Default for ExtentMap<V, RUN> {
    fn default() -> Self {
        const { assert!(RUN >= 2, "a run holds at least two extents") };
        ExtentMap {
            runs: Vec::new(),
            heads: Vec::new(),
            bytes: 0,
        }
    }
}

impl<V: Copy + Eq> ExtentMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<V: Copy + Eq, const RUN: usize> ExtentMap<V, RUN> {
    /// Total bytes covered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of extents.
    pub fn len(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }

    /// True if no byte is covered.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Removes every extent.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.heads.clear();
        self.bytes = 0;
    }

    /// Iterates `(start, len, value)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, V)> + '_ {
        self.entries_from((0, 0))
    }

    /// Maps `[start, start + len)` to `v`, merging with touching extents
    /// of the same value. Each run of bytes it takes over is handed to
    /// `displaced` as `(old value, bytes)`, in address order, whether or
    /// not the old value equals `v`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn assign(&mut self, start: u64, len: u64, v: V, mut displaced: impl FnMut(V, u64)) {
        assert!(len > 0, "zero-length extent");
        self.put(start, start + len, Some(v), &mut displaced);
    }

    /// Uncovers `[start, start + len)`, splitting straddling extents
    /// (the pieces keep their value). Each run of bytes removed is
    /// handed to `removed` as `(value, bytes)`, in address order. A zero
    /// `len` is a no-op.
    pub fn remove(&mut self, start: u64, len: u64, mut removed: impl FnMut(V, u64)) {
        if len > 0 {
            self.put(start, start + len, None, &mut removed);
        }
    }

    /// Removes and returns the lowest-addressed extent as
    /// `(start, len, value)`, clipped to its first `max` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn pop_front(&mut self, max: u64) -> Option<(u64, u64, V)> {
        assert!(max > 0, "zero-length pop");
        let run = self.runs.first_mut()?;
        let (start, len, v) = run[0];
        let take = len.min(max);
        if take < len {
            run[0] = (start + take, len - take, v);
        } else {
            run.remove(0);
        }
        self.fix(0);
        self.bytes -= take;
        Some((start, take, v))
    }

    /// Iterates `(start, len, value)` over the extents that share at
    /// least one byte with `[start, start + len)`, in address order and
    /// unclipped.
    pub fn overlapping(&self, start: u64, len: u64) -> impl Iterator<Item = (u64, u64, V)> + '_ {
        let end = start + len;
        // The first extent ending after `start`: the one straddling it,
        // or else the first starting at or after it.
        let (first, _, _) = self.reach(start, start, false);
        self.entries_from(first)
            .take_while(move |e| len > 0 && e.0 < end)
    }

    /// Checks the invariant: extents non-empty, disjoint, touching
    /// equal-valued extents merged, the byte total in sync, and every
    /// run non-empty, within `RUN` and matched by its head.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.heads.len() != self.runs.len() {
            return Err(format!(
                "{} heads for {} runs",
                self.heads.len(),
                self.runs.len()
            ));
        }
        for (r, run) in self.runs.iter().enumerate() {
            if run.is_empty() || run.len() > RUN {
                return Err(format!("run {r} holds {} extents", run.len()));
            }
            if self.heads[r] != run[0].0 {
                return Err(format!("run {r} head {} != {}", self.heads[r], run[0].0));
            }
        }
        let mut prev: Option<(u64, V)> = None;
        let mut total = 0;
        for (s, l, v) in self.iter() {
            if l == 0 {
                return Err(format!("zero-length extent at {s}"));
            }
            if let Some((pe, pv)) = prev {
                if s < pe {
                    return Err(format!("overlapping extents at {s}"));
                }
                if s == pe && pv == v {
                    return Err(format!("unmerged equal-valued extents at {s}"));
                }
            }
            prev = Some((s + l, v));
            total += l;
        }
        if total != self.bytes {
            return Err(format!("byte total {} != extents {total}", self.bytes));
        }
        Ok(())
    }

    /// Every extent from position `(r, i)` on, in address order.
    fn entries_from(&self, (r, i): Pos) -> impl Iterator<Item = Entry<V>> + '_ {
        let runs = self.runs.get(r..).unwrap_or_default();
        runs.iter()
            .enumerate()
            .flat_map(move |(k, run)| &run[if k == 0 { i } else { 0 }..])
            .copied()
    }

    /// The extents `[start, end)` reaches: those overlapping it, plus,
    /// with `touching`, those that only touch it. Returns the position
    /// of the first, the position just past the last, and their number;
    /// with none, both positions are where an extent at `start` goes.
    fn reach(&self, start: u64, end: u64, touching: bool) -> (Pos, Pos, usize) {
        let before = |s: u64| s < end || (touching && s == end);
        let r = self.heads.partition_point(|&h| before(h));
        if r == 0 {
            return ((0, 0), (0, 0), 0);
        }
        let past = (r - 1, self.runs[r - 1].partition_point(|e| before(e.0)));
        let (mut first, mut count) = (past, 0);
        loop {
            let (r, i) = first;
            let prev = if i > 0 {
                (r, i - 1)
            } else if r > 0 {
                (r - 1, self.runs[r - 1].len() - 1)
            } else {
                break;
            };
            let (s, l, _) = self.runs[prev.0][prev.1];
            if s + l < start || (s + l == start && !touching) {
                break;
            }
            first = prev;
            count += 1;
        }
        (first, past, count)
    }

    /// Replaces what `[start, end)` covers with an extent valued `v`
    /// (merged with touching equal-valued neighbours), or with nothing
    /// if `v` is `None`, handing each overlapped extent's lost bytes to
    /// `lost` in address order.
    fn put(&mut self, start: u64, end: u64, v: Option<V>, lost: &mut impl FnMut(V, u64)) {
        let (first, past, count) = self.reach(start, end, v.is_some());
        let (mut lo, mut hi, mut gone) = (start, end, 0);
        let (mut left, mut right, mut fill) = (None, None, v);
        for (s, l, ev) in self.entries_from(first).take(count) {
            fill.get_or_insert(ev);
            let overlap = (s + l).min(end).saturating_sub(s.max(start));
            if overlap > 0 {
                lost(ev, overlap);
            }
            gone += l;
            if Some(ev) == v {
                lo = lo.min(s);
                hi = hi.max(s + l);
            } else {
                if s < start {
                    left = Some((s, start - s, ev));
                }
                if s + l > end {
                    right = Some((end, s + l - end, ev));
                }
            }
        }
        // `fill` is any value at hand, to initialise the piece buffer;
        // with none, nothing was assigned and nothing reached.
        let Some(fill) = fill else {
            return;
        };
        let (mut pieces, mut n, mut added) = ([(0, 0, fill); 3], 0, 0);
        for piece in [left, v.map(|v| (lo, hi - lo, v)), right]
            .into_iter()
            .flatten()
        {
            pieces[n] = piece;
            n += 1;
            added += piece.1;
        }
        self.bytes = self.bytes + added - gone;
        self.splice(first, past, &pieces[..n]);
    }

    /// Replaces the extents in `[a, b)` (positions, `b` exclusive) with
    /// `pieces`, then restores the run invariants.
    fn splice(&mut self, (ra, ia): Pos, (rb, ib): Pos, pieces: &[Entry<V>]) {
        let pieces = pieces.iter().copied();
        if self.runs.is_empty() {
            self.runs.push(Vec::with_capacity(RUN + 2));
            self.heads.push(0);
        }
        if ra == rb {
            self.runs[ra].splice(ia..ib, pieces);
        } else {
            // Cut the first run's tail, drop the whole runs between and
            // the last run's head; the pieces land in the first run.
            self.runs[ra].truncate(ia);
            self.runs[ra].extend(pieces);
            self.runs[rb].drain(..ib);
            self.runs.drain(ra + 1..rb);
            self.heads.drain(ra + 1..rb);
            self.fix(ra + 1);
        }
        self.fix(ra);
    }

    /// Restores run `r` after a splice: an empty run is dropped, one
    /// over `RUN` (by at most two) splits in half, and heads refresh.
    fn fix(&mut self, r: usize) {
        let n = self.runs[r].len();
        if n == 0 {
            self.runs.remove(r);
            self.heads.remove(r);
            return;
        }
        if n > RUN {
            let mut tail = Vec::with_capacity(RUN + 2);
            tail.extend(self.runs[r].drain(n / 2..));
            self.heads.insert(r + 1, tail[0].0);
            self.runs.insert(r + 1, tail);
        }
        self.heads[r] = self.runs[r][0].0;
    }
}

/// Equal iff both hold the same extents with the same values, however
/// their runs are laid out.
impl<V: Copy + Eq, const RUN: usize> PartialEq for ExtentMap<V, RUN> {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes && self.iter().eq(other.iter())
    }
}

impl<V: Copy + Eq, const RUN: usize> Eq for ExtentMap<V, RUN> {}

impl<V: Copy + Eq + fmt::Debug, const RUN: usize> fmt::Debug for ExtentMap<V, RUN> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model size in bytes.
    const SPAN: u64 = 300;

    /// Maximal equal-valued runs of the reference, as `(start, len, v)`.
    fn runs(reference: &[Option<u8>]) -> Vec<(u64, u64, u8)> {
        let mut out: Vec<(u64, u64, u8)> = Vec::new();
        for (at, byte) in reference.iter().enumerate() {
            let Some(v) = *byte else { continue };
            match out.last_mut() {
                Some((s, l, lv)) if *s + *l == at as u64 && *lv == v => *l += 1,
                _ => out.push((at as u64, 1, v)),
            }
        }
        out
    }

    /// The `(value, bytes)` callbacks an update of `[start, end)` owes:
    /// one per reference run it overlaps, in address order.
    fn overlaps(reference: &[Option<u8>], start: u64, end: u64) -> Vec<(u8, u64)> {
        runs(reference)
            .into_iter()
            .filter(|&(s, l, _)| s < end && s + l > start)
            .map(|(s, l, v)| (v, (s + l).min(end) - s.max(start)))
            .collect()
    }

    /// Start of every extent, run by run.
    fn layout<V: Copy + Eq, const RUN: usize>(m: &ExtentMap<V, RUN>) -> Vec<Vec<u64>> {
        m.runs
            .iter()
            .map(|run| run.iter().map(|e| e.0).collect())
            .collect()
    }

    type Op = (u8, u64, u64, u8, u64, u64);

    /// Replays `ops` (assign, remove or pop_front, then an overlap
    /// query) on a map with `RUN` extents per run and on a byte map: the
    /// extents always equal the reference's maximal equal-valued runs,
    /// and the callbacks report, in address order, exactly the bytes
    /// each overlapped extent lost.
    fn matches_byte_map<const RUN: usize>(ops: &[Op]) -> Result<(), TestCaseError> {
        let mut m: ExtentMap<u8, RUN> = ExtentMap::default();
        let mut reference: Vec<Option<u8>> = vec![None; SPAN as usize];
        for &(op, start, len, v, q_start, q_len) in ops {
            let end = (start + len).min(SPAN);
            let len = end - start;
            let mut got = Vec::new();
            let mut note = |old: u8, bytes: u64| got.push((old, bytes));
            match op {
                0 | 1 => {
                    let want = overlaps(&reference, start, end);
                    m.assign(start, len, v, &mut note);
                    reference[start as usize..end as usize].fill(Some(v));
                    prop_assert_eq!(got, want);
                }
                2 => {
                    let want = overlaps(&reference, start, end);
                    m.remove(start, len, &mut note);
                    reference[start as usize..end as usize].fill(None);
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let want = runs(&reference)
                        .first()
                        .map(|&(s, l, rv)| (s, l.min(len), rv));
                    let popped = m.pop_front(len);
                    if let Some((s, l, _)) = popped {
                        reference[s as usize..(s + l) as usize].fill(None);
                    }
                    prop_assert_eq!(popped, want);
                }
            }
            prop_assert!(m.check_invariants().is_ok(), "{:?}", m.check_invariants());
            let all: Vec<_> = m.iter().collect();
            prop_assert_eq!(&all, &runs(&reference));
            prop_assert_eq!(m.bytes(), reference.iter().flatten().count() as u64);
            prop_assert_eq!(m.len(), all.len());
            let q_end = q_start + q_len;
            let hit: Vec<_> = m.overlapping(q_start, q_len).collect();
            let want: Vec<_> = all
                .iter()
                .copied()
                .filter(|&(s, l, _)| q_len > 0 && s < q_end && s + l > q_start)
                .collect();
            prop_assert_eq!(hit, want);
        }
        Ok(())
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0u8..4, 0u64..SPAN, 1u64..80, 0u8..3, 0u64..SPAN, 0u64..80),
            1..120,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random assign/remove/pop_front against a byte map at the
        /// production run length.
        #[test]
        fn prop_matches_byte_map(ops in ops()) {
            matches_byte_map::<DEFAULT_RUN>(&ops)?;
        }

        /// The same at three extents per run: any map past three extents
        /// spans several runs, so runs split and empty and splices cross
        /// run boundaries throughout.
        #[test]
        fn prop_matches_byte_map_across_runs(ops in ops()) {
            matches_byte_map::<3>(&ops)?;
        }
    }

    #[test]
    fn runs_split_empty_and_splice_across_boundaries() {
        let mut m: ExtentMap<u8, 3> = ExtentMap::default();
        // Appends overflow the tail run, which splits in half.
        for i in 0..8 {
            m.assign(i * 10, 5, 0, |_, _| {});
        }
        assert_eq!(
            layout(&m),
            vec![vec![0, 10], vec![20, 30], vec![40, 50], vec![60, 70]]
        );
        // [12, 42) reaches from run 0 into run 2: one splice drops run 1
        // whole, clips run 2's head, and overflows run 0, which splits.
        let mut lost = Vec::new();
        m.assign(12, 30, 1, |old, bytes| lost.push((old, bytes)));
        assert_eq!(lost, vec![(0, 3), (0, 5), (0, 5), (0, 2)]);
        assert_eq!(
            layout(&m),
            vec![vec![0, 10], vec![12, 42], vec![50], vec![60, 70]]
        );
        // Removing a run's only extent drops the run.
        m.remove(50, 5, |_, _| {});
        assert_eq!(layout(&m), vec![vec![0, 10], vec![12, 42], vec![60, 70]]);
        let extents: Vec<_> = m.iter().collect();
        assert_eq!(
            extents,
            vec![
                (0, 5, 0),
                (10, 2, 0),
                (12, 30, 1),
                (42, 3, 0),
                (60, 5, 0),
                (70, 5, 0)
            ]
        );
        m.check_invariants().unwrap();
        // Draining from the front empties runs one after another.
        while m.pop_front(4).is_some() {
            m.check_invariants().unwrap();
        }
        assert!(m.runs.is_empty() && m.heads.is_empty());
    }

    /// Builds `n` disjoint extents directly and, for the second map, with
    /// a stray extent after each that is later removed: equal extents,
    /// different run layouts.
    fn two_histories<const RUN: usize>(n: u64) -> (ExtentMap<u8, RUN>, ExtentMap<u8, RUN>) {
        let mut a: ExtentMap<u8, RUN> = ExtentMap::default();
        let mut b: ExtentMap<u8, RUN> = ExtentMap::default();
        for i in 0..n {
            a.assign(i * 10, 5, (i % 3) as u8, |_, _| {});
            b.assign(i * 10, 5, (i % 3) as u8, |_, _| {});
            b.assign(i * 10 + 7, 1, 9, |_, _| {});
        }
        for i in 0..n {
            b.remove(i * 10 + 7, 1, |_, _| {});
        }
        (a, b)
    }

    fn equality_ignores_layout<const RUN: usize>(n: u64) {
        let (a, b) = two_histories::<RUN>(n);
        assert_ne!(layout(&a), layout(&b), "histories must differ in layout");
        assert_eq!(a, b);
        // Same coverage, one value changed.
        let mut c = b.clone();
        c.assign(0, 5, 7, |_, _| {});
        assert_ne!(a, c);
        // Same values, one byte fewer.
        let mut d = b.clone();
        d.remove(n * 10 - 6, 1, |_, _| {});
        assert_ne!(a, d);
    }

    #[test]
    fn equality_compares_extents_not_runs() {
        equality_ignores_layout::<3>(12);
        equality_ignores_layout::<DEFAULT_RUN>(600);
    }

    #[test]
    #[should_panic(expected = "zero-length extent")]
    fn zero_length_assign_panics() {
        ExtentMap::new().assign(5, 0, (), |_, _| {});
    }
}
