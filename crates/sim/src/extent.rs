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

use std::collections::BTreeMap;

/// Non-empty, disjoint extents `[start, start + len)`, each carrying a
/// value, with touching equal-valued extents merged.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentMap<V> {
    /// start → (len, value).
    extents: BTreeMap<u64, (u64, V)>,
    bytes: u64,
}

impl<V> Default for ExtentMap<V> {
    fn default() -> Self {
        ExtentMap {
            extents: BTreeMap::new(),
            bytes: 0,
        }
    }
}

impl<V: Copy + Eq> ExtentMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes covered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of extents.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// True if no byte is covered.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Removes every extent.
    pub fn clear(&mut self) {
        self.extents.clear();
        self.bytes = 0;
    }

    /// Iterates `(start, len, value)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, V)> + '_ {
        self.extents.iter().map(|(&s, &(l, v))| (s, l, v))
    }

    /// Maps `[start, start + len)` to `v`, merging with touching extents
    /// of the same value. Each run of bytes it takes over is handed to
    /// `displaced` as `(old value, bytes)`, whether or not the old value
    /// equals `v`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn assign(&mut self, start: u64, len: u64, v: V, mut displaced: impl FnMut(V, u64)) {
        assert!(len > 0, "zero-length extent");
        let end = start + len;
        let (mut lo, mut hi) = (start, end);
        // The predecessor either folds in (same value, overlapping or
        // touching) or is trimmed around the new extent.
        if let Some((&ps, &(pl, pv))) = self.extents.range(..start).next_back() {
            let pe = ps + pl;
            if pv == v && pe >= start {
                if pe > start {
                    displaced(pv, pe.min(end) - start);
                }
                self.extents.remove(&ps);
                self.bytes -= pl;
                lo = ps;
                hi = hi.max(pe);
            } else if pe > start {
                self.cut_straddling(ps, pe, pv, start, end, &mut displaced);
            }
        }
        // Extents starting inside the range are taken over; one starting
        // exactly at its end only folds in if its value matches.
        while let Some((&ss, &(sl, sv))) = self.extents.range(start..=end).next() {
            let se = ss + sl;
            if ss == end && sv != v {
                break;
            }
            self.extents.remove(&ss);
            self.bytes -= sl;
            if ss < end {
                displaced(sv, se.min(end) - ss);
            }
            if se > end {
                if sv == v {
                    hi = hi.max(se);
                } else {
                    self.extents.insert(end, (se - end, sv));
                    self.bytes += se - end;
                }
                break;
            }
        }
        self.extents.insert(lo, (hi - lo, v));
        self.bytes += hi - lo;
    }

    /// Uncovers `[start, start + len)`, splitting straddling extents
    /// (the pieces keep their value). Each run of bytes removed is
    /// handed to `removed` as `(value, bytes)`. A zero `len` is a no-op.
    pub fn remove(&mut self, start: u64, len: u64, mut removed: impl FnMut(V, u64)) {
        if len == 0 || self.extents.is_empty() {
            return;
        }
        let end = start + len;
        if let Some((&ps, &(pl, pv))) = self.extents.range(..start).next_back() {
            if ps + pl > start {
                self.cut_straddling(ps, ps + pl, pv, start, end, &mut removed);
            }
        }
        while let Some((&ss, &(sl, sv))) = self.extents.range(start..end).next() {
            let se = ss + sl;
            self.extents.remove(&ss);
            self.bytes -= sl;
            removed(sv, se.min(end) - ss);
            if se > end {
                self.extents.insert(end, (se - end, sv));
                self.bytes += se - end;
                break;
            }
        }
    }

    /// Cuts `[start, end)` out of the extent `[ps, pe)` valued `pv`,
    /// which starts before `start` and ends after it, keeping the pieces
    /// on either side and handing the bytes cut to `cut`.
    fn cut_straddling(
        &mut self,
        ps: u64,
        pe: u64,
        pv: V,
        start: u64,
        end: u64,
        cut: &mut impl FnMut(V, u64),
    ) {
        cut(pv, pe.min(end) - start);
        self.extents.insert(ps, (start - ps, pv));
        self.bytes -= pe - start;
        if pe > end {
            self.extents.insert(end, (pe - end, pv));
            self.bytes += pe - end;
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
        let (start, (len, v)) = self.extents.pop_first()?;
        let take = len.min(max);
        if take < len {
            self.extents.insert(start + take, (len - take, v));
        }
        self.bytes -= take;
        Some((start, take, v))
    }

    /// Iterates `(start, len, value)` over the extents that share at
    /// least one byte with `[start, start + len)`, in address order and
    /// unclipped.
    pub fn overlapping(&self, start: u64, len: u64) -> impl Iterator<Item = (u64, u64, V)> + '_ {
        let end = start + len;
        let straddling = self
            .extents
            .range(..start)
            .next_back()
            .filter(|&(&ps, &(pl, _))| len > 0 && ps + pl > start);
        straddling
            .into_iter()
            .chain(self.extents.range(start..end))
            .map(|(&s, &(l, v))| (s, l, v))
    }

    /// Checks the invariant: extents non-empty, disjoint, touching
    /// equal-valued extents merged, and the byte total in sync.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev: Option<(u64, V)> = None;
        let mut total = 0;
        for (&s, &(l, v)) in &self.extents {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// Bytes per value in `reference[start..end]`, skipping uncovered
    /// bytes.
    fn tally(reference: &[Option<u8>], start: u64, end: u64) -> BTreeMap<u8, u64> {
        let mut out = BTreeMap::new();
        for v in reference[start as usize..end as usize].iter().flatten() {
            *out.entry(*v).or_insert(0) += 1;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random assign/remove/pop_front against a byte map: the extents
        /// always equal the reference's maximal equal-valued runs, and
        /// the callbacks report exactly the bytes each value lost.
        #[test]
        fn prop_matches_byte_map(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..SPAN, 1u64..80, 0u8..3, 0u64..SPAN, 0u64..80),
                1..120,
            )
        ) {
            let mut m: ExtentMap<u8> = ExtentMap::new();
            let mut reference: Vec<Option<u8>> = vec![None; SPAN as usize];
            for (op, start, len, v, q_start, q_len) in ops {
                let end = (start + len).min(SPAN);
                let len = end - start;
                let mut got: BTreeMap<u8, u64> = BTreeMap::new();
                let mut note = |old: u8, bytes: u64| *got.entry(old).or_insert(0) += bytes;
                match op {
                    0 | 1 => {
                        let want = tally(&reference, start, end);
                        m.assign(start, len, v, &mut note);
                        reference[start as usize..end as usize].fill(Some(v));
                        prop_assert_eq!(got, want);
                    }
                    2 => {
                        let want = tally(&reference, start, end);
                        m.remove(start, len, &mut note);
                        reference[start as usize..end as usize].fill(None);
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let want = runs(&reference).first().map(|&(s, l, rv)| (s, l.min(len), rv));
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
        }
    }

    #[test]
    #[should_panic(expected = "zero-length extent")]
    fn zero_length_assign_panics() {
        ExtentMap::new().assign(5, 0, (), |_, _| {});
    }
}
