//! Generational slab for in-flight request state.
//!
//! [`IoSlab`] is a plain `Vec` indexed by a generational [`IoSlot`]:
//! allocation pops a free-list entry (or grows the vec), lookup is one
//! bounds-checked index plus a generation compare, and freeing pushes the
//! index back with its generation bumped so stale handles can never alias
//! a recycled slot.
//!
//! Two kinds of state live in slabs: the simulation context's in-flight
//! user requests, and each controller's per-I/O tags. A controller inserts
//! its tag, submits the disk request with the slot in the request's `tag`
//! field, and removes the tag when the finished request hands the slot
//! back: one insert and one remove per I/O, no map keyed by I/O id. A
//! read redirected to a mirror or a retried request keeps its slot, and
//! the generation check turns a second completion of one request into a
//! failed lookup rather than a read of another request's state.
//!
//! Slots are handles, not ids: the externally-visible `u64` user-request
//! and I/O ids (which appear in traces, spans and checksummed baselines)
//! are unaffected by slot reuse.
//!
//! A [`SlotTable`] keeps values beside a slab, by slot index: the
//! controllers' per-request meta lives in one, indexed by the context's
//! user slot, so a recycled slot reuses its buffers.

/// Generational handle into an [`IoSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoSlot {
    index: u32,
    gen: u32,
}

impl IoSlot {
    /// A handle that no live slab entry can ever match; useful as a
    /// pre-registration placeholder.
    pub const DANGLING: IoSlot = IoSlot {
        index: u32::MAX,
        gen: u32::MAX,
    };
}

#[derive(Debug)]
struct Entry<T> {
    gen: u32,
    /// `Some` while the slot is live, `None` while on the free list.
    value: Option<T>,
}

/// A vec-backed slab with generational slot reuse.
#[derive(Debug)]
pub struct IoSlab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for IoSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IoSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        IoSlab {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Creates an empty slab with room for `cap` live entries.
    pub fn with_capacity(cap: usize) -> Self {
        IoSlab {
            entries: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Inserts `value`, returning its slot.
    pub fn insert(&mut self, value: T) -> IoSlot {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let e = &mut self.entries[index as usize];
            debug_assert!(e.value.is_none());
            e.value = Some(value);
            IoSlot { index, gen: e.gen }
        } else {
            let index = u32::try_from(self.entries.len()).expect("slab index overflow");
            self.entries.push(Entry {
                gen: 0,
                value: Some(value),
            });
            IoSlot { index, gen: 0 }
        }
    }

    /// Shared access to a live entry; `None` if the slot is stale or free.
    #[inline]
    pub fn get(&self, slot: IoSlot) -> Option<&T> {
        self.entries
            .get(slot.index as usize)
            .filter(|e| e.gen == slot.gen)
            .and_then(|e| e.value.as_ref())
    }

    /// Mutable access to a live entry; `None` if the slot is stale or free.
    #[inline]
    pub fn get_mut(&mut self, slot: IoSlot) -> Option<&mut T> {
        self.entries
            .get_mut(slot.index as usize)
            .filter(|e| e.gen == slot.gen)
            .and_then(|e| e.value.as_mut())
    }

    /// Removes and returns a live entry, bumping the slot generation so
    /// the handle (and any copies of it) go stale. `None` if already
    /// stale or free.
    pub fn remove(&mut self, slot: IoSlot) -> Option<T> {
        let e = self
            .entries
            .get_mut(slot.index as usize)
            .filter(|e| e.gen == slot.gen)?;
        let value = e.value.take()?;
        e.gen = e.gen.wrapping_add(1);
        self.free.push(slot.index);
        self.live -= 1;
        Some(value)
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no entries are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// Dense per-slot values beside another [`IoSlab`], indexed by the slot
/// index alone.
///
/// The table ignores generations: it cannot tell a slot from a stale
/// copy that shares its index. A holder may therefore use a slot only
/// while the owning slab keeps it live — for a controller's per-request
/// meta, between the context's `register_user` and the `user_sub_done`
/// that retires the request, each time inside one callback. Values
/// outlive their slot: a recycled index returns what its last owner put
/// back, so buffers cleared before `put` keep their capacity.
#[derive(Debug)]
pub struct SlotTable<T> {
    values: Vec<T>,
}

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        SlotTable { values: Vec::new() }
    }
}

impl<T: Default> SlotTable<T> {
    /// Moves the value at `slot`'s index out, leaving the default; the
    /// default for an index never put.
    #[inline]
    pub fn take(&mut self, slot: IoSlot) -> T {
        self.values
            .get_mut(slot.index as usize)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Stores `value` at `slot`'s index.
    #[inline]
    pub fn put(&mut self, slot: IoSlot, value: T) {
        let i = slot.index as usize;
        if i >= self.values.len() {
            self.values.resize_with(i + 1, T::default);
        }
        self.values[i] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = IoSlab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
    }

    #[test]
    fn stale_handles_never_alias_reused_slots() {
        let mut s = IoSlab::new();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2u32);
        // Same index, new generation: the old handle stays dead.
        assert_eq!(a.index, b.index);
        assert_ne!(a, b);
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn dangling_never_resolves() {
        let mut s: IoSlab<u8> = IoSlab::new();
        s.insert(9);
        assert_eq!(s.get(IoSlot::DANGLING), None);
        assert_eq!(s.remove(IoSlot::DANGLING), None);
    }

    #[test]
    fn free_list_recycles_lifo() {
        let mut s = IoSlab::new();
        let slots: Vec<_> = (0..8).map(|i| s.insert(i)).collect();
        for &sl in &slots {
            s.remove(sl);
        }
        assert!(s.is_empty());
        // LIFO reuse: last freed comes back first.
        let r = s.insert(100);
        assert_eq!(r.index, slots[7].index);
    }

    #[test]
    fn table_yields_the_default_for_an_index_never_put() {
        let mut s = IoSlab::new();
        let a = s.insert(());
        let b = s.insert(());
        let mut t: SlotTable<Vec<u32>> = SlotTable::default();
        assert!(t.take(a).is_empty());
        t.put(a, vec![1]);
        assert!(t.take(b).is_empty(), "b's index lies past every put");
    }

    #[test]
    fn table_put_then_take_round_trips() {
        let mut s = IoSlab::new();
        let a = s.insert(());
        let b = s.insert(());
        let mut t = SlotTable::default();
        t.put(b, vec![2, 3]);
        t.put(a, vec![1]);
        assert_eq!(t.take(b), [2, 3]);
        assert_eq!(t.take(a), [1]);
        assert!(t.take(a).is_empty(), "take leaves the default behind");
    }

    #[test]
    fn table_hands_a_recycled_index_its_last_owners_value() {
        let mut s = IoSlab::new();
        let mut t: SlotTable<Vec<u64>> = SlotTable::default();
        let old = s.insert(());
        let mut v = t.take(old);
        v.extend(0..100);
        v.clear();
        let cap = v.capacity();
        t.put(old, v);
        s.remove(old);
        let new = s.insert(());
        assert_ne!(new, old);
        assert_eq!(new.index, old.index);
        let v = t.take(new);
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap, "the cleared buffer is reused");
    }
}
