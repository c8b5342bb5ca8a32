//! LRU block cache used by RoLo-E's popular-read caching (§III-B3).
//!
//! RoLo-E keeps popular read blocks in the on-duty logging space "to
//! avoid the passive and expensive disk spin up/down caused by read
//! misses". The cache is block-granular (one stripe unit per block) and
//! strictly LRU; capacity is a fixed share of the logging space.
//!
//! Resident blocks are nodes of a slab threaded on an intrusive doubly
//! linked recency list (head = least recent, tail = most recent), so a
//! hit, a refresh and an eviction each relink one node in O(1) without
//! allocating. Nothing removes a single block, so the slab needs no free
//! list: an eviction reuses the victim's node and [`BlockCache::clear`]
//! empties the slab but keeps its allocation.

use std::collections::HashMap;

/// The link of a list end: no node.
const NIL: u32 = u32::MAX;

/// One resident block and its recency neighbours (slab indices).
#[derive(Debug, Clone, Copy)]
struct Node {
    block: u64,
    /// Next less recent node, or [`NIL`] at the head.
    prev: u32,
    /// Next more recent node, or [`NIL`] at the tail.
    next: u32,
}

/// Fixed-capacity LRU set of block numbers.
///
/// # Example
///
/// ```
/// use rolo_core::cache::BlockCache;
///
/// let mut c = BlockCache::new(2);
/// c.insert(1);
/// c.insert(2);
/// assert!(c.contains(1));
/// c.touch(1);       // 1 is now most recent
/// c.insert(3);      // evicts 2
/// assert!(c.contains(1) && c.contains(3) && !c.contains(2));
/// ```
#[derive(Debug, Clone)]
pub struct BlockCache {
    capacity: usize,
    /// Block → slab index. Block numbers come from trace offsets, so the
    /// map keeps std's keyed hasher.
    by_block: HashMap<u64, u32>,
    /// One node per resident block.
    nodes: Vec<Node>,
    /// Least recently used node, or [`NIL`] when empty.
    head: u32,
    /// Most recently used node, or [`NIL`] when empty.
    tail: u32,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new(0)
    }
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` blocks (zero disables
    /// caching).
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            by_block: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently resident.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True if `block` is resident (does not affect recency).
    pub fn contains(&self, block: u64) -> bool {
        self.by_block.contains_key(&block)
    }

    /// Marks `block` most-recently-used if resident.
    pub fn touch(&mut self, block: u64) {
        if let Some(&i) = self.by_block.get(&block) {
            if i != self.tail {
                self.unlink(i);
                self.push_tail(i);
            }
        }
    }

    /// Inserts `block` (as most-recent), evicting the LRU block if full.
    /// Returns the evicted block, if any.
    pub fn insert(&mut self, block: u64) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        if self.contains(block) {
            self.touch(block);
            return None;
        }
        if self.nodes.len() < self.capacity {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("cache capacity exceeds the u32 node index space");
            self.nodes.push(Node {
                block,
                prev: NIL,
                next: NIL,
            });
            self.by_block.insert(block, i);
            self.push_tail(i);
            return None;
        }
        // Full: the head node becomes `block`'s node.
        let i = self.head;
        self.unlink(i);
        let victim = std::mem::replace(&mut self.nodes[i as usize].block, block);
        self.by_block.remove(&victim);
        self.by_block.insert(block, i);
        self.push_tail(i);
        Some(victim)
    }

    /// Drops everything (logging space was reclaimed/rotated).
    pub fn clear(&mut self) {
        self.by_block.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Detaches node `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Links detached node `i` in as the most recently used.
    fn push_tail(&mut self, i: u32) {
        let old = self.tail;
        let node = &mut self.nodes[i as usize];
        node.prev = old;
        node.next = NIL;
        match old {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn zero_capacity_never_caches() {
        let mut c = BlockCache::new(0);
        assert!(c.insert(1).is_none());
        assert!(!c.contains(1));
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BlockCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        assert_eq!(c.insert(4), Some(1));
        c.touch(2);
        assert_eq!(c.insert(5), Some(3));
        assert!(c.contains(2) && c.contains(4) && c.contains(5));
    }

    #[test]
    fn reinsert_refreshes() {
        let mut c = BlockCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.insert(1).is_none()); // refresh, no eviction
        assert_eq!(c.insert(3), Some(2)); // 2 was LRU after refresh
    }

    #[test]
    fn clear_empties() {
        let mut c = BlockCache::new(4);
        c.insert(1);
        c.insert(2);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(1));
    }

    /// The obvious LRU: blocks in recency order, least recent first.
    struct ReferenceLru {
        capacity: usize,
        order: VecDeque<u64>,
    }

    impl ReferenceLru {
        fn refresh(&mut self, block: u64) -> bool {
            let Some(at) = self.order.iter().position(|&b| b == block) else {
                return false;
            };
            self.order.remove(at);
            self.order.push_back(block);
            true
        }

        fn insert(&mut self, block: u64) -> Option<u64> {
            if self.capacity == 0 || self.refresh(block) {
                return None;
            }
            let victim = if self.order.len() == self.capacity {
                self.order.pop_front()
            } else {
                None
            };
            self.order.push_back(block);
            victim
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_matches_reference_lru(
            cap in 0usize..17,
            ops in proptest::collection::vec((0u8..32, 0u64..1 << 20), 1..400),
        ) {
            // Keys from a domain about three times the capacity, so
            // sequences mix hits, refreshes and evictions.
            let domain = 3 * cap as u64 + 2;
            let mut c = BlockCache::new(cap);
            let mut r = ReferenceLru { capacity: cap, order: VecDeque::new() };
            for (op, key) in ops {
                let block = key % domain;
                match op {
                    0 => {
                        c.clear();
                        r.order.clear();
                    }
                    1..=10 => {
                        c.touch(block);
                        r.refresh(block);
                    }
                    _ => prop_assert_eq!(c.insert(block), r.insert(block), "insert {}", block),
                }
                prop_assert_eq!(c.len(), r.order.len());
                for b in 0..domain {
                    prop_assert_eq!(c.contains(b), r.order.contains(&b), "block {}", b);
                }
            }
        }

        #[test]
        fn prop_never_exceeds_capacity(ops in proptest::collection::vec(0u64..100, 1..300), cap in 1usize..16) {
            let mut c = BlockCache::new(cap);
            for b in ops {
                c.insert(b);
                prop_assert!(c.len() <= cap);
            }
        }

        #[test]
        fn prop_insert_makes_resident(blocks in proptest::collection::vec(0u64..50, 1..100)) {
            let mut c = BlockCache::new(8);
            for b in blocks {
                c.insert(b);
                prop_assert!(c.contains(b));
            }
        }
    }
}
