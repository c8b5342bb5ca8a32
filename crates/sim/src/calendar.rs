//! Two-tier calendar (bucketed) event queue.
//!
//! Discrete-event storage simulations schedule almost every event a few
//! microseconds-to-milliseconds into the future (disk service completions,
//! controller wakes), with a thin tail of far-future events (power samples,
//! scrub ticks, failure arrivals). A binary heap pays `O(log n)` per
//! operation on all of them; a calendar queue pays amortized `O(1)` on the
//! near-future bulk by hashing events into time buckets and only sorting a
//! bucket when the clock enters it.
//!
//! [`CalendarQueue`] is a drop-in replacement for
//! [`EventQueue`](crate::EventQueue) — same `(time, seq)` delivery
//! contract, same clamp-past-to-now semantics, same lifetime counters —
//! implemented as:
//!
//! - a **ring of `N` buckets**, each `W` microseconds wide, covering the
//!   absolute-time window `[cur_win·W, (cur_win+N)·W)`. An event due in
//!   window `w = time/W` lives in slot `w mod N`. Because a bucket is fully
//!   drained and left empty before the ring advances past it, each slot
//!   holds events of exactly one window at a time.
//! - an **overflow heap** for events at or beyond the ring horizon. As the
//!   ring advances, newly covered events migrate from the heap into their
//!   buckets (in heap order, i.e. already `(time, seq)`-sorted).
//!
//! A bucket is sorted by `(time, seq)` lazily, on first pop after the clock
//! enters it. Scheduling *into the current bucket mid-drain* (the common
//! "completion schedules the next completion" pattern) marks it dirty and
//! the unpopped remainder is re-sorted on the next pop. This is exact, not
//! approximate: a newly scheduled event has `time ≥ now` (the due time of
//! every already-popped event) and a strictly larger `seq` than everything
//! in the queue, so re-sorting the remainder can never reorder it ahead of
//! an event that should already have fired.
//!
//! Invariants (checked by debug assertions and `tests/queue_diff.rs`):
//!
//! 1. At every public-API boundary, `now` lies inside the current window
//!    (or the queue has never popped and both sit at zero), so a schedule
//!    clamped to `now` always maps into the ring, never behind it.
//! 2. Ring events satisfy `cur_win ≤ time/W < cur_win + N`; overflow
//!    events satisfy `time/W ≥ cur_win + N` at the moment they are pushed
//!    (and migrate as soon as the horizon reaches them).
//! 3. `len == ring_len + overflow.len()` and
//!    `scheduled_total == popped_total + len`.

use crate::queue::{FutureEventList, ScheduledEvent};
use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// Default bucket width: 2^13 µs ≈ 8 ms — a few disk service times per
/// bucket under load. Wider buckets mean a physically smaller ring (the
/// dominant cost on sparse streams is cold cache lines, not intra-bucket
/// sorting, and the sort is lazy and per-entered-bucket anyway).
const DEFAULT_WIDTH_SHIFT: u32 = 13;
/// Default bucket count: 2^9 buckets × 8 ms ≈ 4.2 s of ring horizon,
/// wide enough that only coarse housekeeping (power samples, scrub ticks,
/// failure arrivals) spills into the overflow heap, while the whole ring
/// (512 `VecDeque` headers + an 8-word occupancy bitmap) stays cache-
/// resident.
const DEFAULT_BUCKET_SHIFT: u32 = 9;

/// A two-tier calendar queue: near-future bucketed ring plus far-future
/// overflow heap. Drop-in replacement for [`EventQueue`] with identical
/// observable behavior (see [`FutureEventList`]).
///
/// # Example
///
/// ```
/// use rolo_sim::{CalendarQueue, FutureEventList, SimTime};
///
/// let mut q = CalendarQueue::new();
/// q.schedule(SimTime::from_micros(10), 'b');
/// q.schedule(SimTime::from_micros(10), 'c');
/// q.schedule(SimTime::from_secs(60), 'd'); // far future: overflow tier
/// q.schedule(SimTime::from_micros(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c', 'd']);
/// ```
///
/// [`EventQueue`]: crate::EventQueue
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// Ring of buckets; slot for window `w` is `w & mask`.
    buckets: Vec<VecDeque<ScheduledEvent<T>>>,
    /// log2 of the bucket width in microseconds.
    width_shift: u32,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: u64,
    /// Window index (`time >> width_shift`) of the current bucket.
    cur_win: u64,
    /// The current bucket's unpopped remainder needs a `(time, seq)` sort
    /// before the next pop.
    dirty: bool,
    /// Events pending in the ring (excludes `overflow`).
    ring_len: usize,
    /// Occupancy bitmap, one bit per ring slot (bit set ⟺ bucket
    /// non-empty). Sparse streams — long idle stretches between disk
    /// I/Os — would otherwise pay one probe per empty 1 ms window; the
    /// bitmap lets [`CalendarQueue::pop`] jump to the next occupied
    /// bucket in a handful of word scans.
    occ: Vec<u64>,
    /// Far-future tier: events at or beyond the ring horizon.
    overflow: BinaryHeap<ScheduledEvent<T>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue with the default geometry (8 ms × 512
    /// buckets ≈ 4.2 s horizon) and the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_WIDTH_SHIFT, DEFAULT_BUCKET_SHIFT)
    }

    /// Creates an empty queue with `2^bucket_shift` buckets of
    /// `2^width_shift` microseconds each. Exposed so the differential
    /// tests can force tiny rings that exercise overflow migration and
    /// window wrap-around; simulation code uses [`CalendarQueue::new`].
    pub fn with_geometry(width_shift: u32, bucket_shift: u32) -> Self {
        assert!(width_shift < 32, "bucket width out of range");
        assert!(
            (1..=24).contains(&bucket_shift),
            "bucket count out of range"
        );
        let n = 1usize << bucket_shift;
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, VecDeque::new);
        CalendarQueue {
            buckets,
            width_shift,
            mask: (n as u64) - 1,
            cur_win: 0,
            dirty: false,
            ring_len: 0,
            occ: vec![0; n.div_ceil(64)],
            overflow: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Marks slot `s` occupied.
    #[inline]
    fn occ_set(&mut self, s: usize) {
        self.occ[s / 64] |= 1u64 << (s % 64);
    }

    /// Marks slot `s` empty.
    #[inline]
    fn occ_clear(&mut self, s: usize) {
        self.occ[s / 64] &= !(1u64 << (s % 64));
    }

    /// Ring distance from the current (empty, bit-clear) bucket to the
    /// next occupied one. Caller guarantees `ring_len > 0`.
    fn next_occupied_step(&self) -> u64 {
        let n = self.mask + 1;
        let start = (self.slot(self.cur_win) as u64 + 1) & self.mask;
        let words = self.occ.len() as u64;
        let (sw, sb) = (start / 64, start % 64);
        for k in 0..=words {
            let wi = (sw + k) % words;
            let mut w = self.occ[wi as usize];
            if k == 0 {
                w &= !0u64 << sb; // only bits at or after `start`
            }
            if w != 0 {
                let bit = wi * 64 + u64::from(w.trailing_zeros());
                // `bit` is an absolute slot; convert to a step count
                // from the current slot (distance from `start` plus the
                // one window `start` already sits ahead).
                return ((bit + n - start) & self.mask) + 1;
            }
        }
        unreachable!("ring_len > 0 but occupancy bitmap is empty")
    }

    /// Window index of `time`.
    #[inline]
    fn win(&self, time: SimTime) -> u64 {
        time.as_micros() >> self.width_shift
    }

    /// Ring slot for window `w`.
    #[inline]
    fn slot(&self, w: u64) -> usize {
        (w & self.mask) as usize
    }

    /// First window index *not* covered by the ring.
    #[inline]
    fn horizon(&self) -> u64 {
        // Saturating: with `now` near `SimTime::MAX` the horizon pins to
        // the end of time and everything stays in the ring.
        self.cur_win.saturating_add(self.mask + 1)
    }

    /// Moves every overflow event now covered by the ring into its bucket.
    /// The heap yields them in `(time, seq)` order, so each target bucket
    /// receives an already-sorted run.
    fn migrate_overflow(&mut self) {
        let horizon = self.horizon();
        while let Some(top) = self.overflow.peek() {
            if self.win(top.time) >= horizon {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            let s = self.slot(self.win(ev.time));
            self.buckets[s].push_back(ev);
            self.ring_len += 1;
            self.occ_set(s);
        }
    }

    /// Current simulated time: the due time of the most recently popped
    /// event (never moves backwards).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at `time` (see
    /// [`FutureEventList::schedule`] for the past-clamp contract).
    pub fn schedule(&mut self, time: SimTime, payload: T) -> u64 {
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = ScheduledEvent {
            time: time.max(self.now),
            seq,
            payload,
        };
        let w = self.win(ev.time);
        debug_assert!(w >= self.cur_win, "schedule behind the current window");
        if w < self.horizon() {
            let s = self.slot(w);
            self.buckets[s].push_back(ev);
            self.ring_len += 1;
            self.occ_set(s);
            if w == self.cur_win {
                // Mid-drain insert into the bucket being popped: the
                // unpopped remainder re-sorts on the next pop.
                self.dirty = true;
            }
        } else {
            self.overflow.push(ev);
        }
        seq
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// due time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        if self.ring_len == 0 && self.overflow.is_empty() {
            return None;
        }
        loop {
            let s = self.slot(self.cur_win);
            if !self.buckets[s].is_empty() {
                if self.dirty {
                    if self.buckets[s].len() > 1 {
                        self.buckets[s]
                            .make_contiguous()
                            .sort_unstable_by_key(|e| (e.time, e.seq));
                    }
                    self.dirty = false;
                }
                let ev = self.buckets[s].pop_front().expect("checked non-empty");
                self.ring_len -= 1;
                if self.buckets[s].is_empty() {
                    self.occ_clear(s);
                }
                debug_assert!(ev.time >= self.now);
                debug_assert_eq!(self.win(ev.time), self.cur_win);
                self.now = ev.time;
                self.popped += 1;
                return Some(ev);
            }
            // Current bucket exhausted: advance the ring. If the ring is
            // entirely empty, jump straight to the earliest overflow
            // window; otherwise jump to the next occupied bucket (via
            // the bitmap — never one empty window at a time).
            if self.ring_len == 0 {
                let t = self.overflow.peek().expect("queue non-empty").time;
                self.cur_win = self.win(t);
            } else {
                self.cur_win += self.next_occupied_step();
            }
            self.migrate_overflow();
            self.dirty = true; // entering a bucket: sort before first pop
        }
    }

    /// Due time of the earliest pending event, if any.
    ///
    /// `O(N + bucket)` scan — fine for tests and drain diagnostics, not
    /// for per-event use (the simulator main loop only pops).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.ring_len > 0 {
            for step in 0..=self.mask {
                let s = self.slot(self.cur_win + step);
                if let Some(t) = self.buckets[s].iter().map(|e| e.time).min() {
                    return Some(t);
                }
            }
            unreachable!("ring_len > 0 but no bucket holds an event");
        }
        self.overflow.peek().map(|e| e.time)
    }

    /// Total events scheduled over the queue's lifetime (profiling).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total events popped over the queue's lifetime (profiling).
    pub fn popped_total(&self) -> u64 {
        self.popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event (the clock is unchanged). The ring is
    /// re-anchored at the clock's window so later schedules land ahead of
    /// the current bucket.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occ.fill(0);
        self.overflow.clear();
        self.ring_len = 0;
        self.dirty = false;
        self.cur_win = self.win(self.now);
    }

    /// Number of events currently in the far-future overflow tier
    /// (diagnostics for bench reports and tests).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }
}

impl<T> FutureEventList<T> for CalendarQueue<T> {
    #[inline]
    fn now(&self) -> SimTime {
        CalendarQueue::now(self)
    }
    #[inline]
    fn schedule(&mut self, time: SimTime, payload: T) -> u64 {
        CalendarQueue::schedule(self, time, payload)
    }
    #[inline]
    fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        CalendarQueue::pop(self)
    }
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        CalendarQueue::peek_time(self)
    }
    #[inline]
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
    #[inline]
    fn clear(&mut self) {
        CalendarQueue::clear(self)
    }
    #[inline]
    fn scheduled_total(&self) -> u64 {
        CalendarQueue::scheduled_total(self)
    }
    #[inline]
    fn popped_total(&self) -> u64 {
        CalendarQueue::popped_total(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo_within_one_bucket() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    fn far_future_spills_to_overflow_and_comes_back() {
        let mut q = CalendarQueue::new();
        // Default horizon is ~4.2 s; one hour is deep overflow.
        q.schedule(SimTime::from_secs(3600), "late");
        assert_eq!(q.overflow_len(), 1);
        q.schedule(SimTime::from_micros(3), "early");
        assert_eq!(q.pop().unwrap().payload, "early");
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "late");
        assert_eq!(e.time, SimTime::from_secs(3600));
        assert_eq!(q.overflow_len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_during_drain_resorts_current_bucket() {
        let mut q = CalendarQueue::new();
        // Three events in one bucket; after popping the first, schedule
        // two more inside the same bucket, one earlier than the pending
        // remainder.
        q.schedule(SimTime::from_micros(100), "a");
        q.schedule(SimTime::from_micros(300), "d");
        q.schedule(SimTime::from_micros(500), "f");
        assert_eq!(q.pop().unwrap().payload, "a");
        q.schedule(SimTime::from_micros(400), "e");
        q.schedule(SimTime::from_micros(200), "b");
        q.schedule(SimTime::from_micros(300), "d2"); // ties after "d" (larger seq)
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["b", "d", "d2", "e", "f"]);
    }

    #[test]
    fn ring_wraps_across_many_windows() {
        // Tiny ring: 4 buckets × 4 µs = 16 µs horizon; walk far past it.
        let mut q = CalendarQueue::with_geometry(2, 2);
        for i in 0..64u64 {
            q.schedule(SimTime::from_micros(i * 3), i);
        }
        for i in 0..64u64 {
            let e = q.pop().unwrap();
            assert_eq!(e.payload, i);
            assert_eq!(e.time, SimTime::from_micros(i * 3));
        }
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_total(), 64);
        assert_eq!(q.popped_total(), 64);
    }

    #[test]
    fn empty_ring_jumps_to_overflow_without_stepping() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(86_400), ()); // one simulated day out
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_secs(86_400));
        // Clock and ring are re-anchored at the popped window.
        assert_eq!(q.now(), SimTime::from_secs(86_400));
        q.schedule(q.now() + Duration::from_micros(1), ());
        assert!(q.pop().is_some());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_micros(5), ());
        q.schedule(SimTime::from_micros(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(9));
    }

    #[test]
    fn len_clear_and_counters() {
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_micros(1), ());
        q.schedule(SimTime::from_secs(100), ()); // overflow
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.overflow_len(), 0);
        // Counters survive clear, matching EventQueue.
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 0);
        // Scheduling after clear still delivers.
        q.schedule(SimTime::from_micros(2), ());
        assert!(q.pop().is_some());
    }

    #[test]
    fn peek_time_sees_ring_and_overflow() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(50), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(50)));
        q.schedule(SimTime::from_micros(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(50)));
    }
}
