//! Deterministic event queue.
//!
//! A thin wrapper over a binary heap keyed by `(time, sequence)`. The
//! sequence number breaks ties so that two events scheduled for the same
//! instant are delivered in the order they were scheduled — this is what
//! makes whole-simulation runs reproducible regardless of heap internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event held in the queue: a payload tagged with its due time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic insertion index; ties on `time` fire in insertion order.
    pub seq: u64,
    /// The caller-defined event payload.
    pub payload: T,
}

impl<T> PartialEq for ScheduledEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for ScheduledEvent<T> {}

impl<T> PartialOrd for ScheduledEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for ScheduledEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list delivering events in non-decreasing time order, with
/// FIFO tie-breaking among events scheduled for the same instant.
///
/// This is the legacy binary-heap implementation, kept as the reference
/// against which [`CalendarQueue`](crate::CalendarQueue) is differentially
/// tested.
///
/// # Example
///
/// ```
/// use rolo_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(10), 'b');
/// q.schedule(SimTime::from_micros(10), 'c');
/// q.schedule(SimTime::from_micros(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<ScheduledEvent<T>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Current simulated time: the due time of the most recently popped
    /// event (never moves backwards).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Scheduling in the past is a logic error in the caller; in debug
    /// builds it panics, in release builds the event fires "now".
    pub fn schedule(&mut self, time: SimTime, payload: T) -> u64 {
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {time:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            time: time.max(self.now),
            seq,
            payload,
        });
        seq
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// due time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        self.popped += 1;
        Some(ev)
    }

    /// Total events scheduled over the queue's lifetime (profiling).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total events popped over the queue's lifetime (profiling).
    pub fn popped_total(&self) -> u64 {
        self.popped
    }

    /// Due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event (the clock is unchanged).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), ());
        q.schedule(SimTime::from_micros(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(9));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "a");
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "a");
        // Scheduling relative to the advanced clock still works.
        q.schedule(q.now() + crate::Duration::from_micros(1), "b");
        assert_eq!(q.pop().unwrap().payload, "b");
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_micros(1), ());
        q.schedule(SimTime::from_micros(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    proptest! {
        #[test]
        fn prop_dequeue_order_is_nondecreasing(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(e) = q.pop() {
                prop_assert!(e.time >= last);
                last = e.time;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        #[test]
        fn prop_same_time_fifo(n in 1usize..64) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_micros(42), i);
            }
            for i in 0..n {
                prop_assert_eq!(q.pop().unwrap().payload, i);
            }
        }

        /// Arbitrary interleavings of schedules (at arbitrary offsets
        /// from the advancing clock) and pops: delivery stays
        /// time-monotonic, equal-time events pop in schedule order, and
        /// the lifetime counters account for every event exactly once.
        #[test]
        fn prop_interleaved_schedules_stay_ordered(
            ops in proptest::collection::vec((0u64..500, 0usize..4), 1..150)
        ) {
            let mut q = EventQueue::new();
            let mut scheduled: u64 = 0;
            let mut popped: u64 = 0;
            let mut last: Option<(SimTime, u64)> = None;
            let mut check = |e: &ScheduledEvent<u64>| -> Result<(), TestCaseError> {
                if let Some((lt, lp)) = last {
                    prop_assert!(e.time >= lt, "time went backwards");
                    if e.time == lt {
                        // Payloads are global schedule indices, so FIFO
                        // tie-breaking means strictly increasing payloads
                        // within one instant.
                        prop_assert!(e.payload > lp, "FIFO tie-break violated");
                    }
                }
                last = Some((e.time, e.payload));
                Ok(())
            };
            for (delta, pops) in ops {
                q.schedule(q.now() + crate::Duration::from_micros(delta), scheduled);
                scheduled += 1;
                for _ in 0..pops {
                    if let Some(e) = q.pop() {
                        check(&e)?;
                        popped += 1;
                    }
                }
            }
            while let Some(e) = q.pop() {
                check(&e)?;
                popped += 1;
            }
            prop_assert_eq!(popped, scheduled, "every event popped exactly once");
            prop_assert_eq!(q.scheduled_total(), scheduled);
            prop_assert_eq!(q.popped_total(), popped);
        }
    }
}
