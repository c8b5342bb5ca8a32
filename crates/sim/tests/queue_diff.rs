//! Differential harness: [`CalendarQueue`] vs the legacy binary-heap
//! [`EventQueue`], driven in lockstep through randomized schedule/pop
//! interleavings.
//!
//! The calendar queue is the production future-event list; the heap is the
//! reference implementation whose `(time, seq)` delivery contract six PRs'
//! worth of byte-identical-determinism guarantees already lean on. Every
//! case here asserts the two implementations agree on the *entire*
//! observable surface: pop sequence (time, seq, payload), clock, length,
//! and lifetime counters — including the corners where a bucketed design
//! can diverge from a heap: same-instant ties, scheduling into the bucket
//! currently being drained, far-future overflow spill and migration, and
//! events landing exactly on bucket/horizon boundaries. After every step
//! the calendar queue's own invariants are checked as well
//! ([`CalendarQueue::check_invariants`]).

use proptest::prelude::*;
use rolo_sim::{CalendarQueue, Duration, EventQueue, ScheduledEvent, SimTime};

/// Pops one event from both queues and asserts full observable agreement.
fn pop_both(
    heap: &mut EventQueue<u64>,
    cal: &mut CalendarQueue<u64>,
) -> Result<Option<ScheduledEvent<u64>>, TestCaseError> {
    let a = heap.pop();
    let b = cal.pop();
    match (&a, &b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            prop_assert_eq!(x.time, y.time, "due times diverged");
            prop_assert_eq!(x.seq, y.seq, "sequence numbers diverged");
            prop_assert_eq!(x.payload, y.payload, "payloads diverged");
        }
        _ => prop_assert!(false, "one queue empty while the other pops"),
    }
    prop_assert_eq!(cal.check_invariants(), Ok(()));
    prop_assert_eq!(heap.now(), cal.now(), "clocks diverged");
    prop_assert_eq!(heap.len(), cal.len(), "lengths diverged");
    prop_assert_eq!(heap.popped_total(), cal.popped_total());
    Ok(a)
}

/// Schedules the same event on both queues; sequence numbers must match.
fn schedule_both(
    heap: &mut EventQueue<u64>,
    cal: &mut CalendarQueue<u64>,
    time: SimTime,
    payload: u64,
) -> Result<(), TestCaseError> {
    let sa = heap.schedule(time, payload);
    let sb = cal.schedule(time, payload);
    prop_assert_eq!(sa, sb, "schedule() returned different seqs");
    prop_assert_eq!(cal.check_invariants(), Ok(()));
    prop_assert_eq!(heap.scheduled_total(), cal.scheduled_total());
    prop_assert_eq!(heap.len(), cal.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Randomized interleavings of schedules (at arbitrary offsets from
    /// the advancing clock) and pops, on the production geometry. Offsets
    /// up to ~8 s straddle the default 4.2 s ring horizon, so both ring
    /// and overflow paths are exercised; offset 0 produces same-instant
    /// ties and schedule-during-drain inserts into the current bucket.
    #[test]
    fn prop_lockstep_default_geometry(
        ops in proptest::collection::vec((0u64..8_000_000, 0usize..4), 1..200)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (idx, (delta, pops)) in ops.into_iter().enumerate() {
            let t = heap.now() + Duration::from_micros(delta);
            schedule_both(&mut heap, &mut cal, t, idx as u64)?;
            for _ in 0..pops {
                pop_both(&mut heap, &mut cal)?;
            }
        }
        while pop_both(&mut heap, &mut cal)?.is_some() {}
        prop_assert_eq!(heap.scheduled_total(), cal.scheduled_total());
        prop_assert_eq!(heap.popped_total(), cal.popped_total());
        prop_assert_eq!(cal.popped_total(), cal.scheduled_total());
    }

    /// Same interleavings on a pathologically tiny ring (4 buckets × 4 µs
    /// = 16 µs horizon): almost everything spills to overflow and the
    /// ring wraps thousands of times, hammering migration and the
    /// empty-ring jump.
    #[test]
    fn prop_lockstep_tiny_ring(
        ops in proptest::collection::vec((0u64..500, 0usize..4), 1..200)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::with_geometry(2, 2);
        for (idx, (delta, pops)) in ops.into_iter().enumerate() {
            let t = heap.now() + Duration::from_micros(delta);
            schedule_both(&mut heap, &mut cal, t, idx as u64)?;
            for _ in 0..pops {
                pop_both(&mut heap, &mut cal)?;
            }
        }
        while pop_both(&mut heap, &mut cal)?.is_some() {}
        prop_assert_eq!(cal.popped_total(), cal.scheduled_total());
    }

    /// Bucket-boundary times: every scheduled time is a multiple (or
    /// off-by-one neighbor) of the bucket width and the ring horizon, the
    /// exact edges where a window-indexing bug would flip an event into
    /// the wrong bucket or tier.
    #[test]
    fn prop_lockstep_bucket_boundaries(
        cells in proptest::collection::vec((0u64..40, 0i64..3, 0usize..3), 1..150)
    ) {
        const WIDTH: u64 = 1 << 13; // default bucket width, µs
        const HORIZON: u64 = WIDTH << 9; // default ring horizon, µs
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (idx, (windows, jitter, pops)) in cells.into_iter().enumerate() {
            // windows × width ± {0,1}, occasionally bumped past the horizon.
            let base =
                heap.now().as_micros() + windows * WIDTH + if windows == 39 { HORIZON } else { 0 };
            let t = match jitter {
                0 => base,
                1 => base + 1,
                _ => base.saturating_sub(1).max(heap.now().as_micros()),
            };
            schedule_both(&mut heap, &mut cal, SimTime::from_micros(t), idx as u64)?;
            for _ in 0..pops {
                pop_both(&mut heap, &mut cal)?;
            }
        }
        while pop_both(&mut heap, &mut cal)?.is_some() {}
    }

    /// Bursts of same-instant events interleaved with pops: FIFO
    /// tie-breaking must match the heap exactly even when the burst lands
    /// in the bucket currently being drained.
    #[test]
    fn prop_lockstep_same_instant_bursts(
        bursts in proptest::collection::vec((0u64..2_000, 1usize..12, 0usize..6), 1..60)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut idx = 0u64;
        for (delta, burst, pops) in bursts {
            let t = heap.now() + Duration::from_micros(delta);
            for _ in 0..burst {
                schedule_both(&mut heap, &mut cal, t, idx)?;
                idx += 1;
            }
            for _ in 0..pops {
                pop_both(&mut heap, &mut cal)?;
            }
        }
        while pop_both(&mut heap, &mut cal)?.is_some() {}
    }

    /// A deep draining bucket: every schedule stays inside the current
    /// 8 ms window (offsets from its start, clamped up to `now`), in
    /// bursts of same-instant ties, with fewer pops than schedules on
    /// average. The sorted remainder grows to hundreds of events, and
    /// inserts land at its front, middle and end, and at `now` itself.
    #[test]
    fn prop_lockstep_deep_draining_bucket(
        ops in proptest::collection::vec((0u64..8_192, 1usize..6, 0usize..4), 1..200)
    ) {
        const WIDTH: u64 = 1 << 13; // default bucket width, µs
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut idx = 0u64;
        for (offset, burst, pops) in ops {
            let now = heap.now().as_micros();
            let t = SimTime::from_micros((now / WIDTH * WIDTH + offset).max(now));
            for _ in 0..burst {
                schedule_both(&mut heap, &mut cal, t, idx)?;
                idx += 1;
            }
            for _ in 0..pops {
                pop_both(&mut heap, &mut cal)?;
            }
        }
        while pop_both(&mut heap, &mut cal)?.is_some() {}
    }
}

/// Deterministic worst case: drain a bucket while a chain of completions
/// keeps rescheduling into it (the disk-service pattern), with a
/// far-future housekeeping tick pending the whole time.
#[test]
fn chained_reschedule_with_pending_overflow() {
    let mut heap = EventQueue::new();
    let mut cal = CalendarQueue::new();
    heap.schedule(SimTime::from_secs(3600), u64::MAX);
    cal.schedule(SimTime::from_secs(3600), u64::MAX);
    heap.schedule(SimTime::from_micros(10), 0);
    cal.schedule(SimTime::from_micros(10), 0);
    for i in 0..10_000u64 {
        let (a, b) = (heap.pop().unwrap(), cal.pop().unwrap());
        assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
        assert_eq!(a.payload, i);
        // Each completion schedules the next, 7 µs out (crosses bucket
        // boundaries every ~146 events).
        let t = heap.now() + Duration::from_micros(7);
        heap.schedule(t, i + 1);
        cal.schedule(t, i + 1);
        cal.check_invariants().unwrap();
    }
    // Drain: the chain tail, then the overflow tick.
    let mut rest = 0;
    loop {
        match (heap.pop(), cal.pop()) {
            (Some(a), Some(b)) => {
                assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
                rest += 1;
            }
            (None, None) => break,
            _ => panic!("queues diverged on emptiness"),
        }
    }
    assert_eq!(rest, 2);
    assert_eq!(heap.popped_total(), cal.popped_total());
    assert_eq!(heap.scheduled_total(), cal.scheduled_total());
}
