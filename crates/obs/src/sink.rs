//! Trace sinks: where emitted [`SimEvent`]s go.
//!
//! The simulation context owns one `Box<dyn TraceSink>`. Emit points
//! check [`TraceSink::enabled`] once (cached as a bool on the context),
//! so with the default [`NullSink`] the hot path pays a single predicted
//! branch and never constructs the event value. While span recording is
//! on, the sink is also offered every finished request span
//! ([`TraceSink::span`]); [`SlowestSpans`] keeps the slowest of them.

use crate::event::{SimEvent, TracedEvent, NUM_EVENT_KINDS};
use crate::exemplar::ranks_before;
use crate::span::RequestSpan;
use rolo_sim::SimTime;
use std::collections::BTreeMap;

/// Destination for structured trace events.
///
/// Implementations run on the (single-threaded) simulation thread, so
/// `record` takes `&mut self` and needs no synchronization; the bounded
/// [`RingSink`] keeps recording O(1) and allocation-free once warm.
pub trait TraceSink: std::fmt::Debug {
    /// Whether emit points should record into this sink at all.
    ///
    /// Cached by the simulation context at construction: a sink must not
    /// change its answer over its lifetime.
    fn enabled(&self) -> bool;

    /// Records one event at simulated time `at`.
    fn record(&mut self, at: SimTime, event: SimEvent);

    /// Total events offered to the sink (recorded + dropped).
    fn recorded(&self) -> u64 {
        0
    }

    /// Events overwritten/discarded due to capacity limits.
    fn dropped(&self) -> u64 {
        0
    }

    /// Removes and returns the retained events in emission order.
    fn drain(&mut self) -> Vec<TracedEvent> {
        Vec::new()
    }

    /// Offered each finished request span, in completion order, while
    /// span recording is on, whatever [`TraceSink::enabled`] answers.
    /// The span is lent for the call only: the run keeps no span, so a
    /// sink that needs one later copies it.
    fn span(&mut self, _span: &RequestSpan) {}

    /// Removes and returns the request spans the sink kept.
    fn take_spans(&mut self) -> Vec<RequestSpan> {
        Vec::new()
    }

    /// Short sink name for profiling output (e.g. `"null"`, `"ring"`).
    fn name(&self) -> &'static str;
}

/// The default no-op sink: tracing off.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _at: SimTime, _event: SimEvent) {}

    fn name(&self) -> &'static str {
        "null"
    }
}

/// Bounded ring buffer keeping the most recent events.
///
/// When full, the oldest event is overwritten and counted as dropped, so
/// a long run with a small ring retains its tail — the part that matters
/// for post-mortem debugging. The buffer grows by doubling up to
/// `capacity` as events arrive, then overwrites in place; an overwrite
/// costs one array increment for the per-kind drop count.
#[derive(Debug)]
pub struct RingSink {
    buf: Vec<TracedEvent>,
    capacity: usize,
    /// Index of the oldest retained event once the buffer has wrapped.
    head: usize,
    recorded: u64,
    dropped: u64,
    /// Overwritten events per [`SimEvent::kind_index`], so per-kind
    /// counts over a drained ring can be corrected for wrap-around.
    dropped_by_kind: [u64; NUM_EVENT_KINDS],
}

impl RingSink {
    /// Creates a ring sink retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingSink capacity must be non-zero");
        RingSink {
            buf: Vec::new(),
            capacity,
            head: 0,
            recorded: 0,
            dropped: 0,
            dropped_by_kind: [0; NUM_EVENT_KINDS],
        }
    }

    /// Overwritten-event counts per [`SimEvent::kind_name`], for the
    /// kinds that lost at least one event. A kind's true emission count
    /// is its count in the drained buffer plus its entry here.
    pub fn dropped_by_kind(&self) -> BTreeMap<&'static str, u64> {
        SimEvent::KIND_NAMES
            .into_iter()
            .zip(self.dropped_by_kind)
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events have been retained yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at: SimTime, event: SimEvent) {
        self.recorded += 1;
        let ev = TracedEvent { at, event };
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            let slot = &mut self.buf[self.head];
            self.dropped_by_kind[slot.event.kind_index()] += 1;
            *slot = ev;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    fn recorded(&self) -> u64 {
        self.recorded
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn drain(&mut self) -> Vec<TracedEvent> {
        let head = self.head;
        self.head = 0;
        self.recorded = 0;
        self.dropped = 0;
        self.dropped_by_kind = [0; NUM_EVENT_KINDS];
        let mut out = std::mem::take(&mut self.buf);
        out.rotate_left(head);
        out
    }

    fn name(&self) -> &'static str {
        "ring"
    }
}

/// Keeps the `k` slowest request spans it is offered, as copies, in
/// [`ranks_before`] order (slowest first, ties by ascending request id):
/// the run-wide top-k that `inspect spans --top` prints. Records no
/// events.
#[derive(Debug)]
pub struct SlowestSpans {
    k: usize,
    top: Vec<RequestSpan>,
}

impl SlowestSpans {
    /// Creates a sink keeping the `k` slowest spans.
    pub fn new(k: usize) -> Self {
        SlowestSpans { k, top: Vec::new() }
    }
}

impl TraceSink for SlowestSpans {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _at: SimTime, _event: SimEvent) {}

    fn span(&mut self, span: &RequestSpan) {
        let (resp, rid) = (span.duration().as_micros(), span.id);
        let outranks = |t: &RequestSpan| ranks_before(resp, rid, t.duration().as_micros(), t.id);
        if self.top.len() == self.k {
            match self.top.last() {
                Some(floor) if outranks(floor) => self.top.pop(),
                _ => return,
            };
        }
        let at = self.top.iter().position(outranks).unwrap_or(self.top.len());
        self.top.insert(at, span.clone());
    }

    fn take_spans(&mut self) -> Vec<RequestSpan> {
        std::mem::take(&mut self.top)
    }

    fn name(&self) -> &'static str {
        "slowest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> (SimTime, SimEvent) {
        (SimTime::from_micros(i), SimEvent::IoTimeout { io: i })
    }

    #[test]
    fn null_sink_records_nothing() {
        let mut s = NullSink;
        assert!(!s.enabled());
        let (at, e) = ev(1);
        s.record(at, e);
        assert_eq!(s.recorded(), 0);
        assert!(s.drain().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_drains_in_order() {
        let mut s = RingSink::new(3);
        for i in 0..5 {
            let (at, e) = ev(i);
            s.record(at, e);
        }
        assert_eq!(s.recorded(), 5);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.len(), 3);
        let drained = s.drain();
        let times: Vec<u64> = drained.iter().map(|t| t.at.as_micros()).collect();
        assert_eq!(times, vec![2, 3, 4]);
        assert!(s.is_empty());
        assert_eq!(s.recorded(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn ring_rejects_zero_capacity() {
        let _ = RingSink::new(0);
    }

    #[test]
    fn dropped_events_are_counted_per_kind() {
        let mut s = RingSink::new(2);
        // Two kinds interleaved; the first three get evicted.
        s.record(SimTime::from_micros(0), SimEvent::IoTimeout { io: 0 });
        s.record(SimTime::from_micros(1), SimEvent::TraceEnded);
        s.record(SimTime::from_micros(2), SimEvent::IoTimeout { io: 2 });
        s.record(SimTime::from_micros(3), SimEvent::IoTimeout { io: 3 });
        s.record(SimTime::from_micros(4), SimEvent::IoLost { io: 4 });
        assert_eq!(s.dropped(), 3);
        let by_kind = s.dropped_by_kind();
        assert_eq!(by_kind.get("IoTimeout").copied(), Some(2));
        assert_eq!(by_kind.get("TraceEnded").copied(), Some(1));
        assert_eq!(
            by_kind.values().sum::<u64>(),
            s.dropped(),
            "per-kind drops must sum to the aggregate"
        );
        // Drain resets the roll-up with the other counters.
        let _ = s.drain();
        assert!(s.dropped_by_kind().is_empty());
    }

    #[test]
    fn mixed_kind_overflow_accounts_every_drop_exactly() {
        use std::collections::BTreeMap;
        let mut s = RingSink::new(7);
        // 100 events cycling through three kinds, far past capacity.
        let mut emitted: BTreeMap<&'static str, u64> = BTreeMap::new();
        for i in 0..100u64 {
            let event = match i % 3 {
                0 => SimEvent::IoTimeout { io: i },
                1 => SimEvent::IoLost { io: i },
                _ => SimEvent::TraceEnded,
            };
            *emitted.entry(event.kind_name()).or_default() += 1;
            s.record(SimTime::from_micros(i), event);
        }
        assert_eq!(s.recorded(), 100);
        assert_eq!(s.dropped(), 93);
        assert_eq!(
            s.dropped_by_kind().values().sum::<u64>(),
            s.dropped(),
            "per-kind drops must sum to the aggregate"
        );
        // Retained + dropped reconstructs the true per-kind emission
        // counts exactly.
        let by_kind = s.dropped_by_kind();
        let drained = s.drain();
        let mut reconstructed = by_kind;
        for t in &drained {
            *reconstructed.entry(t.event.kind_name()).or_default() += 1;
        }
        assert_eq!(reconstructed, emitted);
        // Overwrite-oldest: exactly the newest `capacity` events
        // survive, still in emission order.
        let times: Vec<u64> = drained.iter().map(|t| t.at.as_micros()).collect();
        assert_eq!(times, (93..100).collect::<Vec<_>>());
    }
}
