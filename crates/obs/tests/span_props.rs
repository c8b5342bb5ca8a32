//! Property tests for the span machinery: every completed span tree
//! must have `end ≥ begin`, leg intervals nested within the span,
//! per-leg slices summing exactly to the leg interval, and critical-path
//! attribution conserving the span's duration
//! (`attributed + unattributed == end − begin`). The fold the collector
//! streams as spans close must equal the offline fold over the same
//! spans, and the `--top` keeper the offline top-k.

use proptest::prelude::*;
use rolo_disk::ServiceBreakdown;
use rolo_obs::{
    critical_path, slowest_spans, BgSpan, BgSpanKind, LegFlavor, Phase, RequestSpan, SlowestSpans,
    SpanAnalysis, SpanCollector, SpanSet, TraceSink,
};
use rolo_sim::{Duration, SimTime};
use rolo_trace::ReqKind;

/// One synthetic leg drawn by the strategy below: a submit delay after
/// span begin, three wait components, three service components (µs
/// each) and a flavor index.
type LegDraw = (u64, u64, u64, u64, (u64, u64, u64), usize);

/// The strategy for one leg. Tuples are the vendored proptest's
/// combinator, so the fields are positional; see [`LegDraw`].
fn leg_strategy() -> impl Strategy<Value = LegDraw> {
    (
        0u64..10_000,                            // submit_delta
        0u64..5_000,                             // spin-up stall
        0u64..5_000,                             // bg interference
        0u64..5_000,                             // queue wait
        (0u64..5_000, 0u64..5_000, 1u64..5_000), // seek, rotation, transfer
        0usize..4,                               // flavor index
    )
}

const FLAVORS: [LegFlavor; 4] = [
    LegFlavor::Transfer,
    LegFlavor::LogAppend,
    LegFlavor::MirrorCopy,
    LegFlavor::DegradedRedirect,
];

/// Builds a finished span from drawn legs via the collector API,
/// exactly the way the simulation driver does.
fn build_span(begin: u64, legs: &[LegDraw]) -> (RequestSpan, Vec<BgSpan>) {
    build_span_under(BgSpanKind::Destage, begin, legs)
}

/// Same, with the covering background span of a chosen kind (destage
/// vs. compaction interference are attributed to different phases).
fn build_span_under(kind: BgSpanKind, begin: u64, legs: &[LegDraw]) -> (RequestSpan, Vec<BgSpan>) {
    let mut c = SpanCollector::new();
    let disks: Vec<usize> = (0..legs.len()).collect();
    let bg = c.begin_bg(kind, &disks, SimTime::from_micros(begin));
    let close_at = record_request(&mut c, 1, ReqKind::Write, begin, legs);
    let (span, _) = c
        .close_request(1, SimTime::from_micros(close_at))
        .expect("span is open");
    let span = span.clone();
    c.end_bg(bg, SimTime::from_micros(close_at));
    let set = c.finish();
    assert_eq!(set.requests.len(), 1);
    (span, set.background)
}

/// Opens request `id` at `begin` and records its drawn legs (leg `i` on
/// disk `i`, I/O ids unique per request), the way the simulation driver
/// does; returns the instant its last leg ends.
fn record_request(
    c: &mut SpanCollector,
    id: u64,
    kind: ReqKind,
    begin: u64,
    legs: &[LegDraw],
) -> u64 {
    c.open_request(id, kind, SimTime::from_micros(begin));
    let mut close_at = begin;
    for (i, &(submit_delta, stall, interference, queue, (seek, rotation, transfer), flavor)) in
        legs.iter().enumerate()
    {
        let io = 100 * (id + 1) + i as u64;
        let submit = begin + submit_delta;
        let start = submit + stall + interference + queue;
        let end = start + seek + rotation + transfer;
        close_at = close_at.max(end);
        c.tag_io(io, id, FLAVORS[flavor]);
        c.record_leg(
            io,
            i, // one disk per leg
            &ServiceBreakdown {
                id: io,
                background: false,
                submit: SimTime::from_micros(submit),
                start: SimTime::from_micros(start),
                end: SimTime::from_micros(end),
                seek: Duration::from_micros(seek),
                rotation: Duration::from_micros(rotation),
                transfer: Duration::from_micros(transfer),
                spinup_stall: Duration::from_micros(stall),
                bg_interference: Duration::from_micros(interference),
            },
        );
    }
    close_at
}

/// One drawn request of a run: write or read, admission instant, legs,
/// and a key that orders the completions.
type RequestDraw = (bool, u64, Vec<LegDraw>, u64);

/// Admits every drawn request into one collector, under a destage span
/// covering every disk, and closes them in ascending key order; returns
/// clones of the closed spans in admission order and the run's set.
fn close_all(draws: &[RequestDraw]) -> (Vec<RequestSpan>, SpanSet) {
    let mut c = SpanCollector::new();
    let bg = c.begin_bg(BgSpanKind::Destage, &[0, 1, 2, 3], SimTime::ZERO);
    let mut ends = Vec::new();
    for (id, (write, begin, legs, _)) in draws.iter().enumerate() {
        let kind = if *write {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        ends.push(record_request(&mut c, id as u64, kind, *begin, legs));
    }
    let mut order: Vec<usize> = (0..draws.len()).collect();
    order.sort_by_key(|&i| (draws[i].3, i));
    let mut spans = vec![None; draws.len()];
    for i in order {
        let at = SimTime::from_micros(ends[i]);
        let (span, path) = c.close_request(i as u64, at).expect("span is open");
        assert_eq!(path, critical_path(span), "the returned path is the span's");
        spans[i] = Some(span.clone());
    }
    c.end_bg(
        bg,
        SimTime::from_micros(ends.iter().copied().max().unwrap_or(0)),
    );
    (
        spans.into_iter().map(|s| s.expect("closed")).collect(),
        c.finish(),
    )
}

fn request_strategy() -> impl Strategy<Value = RequestDraw> {
    (
        any::<bool>(),
        0u64..100_000,
        prop::collection::vec(leg_strategy(), 1..4),
        any::<u64>(),
    )
}

proptest! {
    #[test]
    fn prop_span_tree_invariants(
        begin in 0u64..1_000_000,
        legs in prop::collection::vec(leg_strategy(), 1..6),
    ) {
        let (span, _) = build_span(begin, &legs);

        // end ≥ begin, legs nested, slices sum to leg intervals.
        prop_assert!(span.end >= span.begin);
        span.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(span.legs.len(), legs.len());

        // Critical-path attribution conserves the span duration exactly
        // (integer microseconds: "within rounding" is zero here).
        let path = critical_path(&span);
        prop_assert_eq!(path.total_us, span.duration().as_micros());
        prop_assert_eq!(
            path.attributed_us() + path.unattributed_us,
            path.total_us,
            "phase totals + unattributed must equal the span duration"
        );
    }

    #[test]
    fn prop_single_leg_at_begin_attributes_fully(
        begin in 0u64..1_000_000,
        leg in leg_strategy(),
    ) {
        // A leg submitted at admission (how user sub-I/Os behave in the
        // simulator) leaves nothing unattributed.
        let mut leg = leg;
        leg.0 = 0;
        let (span, _) = build_span(begin, std::slice::from_ref(&leg));
        let path = critical_path(&span);
        prop_assert_eq!(path.unattributed_us, 0);
        prop_assert_eq!(path.attributed_us(), span.duration().as_micros());
    }

    #[test]
    fn prop_analysis_attribution_bounded(
        begin in 0u64..100_000,
        spans in prop::collection::vec(
            prop::collection::vec(leg_strategy(), 1..4), 1..10),
    ) {
        let mut analysis = SpanAnalysis::default();
        for legs in &spans {
            let (span, _) = build_span(begin, legs);
            analysis.observe(&span);
        }
        let f = analysis.all.attributed_fraction();
        prop_assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
        let total: u64 = analysis.all.phase_us.iter().sum();
        prop_assert!(total + analysis.all.unattributed_us == analysis.all.total_us);
    }

    #[test]
    fn prop_interference_links_bg_causality(
        begin in 0u64..100_000,
        leg in leg_strategy(),
    ) {
        let mut leg = leg;
        leg.2 = leg.2.max(1); // force non-zero interference
        let (span, bgs) = build_span(begin, std::slice::from_ref(&leg));
        // Leg 0 runs on disk 0, which the destage span covers.
        let l = &span.legs[0];
        prop_assert_eq!(l.delayed_by, Some(bgs[0].id));
        prop_assert!(bgs[0].delayed.contains(&span.id));
    }

    /// Interference under an open compaction span is attributed to the
    /// `Compaction` phase — and only the interference slice moves there;
    /// the attribution identity stays conserved, so DestageInterference
    /// totals are never double-counted against compaction.
    #[test]
    fn prop_compaction_interference_typed_and_conserved(
        begin in 0u64..100_000,
        leg in leg_strategy(),
    ) {
        let mut leg = leg;
        leg.0 = 0; // submit at admission: nothing unattributed
        leg.2 = leg.2.max(1); // force non-zero interference
        let (span, bgs) = build_span_under(
            BgSpanKind::Compaction, begin, std::slice::from_ref(&leg));
        prop_assert_eq!(bgs[0].kind, BgSpanKind::Compaction);
        let path = critical_path(&span);
        let compact_us = path.phase_us[Phase::Compaction.index()];
        prop_assert_eq!(compact_us, leg.2, "interference slice must land in Compaction");
        prop_assert_eq!(
            path.phase_us[Phase::DestageInterference.index()], 0,
            "no destage ran: nothing may be typed as destage interference"
        );
        prop_assert_eq!(path.attributed_us() + path.unattributed_us, path.total_us);
        prop_assert_eq!(path.unattributed_us, 0);

        // The same legs under a destage span attribute the identical
        // slice to DestageInterference instead.
        let (span_d, _) = build_span(begin, std::slice::from_ref(&leg));
        let path_d = critical_path(&span_d);
        prop_assert_eq!(path_d.phase_us[Phase::DestageInterference.index()], leg.2);
        prop_assert_eq!(path_d.phase_us[Phase::Compaction.index()], 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Spans folded as they close, in any completion order, equal the
    /// offline fold of the same spans, and the whole-run fold is the
    /// merge of its read and write folds.
    #[test]
    fn prop_streamed_fold_equals_offline_fold(
        draws in prop::collection::vec(request_strategy(), 1..12),
    ) {
        let (spans, set) = close_all(&draws);
        set.validate().map_err(TestCaseError::fail)?;
        let fold = &set.requests;
        let offline = SpanAnalysis::analyze(&spans);
        prop_assert_eq!(fold.len(), spans.len());
        for (streamed, oracle) in [
            (&fold.all, &offline.all),
            (&fold.reads, &offline.reads),
            (&fold.writes, &offline.writes),
        ] {
            prop_assert_eq!(streamed.requests, oracle.requests);
            prop_assert_eq!(streamed.total_us, oracle.total_us);
            prop_assert_eq!(streamed.unattributed_us, oracle.unattributed_us);
            prop_assert_eq!(streamed.phase_us, oracle.phase_us);
            prop_assert_eq!(&streamed.phase_hist, &oracle.phase_hist);
            prop_assert_eq!(&streamed.span_hist, &oracle.span_hist);
        }
        prop_assert_eq!(fold.delayed_legs, offline.delayed_legs);
        let mut merged = fold.reads.clone();
        merged.merge(&fold.writes);
        prop_assert_eq!(&fold.all, &merged);
        prop_assert_eq!(fold, &offline);
    }

    /// The `--top` keeper, offered spans in completion order, keeps
    /// exactly the offline top-k.
    #[test]
    fn prop_slowest_spans_sink_keeps_the_offline_top_k(
        draws in prop::collection::vec(request_strategy(), 1..12),
        k in 0usize..6,
    ) {
        let (spans, _) = close_all(&draws);
        let mut order: Vec<&RequestSpan> = spans.iter().collect();
        order.sort_by_key(|s| draws[s.id as usize].3);
        let mut keeper = SlowestSpans::new(k);
        for s in order {
            keeper.span(s);
        }
        let want: Vec<RequestSpan> = slowest_spans(&spans, k).into_iter().cloned().collect();
        prop_assert_eq!(keeper.take_spans(), want);
    }
}
