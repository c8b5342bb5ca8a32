//! Property tests for the tail-exemplar recorder (DESIGN.md §14): for
//! any stream of completed spans the selection is deterministic, never
//! retains more than k spans per window, and is insensitive to the
//! order completions arrive within a window — the recorder's streaming
//! top-k always equals the offline sort under the same total order. A
//! slot the recorder reuses carries nothing over from the span it held.

use proptest::prelude::*;
use rolo_disk::PowerState;
use rolo_obs::{critical_path, ranks_before, slowest_spans, ExemplarRecorder, RequestSpan};
use rolo_obs::{ExemplarSet, ExemplarSpan, Phase, PhaseSlice, SpanLeg, WindowExemplars};
use rolo_sim::{Duration, SimTime};
use rolo_trace::ReqKind;

/// Telemetry window used throughout (the paper default).
const WINDOW_US: u64 = 60_000_000;

/// A legless span completing at `end_us` with the given response; the
/// recorder keys selection on the critical path's total, which for a
/// completed span is exactly its duration.
fn span_of(rid: u64, response_us: u64, end_us: u64) -> RequestSpan {
    RequestSpan {
        id: rid,
        kind: ReqKind::Read,
        begin: SimTime::from_micros(end_us - response_us),
        end: SimTime::from_micros(end_us),
        legs: Vec::new(),
    }
}

fn recorder(k: usize) -> ExemplarRecorder {
    ExemplarRecorder::new(k, Duration::from_micros(WINDOW_US), 256)
}

/// Feeds spans to a fresh recorder in the given order (all completions
/// within one window) and returns the retained rids, slowest first.
fn retained_rids(k: usize, spans: &[RequestSpan]) -> Vec<u64> {
    let mut rec = recorder(k);
    for s in spans {
        rec.observe(s.end, s, &critical_path(s), &[]);
    }
    let set = rec.finish();
    set.windows
        .iter()
        .flat_map(|w| w.spans.iter().map(|e| e.rid))
        .collect()
}

/// One drawn completion: (response_us, permutation key). The rid is
/// the draw's index, so rids are distinct and the selection order is
/// total.
type Draw = (u64, u64);

fn completions() -> impl Strategy<Value = (Vec<Draw>, usize)> {
    (
        proptest::collection::vec((1u64..2_000_000, 0u64..1_000_000), 1..40),
        1usize..10,
    )
}

/// Builds the spans in draw order; completions land inside window 0
/// (responses are < 2 s, the window is 60 s) at distinct instants so
/// the stream looks like a real completion sequence.
fn spans_of(draws: &[Draw]) -> Vec<RequestSpan> {
    draws
        .iter()
        .enumerate()
        .map(|(i, &(resp, _))| span_of(i as u64, resp, 2_000_000 + i as u64))
        .collect()
}

proptest! {
    /// Same stream, same order → byte-identical exemplar sets, twice.
    #[test]
    fn selection_is_deterministic(draw in completions()) {
        let (draws, k) = draw;
        let spans = spans_of(&draws);
        let run = |spans: &[RequestSpan]| {
            let mut rec = recorder(k);
            for s in spans {
                rec.observe(s.end, s, &critical_path(s), &[]);
            }
            rec.finish()
        };
        prop_assert_eq!(run(&spans), run(&spans));
    }
}

proptest! {
    /// No window ever retains more than k spans, whatever the stream
    /// offers, and retained spans always carry their window's index.
    #[test]
    fn selection_is_bounded(
        draw in completions(),
        windows in proptest::collection::vec(0u64..5, 1..40),
    ) {
        let (draws, k) = draw;
        // Spread completions over several (sorted, hence monotone)
        // windows; extra draws beyond `windows` stay in the last one.
        let mut wins = windows.clone();
        wins.sort_unstable();
        let mut rec = recorder(k);
        for (i, &(resp, _)) in draws.iter().enumerate() {
            let w = *wins.get(i).or(wins.last()).expect("non-empty");
            let at = w * WINDOW_US + 2_000_000 + i as u64;
            let s = span_of(i as u64, resp, at);
            rec.observe(s.end, &s, &critical_path(&s), &[]);
        }
        let set = rec.finish();
        for w in &set.windows {
            prop_assert!(w.spans.len() <= k, "window {} holds {} > k = {k}", w.window, w.spans.len());
            for e in &w.spans {
                prop_assert_eq!(e.window, w.window);
            }
        }
    }
}

proptest! {
    /// Observation order within a window cannot change the selection:
    /// the drawn order and the key-permuted order retain the same rids
    /// in the same rank order, and both equal the offline sort under
    /// `ranks_before`.
    #[test]
    fn selection_is_order_insensitive(draw in completions()) {
        let (draws, k) = draw;
        let spans = spans_of(&draws);
        let mut permuted = spans.clone();
        // A deterministic permutation drawn from the input: stable
        // sort by the draw's key column.
        permuted.sort_by_key(|s| draws[s.id as usize].1);

        let a = retained_rids(k, &spans);
        let b = retained_rids(k, &permuted);
        prop_assert_eq!(&a, &b);

        // Offline reference: full sort under the same total order.
        let mut sorted: Vec<&RequestSpan> = spans.iter().collect();
        sorted.sort_by(|x, y| {
            if ranks_before(x.duration().as_micros(), x.id, y.duration().as_micros(), y.id) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
        let expect: Vec<u64> = sorted.iter().take(k).map(|s| s.id).collect();
        prop_assert_eq!(a, expect);

        // And the shared offline helper agrees with the recorder.
        let helper: Vec<u64> = rolo_obs::slowest_spans(&spans, k).iter().map(|s| s.id).collect();
        prop_assert_eq!(b, helper);
    }
}

/// One drawn leg for the slot-reuse property: (disk, submit offset µs,
/// length µs, queue-wait share in quarters, 0–4).
type LegDraw = (usize, u64, u64, u64);

/// Builds a span completing at `end_us` whose legs sit inside it, each
/// cut into a queue wait and a transfer slice.
fn span_with_legs(rid: u64, response_us: u64, end_us: u64, legs: &[LegDraw]) -> RequestSpan {
    let begin = end_us - response_us;
    let legs = legs
        .iter()
        .enumerate()
        .map(|(j, &(disk, offset, len, quarters))| {
            let submit = begin + offset.min(response_us);
            let end = (submit + len).min(end_us);
            let wait = (end - submit) * quarters / 4;
            let start = submit + wait;
            let slices = [
                PhaseSlice {
                    phase: Phase::QueueWait,
                    duration: Duration::from_micros(wait),
                },
                PhaseSlice {
                    phase: Phase::Transfer,
                    duration: Duration::from_micros(end - start),
                },
            ];
            SpanLeg {
                io: rid * 8 + j as u64,
                disk,
                submit: SimTime::from_micros(submit),
                start: SimTime::from_micros(start),
                end: SimTime::from_micros(end),
                slices: slices.into_iter().collect(),
                delayed_by: disk.is_multiple_of(3).then_some(disk as u64),
            }
        })
        .collect();
    RequestSpan {
        id: rid,
        kind: if rid.is_multiple_of(2) {
            ReqKind::Read
        } else {
            ReqKind::Write
        },
        begin: SimTime::from_micros(begin),
        end: SimTime::from_micros(end_us),
        legs,
    }
}

/// The offline reference for one recorder run: each window's selection
/// built fresh from `slowest_spans`, stamped with the power state of
/// every distinct disk its legs touched, and the last `retain` non-empty
/// windows kept.
fn reference_set(
    spans: &[RequestSpan],
    k: usize,
    retain: usize,
    power: &[PowerState],
) -> ExemplarSet {
    let mut windows: Vec<WindowExemplars> = Vec::new();
    let mut rest = spans;
    while let Some(first) = rest.first() {
        let window = first.end.as_micros() / WINDOW_US;
        let n = rest
            .iter()
            .take_while(|s| s.end.as_micros() / WINDOW_US == window)
            .count();
        let (these, later) = rest.split_at(n);
        rest = later;
        let picked = slowest_spans(these, k)
            .into_iter()
            .map(|s| {
                let path = critical_path(s);
                let mut disks: Vec<usize> = s.legs.iter().map(|l| l.disk).collect();
                disks.sort_unstable();
                disks.dedup();
                ExemplarSpan {
                    rid: s.id,
                    kind: s.kind,
                    window,
                    completed: s.end,
                    response_us: path.total_us,
                    phase_us: path.phase_us,
                    unattributed_us: path.unattributed_us,
                    span: s.clone(),
                    disk_states: disks
                        .into_iter()
                        .filter_map(|d| power.get(d).map(|&p| (d, p)))
                        .collect(),
                }
            })
            .collect();
        windows.push(WindowExemplars {
            window,
            spans: picked,
        });
    }
    let evicted = windows.len().saturating_sub(retain);
    ExemplarSet {
        window_us: WINDOW_US,
        per_window: k,
        windows: windows.split_off(evicted),
    }
}

fn power_states() -> impl Strategy<Value = PowerState> {
    prop::sample::select(vec![
        PowerState::Active,
        PowerState::Idle,
        PowerState::Standby,
        PowerState::SpinningUp,
        PowerState::SpinningDown,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Recycled slots carry nothing over: with legs on disks 0–7, a
    /// power slice that misses some of them, completions over up to 30
    /// windows and a retention of 1–3 windows (so evicted entries are
    /// reused), the recorder's whole set — legs and disk stamps included
    /// — equals the per-window reference built from fresh copies.
    #[test]
    fn reused_slots_match_a_fresh_selection(
        draws in proptest::collection::vec(
            (
                1u64..2_000_000,
                0u64..30,
                proptest::collection::vec((0usize..8, 0u64..500_000, 1u64..1_500_000, 0u64..5), 0..5),
            ),
            1..160,
        ),
        power in proptest::collection::vec(power_states(), 0..8),
        retain in 1usize..4,
        k in 1usize..10,
    ) {
        // Each draw is (response_us, window, legs). Completions arrive
        // in time order; rids are distinct.
        let mut draws = draws;
        draws.sort_by_key(|d| d.1);
        let spans: Vec<RequestSpan> = draws
            .iter()
            .enumerate()
            .map(|(i, (resp, window, legs))| {
                let end = window * WINDOW_US + 2_000_000 + i as u64;
                span_with_legs(i as u64, *resp, end, legs)
            })
            .collect();
        let mut rec = ExemplarRecorder::new(k, Duration::from_micros(WINDOW_US), retain);
        for s in &spans {
            rec.observe(s.end, s, &critical_path(s), &power);
        }
        prop_assert_eq!(rec.finish(), reference_set(&spans, k, retain, &power));
    }
}
