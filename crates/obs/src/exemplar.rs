//! Windowed tail-exemplar capture (DESIGN.md §14).
//!
//! An [`ExemplarRecorder`] retains the top-k *slowest* finished
//! [`RequestSpan`]s of every telemetry window, in bounded memory, so a
//! post-run forensics pass (see [`crate::rca`]) can explain exactly
//! which requests an SLO-breaching window's tail was made of. Capture
//! is observational only: the simulation never reads the recorder, so
//! enabling it cannot perturb outcomes.
//!
//! # Determinism contract
//!
//! Selection is a pure function of the *set* of spans completed in a
//! window, not of their arrival order: a span is kept iff fewer than k
//! spans rank before it under the strict total order "longer response
//! first, ties broken by smaller request id" ([`ranks_before`]). Two
//! runs over the same seed therefore retain byte-identical exemplars,
//! and replaying a window's completions in any order yields the same
//! selection (locked down by the `exemplar_props` suite).
//!
//! The recorder is a threshold + bounded insertion structure: once a
//! window holds k exemplars, a completing span is compared against the
//! current floor (the k-th slowest) and rejected on that one comparison
//! unless it ranks before it. A captured span is written over a slot the
//! recorder already owns, with its buffers kept: the floor it displaces,
//! or an entry of a window evicted past the retention bound. The
//! recorder builds at most `(retain + 1)·k` slots over a run, and a slot
//! allocates again only when a span has more legs than any span the slot
//! held before.

use crate::span::{PathAttribution, RequestSpan, NUM_PHASES};
use rolo_disk::{DiskId, PowerState};
use rolo_sim::{Duration, SimTime};
use rolo_trace::ReqKind;
use serde::Serialize;
use std::collections::VecDeque;

/// One captured tail exemplar: a slow request's span plus the
/// critical-path decomposition and the power states of the disks it
/// touched, stamped at completion time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExemplarSpan {
    /// Trace-order user request id.
    pub rid: u64,
    /// Read or write.
    pub kind: ReqKind,
    /// Telemetry window the request *completed* in (window `k` covers
    /// `[k·w, (k+1)·w)` of simulated time, same clock as
    /// [`crate::timeseries::Telemetry`]).
    pub window: u64,
    /// Completion instant.
    pub completed: SimTime,
    /// End-to-end response time (µs) — the selection key.
    pub response_us: u64,
    /// Critical-path microseconds per phase, by
    /// [`crate::span::Phase::index`].
    pub phase_us: [u64; NUM_PHASES],
    /// Microseconds of the span no leg explains.
    pub unattributed_us: u64,
    /// The full span, for causality walks (`delayed_by` links).
    pub span: RequestSpan,
    /// Power state of every distinct disk the span's legs touched, as
    /// of the completion instant, sorted by disk id.
    pub disk_states: Vec<(DiskId, PowerState)>,
}

impl ExemplarSpan {
    /// The phase with the largest critical-path share of this span, if
    /// any time was attributed ([`crate::span::dominant_phase`]'s tie
    /// rule).
    pub fn dominant_phase(&self) -> Option<crate::span::Phase> {
        crate::span::dominant_phase(&self.phase_us)
    }
}

/// The retained exemplars of one closed telemetry window, slowest
/// first.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowExemplars {
    /// Telemetry window index.
    pub window: u64,
    /// Captured spans, ordered by [`ranks_before`] (slowest first,
    /// ties by ascending rid). Never more than the recorder's k.
    pub spans: Vec<ExemplarSpan>,
}

/// Every window's retained exemplars, exported at end of run via
/// `RunObservations`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ExemplarSet {
    /// Telemetry window length (µs).
    pub window_us: u64,
    /// The per-window retention bound k the recorder ran with.
    pub per_window: usize,
    /// Non-empty windows in ascending window order (empty windows are
    /// not stored).
    pub windows: Vec<WindowExemplars>,
}

impl ExemplarSet {
    /// The exemplars of window `idx`, if any were captured.
    pub fn window(&self, idx: u64) -> Option<&WindowExemplars> {
        self.windows.iter().find(|w| w.window == idx)
    }

    /// Total exemplars retained across all windows.
    pub fn total(&self) -> usize {
        self.windows.iter().map(|w| w.spans.len()).sum()
    }
}

/// The strict total selection order: `true` when span `a` should be
/// retained in preference to span `b` — longer response first, equal
/// responses broken by smaller request id. Total over distinct rids,
/// so top-k selection under it is order-insensitive.
pub fn ranks_before(a_response_us: u64, a_rid: u64, b_response_us: u64, b_rid: u64) -> bool {
    a_response_us > b_response_us || (a_response_us == b_response_us && a_rid < b_rid)
}

/// The `k` slowest spans of a finished set under [`ranks_before`],
/// slowest first: the offline sort-and-truncate that the recorder's
/// per-window selection and [`crate::SlowestSpans`] are tested against.
pub fn slowest_spans(spans: &[RequestSpan], k: usize) -> Vec<&RequestSpan> {
    let mut all: Vec<&RequestSpan> = spans.iter().collect();
    all.sort_by_key(|s| (std::cmp::Reverse(s.duration().as_micros()), s.id));
    all.truncate(k);
    all
}

/// Bounded per-window top-k recorder of the slowest request spans.
///
/// Windows follow the telemetry clock (window `k` covers
/// `[k·w, (k+1)·w)`); completions arrive in non-decreasing simulated
/// time, so a window seals as soon as a later one is observed (or on
/// [`ExemplarRecorder::advance`], which the context calls alongside
/// `Telemetry::advance`). At most `retain` sealed windows are kept,
/// oldest evicted first — memory is bounded by `(retain + 1) · k`
/// spans, counting the evicted entries kept as spare slots.
#[derive(Debug)]
pub struct ExemplarRecorder {
    k: usize,
    window_us: u64,
    retain: usize,
    current_window: u64,
    /// The open window's selection, ordered by [`ranks_before`].
    current: Vec<ExemplarSpan>,
    /// Entries of evicted windows, overwritten by later captures.
    spare: Vec<ExemplarSpan>,
    sealed: VecDeque<WindowExemplars>,
}

impl ExemplarRecorder {
    /// Creates a recorder keeping the `k` slowest spans per `window`,
    /// retaining at most `retain` sealed windows.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the window is zero-length (the
    /// simulator's window is a non-zero constant, and it only builds a
    /// recorder for a non-zero k).
    pub fn new(k: usize, window: Duration, retain: usize) -> Self {
        assert!(k > 0, "zero exemplars per window");
        assert!(!window.is_zero(), "zero exemplar window");
        ExemplarRecorder {
            k,
            window_us: window.as_micros(),
            retain: retain.max(1),
            current_window: 0,
            current: Vec::new(),
            spare: Vec::new(),
            sealed: VecDeque::new(),
        }
    }

    /// Offers a finished span completing at `at` with its critical
    /// path already computed; `power` is the per-slot power-state
    /// cache for stamping the disks the span touched (slots beyond
    /// the slice are skipped).
    pub fn observe(
        &mut self,
        at: SimTime,
        span: &RequestSpan,
        path: &PathAttribution,
        power: &[PowerState],
    ) {
        let window = at.as_micros() / self.window_us;
        self.roll_to(window);
        let (resp, rid) = (path.total_us, span.id);
        let slot = if self.current.len() == self.k {
            // Threshold fast path: reject on one comparison unless the
            // span outranks the current floor, whose slot it then takes.
            let floor = self.current.last().expect("k > 0");
            if !ranks_before(resp, rid, floor.response_us, floor.rid) {
                return;
            }
            self.current.pop()
        } else {
            self.spare.pop()
        };
        // Overwrite the slot's buffers; only a cold recorder has no slot.
        let (mut legs, mut disk_states) = match slot {
            Some(old) => (old.span.legs, old.disk_states),
            None => (
                Vec::with_capacity(span.legs.len()),
                Vec::with_capacity(span.legs.len()),
            ),
        };
        legs.clone_from(&span.legs);
        disk_states.clear();
        disk_states.extend(
            span.legs
                .iter()
                .filter_map(|l| power.get(l.disk).map(|&s| (l.disk, s))),
        );
        disk_states.sort_unstable_by_key(|&(d, _)| d);
        disk_states.dedup_by_key(|&mut (d, _)| d);
        let ex = ExemplarSpan {
            rid,
            kind: span.kind,
            window,
            completed: at,
            response_us: resp,
            phase_us: path.phase_us,
            unattributed_us: path.unattributed_us,
            span: RequestSpan {
                id: rid,
                kind: span.kind,
                begin: span.begin,
                end: span.end,
                legs,
            },
            disk_states,
        };
        let at_idx = self
            .current
            .iter()
            .position(|t| ranks_before(resp, rid, t.response_us, t.rid))
            .unwrap_or(self.current.len());
        self.current.insert(at_idx, ex);
    }

    /// Seals every window that ended at or before `now`, mirroring
    /// `Telemetry::advance` so the exemplar ring and the telemetry
    /// ring stay on the same clock.
    pub fn advance(&mut self, now: SimTime) {
        self.roll_to(now.as_micros() / self.window_us);
    }

    fn roll_to(&mut self, window: u64) {
        if window > self.current_window {
            self.seal();
            self.current_window = window;
        }
    }

    /// Seals the open window if it captured anything. Past `retain`
    /// sealed windows the oldest is evicted: its entries become spare
    /// slots and its vector holds the next window's selection.
    fn seal(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let mut next = Vec::new();
        if self.sealed.len() == self.retain {
            next = self.sealed.pop_front().expect("retain > 0").spans;
            self.spare.append(&mut next);
        }
        self.sealed.push_back(WindowExemplars {
            window: self.current_window,
            spans: std::mem::replace(&mut self.current, next),
        });
    }

    /// Consumes the recorder, sealing the open window and returning
    /// every retained window in ascending order.
    pub fn finish(mut self) -> ExemplarSet {
        self.seal();
        ExemplarSet {
            window_us: self.window_us,
            per_window: self.k,
            windows: self.sealed.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::critical_path;

    fn span(rid: u64, begin_us: u64, end_us: u64) -> RequestSpan {
        RequestSpan {
            id: rid,
            kind: ReqKind::Read,
            begin: SimTime::from_micros(begin_us),
            end: SimTime::from_micros(end_us),
            legs: Vec::new(),
        }
    }

    fn offer(rec: &mut ExemplarRecorder, s: &RequestSpan) {
        let path = critical_path(s);
        rec.observe(s.end, s, &path, &[]);
    }

    #[test]
    fn keeps_the_k_slowest_with_rid_tiebreak() {
        let mut rec = ExemplarRecorder::new(2, Duration::from_secs(60), 8);
        for (rid, dur) in [(1, 100), (2, 300), (3, 300), (4, 50)] {
            offer(&mut rec, &span(rid, 0, dur));
        }
        let set = rec.finish();
        assert_eq!(set.total(), 2);
        let w = &set.windows[0];
        assert_eq!(w.window, 0);
        // Both 300 µs spans survive; the tie ranks rid 2 first.
        assert_eq!(w.spans[0].rid, 2);
        assert_eq!(w.spans[1].rid, 3);
    }

    #[test]
    fn windows_follow_the_telemetry_clock() {
        let w = Duration::from_secs(60);
        let mut rec = ExemplarRecorder::new(4, w, 8);
        offer(&mut rec, &span(1, 0, 10));
        offer(&mut rec, &span(2, 60_000_000, 60_000_500));
        offer(&mut rec, &span(3, 125_000_000, 125_000_900));
        let set = rec.finish();
        let windows: Vec<u64> = set.windows.iter().map(|x| x.window).collect();
        assert_eq!(windows, vec![0, 1, 2]);
        assert_eq!(set.window(1).unwrap().spans[0].rid, 2);
    }

    #[test]
    fn retention_evicts_the_oldest_window() {
        let w = Duration::from_secs(60);
        let mut rec = ExemplarRecorder::new(1, w, 2);
        for i in 0..5u64 {
            offer(&mut rec, &span(i, i * 60_000_000, i * 60_000_000 + 100));
        }
        let set = rec.finish();
        let windows: Vec<u64> = set.windows.iter().map(|x| x.window).collect();
        assert_eq!(windows, vec![3, 4], "only the freshest two windows kept");
    }

    #[test]
    fn slowest_spans_matches_the_recorder_order() {
        let spans: Vec<RequestSpan> = [(1u64, 40u64), (2, 90), (3, 90), (4, 10), (5, 70)]
            .iter()
            .map(|&(rid, d)| span(rid, 0, d))
            .collect();
        let top = slowest_spans(&spans, 3);
        let rids: Vec<u64> = top.iter().map(|s| s.id).collect();
        assert_eq!(rids, vec![2, 3, 5]);
        let mut rec = ExemplarRecorder::new(3, Duration::from_secs(60), 1);
        for s in &spans {
            offer(&mut rec, s);
        }
        let set = rec.finish();
        let rec_rids: Vec<u64> = set.windows[0].spans.iter().map(|e| e.rid).collect();
        assert_eq!(rec_rids, rids);
    }
}
