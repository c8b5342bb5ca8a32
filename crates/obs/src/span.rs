//! Per-request span trees with typed phases and critical-path
//! attribution (DESIGN.md §9).
//!
//! A [`RequestSpan`] covers one user request from admission to
//! completion. Each sub-I/O the controller issued for it becomes a
//! [`SpanLeg`] whose time is decomposed into typed [`Phase`] slices —
//! queue wait, seek, rotation, the transfer itself (typed by what the
//! controller used it for: in-place transfer, log append, mirror copy or
//! degraded redirect), spin-up stalls and background interference.
//! Background activities (destage cycles, rebuilds) get their own
//! [`BgSpan`]s, and a foreground leg delayed by one records the link
//! ([`SpanLeg::delayed_by`]), giving parent/child causality: "this
//! destage delayed these user requests".
//!
//! [`critical_path`] folds a finished span into per-phase totals that
//! sum to the span's duration (walking backwards from completion along
//! the longest-running legs), and [`SpanAnalysis`] aggregates those
//! totals across requests into per-phase latency histograms — the data
//! behind the `inspect spans` attribution table.

use crate::sketch::QuantileSketch;
use rolo_disk::{DiskId, ServiceBreakdown};
use rolo_sim::{Duration, IoMap, SimTime};
use rolo_trace::ReqKind;
use serde::{Serialize, Value};

/// Number of typed phases ([`Phase::ALL`] has one entry per phase).
pub const NUM_PHASES: usize = 11;

/// Most slices a leg can hold: [`SpanCollector`] cuts each leg into at
/// most six (spin-up stall, interference, queue wait, seek, rotation,
/// transfer).
pub const MAX_LEG_SLICES: usize = 6;

/// Where a slice of a request's latency went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Phase {
    /// Waiting behind other *foreground* requests on the same disk.
    QueueWait,
    /// Arm movement of the serving transfer.
    Seek,
    /// Rotational latency of the serving transfer.
    Rotation,
    /// Media transfer of an in-place (primary copy) read or write.
    Transfer,
    /// Media transfer of a sequential log append.
    LogAppend,
    /// Media transfer of a mirror-copy write (RAID10 second copy, RoLo
    /// direct-write second copy, GRAID direct mirror fallback).
    MirrorCopy,
    /// Waiting for a standby disk to spin up (RoLo-E read misses).
    SpinUpStall,
    /// Waiting behind a background destage/rebuild transfer already on
    /// the media.
    DestageInterference,
    /// Media transfer of an I/O redirected to the surviving mirror
    /// partner while the array is degraded.
    DegradedRedirect,
    /// Waiting behind a background compaction transfer (live log
    /// records being relocated out of a mostly-dead segment).
    Compaction,
    /// Waiting behind a background scrub transfer (an extent being
    /// verified by the integrity scrub engine).
    ScrubInterference,
}

impl Phase {
    /// Every phase, in display order. `ALL[p.index()] == p`.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::QueueWait,
        Phase::Seek,
        Phase::Rotation,
        Phase::Transfer,
        Phase::LogAppend,
        Phase::MirrorCopy,
        Phase::SpinUpStall,
        Phase::DestageInterference,
        Phase::DegradedRedirect,
        Phase::Compaction,
        Phase::ScrubInterference,
    ];

    /// Stable dense index of this phase into `[_; NUM_PHASES]` arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::QueueWait => 0,
            Phase::Seek => 1,
            Phase::Rotation => 2,
            Phase::Transfer => 3,
            Phase::LogAppend => 4,
            Phase::MirrorCopy => 5,
            Phase::SpinUpStall => 6,
            Phase::DestageInterference => 7,
            Phase::DegradedRedirect => 8,
            Phase::Compaction => 9,
            Phase::ScrubInterference => 10,
        }
    }

    /// Short stable name, for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueueWait => "QueueWait",
            Phase::Seek => "Seek",
            Phase::Rotation => "Rotation",
            Phase::Transfer => "Transfer",
            Phase::LogAppend => "LogAppend",
            Phase::MirrorCopy => "MirrorCopy",
            Phase::SpinUpStall => "SpinUpStall",
            Phase::DestageInterference => "DestageInterference",
            Phase::DegradedRedirect => "DegradedRedirect",
            Phase::Compaction => "Compaction",
            Phase::ScrubInterference => "ScrubInterference",
        }
    }
}

/// What a sub-I/O's media transfer was *for*, as declared by the
/// controller that issued it. Maps the transfer slice of a leg to its
/// typed phase; positioning (seek/rotation) and waiting phases are
/// derived from the disk's [`ServiceBreakdown`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum LegFlavor {
    /// An in-place read or write of the primary copy.
    Transfer,
    /// A sequential append to a logging region.
    LogAppend,
    /// The second (mirror) copy of a direct write.
    MirrorCopy,
    /// A read/write redirected to the surviving partner of a failed
    /// disk.
    DegradedRedirect,
}

impl LegFlavor {
    /// The phase the transfer slice of a leg with this flavor lands in.
    pub fn phase(self) -> Phase {
        match self {
            LegFlavor::Transfer => Phase::Transfer,
            LegFlavor::LogAppend => Phase::LogAppend,
            LegFlavor::MirrorCopy => Phase::MirrorCopy,
            LegFlavor::DegradedRedirect => Phase::DegradedRedirect,
        }
    }
}

/// One typed slice of a leg's time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PhaseSlice {
    /// Which phase this slice belongs to.
    pub phase: Phase,
    /// Length of the slice.
    pub duration: Duration,
}

/// A leg's phase slices, stored inline: at most [`MAX_LEG_SLICES`],
/// so a leg needs no allocation of its own. Derefs to `[PhaseSlice]`
/// and serializes as that JSON array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegSlices {
    len: u8,
    /// Slots from `len` on keep the value [`LegSlices::new`] put there,
    /// so the derived equality compares the slices alone.
    buf: [PhaseSlice; MAX_LEG_SLICES],
}

impl LegSlices {
    /// No slices.
    pub const fn new() -> Self {
        const UNUSED: PhaseSlice = PhaseSlice {
            phase: Phase::QueueWait,
            duration: Duration::ZERO,
        };
        LegSlices {
            len: 0,
            buf: [UNUSED; MAX_LEG_SLICES],
        }
    }

    /// Appends a slice.
    ///
    /// # Panics
    ///
    /// Panics if the leg already holds [`MAX_LEG_SLICES`] slices.
    pub fn push(&mut self, slice: PhaseSlice) {
        let len = usize::from(self.len);
        assert!(
            len < MAX_LEG_SLICES,
            "a leg holds at most {MAX_LEG_SLICES} slices"
        );
        self.buf[len] = slice;
        self.len += 1;
    }
}

impl Default for LegSlices {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for LegSlices {
    type Target = [PhaseSlice];

    fn deref(&self) -> &[PhaseSlice] {
        &self.buf[..usize::from(self.len)]
    }
}

impl FromIterator<PhaseSlice> for LegSlices {
    fn from_iter<I: IntoIterator<Item = PhaseSlice>>(iter: I) -> Self {
        let mut out = LegSlices::new();
        for slice in iter {
            out.push(slice);
        }
        out
    }
}

impl Serialize for LegSlices {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// One sub-I/O of a user request: its interval on one disk, decomposed
/// into phase slices laid out contiguously from `submit` to `end`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanLeg {
    /// Disk-level I/O id.
    pub io: u64,
    /// Disk that served it.
    pub disk: DiskId,
    /// When the controller submitted it.
    pub submit: SimTime,
    /// When its media transfer began.
    pub start: SimTime,
    /// When it completed.
    pub end: SimTime,
    /// Typed slices in temporal order; they sum to `end − submit`.
    pub slices: LegSlices,
    /// Id of the [`BgSpan`] whose transfer delayed this leg, if any.
    pub delayed_by: Option<u64>,
}

impl SpanLeg {
    /// Sum of the slice durations (equals `end − submit`).
    pub fn total(&self) -> Duration {
        self.slices.iter().map(|s| s.duration).sum()
    }
}

/// A completed user request: its end-to-end interval plus the legs the
/// controller fanned it out into.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestSpan {
    /// Trace-order user request id.
    pub id: u64,
    /// Read or write, as recorded in the trace.
    pub kind: ReqKind,
    /// Admission instant.
    pub begin: SimTime,
    /// Completion instant (of the last leg).
    pub end: SimTime,
    /// Sub-I/O legs, in submission order.
    pub legs: Vec<SpanLeg>,
}

impl RequestSpan {
    /// End-to-end response time.
    pub fn duration(&self) -> Duration {
        self.end.since(self.begin)
    }

    /// Checks the structural invariants the span machinery promises:
    /// `end ≥ begin`, every leg interval nested within the span
    /// (`begin ≤ submit ≤ start ≤ end_leg ≤ end`), and each leg's
    /// slices summing exactly to its interval.
    pub fn validate(&self) -> Result<(), String> {
        if self.end < self.begin {
            return Err(format!(
                "span {}: end {} < begin {}",
                self.id, self.end, self.begin
            ));
        }
        for leg in &self.legs {
            if leg.submit < self.begin
                || leg.end > self.end
                || leg.start < leg.submit
                || leg.end < leg.start
            {
                return Err(format!(
                    "span {}: leg {} [{}, {}, {}] not nested in [{}, {}]",
                    self.id, leg.io, leg.submit, leg.start, leg.end, self.begin, self.end
                ));
            }
            let sum = leg.total();
            let interval = leg.end.since(leg.submit);
            if sum != interval {
                return Err(format!(
                    "span {}: leg {} slices sum to {sum} but cover {interval}",
                    self.id, leg.io
                ));
            }
        }
        Ok(())
    }
}

/// What kind of background activity a [`BgSpan`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BgSpanKind {
    /// A destage cycle (log contents moved to home locations).
    Destage,
    /// A degraded-mode rebuild onto a hot spare.
    Rebuild,
    /// A compaction pass (live records relocated out of mostly-dead
    /// log segments, folded into destage idle-slots).
    Compaction,
    /// An integrity-scrub chunk (a latent-sector-error sweep reading
    /// extents sequentially during idle slots).
    Scrub,
}

/// A background activity span: a destage cycle or a rebuild, with links
/// to the foreground requests it delayed (the parent/child causality
/// edge of the span tree).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BgSpan {
    /// Collector-assigned span id (referenced by [`SpanLeg::delayed_by`]).
    pub id: u64,
    /// Destage or rebuild.
    pub kind: BgSpanKind,
    /// When the activity started.
    pub begin: SimTime,
    /// When it finished (`None` if still open at end of run).
    pub end: Option<SimTime>,
    /// User request ids whose legs were delayed behind this activity's
    /// transfers.
    pub delayed: Vec<u64>,
}

/// A request span still in flight, with the number of its tagged legs
/// not yet recorded.
#[derive(Debug)]
struct OpenSpan {
    span: RequestSpan,
    pending_legs: usize,
}

/// Accumulates spans during a run: open request spans keyed by user id,
/// sub-I/O tags keyed by disk-level I/O id, and open background spans
/// keyed per disk so interference can be linked to its cause.
///
/// Every key is an id the simulator allocates, so the maps hash with
/// [`IoMap`]'s multiply hasher rather than SipHash. A finished span's
/// `legs` is sized to its leg count: the tags a request collected before
/// its first leg completes say how many legs to make room for.
///
/// The collector is only ever touched when span recording is on; the
/// simulation itself never reads it, so it cannot perturb outcomes.
#[derive(Debug, Default)]
pub struct SpanCollector {
    open: IoMap<OpenSpan>,
    io_tags: IoMap<(u64, LegFlavor)>,
    finished: Vec<RequestSpan>,
    bg_open: IoMap<BgSpan>,
    bg_finished: Vec<BgSpan>,
    /// Id of the background span currently active on each disk, indexed
    /// by disk (grown on demand).
    bg_by_disk: Vec<Option<u64>>,
    next_bg_id: u64,
}

impl SpanCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span for user request `id` admitted at `at`.
    pub fn open_request(&mut self, id: u64, kind: ReqKind, at: SimTime) {
        self.open.insert(
            id,
            OpenSpan {
                span: RequestSpan {
                    id,
                    kind,
                    begin: at,
                    end: at,
                    legs: Vec::new(),
                },
                pending_legs: 0,
            },
        );
    }

    /// Declares that disk-level I/O `io` belongs to user request `user`
    /// and what its transfer is for. Controllers call this right after
    /// submitting each foreground sub-I/O.
    pub fn tag_io(&mut self, io: u64, user: u64, flavor: LegFlavor) {
        self.io_tags.insert(io, (user, flavor));
        if let Some(open) = self.open.get_mut(&user) {
            open.pending_legs += 1;
        }
    }

    /// Drops the tag of an aborted I/O (e.g. lost to a disk failure).
    pub fn untag_io(&mut self, io: u64) {
        if let Some((user, _)) = self.io_tags.remove(&io) {
            if let Some(open) = self.open.get_mut(&user) {
                open.pending_legs = open.pending_legs.saturating_sub(1);
            }
        }
    }

    /// Records a completed sub-I/O leg from the disk's breakdown. No-op
    /// for I/Os that were never tagged (background work).
    pub fn record_leg(&mut self, io: u64, disk: DiskId, b: &ServiceBreakdown) {
        let Some((user, flavor)) = self.io_tags.remove(&io) else {
            return;
        };
        let Some(open) = self.open.get_mut(&user) else {
            return;
        };
        let mut slices = LegSlices::new();
        let mut push = |phase: Phase, d: Duration| {
            if !d.is_zero() {
                slices.push(PhaseSlice { phase, duration: d });
            }
        };
        // Interference is typed by its cause: waiting behind a
        // compaction transfer lands in `Compaction`, behind a scrub
        // chunk in `ScrubInterference`, everything else (destage,
        // rebuild) in `DestageInterference` — so the background
        // activities stay separable in the attribution table while
        // their sum remains conserved.
        let bg_id = if b.bg_interference.is_zero() {
            None
        } else {
            self.bg_by_disk.get(disk).copied().flatten()
        };
        let interference_phase = match bg_id.and_then(|i| self.bg_open.get(&i)) {
            Some(bg) if bg.kind == BgSpanKind::Compaction => Phase::Compaction,
            Some(bg) if bg.kind == BgSpanKind::Scrub => Phase::ScrubInterference,
            _ => Phase::DestageInterference,
        };
        // Temporal order: the spindle comes up first, then the media
        // drains background + earlier foreground work, then this
        // transfer positions and runs.
        push(Phase::SpinUpStall, b.spinup_stall);
        push(interference_phase, b.bg_interference);
        push(Phase::QueueWait, b.queue_wait());
        push(Phase::Seek, b.seek);
        push(Phase::Rotation, b.rotation);
        push(flavor.phase(), b.transfer);
        let delayed_by = bg_id;
        if let Some(bg) = bg_id.and_then(|i| self.bg_open.get_mut(&i)) {
            bg.delayed.push(user);
        }
        // Room for this leg and every other tagged one still in flight.
        open.span.legs.reserve_exact(open.pending_legs);
        open.pending_legs = open.pending_legs.saturating_sub(1);
        open.span.legs.push(SpanLeg {
            io,
            disk,
            submit: b.submit,
            start: b.start,
            end: b.end,
            slices,
            delayed_by,
        });
    }

    /// Closes the span of user request `id` at its completion instant
    /// and moves it to the finished list, returning a view of the
    /// finished span (e.g. for online per-phase telemetry).
    pub fn close_request(&mut self, id: u64, at: SimTime) -> Option<&RequestSpan> {
        let mut span = self.open.remove(&id)?.span;
        span.end = at;
        self.finished.push(span);
        self.finished.last()
    }

    /// Opens a background span of `kind` covering `disks`, returning its
    /// id. Foreground legs that report interference on one of these
    /// disks while the span is open link to it.
    pub fn begin_bg(&mut self, kind: BgSpanKind, disks: &[DiskId], at: SimTime) -> u64 {
        let id = self.next_bg_id;
        self.next_bg_id += 1;
        self.bg_open.insert(
            id,
            BgSpan {
                id,
                kind,
                begin: at,
                end: None,
                delayed: Vec::new(),
            },
        );
        for &d in disks {
            if d >= self.bg_by_disk.len() {
                self.bg_by_disk.resize(d + 1, None);
            }
            self.bg_by_disk[d] = Some(id);
        }
        id
    }

    /// Closes background span `bg` at `at`.
    pub fn end_bg(&mut self, bg: u64, at: SimTime) {
        if let Some(mut span) = self.bg_open.remove(&bg) {
            span.end = Some(at);
            self.bg_finished.push(span);
        }
        for active in &mut self.bg_by_disk {
            if *active == Some(bg) {
                *active = None;
            }
        }
    }

    /// Consumes the collector, returning finished request spans (in
    /// completion order) and background spans (still-open background
    /// spans are closed with `end = None` left in place). Requests that
    /// never completed (e.g. lost to injected faults) are dropped.
    pub fn into_finished(mut self) -> (Vec<RequestSpan>, Vec<BgSpan>) {
        let mut bg = std::mem::take(&mut self.bg_finished);
        let mut open: Vec<BgSpan> = self.bg_open.into_values().collect();
        open.sort_by_key(|s| s.id);
        bg.extend(open);
        (self.finished, bg)
    }
}

/// Per-request critical-path attribution: how much of the span's
/// duration each phase explains, plus any unattributed remainder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathAttribution {
    /// Microseconds attributed to each phase (indexed by
    /// [`Phase::index`]).
    pub phase_us: [u64; NUM_PHASES],
    /// Microseconds of the span not covered by any leg.
    pub unattributed_us: u64,
    /// Span duration in microseconds.
    pub total_us: u64,
}

impl PathAttribution {
    /// Attributed microseconds summed over all phases.
    pub fn attributed_us(&self) -> u64 {
        self.phase_us.iter().sum()
    }
}

/// The phase holding the most time in `phase_us` (indexed by
/// [`Phase::index`]), or `None` when nothing was attributed. Ties go to
/// the earlier phase in [`Phase::ALL`] order, so every export names the
/// same dominant phase for the same totals.
pub fn dominant_phase(phase_us: &[u64; NUM_PHASES]) -> Option<Phase> {
    let (i, &us) = phase_us
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))?;
    (us > 0).then(|| Phase::ALL[i])
}

/// Folds one finished span into per-phase totals along its critical
/// path.
///
/// Walks backwards from the span's completion: at each point the leg
/// that was still running latest is charged (its slices, in temporal
/// order, clipped to the walked interval), then the walk jumps to that
/// leg's submission instant. Gaps no leg covers become
/// `unattributed_us`. For legs nested within the span the output
/// satisfies `attributed + unattributed == total` exactly.
pub fn critical_path(span: &RequestSpan) -> PathAttribution {
    let mut out = PathAttribution {
        total_us: span.duration().as_micros(),
        ..Default::default()
    };
    let mut cursor = span.end;
    while cursor > span.begin {
        // The leg that ends latest before (or spanning) the cursor.
        let best = span
            .legs
            .iter()
            .filter(|l| l.submit < cursor)
            .max_by_key(|l| (l.end.min(cursor), l.submit, l.io));
        let Some(leg) = best else {
            out.unattributed_us += cursor.since(span.begin).as_micros();
            break;
        };
        let clip_end = leg.end.min(cursor);
        // Gap between this leg's end and the cursor: nothing ran.
        out.unattributed_us += clip_end.until(cursor).as_micros();
        // Attribute the leg's slices over [submit, clip_end), forward in
        // time, clipping the tail if the cursor cut the leg short.
        let mut remaining = clip_end.since(leg.submit).as_micros();
        for slice in leg.slices.iter() {
            if remaining == 0 {
                break;
            }
            let d = slice.duration.as_micros().min(remaining);
            out.phase_us[slice.phase.index()] += d;
            remaining -= d;
        }
        out.unattributed_us += remaining;
        cursor = leg.submit.max(span.begin);
    }
    out
}

/// Aggregated critical-path statistics over a set of request spans.
///
/// Keeps, per phase, the summed attributed time and a mergeable
/// quantile sketch of per-request phase totals (only requests where the
/// phase appears), plus a sketch of whole-span durations — all in
/// microseconds, at ≤ 1 % relative error ([`QuantileSketch`]).
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Requests observed.
    pub requests: u64,
    /// Summed span durations (µs).
    pub total_us: u64,
    /// Summed unattributed remainders (µs).
    pub unattributed_us: u64,
    /// Summed per-phase attributed time (µs), by [`Phase::index`].
    pub phase_us: [u64; NUM_PHASES],
    /// Per-phase sketches of per-request phase totals (µs).
    pub phase_hist: Vec<QuantileSketch>,
    /// Sketch of whole-span durations (µs).
    pub span_hist: QuantileSketch,
}

impl Default for PhaseStats {
    fn default() -> Self {
        PhaseStats {
            requests: 0,
            total_us: 0,
            unattributed_us: 0,
            phase_us: [0; NUM_PHASES],
            phase_hist: vec![QuantileSketch::new(); NUM_PHASES],
            span_hist: QuantileSketch::new(),
        }
    }
}

impl PhaseStats {
    /// Folds one span's critical path into the aggregate.
    pub fn observe(&mut self, span: &RequestSpan) {
        let path = critical_path(span);
        self.requests += 1;
        self.total_us += path.total_us;
        self.unattributed_us += path.unattributed_us;
        for (i, &us) in path.phase_us.iter().enumerate() {
            self.phase_us[i] += us;
            if us > 0 {
                self.phase_hist[i].record(us as f64);
            }
        }
        self.span_hist.record(span.duration().as_micros() as f64);
    }

    /// Merges another aggregate into this one (fleet rollups across
    /// shards or schemes); all underlying sketches merge losslessly.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.requests += other.requests;
        self.total_us += other.total_us;
        self.unattributed_us += other.unattributed_us;
        for (i, &us) in other.phase_us.iter().enumerate() {
            self.phase_us[i] += us;
        }
        for (a, b) in self.phase_hist.iter_mut().zip(&other.phase_hist) {
            a.merge(b);
        }
        self.span_hist.merge(&other.span_hist);
    }

    /// Fraction of summed response time attributed to typed phases
    /// (1.0 when every microsecond is explained; 1.0 for zero
    /// requests).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_us == 0 {
            return 1.0;
        }
        1.0 - self.unattributed_us as f64 / self.total_us as f64
    }

    /// Share of summed response time spent in `phase`.
    pub fn share(&self, phase: Phase) -> f64 {
        if self.total_us == 0 {
            return 0.0;
        }
        self.phase_us[phase.index()] as f64 / self.total_us as f64
    }

    /// The phase with the largest attributed share, if any time was
    /// attributed at all ([`dominant_phase`]'s tie rule).
    pub fn dominant(&self) -> Option<Phase> {
        dominant_phase(&self.phase_us)
    }

    /// Serializable summary of this aggregate.
    pub fn summary(&self) -> AttributionSummary {
        let ms = |us: u64| us as f64 / 1e3;
        AttributionSummary {
            requests: self.requests,
            mean_response_ms: if self.requests == 0 {
                0.0
            } else {
                ms(self.total_us) / self.requests as f64
            },
            attributed_fraction: self.attributed_fraction(),
            p50_ms: self.span_hist.percentile(50.0).map(|us| us / 1e3),
            p95_ms: self.span_hist.percentile(95.0).map(|us| us / 1e3),
            p99_ms: self.span_hist.percentile(99.0).map(|us| us / 1e3),
            phases: Phase::ALL
                .iter()
                .map(|&p| {
                    let i = p.index();
                    PhaseShare {
                        phase: p.name(),
                        share: self.share(p),
                        mean_ms: if self.requests == 0 {
                            0.0
                        } else {
                            ms(self.phase_us[i]) / self.requests as f64
                        },
                        p95_ms: self.phase_hist[i].percentile(95.0).map(|us| us / 1e3),
                    }
                })
                .collect(),
        }
    }
}

/// Critical-path aggregates for one scheme, split by request kind.
#[derive(Debug, Clone, Default)]
pub struct SpanAnalysis {
    /// All requests.
    pub all: PhaseStats,
    /// Reads only.
    pub reads: PhaseStats,
    /// Writes only.
    pub writes: PhaseStats,
}

impl SpanAnalysis {
    /// Folds every span of a run into the aggregates.
    pub fn analyze(spans: &[RequestSpan]) -> SpanAnalysis {
        let mut a = SpanAnalysis::default();
        for s in spans {
            a.observe(s);
        }
        a
    }

    /// Folds one span into the aggregates.
    pub fn observe(&mut self, span: &RequestSpan) {
        self.all.observe(span);
        match span.kind {
            ReqKind::Read => self.reads.observe(span),
            ReqKind::Write => self.writes.observe(span),
        }
    }
}

/// One phase's row in an [`AttributionSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct PhaseShare {
    /// Phase name.
    pub phase: &'static str,
    /// Share of summed response time (0–1).
    pub share: f64,
    /// Mean attributed time per request (ms, over all requests).
    pub mean_ms: f64,
    /// p95 of per-request phase totals (ms), where the phase occurred.
    pub p95_ms: Option<f64>,
}

/// Serializable per-scheme (or per-kind) attribution summary.
#[derive(Debug, Clone, Serialize)]
pub struct AttributionSummary {
    /// Requests covered.
    pub requests: u64,
    /// Mean end-to-end response (ms).
    pub mean_response_ms: f64,
    /// Fraction of summed response time explained by typed phases.
    pub attributed_fraction: f64,
    /// Median span duration (ms).
    pub p50_ms: Option<f64>,
    /// 95th-percentile span duration (ms).
    pub p95_ms: Option<f64>,
    /// 99th-percentile span duration (ms).
    pub p99_ms: Option<f64>,
    /// Per-phase shares, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseShare>,
}

/// A finished run's span data, as returned by the traced driver entry
/// points.
#[derive(Debug, Default)]
pub struct SpanSet {
    /// Completed user request spans, in completion order.
    pub requests: Vec<RequestSpan>,
    /// Background (destage/rebuild) spans, in completion order followed
    /// by still-open spans.
    pub background: Vec<BgSpan>,
}

impl SpanSet {
    /// Validates every request span (see [`RequestSpan::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.requests {
            s.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn breakdown(
        id: u64,
        submit: u64,
        start: u64,
        end: u64,
        seek: u64,
        rotation: u64,
        stall: u64,
        interference: u64,
    ) -> ServiceBreakdown {
        let transfer = (end - start) - seek - rotation;
        ServiceBreakdown {
            id,
            background: false,
            submit: SimTime::from_micros(submit),
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(end),
            seek: Duration::from_micros(seek),
            rotation: Duration::from_micros(rotation),
            transfer: Duration::from_micros(transfer),
            spinup_stall: Duration::from_micros(stall),
            bg_interference: Duration::from_micros(interference),
        }
    }

    #[test]
    fn single_leg_span_attributes_fully() {
        let mut c = SpanCollector::new();
        c.open_request(7, ReqKind::Write, SimTime::from_micros(100));
        c.tag_io(42, 7, LegFlavor::LogAppend);
        c.record_leg(42, 3, &breakdown(42, 100, 150, 300, 0, 0, 0, 0));
        c.close_request(7, SimTime::from_micros(300));
        let (spans, _) = c.into_finished();
        assert_eq!(spans.len(), 1);
        let span = &spans[0];
        span.validate().expect("invariants hold");
        let path = critical_path(span);
        assert_eq!(path.total_us, 200);
        assert_eq!(path.unattributed_us, 0);
        assert_eq!(path.phase_us[Phase::QueueWait.index()], 50);
        assert_eq!(path.phase_us[Phase::LogAppend.index()], 150);
    }

    #[test]
    fn parallel_legs_charge_the_last_to_finish() {
        let mut c = SpanCollector::new();
        c.open_request(1, ReqKind::Write, SimTime::ZERO);
        c.tag_io(10, 1, LegFlavor::Transfer);
        c.tag_io(11, 1, LegFlavor::MirrorCopy);
        // Primary finishes at 80, mirror at 200: the mirror is critical.
        c.record_leg(10, 0, &breakdown(10, 0, 0, 80, 10, 20, 0, 0));
        c.record_leg(11, 1, &breakdown(11, 0, 120, 200, 30, 40, 0, 120));
        c.close_request(1, SimTime::from_micros(200));
        let (spans, _) = c.into_finished();
        let path = critical_path(&spans[0]);
        assert_eq!(path.total_us, 200);
        assert_eq!(path.unattributed_us, 0);
        // Only the mirror leg is on the critical path.
        assert_eq!(path.phase_us[Phase::Transfer.index()], 0);
        assert_eq!(path.phase_us[Phase::MirrorCopy.index()], 10);
        assert_eq!(path.phase_us[Phase::DestageInterference.index()], 120);
        assert_eq!(path.phase_us[Phase::Seek.index()], 30);
        assert_eq!(path.phase_us[Phase::Rotation.index()], 40);
    }

    #[test]
    fn interference_links_to_open_bg_span() {
        let mut c = SpanCollector::new();
        let bg = c.begin_bg(BgSpanKind::Destage, &[5], SimTime::ZERO);
        c.open_request(2, ReqKind::Read, SimTime::from_micros(10));
        c.tag_io(20, 2, LegFlavor::Transfer);
        c.record_leg(20, 5, &breakdown(20, 10, 60, 100, 0, 0, 0, 50));
        c.close_request(2, SimTime::from_micros(100));
        c.end_bg(bg, SimTime::from_micros(500));
        let (spans, bgs) = c.into_finished();
        assert_eq!(spans[0].legs[0].delayed_by, Some(bg));
        let bg_span = bgs.iter().find(|s| s.id == bg).unwrap();
        assert_eq!(bg_span.delayed, vec![2]);
        assert_eq!(bg_span.end, Some(SimTime::from_micros(500)));
    }

    #[test]
    fn compaction_interference_is_typed_separately() {
        let mut c = SpanCollector::new();
        let bg = c.begin_bg(BgSpanKind::Compaction, &[2], SimTime::ZERO);
        c.open_request(4, ReqKind::Read, SimTime::from_micros(10));
        c.tag_io(40, 4, LegFlavor::Transfer);
        c.record_leg(40, 2, &breakdown(40, 10, 60, 100, 0, 0, 0, 50));
        c.close_request(4, SimTime::from_micros(100));
        c.end_bg(bg, SimTime::from_micros(200));
        let (spans, bgs) = c.into_finished();
        let path = critical_path(&spans[0]);
        assert_eq!(path.phase_us[Phase::Compaction.index()], 50);
        assert_eq!(path.phase_us[Phase::DestageInterference.index()], 0);
        assert_eq!(spans[0].legs[0].delayed_by, Some(bg));
        let bg_span = bgs.iter().find(|s| s.id == bg).unwrap();
        assert_eq!(bg_span.delayed, vec![4]);
    }

    #[test]
    fn gap_between_chained_legs_is_unattributed() {
        // Leg 2 starts after leg 1 ends with a 40 µs think-time gap.
        let mut c = SpanCollector::new();
        c.open_request(3, ReqKind::Write, SimTime::ZERO);
        c.tag_io(30, 3, LegFlavor::Transfer);
        c.tag_io(31, 3, LegFlavor::Transfer);
        c.record_leg(30, 0, &breakdown(30, 0, 0, 100, 0, 0, 0, 0));
        c.record_leg(31, 1, &breakdown(31, 140, 140, 220, 0, 0, 0, 0));
        c.close_request(3, SimTime::from_micros(220));
        let (spans, _) = c.into_finished();
        let path = critical_path(&spans[0]);
        assert_eq!(path.unattributed_us, 40);
        assert_eq!(path.attributed_us(), 180);
        assert_eq!(path.attributed_us() + path.unattributed_us, path.total_us);
    }

    #[test]
    fn analysis_aggregates_shares() {
        let mut c = SpanCollector::new();
        for id in 0..10u64 {
            c.open_request(
                id,
                if id % 2 == 0 {
                    ReqKind::Read
                } else {
                    ReqKind::Write
                },
                SimTime::ZERO,
            );
            c.tag_io(100 + id, id, LegFlavor::Transfer);
            c.record_leg(
                100 + id,
                0,
                &breakdown(100 + id, 0, 500, 1000, 100, 200, 0, 0),
            );
            c.close_request(id, SimTime::from_micros(1000));
        }
        let (spans, _) = c.into_finished();
        let a = SpanAnalysis::analyze(&spans);
        assert_eq!(a.all.requests, 10);
        assert_eq!(a.reads.requests, 5);
        assert_eq!(a.writes.requests, 5);
        assert!((a.all.attributed_fraction() - 1.0).abs() < 1e-12);
        assert!((a.all.share(Phase::QueueWait) - 0.5).abs() < 1e-12);
        assert_eq!(a.all.dominant(), Some(Phase::QueueWait));
        let s = a.all.summary();
        assert_eq!(s.requests, 10);
        assert!((s.mean_response_ms - 1.0).abs() < 1e-9);
        assert!(s.p95_ms.is_some());
    }

    #[test]
    fn dominant_phase_ties_go_to_the_earlier_phase() {
        let mut us = [0u64; NUM_PHASES];
        assert_eq!(dominant_phase(&us), None);
        us[Phase::Rotation.index()] = 7;
        us[Phase::SpinUpStall.index()] = 7;
        assert_eq!(dominant_phase(&us), Some(Phase::Rotation));
        us[Phase::SpinUpStall.index()] = 8;
        assert_eq!(dominant_phase(&us), Some(Phase::SpinUpStall));
    }

    #[test]
    fn legs_are_sized_to_the_tagged_leg_count() {
        let mut c = SpanCollector::new();
        c.open_request(5, ReqKind::Write, SimTime::ZERO);
        c.tag_io(50, 5, LegFlavor::LogAppend);
        c.tag_io(51, 5, LegFlavor::MirrorCopy);
        c.record_leg(50, 0, &breakdown(50, 0, 0, 100, 10, 20, 0, 0));
        c.record_leg(51, 1, &breakdown(51, 0, 0, 120, 10, 20, 0, 0));
        c.close_request(5, SimTime::from_micros(120));
        let (spans, _) = c.into_finished();
        assert_eq!(spans[0].legs.len(), 2);
        assert_eq!(spans[0].legs.capacity(), 2);
    }

    #[test]
    fn inline_slices_serialize_as_a_json_array() {
        let slices = [
            PhaseSlice {
                phase: Phase::Seek,
                duration: Duration::from_micros(3),
            },
            PhaseSlice {
                phase: Phase::Transfer,
                duration: Duration::from_micros(7),
            },
        ];
        let inline: LegSlices = slices.into_iter().collect();
        assert_eq!(
            serde_json::to_string(&inline).unwrap(),
            serde_json::to_string(&slices.to_vec()).unwrap()
        );
    }

    #[test]
    fn lost_requests_are_dropped() {
        let mut c = SpanCollector::new();
        c.open_request(9, ReqKind::Write, SimTime::ZERO);
        c.tag_io(90, 9, LegFlavor::Transfer);
        c.untag_io(90);
        let (spans, _) = c.into_finished();
        assert!(spans.is_empty(), "never-completed span must not leak");
    }
}
