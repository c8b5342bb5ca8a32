#![warn(missing_docs)]
//! Observability layer for the RoLo simulator: typed trace events, trace
//! sinks, request spans, windowed telemetry with SLO alerting and RCA,
//! the quantile sketch and wall-clock run profiling.
//!
//! The simulator core stays agnostic of *how* events are consumed: every
//! instrumented layer (driver, controllers, fault injection, rebuild)
//! emits [`SimEvent`]s into a [`TraceSink`] owned by the simulation
//! context. The default sink is [`NullSink`], so an untraced run pays a
//! single predicted branch per emit point and never constructs the event
//! value. Swapping in a [`RingSink`] captures the most recent events in a
//! bounded ring buffer for post-mortem analysis (see `inspect dump` in
//! `rolo-bench`).
//!
//! Alongside the event stream, the [`Telemetry`] hub holds the run's
//! named series (counters, gauges and quantile sketches) in fixed
//! simulated-time windows. Nothing recorded here reaches the simulation
//! report, so a run traced with a `RingSink` produces byte-identical
//! results to an untraced run. Wall-clock profiling ([`RunProfile`]) is
//! the one deliberately non-deterministic part and is excluded from
//! deterministic serializations.

pub mod event;
pub mod exemplar;
pub mod profile;
pub mod rca;
pub mod sink;
pub mod sketch;
pub mod slo;
pub mod span;
pub mod timeline;
pub mod timeseries;

pub use event::{SimEvent, SloBreach, SloBurnWarning, TracedEvent};
pub use exemplar::{
    ranks_before, slowest_spans, ExemplarRecorder, ExemplarSet, ExemplarSpan, WindowExemplars,
};
pub use profile::RunProfile;
pub use rca::{Culprit, PhaseBlame, RcaReport, WindowRca};
pub use sink::{NullSink, RingSink, SlowestSpans, TraceSink};
pub use sketch::{QuantileSketch, SketchDigest};
pub use slo::{
    BurnRatePolicy, Quantile, SloAlert, SloMonitor, SloObjective, SloSignal, SloSpec,
    WindowObservation,
};
pub use span::{
    critical_path, dominant_phase, AttributionSummary, BgSpan, BgSpanKind, LegFlavor, LegSlices,
    PathAttribution, Phase, PhaseShare, PhaseSlice, PhaseStats, RequestSpan, SpanAnalysis,
    SpanCollector, SpanLeg, SpanSet, NUM_PHASES,
};
pub use timeline::Timeline;
pub use timeseries::{
    ClosedWindow, RollupValue, SeriesId, SeriesKind, SeriesSnapshot, Telemetry, TelemetrySnapshot,
    WindowRollup,
};
