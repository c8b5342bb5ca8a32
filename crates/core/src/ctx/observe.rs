//! The observer: everything a run records about itself — the trace
//! sink, per-request spans, background spans, the telemetry hub with
//! its SLO monitor, and tail exemplars. The simulation never reads any
//! of it, so switching a part on or off leaves the report unchanged.
//!
//! [`Observer`] is the field group; the `impl SimCtx` block below holds
//! the hooks controllers call ([`SimCtx::emit`], [`SimCtx::tag_io`],
//! [`SimCtx::bg_span_begin`], …) and the driver's one hand-off,
//! [`SimCtx::take_observations`].

use super::SimCtx;
use crate::config::SimConfig;
use rolo_disk::{Disk, DiskId, PowerState};
use rolo_obs::{critical_path, BgSpanKind, LegFlavor, SpanCollector, SpanSet, NUM_PHASES};
use rolo_obs::{ExemplarRecorder, ExemplarSet, NullSink, RcaReport, SimEvent, TraceSink};
use rolo_obs::{
    Phase, RollupValue, SeriesId, SloAlert, SloMonitor, SloSignal, Telemetry, TelemetrySnapshot,
    WindowObservation,
};
use rolo_sim::{Duration, SimTime};
use rolo_trace::ReqKind;
use std::collections::HashMap;

/// Everything a run observed out-of-band of its report: the trace sink,
/// per-request spans (when enabled), the telemetry snapshot (when
/// enabled) and every SLO alert raised online. All of it is
/// observational — none of it feeds back into the simulation — so the
/// report stays byte-identical no matter which parts are on.
#[derive(Debug)]
pub struct RunObservations {
    /// The trace sink handed in by the caller, for draining.
    pub sink: Box<dyn TraceSink>,
    /// Completed request/background spans, when span recording was on.
    pub spans: Option<SpanSet>,
    /// Retained telemetry windows, when telemetry was on.
    pub telemetry: Option<TelemetrySnapshot>,
    /// SLO alerts raised during the run, in emission order.
    pub slo_alerts: Vec<SloAlert>,
    /// Windowed tail exemplars (the top-k slowest spans per telemetry
    /// window, DESIGN.md §14), when capture was on. Empty unless span
    /// recording also ran — the recorder needs finished spans.
    pub exemplars: Option<ExemplarSet>,
    /// Root-cause attribution of every SLO alert window, when
    /// [`crate::SimConfig::rca_enabled`].
    pub rca: Option<RcaReport>,
}

/// The observer's field group.
#[derive(Debug)]
pub(super) struct Observer {
    /// Trace sink every instrumented layer emits into ([`NullSink`] by
    /// default).
    tracer: Box<dyn TraceSink>,
    /// Cached `tracer.enabled()`: the only cost tracing adds to an
    /// untraced hot path is this one branch per emit point.
    trace_on: bool,
    /// Per-request span collector, present only when span recording was
    /// enabled ([`SimCtx::enable_spans`]).
    spans: Option<SpanCollector>,
    /// Open background span ids, keyed by kind and the activity's unit
    /// (see [`SimCtx::bg_span_begin`]).
    bg_spans: HashMap<(BgSpanKind, Option<usize>), u64>,
    /// Online telemetry hub + SLO monitor, present only when
    /// `SimConfig::telemetry_enabled`. It schedules no events of its own
    /// (windows advance on the existing power-sampling hook), so
    /// enabling or disabling it cannot perturb outcomes.
    telemetry: Option<CtxTelemetry>,
    /// Every SLO alert raised this run, in emission order.
    slo_alerts: Vec<SloAlert>,
}

/// The context's half of the telemetry pipeline: the windowed rollup
/// hub, pre-registered series ids for every emit point, and the SLO
/// monitor fed by each closed window.
#[derive(Debug)]
struct CtxTelemetry {
    hub: Telemetry,
    monitor: SloMonitor,
    /// Response-time quantile series (µs) — the series SLO latency
    /// objectives read.
    response_us: SeriesId,
    /// Array power gauge (W) — the series energy budgets read.
    power_w: SeriesId,
    /// Completed user requests per window.
    completions: SeriesId,
    /// Dispatched bytes per window.
    dispatched_bytes: SeriesId,
    /// Per-disk power-state transitions, indexed by slot.
    disk_transitions: Vec<SeriesId>,
    /// Per-span-phase critical-path microseconds (populated only when
    /// span recording is also on), indexed by `Phase::index()`.
    phase_us: [SeriesId; NUM_PHASES],
    /// Windowed top-k tail-exemplar recorder (DESIGN.md §14), present
    /// when `SimConfig::exemplars_per_window > 0`. Like the phase
    /// series it only observes anything when span recording is also
    /// on, and it rides the telemetry window clock.
    exemplars: Option<ExemplarRecorder>,
}

impl Observer {
    pub(super) fn new(cfg: &SimConfig, disk_count: usize, sink: Box<dyn TraceSink>) -> Self {
        let telemetry = cfg.telemetry_enabled.then(|| {
            let mut hub = Telemetry::new(cfg.telemetry_window, cfg.telemetry_retain);
            let response_us = hub.quantile("sim.response_us");
            let power_w = hub.gauge("sim.power_w");
            let completions = hub.counter("sim.user_completions");
            let dispatched_bytes = hub.counter("io.dispatched_bytes");
            let disk_transitions = (0..disk_count)
                .map(|d| hub.counter(&format!("disk.{d:02}.state_transitions")))
                .collect();
            let phase_us =
                Phase::ALL.map(|p| hub.counter(&format!("phase.{}.critical_path_us", p.name())));
            let exemplars = (cfg.exemplars_per_window > 0).then(|| {
                ExemplarRecorder::new(
                    cfg.exemplars_per_window,
                    cfg.telemetry_window,
                    cfg.telemetry_retain,
                )
            });
            CtxTelemetry {
                hub,
                monitor: SloMonitor::new(cfg.slo_burn, cfg.slos.clone()),
                response_us,
                power_w,
                completions,
                dispatched_bytes,
                disk_transitions,
                phase_us,
                exemplars,
            }
        });
        Observer {
            trace_on: sink.enabled(),
            tracer: sink,
            spans: None,
            bg_spans: HashMap::new(),
            telemetry,
            slo_alerts: Vec::new(),
        }
    }

    /// True when span recording is on (a hot spare must inherit it).
    pub(super) fn spans_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Counts `bytes` dispatched to a disk.
    #[inline]
    pub(super) fn on_dispatch(&mut self, bytes: u64) {
        if let Some(tel) = &mut self.telemetry {
            tel.hub.add(tel.dispatched_bytes, bytes as f64);
        }
    }

    /// Counts one power-state transition of `disk`.
    #[inline]
    pub(super) fn on_transition(&mut self, disk: DiskId) {
        if let Some(tel) = &mut self.telemetry {
            tel.hub.add(tel.disk_transitions[disk], 1.0);
        }
    }

    /// Files the service breakdown of the transfer `disk` just finished
    /// under its request's span.
    #[inline]
    pub(super) fn on_leg(&mut self, disk: &mut Disk) {
        if let Some(s) = &mut self.spans {
            if let Some(b) = disk.take_breakdown() {
                s.record_leg(b.id, disk.id(), &b);
            }
        }
    }

    /// Opens the span of a newly admitted user request.
    #[inline]
    pub(super) fn on_admit(&mut self, user_id: u64, kind: ReqKind, arrival: SimTime) {
        if let Some(s) = &mut self.spans {
            s.open_request(user_id, kind, arrival);
        }
    }

    /// Closes `user_id`'s span at `now` and feeds the completion to
    /// telemetry: its response time, its critical-path phase split and,
    /// when capture is on, the tail-exemplar recorder, which stamps the
    /// power states (`power`) of the disks the span touched.
    pub(super) fn on_complete(
        &mut self,
        now: SimTime,
        user_id: u64,
        response: Duration,
        power: &[PowerState],
    ) {
        let span = self
            .spans
            .as_mut()
            .and_then(|s| s.close_request(user_id, now));
        let Some(tel) = &mut self.telemetry else {
            return;
        };
        let path = span.map(|span| {
            let path = critical_path(span);
            if let Some(rec) = &mut tel.exemplars {
                rec.observe(now, span, &path, power);
            }
            path
        });
        tel.hub.add(tel.completions, 1.0);
        tel.hub
            .observe(tel.response_us, response.as_micros() as f64);
        if let Some(path) = path {
            for (i, &us) in path.phase_us.iter().enumerate() {
                if us > 0 {
                    tel.hub.add(tel.phase_us[i], us as f64);
                }
            }
        }
    }
}

impl SimCtx {
    /// Switches per-request span recording on: every disk starts
    /// stamping [`rolo_disk::ServiceBreakdown`]s and the context opens a
    /// [`SpanCollector`] that follows each user request from admission
    /// ([`SimCtx::register_user`]) to completion
    /// ([`SimCtx::user_sub_done`]). Off by default; recording never
    /// feeds back into the simulation, so a spanned run produces the
    /// same [`crate::report::SimReport`] as an unspanned one.
    pub fn enable_spans(&mut self) {
        for d in &mut self.disks {
            d.set_record_breakdown(true);
        }
        self.obs.spans = Some(SpanCollector::new());
    }

    /// Declares that sub-request `io` serves user request `user` and
    /// what its transfer is for. Controllers call this right after each
    /// foreground [`SimCtx::submit`]; background I/O stays untagged.
    /// No-op unless span recording is on.
    #[inline]
    pub fn tag_io(&mut self, io: u64, user: u64, flavor: LegFlavor) {
        if let Some(s) = &mut self.obs.spans {
            s.tag_io(io, user, flavor);
        }
    }

    /// Drops the span tag of an aborted sub-request (its completion
    /// will never be observed). No-op unless span recording is on.
    #[inline]
    pub fn untag_io(&mut self, io: u64) {
        if let Some(s) = &mut self.obs.spans {
            s.untag_io(io);
        }
    }

    /// Opens a background span of `kind` covering `disks`, keyed by
    /// `(kind, key)` for the matching [`SimCtx::bg_span_end`]. `key` is
    /// the activity's unit: `Some(pair)` for per-pair destage or
    /// compaction (RoLo), `None` for whole-log cycles (GRAID, PARAID,
    /// RoLo-E), the slot being rebuilt, or the disk being scrubbed.
    /// Foreground legs delayed behind the activity's transfers on those
    /// disks link to the span; a compaction span charges them to the
    /// `Compaction` phase instead of `DestageInterference`, keeping
    /// attribution conserved while separating the two background
    /// causes. No-op unless span recording is on.
    pub fn bg_span_begin(&mut self, kind: BgSpanKind, key: Option<usize>, disks: &[DiskId]) {
        if let Some(s) = &mut self.obs.spans {
            let id = s.begin_bg(kind, disks, self.now);
            self.obs.bg_spans.insert((kind, key), id);
        }
    }

    /// Closes the background span of `kind` keyed by `key`, if open.
    pub fn bg_span_end(&mut self, kind: BgSpanKind, key: Option<usize>) {
        if let Some(id) = self.obs.bg_spans.remove(&(kind, key)) {
            if let Some(s) = &mut self.obs.spans {
                s.end_bg(id, self.now);
            }
        }
    }

    /// Records a trace event at the current simulated time.
    ///
    /// The event is built lazily: with the default [`NullSink`] this
    /// costs exactly one predicted branch and the closure never runs.
    #[inline]
    pub fn emit(&mut self, event: impl FnOnce() -> SimEvent) {
        if self.obs.trace_on {
            self.obs.tracer.record(self.now, event());
        }
    }

    /// Samples the power gauge into the telemetry hub, closes every
    /// elapsed window, and feeds each closed window to the SLO monitor,
    /// emitting the resulting alerts as trace events.
    pub(super) fn telemetry_tick(&mut self, power: f64) {
        let now = self.now;
        let mut alerts = Vec::new();
        if let Some(tel) = &mut self.obs.telemetry {
            tel.hub.set(tel.power_w, power);
            if let Some(rec) = &mut tel.exemplars {
                // Keep the exemplar ring on the same window clock as
                // the telemetry hub: seal elapsed windows together.
                rec.advance(now);
            }
            for w in tel.hub.advance(now) {
                let Some(latency) = tel.hub.rollup(tel.response_us, w.window) else {
                    continue; // evicted by a coarse multi-window close
                };
                let RollupValue::Quantile(latency) = latency.value.clone() else {
                    unreachable!("response series is a quantile series");
                };
                let mean_watts = match tel.hub.rollup(tel.power_w, w.window).map(|r| &r.value) {
                    Some(RollupValue::Gauge { mean, .. }) => *mean,
                    _ => 0.0,
                };
                alerts.extend(tel.monitor.observe_window(WindowObservation {
                    window: w.window,
                    latency: &latency,
                    mean_watts,
                }));
            }
        }
        for a in &alerts {
            self.emit(|| match a.signal {
                SloSignal::Warning => SimEvent::SloBurnWarning {
                    slo: a.slo.clone(),
                    window: a.window,
                    burn_short_x100: (a.burn_short * 100.0).round() as u64,
                    burn_long_x100: (a.burn_long * 100.0).round() as u64,
                },
                SloSignal::Breach => SimEvent::SloBreach {
                    slo: a.slo.clone(),
                    window: a.window,
                    observed_x1000: (a.observed * 1000.0).round() as u64,
                    target_x1000: (a.target * 1000.0).round() as u64,
                },
            });
        }
        self.obs.slo_alerts.extend(alerts);
    }

    /// Driver hook: detaches everything the run observed — the trace
    /// sink (replaced by a [`NullSink`], so later emits are no-ops), the
    /// finished spans, the tail exemplars (sealing the open window), the
    /// SLO alerts and the telemetry snapshot — and, when `rca`,
    /// attributes every SLO alert window from them.
    pub fn take_observations(&mut self, rca: bool) -> RunObservations {
        let obs = &mut self.obs;
        obs.trace_on = false;
        let sink = std::mem::replace(&mut obs.tracer, Box::new(NullSink));
        let spans = obs.spans.take().map(|c| {
            let (requests, background) = c.into_finished();
            SpanSet {
                requests,
                background,
            }
        });
        let (telemetry, exemplars) = obs
            .telemetry
            .take()
            .map(|t| (t.hub.snapshot(), t.exemplars.map(ExemplarRecorder::finish)))
            .unzip();
        let exemplars = exemplars.flatten();
        let slo_alerts = std::mem::take(&mut obs.slo_alerts);
        let rca = rca.then(|| {
            let bg = spans.as_ref().map_or(&[][..], |s| &s.background[..]);
            let exm = exemplars
                .as_ref()
                .expect("rca_enabled implies exemplar capture (SimConfig::check)");
            rolo_obs::rca::analyze(&slo_alerts, exm, bg)
        });
        RunObservations {
            sink,
            spans,
            telemetry,
            slo_alerts,
            exemplars,
            rca,
        }
    }
}
