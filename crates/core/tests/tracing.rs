//! Observability-layer integration tests: the trace sink sees the
//! lifecycle events DESIGN.md §9 promises, in time order, without ever
//! perturbing the simulation itself.

use rolo_core::{run_scheme_observed, FaultPlan, Scheme, SimConfig};
use rolo_obs::{NullSink, Phase, RequestSpan, RingSink, SimEvent, TraceSink, TracedEvent};
use rolo_sim::{Duration, SimTime};
use rolo_trace::{ReqKind, SyntheticConfig, TraceRecord};

/// A ring sink that also keeps every request span it is offered.
#[derive(Debug)]
struct RingKeepingSpans {
    ring: RingSink,
    spans: Vec<RequestSpan>,
}

impl TraceSink for RingKeepingSpans {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at: SimTime, event: SimEvent) {
        self.ring.record(at, event);
    }

    fn drain(&mut self) -> Vec<TracedEvent> {
        self.ring.drain()
    }

    fn span(&mut self, span: &RequestSpan) {
        self.spans.push(span.clone());
    }

    fn take_spans(&mut self) -> Vec<RequestSpan> {
        std::mem::take(&mut self.spans)
    }

    fn name(&self) -> &'static str {
        "ring"
    }
}

fn small_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, 4);
    cfg.disk.capacity_bytes = 256 << 20;
    cfg.logger_region = 32 << 20;
    cfg.graid_log_capacity = 64 << 20;
    cfg
}

fn traced_run(cfg: &SimConfig, iops: f64, secs: u64, capacity: usize) -> Vec<TracedEvent> {
    let dur = Duration::from_secs(secs);
    let wl = SyntheticConfig::motivation_write_only(iops);
    let (report, mut obs) = run_scheme_observed(
        cfg,
        wl.generator(dur, 3),
        dur,
        Box::new(RingSink::new(capacity)),
        false,
    );
    report.consistency.as_ref().expect("consistent");
    obs.sink.drain()
}

fn kinds(events: &[TracedEvent]) -> Vec<&'static str> {
    events.iter().map(|e| e.event.kind_name()).collect()
}

#[test]
fn null_and_ring_sinks_produce_identical_reports() {
    let dur = Duration::from_secs(600);
    let wl = SyntheticConfig::motivation_write_only(40.0);
    for scheme in Scheme::all() {
        let cfg = small_cfg(scheme);
        let (null_report, _) =
            run_scheme_observed(&cfg, wl.generator(dur, 9), dur, Box::new(NullSink), false);
        let (ring_report, obs) = run_scheme_observed(
            &cfg,
            wl.generator(dur, 9),
            dur,
            Box::new(RingSink::new(1 << 20)),
            false,
        );
        assert!(obs.sink.recorded() > 0, "{scheme}: nothing recorded");
        assert_eq!(
            null_report.deterministic_json(),
            ring_report.deterministic_json(),
            "{scheme}: tracing changed the outcome"
        );
    }
}

#[test]
fn rolo_p_lifecycle_events_are_present_and_time_ordered() {
    // Small logger + sustained writes force rotations and destages.
    let events = traced_run(&small_cfg(Scheme::RoloP), 40.0, 600, 1 << 20);
    let seen = kinds(&events);
    for expected in [
        "RequestArrive",
        "RequestDispatch",
        "RequestComplete",
        "DiskInit",
        "DiskState",
        "LoggerRotation",
        "DestageStart",
        "DestageEnd",
        "TraceEnded",
    ] {
        assert!(seen.contains(&expected), "missing {expected} in {:?}", {
            let mut u = seen.clone();
            u.sort_unstable();
            u.dedup();
            u
        });
    }
    assert!(
        events.windows(2).all(|w| w[0].at <= w[1].at),
        "events out of time order"
    );
}

#[test]
fn ring_sink_bounds_memory_and_counts_drops() {
    let capacity = 512;
    let events = traced_run(&small_cfg(Scheme::RoloP), 40.0, 600, capacity);
    assert_eq!(events.len(), capacity, "ring must fill to capacity");
    // The oldest events were overwritten: the retained window starts
    // late in the run, not at time zero.
    assert!(events[0].at.as_micros() > 0, "oldest events not dropped");
}

#[test]
fn fault_run_emits_failure_and_rebuild_milestones() {
    let mut cfg = small_cfg(Scheme::RoloP);
    cfg.faults.disk_failures = vec![(1, Duration::from_secs(120))];
    let events = traced_run(&cfg, 40.0, 600, 1 << 20);
    let seen = kinds(&events);
    for expected in [
        "FaultScheduled",
        "DiskFailed",
        "RebuildStarted",
        "RebuildCompleted",
    ] {
        assert!(seen.contains(&expected), "missing {expected}");
    }
    let failed = events
        .iter()
        .find_map(|e| match &e.event {
            SimEvent::DiskFailed { disk, .. } => Some(*disk),
            _ => None,
        })
        .expect("disk_failed present");
    assert_eq!(failed, 1);
}

/// Every scheme counts, emits and flavors a read routed away from a
/// degraded slot the same way (DESIGN.md §8): pair 0's primary dies at
/// 1 s and one read of pair 0 arrives 1 ms later, mid-rebuild (a miss
/// of RoLo-E's cold read cache).
#[test]
fn a_read_of_a_degraded_primary_is_redirected_once_under_every_scheme() {
    let dur = Duration::from_secs(2);
    for scheme in Scheme::all() {
        let mut cfg = small_cfg(scheme);
        cfg.faults = FaultPlan::single(0, Duration::from_secs(1));
        let mirror = cfg.geometry().expect("geometry").mirror_disk(0);
        let read = TraceRecord::new(SimTime::from_millis(1_001), ReqKind::Read, 0, 4096);
        let sink = Box::new(RingKeepingSpans {
            ring: RingSink::new(1 << 16),
            spans: Vec::new(),
        });
        let (report, mut obs) = run_scheme_observed(&cfg, [read], dur, sink, true);
        report
            .consistency
            .as_ref()
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(report.faults.reads_redirected, 1, "{scheme}: counted");
        let redirects: Vec<_> = obs
            .sink
            .drain()
            .into_iter()
            .filter_map(|e| match e.event {
                SimEvent::ReadRedirected { from, to } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(redirects, [(0, mirror)], "{scheme}: emitted");
        assert_eq!(obs.spans.expect("spans on").requests.len(), 1);
        let spans = obs.sink.take_spans();
        let legs: Vec<_> = spans.iter().flat_map(|r| &r.legs).collect();
        assert_eq!(legs.len(), 1, "{scheme}: one leg");
        assert_eq!(legs[0].disk, mirror, "{scheme}: served by the mirror");
        let flavored = legs[0]
            .slices
            .iter()
            .any(|s| s.phase == Phase::DegradedRedirect);
        assert!(flavored, "{scheme}: flavored");
    }
}
