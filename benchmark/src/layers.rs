//! The outside-in per-layer trace: one extra replay whose controller,
//! record iterator and trace sink are wrapped in timing shims, all
//! through public functions of the simulator.
//!
//! Controller time includes the `SimCtx::submit` and disk-model work
//! each callback triggers: self time cannot be split out from outside.
//! The driver's share is the residual of the call's wall time after the
//! four per-event controller callbacks, the record iterator and the
//! sink. Counts and times are kept in memory and reported at the end.

use crate::measure::{check_report, guarded};
use crate::workload::{Input, PolicySource, PolicyUser, Workload};
use rolo_core::{run_trace_observed, Policy, PolicyStats, RunObservations, SimCtx, SimReport};
use rolo_disk::{DiskId, DiskRequest, IoOutcome};
use rolo_obs::{QuantileSketch, SimEvent, TraceSink, TracedEvent};
use rolo_sim::SimTime;
use rolo_trace::TraceRecord;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Count, total time and per-call time distribution of one kind of call.
#[derive(Debug, Default)]
struct Calls {
    n: u64,
    ns: u64,
    per_call_ns: QuantileSketch,
}

impl Calls {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.n += 1;
        self.ns += ns;
        self.per_call_ns.record(ns as f64);
        out
    }

    fn ns_at(&self, p: f64) -> f64 {
        self.per_call_ns.percentile(p).unwrap_or(0.0)
    }
}

/// Disk counters summed over the array at the end of the run.
#[derive(Debug, Clone, Copy, Default)]
struct DiskTotals {
    fg_ios: u64,
    bg_ios: u64,
    bg_bytes: u64,
    max_queue_depth: usize,
}

/// A controller whose callbacks are timed.
struct Timed<P> {
    inner: P,
    user_request: Calls,
    io_complete: Calls,
    timer: Calls,
    power: Calls,
    /// `begin_drain` and `is_drained`; the latter takes `&self`.
    drain_ns: Cell<u64>,
    /// Read in `check_consistency`, which the driver calls once, after
    /// the drain.
    disks: Cell<DiskTotals>,
}

impl<P: Policy> Timed<P> {
    fn new(inner: P) -> Self {
        Timed {
            inner,
            user_request: Calls::default(),
            io_complete: Calls::default(),
            timer: Calls::default(),
            power: Calls::default(),
            drain_ns: Cell::new(0),
            disks: Cell::new(DiskTotals::default()),
        }
    }

    fn add_drain(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.drain_ns.set(self.drain_ns.get() + ns);
    }
}

impl<P: Policy> Policy for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_standby(&self, disk: DiskId) -> bool {
        self.inner.initial_standby(disk)
    }

    fn attach(&mut self, ctx: &mut SimCtx) {
        self.inner.attach(ctx);
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        let inner = &mut self.inner;
        self.user_request
            .time(|| inner.on_user_request(ctx, user_id, rec));
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, disk: DiskId, req: DiskRequest) {
        let inner = &mut self.inner;
        self.io_complete
            .time(|| inner.on_io_complete(ctx, disk, req));
    }

    fn on_io_error(
        &mut self,
        ctx: &mut SimCtx,
        disk: DiskId,
        req: DiskRequest,
        outcome: IoOutcome,
    ) {
        let inner = &mut self.inner;
        self.io_complete
            .time(|| inner.on_io_error(ctx, disk, req, outcome));
    }

    fn on_disk_failure(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        self.inner.on_disk_failure(ctx, disk);
    }

    fn on_rebuild_complete(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        self.inner.on_rebuild_complete(ctx, disk);
    }

    fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let inner = &mut self.inner;
        self.power.time(|| inner.on_spin_up(ctx, disk));
    }

    fn on_spin_down(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let inner = &mut self.inner;
        self.power.time(|| inner.on_spin_down(ctx, disk));
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, token: u64) {
        let inner = &mut self.inner;
        self.timer.time(|| inner.on_timer(ctx, token));
    }

    fn begin_drain(&mut self, ctx: &mut SimCtx) {
        let t = Instant::now();
        self.inner.begin_drain(ctx);
        self.add_drain(t);
    }

    fn is_drained(&self, ctx: &SimCtx) -> bool {
        let t = Instant::now();
        let drained = self.inner.is_drained(ctx);
        self.add_drain(t);
        drained
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }

    fn check_consistency(&self, ctx: &SimCtx) -> Result<(), String> {
        let mut totals = DiskTotals::default();
        for disk in ctx.disks() {
            let s = disk.io_stats();
            totals.fg_ios += s.foreground_requests;
            totals.bg_ios += s.background_requests;
            totals.bg_bytes += s.background_bytes;
            totals.max_queue_depth = totals.max_queue_depth.max(s.max_queue_depth);
        }
        self.disks.set(totals);
        self.inner.check_consistency(ctx)
    }
}

/// Time spent pulling records, and host time per 500 records pulled.
#[derive(Debug, Default)]
struct Pull {
    ns: u64,
    pulled: u64,
    mark: Option<Instant>,
    us_per_500: QuantileSketch,
}

struct TimedRecords<'a> {
    inner: std::vec::IntoIter<TraceRecord>,
    pull: &'a mut Pull,
}

impl Iterator for TimedRecords<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let t = Instant::now();
        let rec = self.inner.next();
        self.pull.ns += t.elapsed().as_nanos() as u64;
        if rec.is_some() {
            if self.pull.pulled.is_multiple_of(500) {
                if let Some(prev) = self.pull.mark.replace(t) {
                    let us = t.duration_since(prev).as_secs_f64() * 1e6;
                    self.pull.us_per_500.record(us);
                }
            }
            self.pull.pulled += 1;
        }
        rec
    }
}

/// A trace sink whose `record` calls are timed. The driver owns the
/// boxed sink, so the timings are shared with the caller.
#[derive(Debug)]
struct TimedSink {
    inner: Box<dyn TraceSink>,
    calls: Rc<RefCell<Calls>>,
}

impl TraceSink for TimedSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, at: SimTime, event: SimEvent) {
        let inner = &mut self.inner;
        self.calls.borrow_mut().time(|| inner.record(at, event));
    }

    fn recorded(&self) -> u64 {
        self.inner.recorded()
    }

    fn dropped(&self) -> u64 {
        self.inner.dropped()
    }

    fn drain(&mut self) -> Vec<TracedEvent> {
        self.inner.drain()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct TracedReplay<'a> {
    input: &'a Input,
    records: TimedRecords<'a>,
    sink: Box<dyn TraceSink>,
    spans: bool,
}

/// What the traced replay hands back: the controller's timings stripped
/// of the controller type.
struct PolicyTimes {
    user_request: Calls,
    io_complete: Calls,
    timer: Calls,
    power: Calls,
    drain_ns: u64,
    disks: DiskTotals,
}

impl PolicyUser for TracedReplay<'_> {
    type Out = (SimReport, RunObservations, PolicyTimes);

    fn using<P: Policy>(self, policy: P) -> Self::Out {
        let (report, timed, obs) = run_trace_observed(
            &self.input.cfg,
            self.records,
            Timed::new(policy),
            self.input.duration,
            self.sink,
            self.spans,
        );
        let times = PolicyTimes {
            user_request: timed.user_request,
            io_complete: timed.io_complete,
            timer: timed.timer,
            power: timed.power,
            drain_ns: timed.drain_ns.get(),
            disks: timed.disks.get(),
        };
        (report, obs, times)
    }
}

/// Numbers the per-layer report takes from the untraced repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// Median host seconds of the replay call.
    pub run_s: f64,
    /// Median reference-host seconds of the replay call.
    pub ref_run_s: f64,
    /// Median reference-host seconds of the set-up.
    pub setup_s: f64,
    /// Median over replays of the mean probe time.
    pub probe_s: f64,
    /// Median simulated requests per host second, unscaled.
    pub host_req_per_s: f64,
    /// Allocation calls per simulated request.
    pub allocs_per_req: f64,
    /// Megabytes held by the generated records.
    pub records_mb: f64,
    /// Median reference-host replay seconds of `hm1_roloe`, the
    /// observability tax's base; used on the observed workload only.
    pub tax_base_s: Option<f64>,
}

/// Runs one traced replay and returns its per-layer metrics and the
/// digest of its report, which must equal the untraced digest.
pub fn trace_layers<S: PolicySource>(
    w: Workload,
    seed: u64,
    quick: bool,
    source: &S,
    base: &Untraced,
) -> Result<(Vec<Metric>, u64), String> {
    guarded(|| {
        let mut input = w.setup(seed, quick);
        let records = std::mem::take(&mut input.records);
        let requests = records.len() as u64;
        let write_bytes: u64 = records
            .iter()
            .filter(|r| r.kind.is_write())
            .map(|r| r.bytes)
            .sum();
        let mut pull = Pull::default();
        let sink_calls = Rc::new(RefCell::new(Calls::default()));
        let (sink, spans) = w.observers();
        let replay = TracedReplay {
            input: &input,
            records: TimedRecords {
                inner: records.into_iter(),
                pull: &mut pull,
            },
            sink: Box::new(TimedSink {
                inner: sink,
                calls: Rc::clone(&sink_calls),
            }),
            spans,
        };
        let t = Instant::now();
        let (report, obs, policy) = source.build(&input.cfg, replay);
        let wall_ns = t.elapsed().as_nanos() as f64;
        let digest = check_report(&report, requests)?;

        let rca_ms = match &obs.exemplars {
            Some(exemplars) => {
                let background = obs.spans.as_ref().map_or(&[][..], |s| &s.background[..]);
                let t = Instant::now();
                let rca = rolo_obs::rca::analyze(&obs.slo_alerts, exemplars, background);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                rca.check()?;
                ms
            }
            None => 0.0,
        };

        let sink = sink_calls.borrow();
        let (ur, io, disks) = (&policy.user_request, &policy.io_complete, &policy.disks);
        let (events, scheduled) = (
            report.profile.events_processed,
            report.profile.events_scheduled,
        );
        let drain_ns = report.profile.wall_drain_us as f64 * 1e3;
        let stats = &report.policy;
        let driver_ns = wall_ns
            - (ur.ns + io.ns + policy.timer.ns + policy.power.ns + pull.ns + sink.ns) as f64;
        let share = |ns: f64| 100.0 * ns / wall_ns;
        let per_req = |n: u64| n as f64 / requests as f64;
        let gb = |bytes: u64| bytes as f64 / 1e9;
        let ms = |d: Option<rolo_sim::Duration>| d.map_or(0.0, |d| d.as_millis_f64());
        let per_500_ms = |p| pull.us_per_500.percentile(p).unwrap_or(0.0) / 1e3;
        let spans = obs.spans.as_ref().map_or(0, |s| s.requests.len());
        let tax = base.tax_base_s.map_or(1.0, |b| base.ref_run_s / b);
        let m = |name, unit, value| Metric { name, unit, value };
        Ok((
            vec![
                m("policy.user_request.calls", "count", ur.n as f64),
                m("policy.user_request.ns_p50", "ns", ur.ns_at(50.0)),
                m("policy.user_request.ns_p99", "ns", ur.ns_at(99.0)),
                m("policy.user_request.share", "%", share(ur.ns as f64)),
                m("policy.io_complete.calls", "count", io.n as f64),
                m("policy.io_complete.ns_p50", "ns", io.ns_at(50.0)),
                m("policy.io_complete.ns_p99", "ns", io.ns_at(99.0)),
                m("policy.io_complete.share", "%", share(io.ns as f64)),
                m("policy.timer.calls", "count", policy.timer.n as f64),
                m("policy.timer.share", "%", share(policy.timer.ns as f64)),
                m("policy.power.calls", "count", policy.power.n as f64),
                m("policy.power.share", "%", share(policy.power.ns as f64)),
                m("policy.drain_ms", "ms", policy.drain_ns as f64 / 1e6),
                m("driver.share", "%", share(driver_ns)),
                m("driver.ns_per_event", "ns", driver_ns / events as f64),
                m("driver.drain_share", "%", share(drain_ns)),
                m("driver.ms_per_500req.p50", "ms", per_500_ms(50.0)),
                m("driver.ms_per_500req.p99", "ms", per_500_ms(99.0)),
                m("sim.events_processed", "count", events as f64),
                m("sim.events_scheduled", "count", scheduled as f64),
                m("sim.events_per_req", "1/req", per_req(events)),
                m("disk.fg_ios_per_req", "1/req", per_req(disks.fg_ios)),
                m("disk.bg_ios_per_req", "1/req", per_req(disks.bg_ios)),
                m(
                    "disk.bg_bytes_per_user_write_byte",
                    "B/B",
                    disks.bg_bytes as f64 / write_bytes.max(1) as f64,
                ),
                m(
                    "disk.max_queue_depth",
                    "count",
                    disks.max_queue_depth as f64,
                ),
                m("disk.spin_cycles", "count", report.spin_cycles as f64),
                m(
                    "journal.log_appended_gb",
                    "GB",
                    gb(stats.log_appended_bytes),
                ),
                m("journal.destaged_gb", "GB", gb(stats.destaged_bytes)),
                m("journal.compacted_gb", "GB", gb(stats.compacted_bytes)),
                m(
                    "journal.segments_sealed",
                    "count",
                    stats.segments_sealed as f64,
                ),
                m("journal.rotations", "count", stats.rotations as f64),
                m(
                    "journal.destage_cycles",
                    "count",
                    stats.destage_cycles as f64,
                ),
                m("cache.hit_rate", "frac", stats.cache_hit_rate()),
                m(
                    "cache.read_miss_spinups",
                    "count",
                    stats.read_miss_spinups as f64,
                ),
                m(
                    "trace.gen_ns_per_req",
                    "ns",
                    base.setup_s * 1e9 / requests as f64,
                ),
                m("trace.pull_share", "%", share(pull.ns as f64)),
                m("obs.sink.offered", "count", obs.sink.recorded() as f64),
                m("obs.sink.dropped", "count", obs.sink.dropped() as f64),
                m("obs.sink.record_ns_p50", "ns", sink.ns_at(50.0)),
                m("obs.sink.share", "%", share(sink.ns as f64)),
                m("obs.spans.requests", "count", spans as f64),
                m("obs.slo_alerts", "count", obs.slo_alerts.len() as f64),
                m("obs.rca.analyze_ms", "ms", rca_ms),
                m("obs.tax", "x", tax),
                m("mem.allocs_per_req", "1/req", base.allocs_per_req),
                m("mem.records_mb", "MB", base.records_mb),
                m("model.p50_ms", "ms", ms(report.responses.percentile(50.0))),
                m("model.p99_ms", "ms", ms(report.responses.percentile(99.0))),
                m("model.energy_mj", "MJ", report.total_energy_j / 1e6),
                m("model.spin_cycles", "count", report.spin_cycles as f64),
                // The top 53 bits, so the value survives a JSON double.
                m("model.digest", "hash", (digest >> 11) as f64),
                m("bench.trace_overhead", "x", wall_ns / 1e9 / base.run_s),
                m("bench.host_req_per_s", "1/s", base.host_req_per_s),
                m("bench.probe_us", "us", base.probe_s * 1e6),
            ],
            digest,
        ))
    })
}
