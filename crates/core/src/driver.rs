//! The simulation driver: event loop tying traces, policies and disks
//! together.
//!
//! The driver owns the event queue. Policies accumulate disk wakes and
//! timers in the [`SimCtx`]; after every callback the driver drains them
//! into the queue. A `TraceEnd` marker event at the configured duration
//! snapshots all comparable metrics (energy, spin counts, phase ratios)
//! *before* the drain phase, so schemes with different amounts of
//! leftover destage work still compare over identical wall time. The
//! drain then pushes every stale block to its mirror and the policy's
//! consistency audit runs — the master invariant of the whole simulator.

use crate::config::SimConfig;
use crate::ctx::{IoFate, RunObservations, ShockEffect, SimCtx, WakeKind};
use crate::intervals::{Phase, PhaseSummary};
use crate::policy::Policy;
use crate::report::SimReport;
use rolo_disk::{DiskEnergyReport, DiskId, DiskWake, IoOutcome};
use rolo_obs::{NullSink, RunProfile, SimEvent, TraceSink};
use rolo_sim::{CalendarQueue, Duration, SimTime};
use rolo_trace::TraceRecord;
use std::time::Instant;

/// Disk events carry the slot's replacement epoch at scheduling time:
/// when a disk dies mid-flight its queued wakes must not be delivered to
/// the hot spare that reuses its slot, so delivery drops any event whose
/// epoch is stale.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival,
    DiskIo(DiskId, u32),
    DiskSpinUp(DiskId, u32),
    DiskSpinDown(DiskId, u32),
    DiskBgRetry(DiskId, u32),
    Timer(u64),
    PowerSample,
    DiskFail(DiskId),
    /// A timed-out request's backoff elapsed; the fault engine holds the
    /// request under this I/O id.
    IoRetry(DiskId, u32, u64),
    /// A pre-sampled latent-sector-error candidate on a disk; the context
    /// thins it by the disk's current power state.
    LseCandidate(DiskId),
    /// A correlated enclosure shock; expands into per-disk effects.
    Shock,
    /// A delayed shock effect: corrupt one extent of a disk.
    CorruptAt(DiskId, u64),
    /// Periodic scrub scheduling slot (only scheduled when enabled).
    ScrubTick,
    TraceEnd,
}

// The calendar queue moves every event at least twice; keep the queued
// entry (time, seq, payload) within 40 bytes.
const _: () = assert!(size_of::<Event>() <= 24);
const _: () = assert!(size_of::<rolo_sim::ScheduledEvent<Event>>() <= 40);

/// Interval between scrub scheduling ticks. Each tick issues at most
/// one chunk per eligible disk, and only on disks that are already spun
/// up — the power-aware rule; `SimConfig::scrub_chunk` over this
/// interval bounds the per-disk scrub rate.
const SCRUB_INTERVAL: Duration = Duration::from_millis(500);

/// Snapshot captured at the `TraceEnd` marker.
#[derive(Debug, Default)]
struct TraceEndSnapshot {
    energy_by_disk: Vec<DiskEnergyReport>,
    spin_cycles: u64,
    interval_ratio: f64,
    energy_ratio: f64,
    logging: PhaseSummary,
    destaging: PhaseSummary,
}

/// Runs `policy` over `records` for `duration`, then drains and audits.
///
/// Records with arrivals at or beyond `duration` are ignored. Offsets are
/// wrapped into the array's logical address space, so traces larger than
/// the array replay without modification.
///
/// # Panics
///
/// Panics if the configuration is invalid or the simulation stalls (a
/// policy bug: events exhausted while work remains).
pub fn run_trace<P: Policy>(
    cfg: &SimConfig,
    records: impl IntoIterator<Item = TraceRecord>,
    policy: P,
    duration: Duration,
) -> SimReport {
    run_trace_observed(cfg, records, policy, duration, Box::new(NullSink), false).0
}

/// Like [`run_trace`], but hands back the policy, so callers can inspect
/// its end state (e.g. feed a live logger history into
/// [`crate::recovery::recovery_plan`]), and every out-of-band
/// observation stream: the trace sink for draining, spans (when
/// `spans`), the telemetry snapshot, SLO alerts, exemplars and RCA.
///
/// Observation never perturbs the simulation: with any sink and with
/// spans on or off the [`SimReport`] is the same, modulo the wall-clock
/// [`RunProfile`].
pub fn run_trace_observed<P: Policy>(
    cfg: &SimConfig,
    records: impl IntoIterator<Item = TraceRecord>,
    mut policy: P,
    duration: Duration,
    sink: Box<dyn TraceSink>,
    spans: bool,
) -> (SimReport, P, RunObservations) {
    if let Err(e) = cfg.check() {
        panic!("invalid configuration: {e}");
    }
    let wall_start = Instant::now();
    let geometry = cfg.geometry().expect("invalid geometry");
    let standby: Vec<bool> = (0..cfg.disk_count())
        .map(|d| policy.initial_standby(d))
        .collect();
    let mut ctx = SimCtx::with_sink(cfg, geometry, &standby, sink);
    if spans || cfg.rca_enabled {
        // RCA needs finished spans for exemplar critical paths and
        // `delayed_by` causality; span recording is observational, so
        // forcing it on cannot change the report.
        ctx.enable_spans();
    }
    // The production future-event list: a bucketed calendar queue with
    // the same `(time, seq)` delivery contract as the legacy binary-heap
    // `EventQueue` (differentially tested in `rolo-sim`). The two drain
    // scratch vectors are reused across every step of the run, so the
    // wake/timer hand-off allocates nothing once warmed up.
    let mut queue: CalendarQueue<Event> = CalendarQueue::new();
    let mut scratch = DrainScratch::default();
    let logical_capacity = ctx.geometry().logical_capacity();

    for d in 0..ctx.disk_count() {
        let state = ctx.disk(d).power_state();
        ctx.emit(|| SimEvent::DiskInit { disk: d, state });
    }

    policy.attach(&mut ctx);
    drain_ctx(&mut ctx, &mut queue, &mut scratch);

    let mut records = records.into_iter().peekable();
    let trace_end = SimTime::ZERO + duration;
    queue.schedule(trace_end, Event::TraceEnd);
    for (disk, at) in cfg.faults.schedule(cfg.disk_count(), duration) {
        ctx.emit(|| SimEvent::FaultScheduled {
            disk,
            at_us: at.as_micros(),
        });
        queue.schedule(at, Event::DiskFail(disk));
    }
    // Latent-error candidates are pre-sampled per disk at the maximum
    // configured rate; the context thins each by the disk's power state
    // at fire time, so only the accept/reject draw depends on the
    // workload-driven power trajectory.
    for (disk, at) in cfg.faults.lse_candidates(2 * cfg.pairs, duration) {
        queue.schedule(at, Event::LseCandidate(disk));
    }
    for at in cfg.faults.shock_instants(duration) {
        queue.schedule(at, Event::Shock);
    }
    // Sample aggregate power ~1000 times over the window (min 1 s apart).
    let sample_every = Duration::from_micros((duration.as_micros() / 1000).max(1_000_000));
    queue.schedule(SimTime::ZERO + sample_every, Event::PowerSample);
    if cfg.scrub_enabled {
        queue.schedule(SimTime::ZERO + SCRUB_INTERVAL, Event::ScrubTick);
    }
    if let Some(first) = records.peek() {
        if first.arrival < trace_end {
            queue.schedule(first.arrival, Event::Arrival);
        }
    }

    let mut next_user_id: u64 = 1;
    let mut snapshot: Option<TraceEndSnapshot> = None;
    let mut trace_done = false;
    let mut stall_kicks = 0u32;
    let mut wall_replay: Option<std::time::Duration> = None;

    loop {
        let Some(ev) = queue.pop() else {
            if !trace_done {
                panic!("event queue empty before trace end");
            }
            if drained(&policy, &ctx) {
                break;
            }
            // Kick the drain; a correct policy makes progress or is done.
            stall_kicks += 1;
            assert!(
                stall_kicks < 64,
                "{}: simulation stalled during drain: {} users outstanding; consistency: {:?}",
                policy.name(),
                ctx.outstanding_users(),
                policy.check_consistency(&ctx)
            );
            policy.begin_drain(&mut ctx);
            drain_ctx(&mut ctx, &mut queue, &mut scratch);
            if queue.is_empty() {
                assert!(
                    drained(&policy, &ctx),
                    "{}: drain cannot make progress (policy bug); consistency: {:?}",
                    policy.name(),
                    policy.check_consistency(&ctx)
                );
                break;
            }
            continue;
        };
        ctx.now = ev.time;
        match ev.payload {
            Event::Arrival => {
                let rec = records.next().expect("arrival without record");
                let rec = clamp_record(rec, logical_capacity, cfg.stripe_unit);
                let id = next_user_id;
                next_user_id += 1;
                ctx.emit(|| SimEvent::RequestArrive {
                    id,
                    kind: rec.kind,
                    offset: rec.offset,
                    bytes: rec.bytes,
                });
                policy.on_user_request(&mut ctx, id, &rec);
                if let Some(next) = records.peek() {
                    if next.arrival < trace_end {
                        queue.schedule(next.arrival.max(ctx.now), Event::Arrival);
                    } else {
                        trace_done = true;
                    }
                } else {
                    trace_done = true;
                }
            }
            Event::DiskIo(d, ep) => {
                if ctx.epoch_live(d, ep) {
                    match ctx.complete_io(d) {
                        IoFate::Engine => {}
                        IoFate::Policy(req, IoOutcome::Ok) => {
                            policy.on_io_complete(&mut ctx, d, req)
                        }
                        IoFate::Policy(req, outcome) => {
                            policy.on_io_error(&mut ctx, d, req, outcome)
                        }
                        IoFate::Retry(id, backoff) => {
                            let retry = Event::IoRetry(d, ctx.epoch(d), id);
                            queue.schedule(ctx.now + backoff, retry);
                        }
                    }
                }
            }
            Event::DiskSpinUp(d, ep) => {
                if ctx.epoch_live(d, ep) {
                    ctx.deliver_wake(d, WakeKind::SpinUp);
                    policy.on_spin_up(&mut ctx, d);
                }
            }
            Event::DiskSpinDown(d, ep) => {
                if ctx.epoch_live(d, ep) {
                    ctx.deliver_wake(d, WakeKind::SpinDown);
                    policy.on_spin_down(&mut ctx, d);
                }
            }
            Event::DiskBgRetry(d, ep) => {
                if ctx.epoch_live(d, ep) {
                    ctx.deliver_wake(d, WakeKind::BgRetry);
                }
            }
            Event::DiskFail(d) => {
                if let Some(aborted) = ctx.fail_disk(d) {
                    policy.on_disk_failure(&mut ctx, d);
                    for req in aborted {
                        // An aborted sub-I/O never completes on the media:
                        // drop its span tag (the error path may re-tag a
                        // redirected replacement under a fresh id).
                        ctx.untag_io(req.id);
                        policy.on_io_error(&mut ctx, d, req, IoOutcome::DiskDead);
                    }
                }
            }
            Event::IoRetry(d, ep, id) => {
                if let Some(req) = ctx.retry_parked(d, ep, id) {
                    // The disk died while the retry waited out its
                    // backoff; hand the request to the error path so its
                    // accounting still closes.
                    policy.on_io_error(&mut ctx, d, req, IoOutcome::DiskDead);
                }
            }
            Event::Timer(token) => {
                policy.on_timer(&mut ctx, token);
            }
            Event::LseCandidate(d) => {
                ctx.on_lse_candidate(d);
            }
            Event::Shock => {
                for (delay, effect) in ctx.expand_shock() {
                    let at = ctx.now + delay;
                    match effect {
                        ShockEffect::Fail(d) => {
                            queue.schedule(at, Event::DiskFail(d));
                        }
                        ShockEffect::Corrupt(d, off) => {
                            queue.schedule(at, Event::CorruptAt(d, off));
                        }
                    }
                }
            }
            Event::CorruptAt(d, off) => {
                ctx.apply_corruption(d, off);
            }
            Event::ScrubTick => {
                ctx.on_scrub_tick();
                let now = ctx.now;
                if now + SCRUB_INTERVAL < trace_end {
                    queue.schedule(now + SCRUB_INTERVAL, Event::ScrubTick);
                }
            }
            Event::PowerSample => {
                let w = ctx.total_power_w();
                let now = ctx.now;
                ctx.power_timeline.push(now, w);
                ctx.sample_telemetry(w);
                if now + sample_every < trace_end {
                    queue.schedule(now + sample_every, Event::PowerSample);
                }
            }
            Event::TraceEnd => {
                trace_done = true;
                wall_replay = Some(wall_start.elapsed());
                ctx.emit(|| SimEvent::TraceEnded);
                snapshot = Some(TraceEndSnapshot {
                    energy_by_disk: ctx.energy_by_disk(),
                    spin_cycles: ctx.spin_cycles(),
                    interval_ratio: ctx.intervals.interval_ratio(Phase::Destaging),
                    energy_ratio: ctx.intervals.energy_ratio(Phase::Destaging),
                    logging: ctx.intervals.summary(Phase::Logging),
                    destaging: ctx.intervals.summary(Phase::Destaging),
                });
                policy.begin_drain(&mut ctx);
            }
        }
        for slot in ctx.take_finished_rebuilds() {
            policy.on_rebuild_complete(&mut ctx, slot);
        }
        drain_ctx(&mut ctx, &mut queue, &mut scratch);
        if trace_done && snapshot.is_some() && queue.is_empty() && drained(&policy, &ctx) {
            break;
        }
    }
    ctx.finalize_faults();

    // Close the telemetry windows up to the drained time, so the
    // observed series cover the whole run.
    let w = ctx.total_power_w();
    ctx.sample_telemetry(w);

    let wall_total = wall_start.elapsed();
    let wall_replay = wall_replay.unwrap_or(wall_total);
    let obs = ctx.take_observations(cfg.rca_enabled);
    let profile = RunProfile {
        sink: obs.sink.name().to_string(),
        wall_replay_us: wall_replay.as_micros() as u64,
        wall_drain_us: (wall_total - wall_replay).as_micros() as u64,
        wall_total_us: wall_total.as_micros() as u64,
        events_processed: queue.popped_total(),
        events_scheduled: queue.scheduled_total(),
        events_per_sec: queue.popped_total() as f64 / wall_total.as_secs_f64().max(1e-9),
        trace_events_recorded: obs.sink.recorded(),
        trace_events_dropped: obs.sink.dropped(),
    };

    let snapshot = snapshot.unwrap_or_default();
    let aggregate = snapshot
        .energy_by_disk
        .iter()
        .fold(DiskEnergyReport::default(), |acc, r| acc.merged(r));
    let consistency = policy
        .check_consistency(&ctx)
        .and_then(|()| ctx.check_users())
        .and_then(|()| ctx.check_parked_retries());
    let mut responses = ctx.read_responses.clone();
    responses.merge(&ctx.write_responses);
    let report = SimReport {
        scheme: policy.name().to_owned(),
        trace_duration: duration,
        drained_at: ctx.now.since(SimTime::ZERO),
        user_requests: responses.count(),
        total_energy_j: aggregate.total_joules,
        energy_by_disk: snapshot.energy_by_disk,
        aggregate_energy: aggregate,
        spin_cycles: snapshot.spin_cycles,
        responses,
        read_responses: ctx.read_responses.clone(),
        write_responses: ctx.write_responses.clone(),
        logging_phase: snapshot.logging,
        destaging_phase: snapshot.destaging,
        destaging_interval_ratio: snapshot.interval_ratio,
        destaging_energy_ratio: snapshot.energy_ratio,
        log_capacity_timeline: ctx
            .log_timeline
            .samples()
            .iter()
            .map(|(t, v)| (t.as_secs_f64(), *v))
            .collect(),
        power_timeline: ctx
            .power_timeline
            .samples()
            .iter()
            .map(|(t, v)| (t.as_secs_f64(), *v))
            .collect(),
        policy: policy.stats(),
        faults: ctx.faults.clone(),
        degraded_responses: ctx.degraded_responses.clone(),
        consistency,
        profile,
    };
    (report, policy, obs)
}

/// True once the policy reports itself drained and every user request
/// has completed.
fn drained<P: Policy>(policy: &P, ctx: &SimCtx) -> bool {
    policy.is_drained(ctx) && ctx.outstanding_users() == 0
}

/// Wraps a record into the logical address space, aligned and clipped.
fn clamp_record(mut rec: TraceRecord, capacity: u64, align: u64) -> TraceRecord {
    rec.bytes = rec.bytes.clamp(1, capacity.min(4 << 20));
    let span = capacity - rec.bytes;
    if rec.offset > span {
        rec.offset %= span.max(1);
    }
    rec.offset = (rec.offset / align) * align;
    rec
}

/// Reusable scratch buffers for the wake/timer drain: swapped with the
/// context's pending vectors each step instead of allocating fresh ones,
/// so the drain allocates nothing once the vectors warm up.
#[derive(Debug, Default)]
struct DrainScratch {
    wakes: Vec<(DiskId, DiskWake)>,
    timers: Vec<(SimTime, u64)>,
}

fn drain_ctx(ctx: &mut SimCtx, queue: &mut CalendarQueue<Event>, scratch: &mut DrainScratch) {
    while ctx.has_pending() {
        ctx.drain_wakes_into(&mut scratch.wakes);
        ctx.drain_timers_into(&mut scratch.timers);
        for (disk, wake) in scratch.wakes.drain(..) {
            let ep = ctx.epoch(disk);
            let ev = match wake {
                DiskWake::Io(_) => Event::DiskIo(disk, ep),
                DiskWake::SpinUp(_) => Event::DiskSpinUp(disk, ep),
                DiskWake::SpinDown(_) => Event::DiskSpinDown(disk, ep),
                DiskWake::BgRetry(_) => Event::DiskBgRetry(disk, ep),
            };
            queue.schedule(wake.due(), ev);
        }
        for (due, token) in scratch.timers.drain(..) {
            queue.schedule(due, Event::Timer(token));
        }
    }
}

/// Builds the policy for `cfg.scheme` and runs the trace — the main entry
/// point used by examples and the experiment harness.
pub fn run_scheme(
    cfg: &SimConfig,
    records: impl IntoIterator<Item = TraceRecord>,
    duration: Duration,
) -> SimReport {
    run_scheme_observed(cfg, records, duration, Box::new(NullSink), false).0
}

/// Like [`run_trace_observed`], with the policy [`run_scheme`] builds for
/// `cfg.scheme` — the one replay path of the `inspect` tool.
pub fn run_scheme_observed(
    cfg: &SimConfig,
    records: impl IntoIterator<Item = TraceRecord>,
    duration: Duration,
    sink: Box<dyn TraceSink>,
    spans: bool,
) -> (SimReport, RunObservations) {
    use crate::config::Scheme;
    let geo = cfg.geometry().expect("invalid geometry");
    match cfg.scheme {
        Scheme::Raid10 => {
            let (report, _, obs) = run_trace_observed(
                cfg,
                records,
                crate::raid10::Raid10Policy::new(),
                duration,
                sink,
                spans,
            );
            (report, obs)
        }
        Scheme::Graid => {
            let mut policy = crate::graid::GraidPolicy::new(
                cfg.pairs,
                cfg.graid_log_disk(),
                cfg.graid_log_capacity,
                cfg.destage_threshold,
                cfg.destage_chunk,
            );
            policy.set_segment_tuning(cfg.log_segment, cfg.archive_ttl);
            let (report, _, obs) = run_trace_observed(cfg, records, policy, duration, sink, spans);
            (report, obs)
        }
        Scheme::RoloP | Scheme::RoloR => {
            let flavor = if cfg.scheme == Scheme::RoloP {
                crate::rolo::RoloFlavor::Performance
            } else {
                crate::rolo::RoloFlavor::Reliability
            };
            let mut policy = crate::rolo::RoloPolicy::new(
                flavor,
                cfg.pairs,
                geo.logger_base(),
                geo.logger_region(),
                cfg.rotate_free_threshold,
                cfg.destage_chunk,
            );
            policy.set_eager_spinup(cfg.eager_spinup);
            policy.set_segment_tuning(cfg.log_segment, cfg.compact_live_frac, cfg.archive_ttl);
            if cfg.rolo_on_duty > 1 {
                policy.set_on_duty_loggers(cfg.rolo_on_duty);
            }
            let (report, _, obs) = run_trace_observed(cfg, records, policy, duration, sink, spans);
            (report, obs)
        }
        Scheme::RoloE => {
            let mut policy = crate::roloe::RoloEPolicy::new(
                cfg.pairs,
                geo.logger_base(),
                geo.logger_region(),
                cfg.stripe_unit,
                cfg.destage_threshold,
                cfg.destage_chunk,
                cfg.roloe_idle_spindown,
                cfg.roloe_cache_fraction,
            );
            policy.set_segment_tuning(cfg.log_segment, cfg.archive_ttl);
            if cfg.rolo_on_duty > 1 {
                policy.set_on_duty_pairs(cfg.rolo_on_duty);
            }
            let (report, _, obs) = run_trace_observed(cfg, records, policy, duration, sink, spans);
            (report, obs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolo_trace::ReqKind;

    fn rec(offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord::new(SimTime::ZERO, ReqKind::Write, offset, bytes)
    }

    #[test]
    fn clamp_wraps_and_aligns() {
        let cap = 1 << 30;
        let r = clamp_record(rec(cap + 12345, 4096), cap, 4096);
        assert!(r.end() <= cap);
        assert_eq!(r.offset % 4096, 0);
    }

    #[test]
    fn clamp_caps_giant_requests() {
        let cap = 1 << 30;
        let r = clamp_record(rec(0, 1 << 40), cap, 4096);
        assert!(r.bytes <= 4 << 20);
    }

    #[test]
    fn clamp_preserves_in_range() {
        let cap = 1 << 30;
        let r = clamp_record(rec(8192, 65536), cap, 4096);
        assert_eq!((r.offset, r.bytes), (8192, 65536));
    }
}
