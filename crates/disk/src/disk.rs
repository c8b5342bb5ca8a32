//! A single simulated disk: request queues, spindle state machine, stats.
//!
//! The disk is driven by its owner (the array controller): methods that
//! start an activity return a [`DiskWake`] telling the owner what event to
//! schedule and when. The owner feeds completions back via the
//! `on_*_complete` methods. At most one wake is outstanding per disk at any
//! time, which keeps scheduling logic trivial and prevents double-fires.
//!
//! Two queue priorities implement the paper's destaging rule: *"the
//! priority of the background destaging I/O activities is always lower
//! than that of the foreground user I/O activities, and only free disk
//! bandwidth is utilized"* (§III-A). A background request is admitted only
//! when no foreground work is queued; foreground arrivals never preempt an
//! in-service transfer but always jump ahead of queued background work.

use crate::params::DiskParams;
use crate::power::{EnergyMeter, PowerState};
use crate::service::{ServiceModel, ServiceParts};
use crate::DiskId;
use rolo_sim::{Duration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Data flows from the disk.
    Read,
    /// Data flows to the disk.
    Write,
}

/// Scheduling priority of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// User I/O: always serviced first.
    Foreground,
    /// Destage I/O: admitted only when no foreground work is pending.
    Background,
}

/// A request addressed to one physical disk (byte offset + length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskRequest {
    /// Caller-assigned identifier, returned unchanged on completion.
    pub id: u64,
    /// Read or write.
    pub kind: IoKind,
    /// Byte offset on this disk.
    pub offset: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Foreground (user) or background (destage).
    pub priority: Priority,
}

impl DiskRequest {
    /// Convenience constructor.
    pub fn new(id: u64, kind: IoKind, offset: u64, bytes: u64, priority: Priority) -> Self {
        DiskRequest {
            id,
            kind,
            offset,
            bytes,
            priority,
        }
    }
}

/// What the owner must schedule after calling into the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskWake {
    /// Deliver [`Disk::on_io_complete`] at this instant.
    Io(SimTime),
    /// Deliver [`Disk::on_spin_up_complete`] at this instant.
    SpinUp(SimTime),
    /// Deliver [`Disk::on_spin_down_complete`] at this instant.
    SpinDown(SimTime),
    /// Deliver [`Disk::on_bg_retry`] at this instant: a background
    /// request was deferred waiting for an idle slot.
    BgRetry(SimTime),
}

impl DiskWake {
    /// The instant at which the wake is due.
    pub fn due(&self) -> SimTime {
        match self {
            DiskWake::Io(t)
            | DiskWake::SpinUp(t)
            | DiskWake::SpinDown(t)
            | DiskWake::BgRetry(t) => *t,
        }
    }
}

/// Where the time of one completed request went, as seen by the disk.
///
/// Only produced when breakdown recording is switched on
/// ([`Disk::set_record_breakdown`]); the span layer in `rolo-obs` turns
/// these into typed request phases. All intervals are exact:
/// `spinup_stall + bg_interference ≤ start − submit` (the two windows
/// are disjoint — a background transfer needs spinning platters) and
/// `seek + rotation + transfer = end − start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceBreakdown {
    /// Caller-assigned request id.
    pub id: u64,
    /// True for background (destage/rebuild) requests.
    pub background: bool,
    /// When the request was submitted to the disk.
    pub submit: SimTime,
    /// When its media transfer began.
    pub start: SimTime,
    /// When it completed.
    pub end: SimTime,
    /// Arm movement portion of the service time.
    pub seek: Duration,
    /// Rotational-latency portion of the service time.
    pub rotation: Duration,
    /// Media-transfer portion of the service time.
    pub transfer: Duration,
    /// Portion of the wait the platters were not spinning (the request
    /// arrived at a standby / spinning-down disk and waited out the
    /// spin-up).
    pub spinup_stall: Duration,
    /// Portion of the wait spent behind a background (destage/rebuild)
    /// transfer that was already on the media when this request arrived.
    pub bg_interference: Duration,
}

impl ServiceBreakdown {
    /// Wait time not explained by spin-up or background interference:
    /// time spent behind other foreground requests.
    pub fn queue_wait(&self) -> Duration {
        self.start
            .since(self.submit)
            .saturating_sub(self.spinup_stall)
            .saturating_sub(self.bg_interference)
    }

    /// End-to-end time on this disk (`end − submit`).
    pub fn total(&self) -> Duration {
        self.end.since(self.submit)
    }
}

/// Result of an I/O completion: the finished request plus any follow-up
/// wake (the next queued request entering service).
#[derive(Debug, Clone, Copy)]
pub struct CompletionOutcome {
    /// The request that just finished.
    pub completed: DiskRequest,
    /// Wake for the next request now in service, if the queue was non-empty.
    pub next: Option<DiskWake>,
}

/// How a sub-request finished. `Ok` is the only outcome the disk itself
/// produces; the fault-injection layer (see `rolo-core`'s `faults`
/// module) reclassifies completions to model media errors, transient
/// timeouts and whole-disk failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOutcome {
    /// The transfer completed normally.
    Ok,
    /// A latent sector error surfaced (unreadable sector): the data is
    /// lost on this disk, but a redundant copy may exist elsewhere.
    MediaError,
    /// The request timed out in the controller (transient path error);
    /// the request may be retried.
    Timeout,
    /// The whole disk failed; every queued and in-flight request on it
    /// is aborted.
    DiskDead,
}

#[derive(Debug, Clone)]
enum Spindle {
    /// Spun up; `in_service` says whether a transfer is underway.
    Ready,
    /// Spun down, queues empty or awaiting a spin-up trigger.
    Standby,
    SpinningUp,
    /// `then_up` is set if work arrived mid-spin-down.
    SpinningDown {
        then_up: bool,
    },
}

/// Queue-scheduling discipline for foreground requests.
///
/// Background requests always stay FIFO (they are bandwidth fillers, not
/// latency-sensitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// First-in first-out (the default; matches a simple controller).
    #[default]
    Fifo,
    /// Shortest-seek-time-first: pick the queued request whose start is
    /// closest to the current head position.
    Sstf,
}

/// Histogram of idle-slot lengths (time spent spun-up-idle between
/// servicing periods). Bucket boundaries: <1 ms, <10 ms, <100 ms, <1 s,
/// <10 s, <100 s, ≥100 s. The paper's §II observation — most idle slots
/// are far shorter than the spin-down break-even — is measured with
/// this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IdleGapHistogram {
    /// Counts per bucket (see type docs for boundaries).
    pub buckets: [u64; 7],
    /// Number of recorded idle slots.
    pub count: u64,
    /// Sum of all idle-slot lengths.
    pub total: Duration,
}

impl IdleGapHistogram {
    fn record(&mut self, gap: Duration) {
        let us = gap.as_micros();
        let idx = match us {
            0..=999 => 0,
            1_000..=9_999 => 1,
            10_000..=99_999 => 2,
            100_000..=999_999 => 3,
            1_000_000..=9_999_999 => 4,
            10_000_000..=99_999_999 => 5,
            _ => 6,
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.total += gap;
    }

    /// Fraction of idle slots shorter than `threshold` (e.g. the
    /// break-even time).
    pub fn fraction_shorter_than(&self, threshold: Duration) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Bucket upper bounds in µs.
        const UPPER: [u64; 7] = [
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            u64::MAX,
        ];
        let t = threshold.as_micros();
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if UPPER[i] <= t {
                below += c;
            }
        }
        below as f64 / self.count as f64
    }

    /// Mean idle-slot length.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count
        }
    }
}

/// Cumulative per-disk transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DiskIoStats {
    /// Completed foreground requests.
    pub foreground_requests: u64,
    /// Completed background requests.
    pub background_requests: u64,
    /// Bytes moved by foreground requests.
    pub foreground_bytes: u64,
    /// Bytes moved by background requests.
    pub background_bytes: u64,
    /// Media time consumed by foreground requests.
    pub foreground_busy: Duration,
    /// Media time consumed by background requests.
    pub background_busy: Duration,
    /// Requests that found the disk spun down and forced a spin-up.
    pub spin_up_faults: u64,
    /// Deepest queue (pending + in-service) observed.
    pub max_queue_depth: usize,
    /// Distribution of spun-up idle-slot lengths.
    pub idle_gaps: IdleGapHistogram,
}

/// A request waiting in a queue, with the instant it was submitted.
#[derive(Debug, Clone, Copy)]
struct Queued {
    req: DiskRequest,
    submit: SimTime,
}

/// The transfer currently on the media.
#[derive(Debug, Clone, Copy)]
struct InService {
    req: DiskRequest,
    submit: SimTime,
    started: SimTime,
    parts: ServiceParts,
}

/// A single simulated disk.
///
/// See the [crate docs](crate) for the driving protocol and an example.
#[derive(Debug, Clone)]
pub struct Disk {
    id: DiskId,
    params: DiskParams,
    service: ServiceModel,
    meter: EnergyMeter,
    spindle: Spindle,
    foreground: VecDeque<Queued>,
    background: VecDeque<Queued>,
    in_service: Option<InService>,
    /// Spin down as soon as the disk drains (see [`Disk::park_when_idle`]).
    pending_park: bool,
    /// Background I/O is dispatched only after the disk has seen no
    /// foreground activity for this long — the "idle time slot"
    /// detection of the paper's decentralized destaging.
    bg_idle_guard: Duration,
    /// Last foreground submission or completion.
    last_fg_activity: SimTime,
    scheduler: SchedulerKind,
    stats: DiskIoStats,
    /// Set by [`Disk::fail_now`]: the disk no longer accepts work.
    dead: bool,
    /// When true, each completion leaves a [`ServiceBreakdown`] behind
    /// (see [`Disk::last_breakdown`]). Off by default: the untraced hot
    /// path pays nothing beyond this flag check.
    record_breakdown: bool,
    /// Instant the spindle last reached `Ready` (construction time if it
    /// started ready). Requests submitted before this waited on spin-up.
    ready_since: SimTime,
    /// Media interval `[start, end]` of the most recent background
    /// transfer: foreground requests submitted inside it were delayed by
    /// background work (at most one — background is admitted only when
    /// no foreground is queued).
    bg_window: (SimTime, SimTime),
    /// Breakdown of the most recently completed request.
    last_breakdown: Option<ServiceBreakdown>,
}

impl Disk {
    /// Creates a spun-up, idle disk.
    pub fn new(id: DiskId, params: DiskParams, rng: SimRng) -> Self {
        Self::with_initial_state(id, params, rng, PowerState::Idle)
    }

    /// Creates a disk whose spindle starts in `initial` (must be `Idle` or
    /// `Standby`).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is a transient state.
    pub fn with_initial_state(
        id: DiskId,
        params: DiskParams,
        rng: SimRng,
        initial: PowerState,
    ) -> Self {
        Self::with_initial_state_at(id, params, rng, initial, SimTime::ZERO)
    }

    /// Like [`with_initial_state`](Self::with_initial_state) but the
    /// energy meter starts counting at `now` — for hot-spare replacements
    /// installed mid-run.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is a transient state.
    pub fn with_initial_state_at(
        id: DiskId,
        params: DiskParams,
        rng: SimRng,
        initial: PowerState,
        now: SimTime,
    ) -> Self {
        let spindle = match initial {
            PowerState::Idle => Spindle::Ready,
            PowerState::Standby => Spindle::Standby,
            other => panic!("disks cannot start in transient state {other}"),
        };
        Disk {
            id,
            meter: EnergyMeter::new(&params, initial, now),
            service: ServiceModel::new(params.clone(), rng),
            params,
            spindle,
            foreground: VecDeque::new(),
            background: VecDeque::new(),
            in_service: None,
            pending_park: false,
            bg_idle_guard: Duration::from_millis(50),
            last_fg_activity: now,
            scheduler: SchedulerKind::default(),
            stats: DiskIoStats::default(),
            dead: false,
            record_breakdown: false,
            ready_since: now,
            bg_window: (now, now),
            last_breakdown: None,
        }
    }

    /// This disk's identifier.
    pub fn id(&self) -> DiskId {
        self.id
    }

    /// The disk's parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.meter.state()
    }

    /// True if spun up (or spinning up) — i.e. no fresh spin-up needed.
    pub fn is_spun_up(&self) -> bool {
        matches!(self.spindle, Spindle::Ready | Spindle::SpinningUp)
    }

    /// True if spun up with nothing queued or in service.
    pub fn is_idle(&self) -> bool {
        matches!(self.spindle, Spindle::Ready)
            && self.in_service.is_none()
            && self.foreground.is_empty()
            && self.background.is_empty()
    }

    /// Queued (not yet in-service) request count, both priorities.
    pub fn queue_len(&self) -> usize {
        self.foreground.len() + self.background.len()
    }

    /// Pending foreground requests (queued, not in service).
    pub fn foreground_pending(&self) -> usize {
        self.foreground.len()
    }

    /// True if a request is currently being transferred.
    pub fn is_busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Cumulative transfer statistics.
    pub fn io_stats(&self) -> DiskIoStats {
        self.stats
    }

    /// Energy/residency snapshot as of `now`.
    pub fn energy_report(&self, now: SimTime) -> crate::power::DiskEnergyReport {
        self.meter.report(now, &self.params)
    }

    /// Instantaneous power draw of the current state (W). Transition
    /// states report their average power (transition energy over
    /// transition time).
    pub fn current_power_w(&self) -> f64 {
        match self.meter.state() {
            PowerState::Active => self.params.power_active_w,
            PowerState::Idle => self.params.power_idle_w,
            PowerState::Standby => self.params.power_standby_w,
            PowerState::SpinningUp => {
                self.params.spin_up_energy_j / self.params.spin_up_time.as_secs_f64()
            }
            PowerState::SpinningDown => {
                self.params.spin_down_energy_j / self.params.spin_down_time.as_secs_f64()
            }
        }
    }

    /// Submits a request. Returns a wake if this call started an activity
    /// (service began, or a spin-up was triggered); returns `None` when an
    /// already-scheduled wake will pick the request up.
    pub fn submit(&mut self, req: DiskRequest, now: SimTime) -> Option<DiskWake> {
        assert!(!self.dead, "submit to dead disk {}", self.id);
        // Fresh work cancels any pending park request.
        self.pending_park = false;
        let queued = Queued { req, submit: now };
        match req.priority {
            Priority::Foreground => {
                self.last_fg_activity = now;
                self.foreground.push_back(queued);
            }
            Priority::Background => self.background.push_back(queued),
        }
        let depth = self.queue_len() + usize::from(self.in_service.is_some());
        if depth > self.stats.max_queue_depth {
            self.stats.max_queue_depth = depth;
        }
        match self.spindle {
            Spindle::Ready => {
                if self.in_service.is_none() {
                    self.start_next(now)
                } else {
                    None
                }
            }
            Spindle::Standby => {
                self.stats.spin_up_faults += 1;
                Some(self.begin_spin_up(now))
            }
            Spindle::SpinningUp => None,
            Spindle::SpinningDown { .. } => {
                self.spindle = Spindle::SpinningDown { then_up: true };
                None
            }
        }
    }

    /// Requests a spin-down. Succeeds only when the disk is fully idle;
    /// returns the wake for the spin-down completion.
    pub fn spin_down(&mut self, now: SimTime) -> Option<DiskWake> {
        if !self.is_idle() {
            return None;
        }
        self.pending_park = false;
        self.meter.transition(PowerState::SpinningDown, now);
        self.spindle = Spindle::SpinningDown { then_up: false };
        Some(DiskWake::SpinDown(now + self.params.spin_down_time))
    }

    /// Requests a spin-down that takes effect as soon as the disk drains:
    /// immediately if idle (returning the wake), otherwise when the last
    /// queued request completes (the wake then comes from
    /// [`on_io_complete`](Self::on_io_complete)). Any new submission
    /// cancels the request.
    pub fn park_when_idle(&mut self, now: SimTime) -> Option<DiskWake> {
        if self.is_idle() {
            self.spin_down(now)
        } else {
            if matches!(self.spindle, Spindle::Ready) {
                self.pending_park = true;
            }
            None
        }
    }

    /// True if a park request is pending (spin-down on drain).
    pub fn is_park_pending(&self) -> bool {
        self.pending_park
    }

    /// Explicitly spins the disk up (e.g. destage target wakes before I/O
    /// arrives). No-op unless the disk is in `Standby`.
    pub fn spin_up(&mut self, now: SimTime) -> Option<DiskWake> {
        self.pending_park = false;
        match self.spindle {
            Spindle::Standby => Some(self.begin_spin_up(now)),
            Spindle::SpinningDown { .. } => {
                self.spindle = Spindle::SpinningDown { then_up: true };
                None
            }
            _ => None,
        }
    }

    /// Delivers a spin-up completion. Returns the wake for the first queued
    /// request entering service, if any.
    pub fn on_spin_up_complete(&mut self, now: SimTime) -> Option<DiskWake> {
        debug_assert!(matches!(self.spindle, Spindle::SpinningUp));
        self.meter
            .charge_transition_energy(self.params.spin_up_energy_j);
        self.meter.transition(PowerState::Idle, now);
        self.spindle = Spindle::Ready;
        self.ready_since = now;
        self.start_next(now)
    }

    /// Delivers a spin-down completion. If work arrived during the
    /// transition the disk immediately begins spinning back up and the
    /// corresponding wake is returned.
    pub fn on_spin_down_complete(&mut self, now: SimTime) -> Option<DiskWake> {
        let then_up = match self.spindle {
            Spindle::SpinningDown { then_up } => then_up,
            _ => panic!(
                "spin-down completion delivered to disk {} not spinning down",
                self.id
            ),
        };
        self.meter
            .charge_transition_energy(self.params.spin_down_energy_j);
        self.meter.transition(PowerState::Standby, now);
        self.spindle = Spindle::Standby;
        if then_up || self.queue_len() > 0 {
            Some(self.begin_spin_up(now))
        } else {
            None
        }
    }

    /// Delivers an I/O completion.
    ///
    /// # Panics
    ///
    /// Panics if no request is in service (owner bug).
    pub fn on_io_complete(&mut self, now: SimTime) -> CompletionOutcome {
        let InService {
            req,
            submit,
            started,
            parts,
        } = self
            .in_service
            .take()
            .unwrap_or_else(|| panic!("io completion delivered to idle disk {}", self.id));
        let busy = now.since(started);
        match req.priority {
            Priority::Foreground => {
                self.last_fg_activity = now;
                self.stats.foreground_requests += 1;
                self.stats.foreground_bytes += req.bytes;
                self.stats.foreground_busy += busy;
            }
            Priority::Background => {
                self.stats.background_requests += 1;
                self.stats.background_bytes += req.bytes;
                self.stats.background_busy += busy;
            }
        }
        if self.record_breakdown {
            if req.priority == Priority::Background {
                self.bg_window = (started, now);
            }
            self.last_breakdown = Some(self.build_breakdown(&req, submit, started, now, parts));
        }
        let mut next = self.start_next(now);
        match next {
            Some(DiskWake::Io(_)) => {}
            Some(DiskWake::BgRetry(_)) => {
                // Waiting out the idle guard: the platters idle meanwhile.
                self.meter.transition(PowerState::Idle, now);
            }
            _ => {
                if self.pending_park {
                    self.pending_park = false;
                    self.meter.transition(PowerState::SpinningDown, now);
                    self.spindle = Spindle::SpinningDown { then_up: false };
                    next = Some(DiskWake::SpinDown(now + self.params.spin_down_time));
                } else {
                    self.meter.transition(PowerState::Idle, now);
                }
            }
        }
        CompletionOutcome {
            completed: req,
            next,
        }
    }

    fn begin_spin_up(&mut self, now: SimTime) -> DiskWake {
        debug_assert!(matches!(self.spindle, Spindle::Standby));
        self.meter.transition(PowerState::SpinningUp, now);
        self.spindle = Spindle::SpinningUp;
        DiskWake::SpinUp(now + self.params.spin_up_time)
    }

    /// Pops the next request by priority and puts it in service.
    ///
    /// Background requests are dispatched only once the disk has been
    /// free of foreground activity for [`bg_idle_guard`](Self::set_bg_idle_guard);
    /// otherwise a [`DiskWake::BgRetry`] is produced for the instant the
    /// guard expires.
    fn start_next(&mut self, now: SimTime) -> Option<DiskWake> {
        debug_assert!(self.in_service.is_none());
        let Queued { req, submit } = if !self.foreground.is_empty() {
            match self.scheduler {
                SchedulerKind::Fifo => self.foreground.pop_front().expect("checked non-empty"),
                SchedulerKind::Sstf => {
                    let head = self.service.head_position().unwrap_or(0);
                    let bpc = self.params.bytes_per_cylinder();
                    let head_cyl = head / bpc;
                    let (idx, _) = self
                        .foreground
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, q)| (q.req.offset / bpc).abs_diff(head_cyl))
                        .expect("checked non-empty");
                    self.foreground.remove(idx).expect("index valid")
                }
            }
        } else if !self.background.is_empty() {
            let quiet_at = self.last_fg_activity + self.bg_idle_guard;
            if now < quiet_at {
                return Some(DiskWake::BgRetry(quiet_at));
            }
            self.background.pop_front().expect("checked non-empty")
        } else {
            return None;
        };
        let parts = self.service.service_parts(req.offset, req.bytes);
        if self.meter.state() != PowerState::Active {
            if self.meter.state() == PowerState::Idle {
                let gap = now.since(self.meter.state_since());
                self.stats.idle_gaps.record(gap);
            }
            self.meter.transition(PowerState::Active, now);
        }
        let done = now + parts.total();
        self.in_service = Some(InService {
            req,
            submit,
            started: now,
            parts,
        });
        Some(DiskWake::Io(done))
    }

    /// Builds the phase breakdown of a completed request. `spinup_stall`
    /// and `bg_interference` are clamped so their sum never exceeds the
    /// wait (`start − submit`); they cannot overlap in time anyway — a
    /// background transfer needs spinning platters.
    fn build_breakdown(
        &self,
        req: &DiskRequest,
        submit: SimTime,
        started: SimTime,
        now: SimTime,
        parts: ServiceParts,
    ) -> ServiceBreakdown {
        let wait = started.since(submit);
        let spinup_stall = submit.until(self.ready_since).min(wait);
        let bg_interference = if req.priority == Priority::Foreground {
            let (bg_start, bg_end) = self.bg_window;
            submit
                .max(bg_start)
                .until(started.min(bg_end))
                .min(wait.saturating_sub(spinup_stall))
        } else {
            Duration::ZERO
        };
        ServiceBreakdown {
            id: req.id,
            background: req.priority == Priority::Background,
            submit,
            start: started,
            end: now,
            seek: parts.seek,
            rotation: parts.rotation,
            transfer: parts.transfer,
            spinup_stall,
            bg_interference,
        }
    }

    /// Sets the idle guard before background dispatch (default 50 ms).
    pub fn set_bg_idle_guard(&mut self, guard: Duration) {
        self.bg_idle_guard = guard;
    }

    /// Switches per-completion [`ServiceBreakdown`] recording on or off
    /// (default off). Recording never perturbs service times or the
    /// random stream — only bookkeeping is added.
    pub fn set_record_breakdown(&mut self, on: bool) {
        self.record_breakdown = on;
        if !on {
            self.last_breakdown = None;
        }
    }

    /// Takes the breakdown of the most recently completed request, if
    /// recording is on. Call immediately after
    /// [`on_io_complete`](Self::on_io_complete).
    pub fn take_breakdown(&mut self) -> Option<ServiceBreakdown> {
        self.last_breakdown.take()
    }

    /// Sets the foreground queue-scheduling discipline (default FIFO).
    pub fn set_scheduler(&mut self, scheduler: SchedulerKind) {
        self.scheduler = scheduler;
    }

    /// True after [`fail_now`](Self::fail_now): the disk accepts no work.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Kills the disk at `now`: the spindle stops, the energy meter
    /// freezes (a failed drive is powered off), and every queued and
    /// in-flight request is aborted and returned so the owner can fail
    /// them upward with [`IoOutcome::DiskDead`]. Any wake already
    /// scheduled for this disk must be discarded by the owner.
    pub fn fail_now(&mut self, now: SimTime) -> Vec<DiskRequest> {
        self.dead = true;
        self.pending_park = false;
        // Freeze residency accounting in Standby: a dead disk spins no
        // platters. (Owners normally retire the meter at this instant and
        // swap in a hot spare, so this only matters for standalone use.)
        if self.meter.state() != PowerState::Standby {
            self.meter.transition(PowerState::Standby, now);
        }
        self.spindle = Spindle::Standby;
        let mut aborted: Vec<DiskRequest> = Vec::new();
        if let Some(svc) = self.in_service.take() {
            aborted.push(svc.req);
        }
        aborted.extend(self.foreground.drain(..).map(|q| q.req));
        aborted.extend(self.background.drain(..).map(|q| q.req));
        aborted
    }

    /// Delivers a deferred-background retry: attempts to dispatch queued
    /// background work if the disk is still free.
    pub fn on_bg_retry(&mut self, now: SimTime) -> Option<DiskWake> {
        if self.in_service.is_some() || !matches!(self.spindle, Spindle::Ready) {
            return None;
        }
        let wake = self.start_next(now);
        if wake.is_none() && self.pending_park {
            self.pending_park = false;
            self.meter.transition(PowerState::SpinningDown, now);
            self.spindle = Spindle::SpinningDown { then_up: false };
            return Some(DiskWake::SpinDown(now + self.params.spin_down_time));
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(seed: u64) -> Disk {
        Disk::new(0, DiskParams::ultrastar_36z15(), SimRng::seed_from(seed))
    }

    fn fg(id: u64, offset: u64, bytes: u64) -> DiskRequest {
        DiskRequest::new(id, IoKind::Write, offset, bytes, Priority::Foreground)
    }

    fn bg(id: u64, offset: u64, bytes: u64) -> DiskRequest {
        DiskRequest::new(id, IoKind::Write, offset, bytes, Priority::Background)
    }

    #[test]
    fn single_request_lifecycle() {
        let mut d = disk(1);
        assert!(d.is_idle());
        let wake = d.submit(fg(1, 0, 64 * 1024), SimTime::ZERO).unwrap();
        let DiskWake::Io(t) = wake else {
            panic!("expected Io wake")
        };
        assert!(d.is_busy());
        assert_eq!(d.power_state(), PowerState::Active);
        let out = d.on_io_complete(t);
        assert_eq!(out.completed.id, 1);
        assert!(out.next.is_none());
        assert!(d.is_idle());
        assert_eq!(d.power_state(), PowerState::Idle);
        assert_eq!(d.io_stats().foreground_requests, 1);
    }

    #[test]
    fn queued_requests_chain() {
        let mut d = disk(2);
        let w1 = d.submit(fg(1, 0, 4096), SimTime::ZERO).unwrap();
        assert!(d.submit(fg(2, 8192, 4096), SimTime::ZERO).is_none());
        let out1 = d.on_io_complete(w1.due());
        let w2 = out1.next.expect("second request should enter service");
        let out2 = d.on_io_complete(w2.due());
        assert_eq!(out2.completed.id, 2);
        assert!(out2.next.is_none());
    }

    #[test]
    fn foreground_jumps_ahead_of_background() {
        let mut d = disk(3);
        // Start past the idle guard so background work dispatches.
        let t0 = SimTime::from_secs(1);
        let w = d.submit(bg(10, 0, 4096), t0).unwrap();
        // Queue a background and a foreground while busy.
        d.submit(bg(11, 4096, 4096), t0);
        d.submit(fg(1, 8192, 4096), t0);
        let o1 = d.on_io_complete(w.due());
        assert_eq!(o1.completed.id, 10);
        let o2 = d.on_io_complete(o1.next.unwrap().due());
        assert_eq!(
            o2.completed.id, 1,
            "foreground must run before queued background"
        );
        // The remaining background request waits out the idle guard.
        let retry = o2.next.unwrap();
        assert!(matches!(retry, DiskWake::BgRetry(_)));
        let io = d.on_bg_retry(retry.due()).unwrap();
        let o3 = d.on_io_complete(io.due());
        assert_eq!(o3.completed.id, 11);
    }

    #[test]
    fn standby_disk_spins_up_on_submit() {
        let mut d = Disk::with_initial_state(
            0,
            DiskParams::ultrastar_36z15(),
            SimRng::seed_from(4),
            PowerState::Standby,
        );
        let wake = d.submit(fg(1, 0, 4096), SimTime::ZERO).unwrap();
        let DiskWake::SpinUp(t) = wake else {
            panic!("expected spin-up wake")
        };
        assert_eq!(
            t,
            SimTime::ZERO + DiskParams::ultrastar_36z15().spin_up_time
        );
        assert_eq!(d.io_stats().spin_up_faults, 1);
        let io = d
            .on_spin_up_complete(t)
            .expect("queued io starts after spin-up");
        let out = d.on_io_complete(io.due());
        assert_eq!(out.completed.id, 1);
        // Spin-up latency dominates: > 10.9 s.
        assert!(io.due().as_secs_f64() > 10.9);
        assert_eq!(d.energy_report(io.due()).spin_ups, 1);
    }

    #[test]
    fn spin_down_then_request_mid_transition() {
        let mut d = disk(5);
        let down = d.spin_down(SimTime::ZERO).unwrap();
        let DiskWake::SpinDown(t_down) = down else {
            panic!()
        };
        // Request arrives mid-spin-down.
        assert!(d
            .submit(fg(1, 0, 4096), SimTime::from_millis(500))
            .is_none());
        let up = d
            .on_spin_down_complete(t_down)
            .expect("must bounce back up");
        let DiskWake::SpinUp(t_up) = up else { panic!() };
        let io = d.on_spin_up_complete(t_up).unwrap();
        let out = d.on_io_complete(io.due());
        assert_eq!(out.completed.id, 1);
        let rep = d.energy_report(io.due());
        assert_eq!(rep.spin_downs, 1);
        assert_eq!(rep.spin_ups, 1);
    }

    #[test]
    fn spin_down_refused_when_busy() {
        let mut d = disk(6);
        d.submit(fg(1, 0, 4096), SimTime::ZERO);
        assert!(d.spin_down(SimTime::ZERO).is_none());
    }

    #[test]
    fn spin_down_completes_to_standby() {
        let mut d = disk(7);
        let w = d.spin_down(SimTime::ZERO).unwrap();
        assert!(d.on_spin_down_complete(w.due()).is_none());
        assert_eq!(d.power_state(), PowerState::Standby);
        assert!(!d.is_spun_up());
    }

    #[test]
    fn explicit_spin_up() {
        let mut d = Disk::with_initial_state(
            0,
            DiskParams::ultrastar_36z15(),
            SimRng::seed_from(8),
            PowerState::Standby,
        );
        let w = d.spin_up(SimTime::ZERO).unwrap();
        assert!(d.on_spin_up_complete(w.due()).is_none());
        assert_eq!(d.power_state(), PowerState::Idle);
        // Redundant spin-up is a no-op.
        assert!(d.spin_up(SimTime::from_secs(20)).is_none());
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk(9);
        let w1 = d.submit(fg(1, 0, 64 * 1024), SimTime::ZERO).unwrap();
        d.submit(bg(2, 1 << 20, 32 * 1024), SimTime::ZERO);
        let o1 = d.on_io_complete(w1.due());
        // Background dispatch waits for the idle guard after fg activity.
        let retry = o1.next.unwrap();
        assert!(matches!(retry, DiskWake::BgRetry(_)));
        let io = d.on_bg_retry(retry.due()).unwrap();
        let o2 = d.on_io_complete(io.due());
        assert_eq!(o2.completed.id, 2);
        let s = d.io_stats();
        assert_eq!(s.foreground_bytes, 64 * 1024);
        assert_eq!(s.background_bytes, 32 * 1024);
        assert!(s.foreground_busy > Duration::ZERO);
        assert!(s.background_busy > Duration::ZERO);
    }

    #[test]
    fn energy_time_conservation() {
        let mut d = disk(10);
        let mut t = SimTime::ZERO;
        for i in 0..50u64 {
            let w = d
                .submit(fg(i, (i * 997 * 4096) % (16 << 30), 16 * 1024), t)
                .unwrap();
            t = w.due();
            d.on_io_complete(t);
            t += Duration::from_millis(7);
        }
        let rep = d.energy_report(t);
        assert_eq!(rep.total_time(), t.since(SimTime::ZERO));
        assert!(rep.total_joules > 0.0);
    }

    #[test]
    #[should_panic(expected = "io completion delivered to idle disk")]
    fn completion_without_service_panics() {
        let mut d = disk(11);
        d.on_io_complete(SimTime::ZERO);
    }

    #[test]
    fn park_while_busy_spins_down_on_drain() {
        let mut d = disk(12);
        let w = d.submit(fg(1, 0, 4096), SimTime::ZERO).unwrap();
        assert!(d.park_when_idle(SimTime::ZERO).is_none());
        assert!(d.is_park_pending());
        let out = d.on_io_complete(w.due());
        let DiskWake::SpinDown(t) = out.next.expect("park triggers spin-down") else {
            panic!("expected spin-down wake");
        };
        assert!(d.on_spin_down_complete(t).is_none());
        assert_eq!(d.power_state(), PowerState::Standby);
    }

    #[test]
    fn park_while_idle_is_immediate() {
        let mut d = disk(13);
        let w = d.park_when_idle(SimTime::ZERO).unwrap();
        assert!(matches!(w, DiskWake::SpinDown(_)));
    }

    #[test]
    fn new_submission_cancels_park() {
        let mut d = disk(14);
        let w1 = d.submit(fg(1, 0, 4096), SimTime::ZERO).unwrap();
        d.park_when_idle(SimTime::ZERO);
        // Fresh work arrives before the drain: the park is dropped.
        d.submit(fg(2, 8192, 4096), SimTime::ZERO);
        assert!(!d.is_park_pending());
        let o1 = d.on_io_complete(w1.due());
        let o2 = d.on_io_complete(o1.next.unwrap().due());
        assert!(o2.next.is_none());
        assert_eq!(d.power_state(), PowerState::Idle);
    }

    #[test]
    fn bg_idle_guard_defers_until_quiet() {
        let mut d = disk(16);
        // Foreground activity at t=0 stamps last_fg_activity.
        let w = d.submit(fg(1, 0, 4096), SimTime::ZERO).unwrap();
        let o = d.on_io_complete(w.due());
        assert!(o.next.is_none());
        // Background submitted immediately after is deferred ~50 ms.
        let wake = d.submit(bg(2, 8192, 4096), w.due()).unwrap();
        let DiskWake::BgRetry(t) = wake else {
            panic!("expected deferral, got {wake:?}");
        };
        assert_eq!(t, w.due() + Duration::from_millis(50));
        let io = d.on_bg_retry(t).expect("guard expired");
        assert!(matches!(io, DiskWake::Io(_)));
        let done = d.on_io_complete(io.due());
        assert_eq!(done.completed.id, 2);
    }

    #[test]
    fn fail_now_aborts_all_queued_work() {
        let mut d = disk(17);
        d.submit(fg(1, 0, 4096), SimTime::ZERO);
        d.submit(fg(2, 8192, 4096), SimTime::ZERO);
        d.submit(bg(3, 1 << 20, 4096), SimTime::ZERO);
        let aborted = d.fail_now(SimTime::from_millis(1));
        assert_eq!(aborted.len(), 3, "in-service + queued all aborted");
        assert!(d.is_dead());
        assert!(!d.is_busy());
        assert_eq!(d.power_state(), PowerState::Standby);
    }

    #[test]
    #[should_panic(expected = "submit to dead disk")]
    fn dead_disk_rejects_submissions() {
        let mut d = disk(18);
        d.fail_now(SimTime::ZERO);
        d.submit(fg(1, 0, 4096), SimTime::ZERO);
    }

    #[test]
    fn spare_meter_starts_at_install_time() {
        let t = SimTime::from_secs(100);
        let d = Disk::with_initial_state_at(
            0,
            DiskParams::ultrastar_36z15(),
            SimRng::seed_from(19),
            PowerState::Idle,
            t,
        );
        let rep = d.energy_report(SimTime::from_secs(110));
        assert_eq!(rep.total_time(), Duration::from_secs(10));
    }

    #[test]
    fn explicit_spin_up_cancels_park() {
        let mut d = disk(15);
        let w = d.submit(fg(1, 0, 4096), SimTime::ZERO).unwrap();
        d.park_when_idle(SimTime::ZERO);
        d.spin_up(SimTime::ZERO); // policy changed its mind
        let out = d.on_io_complete(w.due());
        assert!(out.next.is_none());
        assert_eq!(d.power_state(), PowerState::Idle);
    }
}

#[cfg(test)]
mod idle_gap_tests {
    use super::*;

    #[test]
    fn records_idle_slots_between_requests() {
        let mut d = Disk::new(0, DiskParams::ultrastar_36z15(), SimRng::seed_from(30));
        let mut t = SimTime::ZERO;
        for i in 0..5u64 {
            let w = d
                .submit(
                    DiskRequest::new(i, IoKind::Write, i * (1 << 20), 4096, Priority::Foreground),
                    t,
                )
                .unwrap();
            t = w.due();
            d.on_io_complete(t);
            t += Duration::from_millis(20); // 20 ms idle slots
        }
        let h = d.io_stats().idle_gaps;
        // The first request finds the disk idle since t=0 (one long-ish
        // gap of 0); subsequent ones record ~20 ms gaps.
        assert!(h.count >= 4);
        assert!(h.fraction_shorter_than(Duration::from_millis(100)) > 0.9);
        assert!(h.mean() <= Duration::from_millis(25));
    }

    #[test]
    fn fraction_respects_threshold() {
        let mut h = IdleGapHistogram::default();
        h.record(Duration::from_millis(5)); // bucket <10ms
        h.record(Duration::from_secs(50)); // bucket <100s
        assert!((h.fraction_shorter_than(Duration::from_millis(10)) - 0.5).abs() < 1e-9);
        assert!((h.fraction_shorter_than(Duration::from_secs(100)) - 1.0).abs() < 1e-9);
        assert_eq!(h.fraction_shorter_than(Duration::from_micros(500)), 0.0);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = IdleGapHistogram::default();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.fraction_shorter_than(Duration::from_secs(1)), 0.0);
    }
}

#[cfg(test)]
mod scheduler_tests {
    use super::*;

    #[test]
    fn sstf_picks_nearest_queued_request() {
        let mut d = Disk::new(0, DiskParams::ultrastar_36z15(), SimRng::seed_from(40));
        d.set_scheduler(SchedulerKind::Sstf);
        // Park the head near offset 0.
        let w = d.submit(fg_req(0, 0), SimTime::ZERO).unwrap();
        // Queue far and near requests while busy.
        d.submit(fg_req(1, 10 << 30), SimTime::ZERO);
        d.submit(fg_req(2, 1 << 20), SimTime::ZERO);
        let o1 = d.on_io_complete(w.due());
        let o2 = d.on_io_complete(o1.next.unwrap().due());
        assert_eq!(o2.completed.id, 2, "nearest request serviced first");
        let o3 = d.on_io_complete(o2.next.unwrap().due());
        assert_eq!(o3.completed.id, 1);
    }

    #[test]
    fn fifo_preserves_order() {
        let mut d = Disk::new(0, DiskParams::ultrastar_36z15(), SimRng::seed_from(41));
        let w = d.submit(fg_req(0, 0), SimTime::ZERO).unwrap();
        d.submit(fg_req(1, 10 << 30), SimTime::ZERO);
        d.submit(fg_req(2, 1 << 20), SimTime::ZERO);
        let o1 = d.on_io_complete(w.due());
        let o2 = d.on_io_complete(o1.next.unwrap().due());
        assert_eq!(o2.completed.id, 1);
    }

    #[test]
    fn sstf_reduces_total_seek_time_on_deep_queues() {
        let run = |sched: SchedulerKind| {
            let mut d = Disk::new(0, DiskParams::ultrastar_36z15(), SimRng::seed_from(42));
            d.set_scheduler(sched);
            let mut rng = SimRng::seed_from(43);
            // Submit a deep batch all at once.
            let mut wake = None;
            for i in 0..64u64 {
                let off = rng.below((16u64 << 30) / 4096) * 4096;
                if let Some(w) = d.submit(fg_req(i, off), SimTime::ZERO) {
                    wake = Some(w);
                }
            }
            let mut t = wake.expect("first submit starts service").due();
            loop {
                let out = d.on_io_complete(t);
                match out.next {
                    Some(w) => t = w.due(),
                    None => break,
                }
            }
            t
        };
        let fifo_done = run(SchedulerKind::Fifo);
        let sstf_done = run(SchedulerKind::Sstf);
        assert!(
            sstf_done.as_secs_f64() < fifo_done.as_secs_f64() * 0.95,
            "SSTF {sstf_done} should beat FIFO {fifo_done} by >5%"
        );
    }

    fn fg_req(id: u64, offset: u64) -> DiskRequest {
        DiskRequest::new(id, IoKind::Write, offset, 16 * 1024, Priority::Foreground)
    }
}

#[cfg(test)]
mod breakdown_tests {
    use super::*;

    fn disk(seed: u64) -> Disk {
        let mut d = Disk::new(0, DiskParams::ultrastar_36z15(), SimRng::seed_from(seed));
        d.set_record_breakdown(true);
        d
    }

    fn fg(id: u64, offset: u64) -> DiskRequest {
        DiskRequest::new(id, IoKind::Write, offset, 16 * 1024, Priority::Foreground)
    }

    #[test]
    fn recording_off_by_default() {
        let mut d = Disk::new(0, DiskParams::ultrastar_36z15(), SimRng::seed_from(60));
        let w = d.submit(fg(1, 0), SimTime::ZERO).unwrap();
        d.on_io_complete(w.due());
        assert!(d.take_breakdown().is_none());
    }

    #[test]
    fn service_parts_sum_and_queue_wait() {
        let mut d = disk(61);
        let w1 = d.submit(fg(1, 0), SimTime::ZERO).unwrap();
        d.submit(fg(2, 1 << 30), SimTime::ZERO);
        let o1 = d.on_io_complete(w1.due());
        let b1 = d.take_breakdown().unwrap();
        assert_eq!(b1.id, 1);
        assert_eq!(b1.submit, SimTime::ZERO);
        assert_eq!(b1.queue_wait(), Duration::ZERO);
        assert_eq!(b1.seek + b1.rotation + b1.transfer, b1.end.since(b1.start));
        let w2 = o1.next.unwrap();
        d.on_io_complete(w2.due());
        let b2 = d.take_breakdown().unwrap();
        assert_eq!(b2.id, 2);
        // Second request waited out the first one's service time.
        assert_eq!(b2.queue_wait(), w1.due().since(SimTime::ZERO));
        assert_eq!(b2.spinup_stall, Duration::ZERO);
        assert_eq!(b2.bg_interference, Duration::ZERO);
        assert_eq!(
            b2.queue_wait()
                + b2.spinup_stall
                + b2.bg_interference
                + b2.seek
                + b2.rotation
                + b2.transfer,
            b2.total()
        );
    }

    #[test]
    fn spin_up_stall_is_attributed() {
        let mut d = Disk::with_initial_state(
            0,
            DiskParams::ultrastar_36z15(),
            SimRng::seed_from(62),
            PowerState::Standby,
        );
        d.set_record_breakdown(true);
        let w = d.submit(fg(1, 0), SimTime::ZERO).unwrap();
        let DiskWake::SpinUp(t) = w else { panic!() };
        let io = d.on_spin_up_complete(t).unwrap();
        d.on_io_complete(io.due());
        let b = d.take_breakdown().unwrap();
        assert_eq!(b.spinup_stall, DiskParams::ultrastar_36z15().spin_up_time);
        assert_eq!(b.queue_wait(), Duration::ZERO);
    }

    #[test]
    fn background_interference_is_attributed() {
        let mut d = disk(63);
        // Past the idle guard so the background transfer dispatches.
        let t0 = SimTime::from_secs(1);
        let w = d
            .submit(
                DiskRequest::new(10, IoKind::Write, 0, 1 << 20, Priority::Background),
                t0,
            )
            .unwrap();
        // Foreground arrives mid-background-transfer.
        let t_fg = t0 + Duration::from_micros(100);
        assert!(d.submit(fg(1, 1 << 30), t_fg).is_none());
        let o = d.on_io_complete(w.due());
        let bg_done = w.due();
        let b_bg = d.take_breakdown().unwrap();
        assert!(b_bg.background);
        d.on_io_complete(o.next.unwrap().due());
        let b = d.take_breakdown().unwrap();
        assert_eq!(b.id, 1);
        assert_eq!(b.bg_interference, bg_done.since(t_fg));
        assert_eq!(b.queue_wait(), Duration::ZERO);
    }
}

#[cfg(test)]
mod queue_depth_tests {
    use super::*;

    #[test]
    fn max_queue_depth_tracks_backlog() {
        let mut d = Disk::new(0, DiskParams::ultrastar_36z15(), SimRng::seed_from(50));
        let mut wake = None;
        for i in 0..5u64 {
            let r = DiskRequest::new(i, IoKind::Write, i * (1 << 20), 4096, Priority::Foreground);
            if let Some(w) = d.submit(r, SimTime::ZERO) {
                wake = Some(w);
            }
        }
        assert_eq!(d.io_stats().max_queue_depth, 5);
        // Drain.
        let mut t = wake.unwrap().due();
        while let Some(w) = d.on_io_complete(t).next {
            t = w.due();
        }
        assert_eq!(d.io_stats().max_queue_depth, 5, "high-water mark persists");
    }
}
