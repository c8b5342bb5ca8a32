//! Shared simulation context handed to controller policies.
//!
//! [`SimCtx`] owns the array core: the disks, the wake/timer hand-off,
//! the power-state cache, the user-request slab and the report
//! collectors. Policies call
//! [`SimCtx::submit`]/[`SimCtx::spin_down`]/… and the driver drains the
//! accumulated disk wakes and timers into its event queue after every
//! callback, so policies never touch the queue directly.
//!
//! The context owns each user request's lifecycle: a controller admits
//! it ([`SimCtx::register_user`]), submits its foreground sub-requests
//! ([`SimCtx::submit_user`], which counts each and tags its span leg)
//! and retires them ([`SimCtx::user_sub_done`]); the driver audits the
//! stragglers once ([`SimCtx::check_users`]).
//!
//! Two concerns live in files of their own, each a field group plus an
//! `impl SimCtx` block that reaches the disks through `self`:
//! - `fault.rs`, the fault engine: failures and hot spares, transient
//!   faults, latent errors, shocks, the scrub, the rebuild and the
//!   degraded-read redirect. The driver routes every finished I/O
//!   through [`SimCtx::complete_io`].
//! - `observe.rs`, the observer: trace sink, spans, background spans,
//!   telemetry, SLO alerts and exemplars. The driver collects them all
//!   with [`SimCtx::take_observations`].

mod fault;
mod observe;

pub use fault::{IoFate, ShockEffect};
pub use observe::RunObservations;

use crate::config::SimConfig;
use crate::faults::FaultMetrics;
use crate::intervals::{IntervalTracker, Phase};
use crate::report::ResponseStats;
use fault::FaultEngine;
use observe::Observer;
use rolo_disk::{
    Disk, DiskEnergyReport, DiskId, DiskRequest, DiskWake, IoKind, PowerState, Priority,
};
use rolo_obs::{LegFlavor, NullSink, SimEvent, Timeline, TraceSink};
use rolo_raid::ArrayGeometry;
use rolo_sim::{Duration, IoSlab, IoSlot, SimRng, SimTime};
use rolo_trace::ReqKind;

#[derive(Debug)]
struct Outstanding {
    /// The externally-visible user request id: it appears in trace
    /// events and spans, so it is stored here (stable) rather than
    /// derived from the slab slot (recycled).
    user_id: u64,
    kind: ReqKind,
    arrival: SimTime,
    subs_left: u32,
}

/// Shared context: disks, request tracking, report collectors.
#[derive(Debug)]
pub struct SimCtx {
    /// Current simulated time (set by the driver before each callback).
    pub now: SimTime,
    geometry: ArrayGeometry,
    disks: Vec<Disk>,
    pending_wakes: Vec<(DiskId, DiskWake)>,
    pending_timers: Vec<(SimTime, u64)>,
    /// In-flight user requests, slab-allocated: completion is one
    /// indexed access via the controller-held [`IoSlot`], not a hash
    /// probe per sub-request.
    outstanding: IoSlab<Outstanding>,
    next_io_id: u64,
    /// SoA mirror of each disk's power state, updated at the two points
    /// a disk's state can change (`note_disk_state` and
    /// [`SimCtx::fail_disk`]). Keeps the power-sampling hot path off the
    /// pointer-chasing `Disk` structs.
    power_soa: Vec<PowerState>,
    /// SoA instantaneous draw (W) per disk, cached alongside
    /// `power_soa` — power is a pure function of the state, so the two
    /// are maintained together and `total_power_w` is a contiguous sum.
    watts_soa: Vec<f64>,
    /// Response-time statistics over reads only.
    pub read_responses: ResponseStats,
    /// Response-time statistics over writes only.
    pub write_responses: ResponseStats,
    /// Logging/destaging phase tracker.
    pub intervals: IntervalTracker,
    /// Occupied logging capacity over time (bytes).
    pub log_timeline: Timeline,
    /// Sampled aggregate power draw over time (watts).
    pub power_timeline: Timeline,
    /// Response-time statistics over user requests completed while the
    /// array was degraded (at least one slot awaiting rebuild).
    pub degraded_responses: ResponseStats,
    /// Fault-injection counters (see [`FaultMetrics`]).
    pub faults: FaultMetrics,
    /// The fault engine's state (`fault.rs`).
    fault: FaultEngine,
    /// The observer's state (`observe.rs`). The simulation never reads
    /// it, so observing cannot perturb outcomes.
    obs: Observer,
}

impl SimCtx {
    /// Builds the context: one disk per [`SimConfig::disk_count`], each
    /// with a forked deterministic RNG stream. `standby` selects the
    /// disks that begin spun down. Tracing is off ([`NullSink`]).
    pub fn new(cfg: &SimConfig, geometry: ArrayGeometry, standby: &[bool]) -> Self {
        Self::with_sink(cfg, geometry, standby, Box::new(NullSink))
    }

    /// Like [`SimCtx::new`], but with a caller-supplied trace sink.
    pub fn with_sink(
        cfg: &SimConfig,
        geometry: ArrayGeometry,
        standby: &[bool],
        sink: Box<dyn TraceSink>,
    ) -> Self {
        assert_eq!(standby.len(), cfg.disk_count(), "standby mask length");
        let rng = SimRng::seed_from(cfg.seed);
        let disks: Vec<Disk> = (0..cfg.disk_count())
            .map(|id| {
                let state = if standby[id] {
                    PowerState::Standby
                } else {
                    PowerState::Idle
                };
                let mut disk = Disk::with_initial_state(
                    id,
                    cfg.disk.clone(),
                    rng.fork(&format!("disk-{id}")),
                    state,
                );
                disk.set_bg_idle_guard(cfg.bg_idle_guard);
                disk.set_scheduler(cfg.scheduler);
                disk
            })
            .collect();
        let disk_count = cfg.disk_count();
        SimCtx {
            now: SimTime::ZERO,
            geometry,
            power_soa: disks.iter().map(|d| d.power_state()).collect(),
            watts_soa: disks.iter().map(|d| d.current_power_w()).collect(),
            disks,
            pending_wakes: Vec::new(),
            pending_timers: Vec::new(),
            outstanding: IoSlab::with_capacity(256),
            next_io_id: 1,
            read_responses: ResponseStats::new(),
            write_responses: ResponseStats::new(),
            intervals: IntervalTracker::new(),
            log_timeline: Timeline::new(Duration::from_secs(60)),
            power_timeline: Timeline::new(Duration::from_secs(30)),
            degraded_responses: ResponseStats::new(),
            faults: FaultMetrics::default(),
            fault: FaultEngine::new(cfg, disk_count),
            obs: Observer::new(cfg, disk_count, sink),
        }
    }

    /// Counts the transition in telemetry and emits
    /// [`SimEvent::DiskState`] when `disk` has left the power state
    /// captured in `before`. Also the maintenance point of the SoA power
    /// cache: every context method that can change a disk's state
    /// funnels through here.
    fn note_disk_state(&mut self, disk: DiskId, before: PowerState) {
        let after = self.disks[disk].power_state();
        if after != before {
            self.power_soa[disk] = after;
            self.watts_soa[disk] = self.disks[disk].current_power_w();
            self.obs.on_transition(disk);
            self.emit(|| SimEvent::DiskState {
                disk,
                from: before,
                to: after,
            });
        }
    }

    /// The array geometry.
    pub fn geometry(&self) -> &ArrayGeometry {
        &self.geometry
    }

    /// Immutable view of a disk.
    pub fn disk(&self, id: DiskId) -> &Disk {
        &self.disks[id]
    }

    /// All disks.
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    /// Number of disks.
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Allocates a fresh sub-request id for an engine-owned transfer.
    fn alloc_io_id(&mut self) -> u64 {
        let id = self.next_io_id;
        self.next_io_id += 1;
        id
    }

    /// Submits a sub-request to `disk` under a fresh id, returning the
    /// id. `tag` comes back unchanged in the finished request: it is the
    /// slot of the caller's per-I/O state.
    pub fn submit(
        &mut self,
        disk: DiskId,
        kind: IoKind,
        offset: u64,
        bytes: u64,
        priority: Priority,
        tag: IoSlot,
    ) -> u64 {
        let id = self.alloc_io_id();
        let req = DiskRequest {
            tag,
            ..DiskRequest::new(id, kind, offset, bytes, priority)
        };
        self.submit_request(disk, req);
        id
    }

    /// Submits `req` to `disk` as it stands: an engine transfer under a
    /// pre-allocated id, or a parked request's retry.
    pub fn submit_request(&mut self, disk: DiskId, req: DiskRequest) {
        let now = self.now;
        let before = self.disks[disk].power_state();
        if let Some(w) = self.disks[disk].submit(req, now) {
            self.pending_wakes.push((disk, w));
        }
        self.obs.on_dispatch(req.bytes);
        self.note_disk_state(disk, before);
        self.emit(|| SimEvent::RequestDispatch {
            io: req.id,
            disk,
            kind: req.kind,
            offset: req.offset,
            bytes: req.bytes,
            background: req.priority == Priority::Background,
        });
    }

    /// Asks `disk` to spin down as soon as it drains (park semantics:
    /// immediate if idle, deferred to the last completion otherwise; any
    /// new submission cancels it).
    pub fn spin_down(&mut self, disk: DiskId) {
        let now = self.now;
        let before = self.disks[disk].power_state();
        if let Some(w) = self.disks[disk].park_when_idle(now) {
            self.pending_wakes.push((disk, w));
        }
        self.note_disk_state(disk, before);
    }

    /// Spins `disk` up if it is in standby.
    pub fn spin_up(&mut self, disk: DiskId) {
        let now = self.now;
        let before = self.disks[disk].power_state();
        if let Some(w) = self.disks[disk].spin_up(now) {
            self.pending_wakes.push((disk, w));
        }
        self.note_disk_state(disk, before);
    }

    /// Schedules a policy timer `delay` from now carrying `token`.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.pending_timers.push((self.now + delay, token));
    }

    /// True when at least one wake or timer is pending — lets the driver
    /// skip its drain machinery entirely on the (common) quiet steps.
    #[inline]
    pub fn has_pending(&self) -> bool {
        !self.pending_wakes.is_empty() || !self.pending_timers.is_empty()
    }

    /// Driver hook: drains the wakes accumulated since the last call, in
    /// the order they were raised, by swapping them into `out` (which
    /// must be empty) and leaving the context holding `out`'s spare
    /// capacity. Driving the drain loop with one reused scratch vector
    /// means zero per-step allocations once the vectors warm up.
    #[inline]
    pub fn drain_wakes_into(&mut self, out: &mut Vec<(DiskId, DiskWake)>) {
        debug_assert!(out.is_empty(), "drain scratch must be drained first");
        std::mem::swap(&mut self.pending_wakes, out);
    }

    /// Driver hook: drains the pending timers into `out`, in the order
    /// they were set; see [`SimCtx::drain_wakes_into`].
    #[inline]
    pub fn drain_timers_into(&mut self, out: &mut Vec<(SimTime, u64)>) {
        debug_assert!(out.is_empty(), "drain scratch must be drained first");
        std::mem::swap(&mut self.pending_timers, out);
    }

    /// Driver hook: delivers a disk wake back to the disk, pushing any
    /// follow-up wake. For I/O completions, returns the finished request;
    /// the driver delivers those through [`SimCtx::complete_io`], which
    /// also routes them.
    pub fn deliver_wake(&mut self, disk: DiskId, wake_kind: WakeKind) -> Option<DiskRequest> {
        let now = self.now;
        let before = self.disks[disk].power_state();
        let d = &mut self.disks[disk];
        let (next, completed) = match wake_kind {
            WakeKind::Io => {
                let out = d.on_io_complete(now);
                self.obs.on_leg(d);
                (out.next, Some(out.completed))
            }
            WakeKind::SpinUp => (d.on_spin_up_complete(now), None),
            WakeKind::SpinDown => (d.on_spin_down_complete(now), None),
            WakeKind::BgRetry => (d.on_bg_retry(now), None),
        };
        if let Some(w) = next {
            self.pending_wakes.push((disk, w));
        }
        self.note_disk_state(disk, before);
        completed
    }

    /// Admits user request `user_id` at `now` with no sub-requests yet,
    /// returning the slab slot that names it to [`SimCtx::submit_user`],
    /// [`SimCtx::redirect_read`] and [`SimCtx::user_sub_done`]. The
    /// `user_id` stays the externally-visible identity (traces, spans);
    /// the slot is a recycled internal handle, which a controller may
    /// also use to index its own per-request state (a
    /// [`rolo_sim::SlotTable`]) until the request retires.
    pub fn register_user(&mut self, user_id: u64, kind: ReqKind) -> IoSlot {
        let arrival = self.now;
        let slot = self.outstanding.insert(Outstanding {
            user_id,
            kind,
            arrival,
            subs_left: 0,
        });
        self.obs.on_admit(user_id, kind, arrival);
        slot
    }

    /// The in-flight user request at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is stale (request already completed).
    fn user(&mut self, slot: IoSlot) -> &mut Outstanding {
        self.outstanding
            .get_mut(slot)
            .unwrap_or_else(|| panic!("unknown user request slot {slot:?}"))
    }

    /// Adds `subs` pending sub-requests to the user request at `slot`:
    /// sub-requests the controller submits itself and retires through
    /// [`SimCtx::user_sub_done`] (the parity controllers' read-modify-
    /// write chains).
    ///
    /// # Panics
    ///
    /// Panics if the slot is stale (request already completed).
    pub fn add_user_subs(&mut self, slot: IoSlot, subs: u32) {
        self.user(slot).subs_left += subs;
    }

    /// Submits one foreground sub-request of the user request at `user`
    /// to `disk`, covering `extent` (offset, bytes): the disk request
    /// carries the controller's `tag`, the user request gains one
    /// pending sub-request, and the span leg is tagged `flavor` under
    /// the request's user id.
    ///
    /// # Panics
    ///
    /// Panics if the user slot is stale (request already completed).
    pub fn submit_user(
        &mut self,
        user: IoSlot,
        tag: IoSlot,
        disk: DiskId,
        kind: IoKind,
        (offset, bytes): (u64, u64),
        flavor: LegFlavor,
    ) {
        let id = self.submit(disk, kind, offset, bytes, Priority::Foreground, tag);
        let o = self.user(user);
        o.subs_left += 1;
        let user_id = o.user_id;
        self.tag_io(id, user_id, flavor);
    }

    /// Marks one sub-request of the user request at `slot` complete.
    /// When the last one lands, records the response time, retires the
    /// slot and returns true.
    ///
    /// # Panics
    ///
    /// Panics if the slot is stale (request already completed).
    pub fn user_sub_done(&mut self, slot: IoSlot) -> bool {
        let o = self.user(slot);
        o.subs_left -= 1;
        if o.subs_left > 0 {
            return false;
        }
        let o = self.outstanding.remove(slot).expect("present");
        let response = self.now.since(o.arrival);
        self.obs
            .on_complete(self.now, o.user_id, response, &self.power_soa);
        match o.kind {
            ReqKind::Read => self.read_responses.record(response),
            ReqKind::Write => self.write_responses.record(response),
        }
        if !self.fault.degraded.is_empty() {
            self.degraded_responses.record(response);
        }
        self.emit(|| SimEvent::RequestComplete {
            id: o.user_id,
            kind: o.kind,
            response_us: response.as_micros(),
        });
        true
    }

    /// Number of user requests still in flight.
    pub fn outstanding_users(&self) -> usize {
        self.outstanding.len()
    }

    /// End-of-run audit: every admitted user request completed.
    pub fn check_users(&self) -> Result<(), String> {
        match self.outstanding.len() {
            0 => Ok(()),
            n => Err(format!("{n} user requests unfinished")),
        }
    }

    /// Closes the array-wide Fig. 2 phase the previous call opened,
    /// charging it the energy spent since, and opens `phase` (see
    /// [`IntervalTracker::enter`]).
    pub fn enter_phase(&mut self, phase: Phase) {
        let energy = self.total_energy();
        self.intervals.enter(phase, self.now, energy);
    }

    /// Energy reports for every slot as of `now`: the live disk's report
    /// merged with the history of any dead disks that occupied the slot.
    pub fn energy_by_disk(&self) -> Vec<DiskEnergyReport> {
        self.disks
            .iter()
            .map(|d| {
                let live = d.energy_report(self.now);
                match self.fault.retired.get(&d.id()) {
                    Some(dead) => dead.merged(&live),
                    None => live,
                }
            })
            .collect()
    }

    /// Instantaneous aggregate power draw of the array (W): a contiguous
    /// sum over the SoA watts cache, not a walk over the disk structs.
    pub fn total_power_w(&self) -> f64 {
        let total: f64 = self.watts_soa.iter().sum();
        debug_assert_eq!(
            total,
            self.disks.iter().map(|d| d.current_power_w()).sum::<f64>(),
            "SoA power cache out of sync with disk states"
        );
        total
    }

    /// Total array energy (J) as of `now`, including dead disks' history.
    pub fn total_energy(&self) -> f64 {
        self.energy_by_disk().iter().map(|r| r.total_joules).sum()
    }

    /// Total spin cycles (spin-ups) across the array so far.
    pub fn spin_cycles(&self) -> u64 {
        self.energy_by_disk().iter().map(|r| r.spin_ups).sum()
    }
}

/// Which disk wake a driver event corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeKind {
    /// An I/O completion.
    Io,
    /// A spin-up completion.
    SpinUp,
    /// A spin-down completion.
    SpinDown,
    /// A deferred-background retry.
    BgRetry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use rolo_disk::IoOutcome;

    fn ctx() -> SimCtx {
        let cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        let geo = cfg.geometry().unwrap();
        let standby = vec![false; cfg.disk_count()];
        SimCtx::new(&cfg, geo, &standby)
    }

    /// A slot no request gets by default, so a round trip shows.
    fn tag() -> IoSlot {
        let tag = IoSlab::new().insert(());
        assert_ne!(tag, IoSlot::DANGLING);
        tag
    }

    /// Submits one foreground transfer, tagged [`tag`], to idle `disk`
    /// and completes it through the driver's routing call.
    fn complete(
        c: &mut SimCtx,
        disk: DiskId,
        kind: IoKind,
        bytes: u64,
    ) -> (DiskRequest, IoOutcome) {
        c.submit(disk, kind, 0, bytes, Priority::Foreground, tag());
        finish(c)
    }

    /// Completes the one pending transfer, which must be a policy's.
    fn finish(c: &mut SimCtx) -> (DiskRequest, IoOutcome) {
        let mut wakes = Vec::new();
        c.drain_wakes_into(&mut wakes);
        let [(d, DiskWake::Io(due))] = wakes[..] else {
            panic!("one I/O wake: {wakes:?}");
        };
        c.now = due;
        match c.complete_io(d) {
            IoFate::Policy(req, outcome) => (req, outcome),
            other => panic!("a policy transfer, not {other:?}"),
        }
    }

    #[test]
    fn submit_produces_wake() {
        let mut c = ctx();
        c.submit(0, IoKind::Write, 0, 4096, Priority::Foreground, tag());
        let mut wakes = Vec::new();
        c.drain_wakes_into(&mut wakes);
        assert_eq!(wakes.len(), 1);
        assert!(!c.has_pending(), "drain_wakes_into drains");
    }

    #[test]
    fn user_tracking_counts_subs() {
        let mut c = ctx();
        let slot = c.register_user(7, ReqKind::Write);
        c.add_user_subs(slot, 2);
        c.now = SimTime::from_millis(5);
        assert!(!c.user_sub_done(slot));
        assert!(c.user_sub_done(slot));
        assert_eq!(c.write_responses.count(), 1);
        assert_eq!(c.write_responses.max(), Some(Duration::from_millis(5)));
        assert_eq!(c.read_responses.count(), 0);
        assert_eq!(c.outstanding_users(), 0);
    }

    #[test]
    fn add_user_subs_extends() {
        let mut c = ctx();
        let slot = c.register_user(1, ReqKind::Read);
        c.add_user_subs(slot, 1);
        c.add_user_subs(slot, 1);
        assert!(!c.user_sub_done(slot));
        assert!(c.user_sub_done(slot));
    }

    #[test]
    #[should_panic(expected = "unknown user request slot")]
    fn stale_slot_rejected() {
        let mut c = ctx();
        let slot = c.register_user(1, ReqKind::Read);
        c.add_user_subs(slot, 1);
        assert!(c.user_sub_done(slot));
        // A second registration may recycle the slab index; the stale
        // handle's generation keeps it from aliasing the new request.
        let _other = c.register_user(2, ReqKind::Read);
        c.user_sub_done(slot);
    }

    #[test]
    fn submit_user_counts_and_tags_each_leg() {
        let cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        let standby = vec![false; cfg.disk_count()];
        let sink = Box::new(rolo_obs::SlowestSpans::new(2));
        let mut c = SimCtx::with_sink(&cfg, cfg.geometry().unwrap(), &standby, sink);
        c.enable_spans();
        let user = c.register_user(9, ReqKind::Write);
        let legs = [(0, LegFlavor::Transfer), (2, LegFlavor::MirrorCopy)];
        for (disk, flavor) in legs {
            c.submit_user(user, tag(), disk, IoKind::Write, (0, 4096), flavor);
        }
        assert_eq!(c.check_users(), Err("1 user requests unfinished".into()));
        let mut wakes = Vec::new();
        c.drain_wakes_into(&mut wakes);
        wakes.sort_by_key(|(_, w)| w.due());
        let mut done = Vec::new();
        for (d, w) in wakes {
            c.now = w.due();
            let IoFate::Policy(req, IoOutcome::Ok) = c.complete_io(d) else {
                panic!("a clean policy transfer");
            };
            assert_eq!(req.tag, tag());
            done.push(c.user_sub_done(user));
        }
        assert_eq!(done, [false, true]);
        assert_eq!(c.outstanding_users(), 0);
        assert!(c.check_users().is_ok());
        let spans = c.take_observations(false).sink.take_spans();
        let [span] = &spans[..] else {
            panic!("one finished span: {spans:?}");
        };
        assert_eq!(span.id, 9);
        // A leg's flavor names the phase of its final (transfer) slice.
        let mut got: Vec<_> = span
            .legs
            .iter()
            .map(|l| (l.disk, l.slices.iter().last().map(|s| s.phase)))
            .collect();
        got.sort_by_key(|&(d, _)| d);
        let want: Vec<_> = legs.iter().map(|&(d, f)| (d, Some(f.phase()))).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn standby_mask_respected() {
        let cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        let geo = cfg.geometry().unwrap();
        let standby = vec![false, false, true, true];
        let c = SimCtx::new(&cfg, geo, &standby);
        assert_eq!(c.disk(0).power_state(), PowerState::Idle);
        assert_eq!(c.disk(2).power_state(), PowerState::Standby);
        assert_eq!(c.spin_cycles(), 0, "initial standby costs no spin cycle");
    }

    #[test]
    fn energy_accumulates() {
        let mut c = ctx();
        c.now = SimTime::from_secs(10);
        let e = c.total_energy();
        // 4 idle disks × 10.2 W × 10 s.
        assert!((e - 4.0 * 10.2 * 10.0).abs() < 1e-6, "{e}");
        assert_eq!(c.energy_by_disk().len(), 4);
    }

    #[test]
    fn read_over_latent_extent_repairs_from_partner() {
        let mut c = ctx();
        c.apply_corruption(0, 4096);
        assert_eq!(c.faults.lse_injected, 1);
        assert_eq!(c.fault.corrupt[0].len(), 1);
        let (req, outcome) = complete(&mut c, 0, IoKind::Read, 64 * 1024);
        assert_eq!(outcome, IoOutcome::MediaError);
        assert_eq!(c.faults.lse_repaired_on_read, 1);
        assert_eq!(c.fault.corrupt[0].len(), 0);
        // The partner re-serves the read under a new id and the same tag.
        let user = c.register_user(1, ReqKind::Read);
        c.add_user_subs(user, 1);
        assert!(c.redirect_read(0, &req, outcome, user));
        let (redirected, outcome) = finish(&mut c);
        assert_eq!(outcome, IoOutcome::Ok);
        assert_ne!(redirected.id, req.id);
        assert_eq!((redirected.offset, redirected.tag), (req.offset, tag()));
        assert_eq!(c.faults.reads_redirected, 1);
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    #[test]
    fn latent_extents_on_both_copies_are_lost() {
        let mut c = ctx();
        c.apply_corruption(0, 0);
        c.apply_corruption(2, 0); // pair 0's mirror
        let (_, outcome) = complete(&mut c, 0, IoKind::Read, 8192);
        assert_eq!(outcome, IoOutcome::MediaError);
        assert_eq!(c.faults.lse_lost, 2, "both copies of the extent are gone");
        assert_eq!(c.fault.corrupt[0].len() + c.fault.corrupt[2].len(), 0);
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    #[test]
    fn write_replaces_latent_extent() {
        let mut c = ctx();
        c.apply_corruption(0, 4096);
        let (req, outcome) = complete(&mut c, 0, IoKind::Write, 64 * 1024);
        assert_eq!(outcome, IoOutcome::Ok);
        assert_eq!(req.tag, tag(), "a clean completion returns the tag");
        assert_eq!(c.faults.lse_overwritten, 1);
        assert_eq!(c.fault.corrupt[0].len(), 0);
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    #[test]
    fn disk_failure_dooms_partner_latent_extents() {
        let mut c = ctx();
        c.apply_corruption(0, 0); // will become the sole copy
        c.apply_corruption(2, 4096); // dies with the disk
        c.fail_disk(2).expect("first failure injects");
        assert_eq!(
            c.faults.lse_overwritten, 1,
            "dead disk's extent is rebuilt over"
        );
        assert_eq!(
            c.faults.lse_lost, 1,
            "surviving copy's latent extent lost its mirror"
        );
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    #[test]
    fn timed_out_requests_stay_parked_until_their_retry() {
        let mut cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        cfg.faults.timeout_per_io = 1.0;
        let geo = cfg.geometry().unwrap();
        let standby = vec![false; cfg.disk_count()];
        let mut c = SimCtx::new(&cfg, geo, &standby);
        let id = c.submit(0, IoKind::Read, 0, 4096, Priority::Foreground, tag());
        // Times out the pending transfer, returning the parked request.
        let time_out = |c: &mut SimCtx| {
            let mut wakes = Vec::new();
            c.drain_wakes_into(&mut wakes);
            c.now = wakes[0].1.due();
            match c.complete_io(0) {
                IoFate::Retry(parked, _) => c.fault.parked[&parked],
                other => panic!("a timeout with retries left parks, not {other:?}"),
            }
        };
        let parked = time_out(&mut c);
        assert_eq!((parked.id, parked.tag), (id, tag()));
        assert!(c.check_parked_retries().is_err());
        // The slot still holds the disk: the whole request is resubmitted
        // and comes off the disk unchanged.
        assert!(c.retry_parked(0, c.epoch(0), id).is_none());
        assert!(c.check_parked_retries().is_ok());
        assert_eq!(time_out(&mut c), parked);
        // The disk dies during the next backoff: the request comes back.
        let epoch = c.epoch(0);
        c.fail_disk(0).expect("first failure injects");
        let req = c.retry_parked(0, epoch, id).expect("dead slot");
        assert_eq!(req, parked);
        assert!(c.check_parked_retries().is_ok());
    }

    #[test]
    fn corruption_skips_degraded_slots() {
        let mut c = ctx();
        c.fail_disk(0).expect("first failure injects");
        c.apply_corruption(0, 0);
        assert_eq!(c.faults.lse_injected, 0, "replacement holds no data yet");
    }

    #[test]
    fn scrub_tick_skips_spun_down_disks() {
        let mut cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        cfg.scrub_enabled = true;
        let geo = cfg.geometry().unwrap();
        let standby = vec![false, false, true, true];
        let mut c = SimCtx::new(&cfg, geo, &standby);
        c.on_scrub_tick();
        let mut wakes = Vec::new();
        c.drain_wakes_into(&mut wakes);
        let targets: Vec<DiskId> = wakes.into_iter().map(|(d, _)| d).collect();
        assert!(!targets.is_empty(), "spun-up disks are scrubbed");
        assert!(
            targets.iter().all(|&d| d < 2),
            "scrub must never touch a spun-down disk: {targets:?}"
        );
    }

    #[test]
    fn scrub_pass_repairs_latent_extents() {
        let mut cfg = SimConfig::paper_default(Scheme::Raid10, 2);
        cfg.scrub_enabled = true;
        cfg.scrub_chunk = cfg.data_region(); // whole pass in one chunk
        let geo = cfg.geometry().unwrap();
        let standby = vec![false; cfg.disk_count()];
        let mut c = SimCtx::new(&cfg, geo, &standby);
        c.apply_corruption(0, 0);
        c.on_scrub_tick();
        // Drive every wake to completion; each transfer is the scrub's.
        let mut wakes = Vec::new();
        for _ in 0..64 {
            c.drain_wakes_into(&mut wakes);
            if wakes.is_empty() {
                break;
            }
            wakes.sort_by_key(|(_, w)| w.due());
            for (d, w) in wakes.drain(..) {
                c.now = w.due();
                match w {
                    DiskWake::Io(_) => assert!(matches!(c.complete_io(d), IoFate::Engine)),
                    DiskWake::SpinUp(_) => {
                        c.deliver_wake(d, WakeKind::SpinUp);
                    }
                    DiskWake::SpinDown(_) => {
                        c.deliver_wake(d, WakeKind::SpinDown);
                    }
                    DiskWake::BgRetry(_) => {
                        c.deliver_wake(d, WakeKind::BgRetry);
                    }
                }
            }
        }
        assert_eq!(c.faults.lse_repaired_by_scrub, 1);
        assert_eq!(c.fault.corrupt[0].len(), 0);
        assert_eq!(c.fault.scrub_state[0].pass, 1, "disk 0 completed one pass");
        assert_eq!(c.faults.scrub_passes, 4, "every disk completed a pass");
        c.finalize_faults();
        assert!(c.faults.lse_conserved(), "{:?}", c.faults);
    }

    proptest::proptest! {
        /// Drain-in-place regression: for any interleaving of submits
        /// and timers, draining after every step with
        /// `drain_wakes_into`/`drain_timers_into` must hand the driver
        /// the same sequences, in the same order, as one drain at the
        /// end — the swap loses, duplicates and reorders nothing.
        #[test]
        fn prop_drain_into_matches_one_batch(
            ops in proptest::collection::vec((0usize..4, 0u64..3, 1u64..5000), 1..40),
        ) {
            let mut a = ctx();
            let mut b = ctx();
            let (mut wakes, mut timers) = (Vec::new(), Vec::new());
            let (mut all_wakes, mut all_timers) = (Vec::new(), Vec::new());
            for (i, &(disk4, kind, arg)) in ops.iter().enumerate() {
                for c in [&mut a, &mut b] {
                    let disk = disk4 % c.disk_count();
                    match kind {
                        0 => {
                            let fg = Priority::Foreground;
                            c.submit(disk, IoKind::Write, arg * 4096, 4096, fg, tag());
                        }
                        1 => {
                            let bg = Priority::Background;
                            c.submit(disk, IoKind::Read, arg * 4096, 4096, bg, tag());
                        }
                        _ => c.set_timer(Duration::from_micros(arg), i as u64),
                    }
                }
                a.drain_wakes_into(&mut wakes);
                a.drain_timers_into(&mut timers);
                proptest::prop_assert!(!a.has_pending());
                all_wakes.append(&mut wakes);
                all_timers.append(&mut timers);
            }
            b.drain_wakes_into(&mut wakes);
            b.drain_timers_into(&mut timers);
            proptest::prop_assert!(!b.has_pending());
            proptest::prop_assert_eq!(all_wakes.len(), wakes.len());
            for (x, y) in all_wakes.iter().zip(wakes.iter()) {
                proptest::prop_assert_eq!(x.0, y.0);
                proptest::prop_assert_eq!(x.1.due(), y.1.due());
            }
            proptest::prop_assert_eq!(&all_timers, &timers);
        }
    }
}
