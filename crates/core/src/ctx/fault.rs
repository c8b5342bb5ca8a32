//! The fault engine: whole-disk failures and hot spares, transient
//! timeouts and media errors, latent sector errors, enclosure shocks,
//! the background integrity scrub, the in-run rebuild, and the
//! degraded-mode read redirect that keeps user reads off a dead or
//! corrupt copy.
//!
//! [`FaultEngine`] is the field group; the `impl SimCtx` block below
//! reaches the disks through `self`. Every finished I/O enters through
//! [`SimCtx::complete_io`], which advances rebuild and scrub transfers
//! itself and classifies the rest for the policy.

use super::{SimCtx, WakeKind};
use crate::config::SimConfig;
use crate::faults::{surviving_partner, FaultPlan};
use crate::recovery::RecoveryPlan;
use rolo_disk::{Disk, DiskId, DiskParams, DiskRequest, IoKind, IoOutcome, Priority};
use rolo_disk::{DiskEnergyReport, IntegrityMap, PowerState, SchedulerKind};
use rolo_obs::{BgSpanKind, LegFlavor, SimEvent};
use rolo_sim::{Duration, IoMap, SimRng, SimTime};
use std::collections::HashMap;

/// Bytes per rebuild chunk (matches the offline engine in
/// [`crate::rebuild`]).
const REBUILD_CHUNK: u64 = 1 << 20;

/// Rebuild read/write chains kept in flight per degraded slot. Depth
/// beyond the disk's own queue buys nothing: rebuild I/O is background
/// priority and dispatches only in idle slots.
const REBUILD_WINDOW: usize = 4;

/// Byte alignment of injected latent extents and scrub chunks.
const LSE_ALIGN: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RebuildPhase {
    Read,
    Write,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScrubPhase {
    /// A verification read of the next chunk of the data region.
    Verify,
    /// The rewrite of a chunk whose latent extents were repaired from
    /// the surviving mirror copy.
    Repair,
}

/// What an engine-owned transfer is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    /// A chunk of the rebuild of the slot.
    Rebuild(DiskId, RebuildPhase),
    /// A chunk of the scrub of the disk.
    Scrub(DiskId, ScrubPhase),
}

/// Per-disk progress of the background integrity scrub.
#[derive(Debug, Clone, Default)]
pub(super) struct ScrubDiskState {
    /// Next byte of the data region to verify.
    cursor: u64,
    /// Pass number (0-based; bumped when the cursor wraps).
    pub(super) pass: u64,
    /// Bytes verified in the current pass.
    pass_bytes: u64,
    /// True once `ScrubStart` was emitted for the current pass.
    started: bool,
    /// True while a scrub chunk (verify or repair) is in flight.
    inflight: bool,
}

/// One delayed per-disk effect of a correlated enclosure shock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShockEffect {
    /// The disk fails outright (routed through the whole-disk failure
    /// path, double-fault suppression included).
    Fail(DiskId),
    /// The disk accrues a latent corrupt extent at the given offset.
    Corrupt(DiskId, u64),
}

/// Where a finished transfer goes after [`SimCtx::complete_io`].
#[derive(Debug)]
pub enum IoFate {
    /// A rebuild or scrub transfer, already advanced by its engine.
    Engine,
    /// A policy transfer and its outcome: `Ok`, a media error, or a
    /// timeout whose retry budget is spent.
    Policy(DiskRequest, IoOutcome),
    /// A policy transfer that timed out with retries left: the driver
    /// resubmits it after the backoff.
    Retry(DiskRequest, Duration),
}

/// Live state of one in-run rebuild onto a replacement disk.
#[derive(Debug)]
struct RebuildState {
    sources: Vec<DiskId>,
    next_source: usize,
    total: u64,
    issued: u64,
    written: u64,
    started: SimTime,
    /// Chunks read or being written, not yet landed on the replacement.
    inflight: usize,
}

/// The fault engine's field group.
#[derive(Debug)]
pub(super) struct FaultEngine {
    plan: FaultPlan,
    /// RNG stream for Bernoulli timeouts and media errors.
    rng: SimRng,
    /// RNG stream forked once per hot spare.
    spare_rng: SimRng,
    /// RNG stream for LSE thinning accepts and extent placement
    /// (untouched unless the plan injects LSE, so a corruption-free run
    /// draws exactly the same fault stream as before).
    lse_rng: SimRng,
    /// RNG stream for enclosure-shock expansion.
    shock_rng: SimRng,
    /// Hot spares are built like the disks they replace.
    disk_params: DiskParams,
    scheduler: SchedulerKind,
    bg_idle_guard: Duration,
    /// Per-slot replacement generation; bumped when a spare is installed
    /// so stale wakes of the dead disk can be dropped.
    epochs: Vec<u32>,
    /// Slots whose current disk is a replacement still awaiting rebuild,
    /// with the failure instant.
    pub(super) degraded: HashMap<DiskId, SimTime>,
    degraded_since: Option<SimTime>,
    first_failure_at: Option<SimTime>,
    /// Timeout retries spent per policy I/O.
    retries: IoMap<u32>,
    rebuilds: HashMap<DiskId, RebuildState>,
    finished_rebuilds: Vec<DiskId>,
    /// Energy history of dead disks, merged into the slot's live report
    /// so array totals conserve energy across replacements.
    pub(super) retired: HashMap<DiskId, DiskEnergyReport>,
    /// Per-disk latent corrupt extents (silent until a read, scrub chunk
    /// or overwrite touches them).
    pub(super) corrupt: Vec<IntegrityMap>,
    /// True when the background integrity scrub runs.
    scrub_enabled: bool,
    /// Bytes per scrub chunk read.
    scrub_chunk: u64,
    /// Per-disk scrub progress.
    pub(super) scrub_state: Vec<ScrubDiskState>,
    /// In-flight rebuild and scrub transfers: io id → (job, offset,
    /// bytes).
    ios: IoMap<(Job, u64, u64)>,
}

impl FaultEngine {
    pub(super) fn new(cfg: &SimConfig, disk_count: usize) -> Self {
        let seed = SimRng::seed_from(cfg.faults.seed);
        FaultEngine {
            plan: cfg.faults.clone(),
            rng: seed.fork("fault-draws"),
            spare_rng: SimRng::seed_from(cfg.seed).fork("spares"),
            lse_rng: seed.fork("lse-draws"),
            shock_rng: seed.fork("shock-draws"),
            disk_params: cfg.disk.clone(),
            scheduler: cfg.scheduler,
            bg_idle_guard: cfg.bg_idle_guard,
            epochs: vec![0; disk_count],
            degraded: HashMap::new(),
            degraded_since: None,
            first_failure_at: None,
            retries: IoMap::default(),
            rebuilds: HashMap::new(),
            finished_rebuilds: Vec::new(),
            retired: HashMap::new(),
            corrupt: vec![IntegrityMap::new(); disk_count],
            scrub_enabled: cfg.scrub_enabled,
            scrub_chunk: cfg.scrub_chunk,
            scrub_state: vec![ScrubDiskState::default(); disk_count],
            ios: IoMap::default(),
        }
    }
}

impl SimCtx {
    /// Current replacement generation of `disk`'s slot.
    pub fn epoch(&self, disk: DiskId) -> u32 {
        self.fault.epochs[disk]
    }

    /// True if a wake tagged with `epoch` still belongs to the disk
    /// occupying `disk`'s slot (false after a replacement).
    pub fn epoch_live(&self, disk: DiskId, epoch: u32) -> bool {
        self.fault.epochs[disk] == epoch
    }

    /// True while `disk`'s slot holds a replacement awaiting rebuild.
    /// Reads must not target it: the data is not there yet.
    pub fn is_degraded(&self, disk: DiskId) -> bool {
        self.fault.degraded.contains_key(&disk)
    }

    /// Kills the disk in slot `disk` and installs a hot spare.
    ///
    /// Returns the policy-owned requests that were queued or in flight on
    /// the dead disk (rebuild-owned requests are re-issued internally);
    /// the caller must complete each through the policy's error path so
    /// no user request is silently dropped. Returns `None` — injecting
    /// nothing — when the failure would be the pair's second (data loss
    /// is the reliability model's domain, not the replay's).
    pub fn fail_disk(&mut self, disk: DiskId) -> Option<Vec<DiskRequest>> {
        let partner = surviving_partner(&self.geometry, disk);
        if self.is_degraded(disk) || partner.is_some_and(|p| self.is_degraded(p)) {
            self.faults.double_faults_suppressed += 1;
            return None;
        }
        self.faults.disk_failures += 1;
        let f = &mut self.fault;
        f.first_failure_at.get_or_insert(self.now);
        if f.degraded.is_empty() {
            f.degraded_since = Some(self.now);
        }

        // Retire the dead disk's energy history so array totals conserve.
        let history = self.disks[disk].energy_report(self.now);
        let merged = match f.retired.get(&disk) {
            Some(prev) => prev.merged(&history),
            None => history,
        };
        f.retired.insert(disk, merged);

        let aborted = self.disks[disk].fail_now(self.now);
        f.epochs[disk] += 1;
        let label = format!("spare-{disk}-{}", f.epochs[disk]);
        let mut spare = Disk::with_initial_state_at(
            disk,
            f.disk_params.clone(),
            f.spare_rng.fork(&label),
            PowerState::Idle,
            self.now,
        );
        spare.set_bg_idle_guard(f.bg_idle_guard);
        spare.set_scheduler(f.scheduler);
        // The spare must inherit span recording, or every leg it serves
        // vanishes from its request's critical path (unattributed gaps
        // in post-failure attribution).
        spare.set_record_breakdown(self.obs.spans_on());
        self.disks[disk] = spare;
        self.power_soa[disk] = self.disks[disk].power_state();
        self.watts_soa[disk] = self.disks[disk].current_power_w();
        f.degraded.insert(disk, self.now);
        let epoch = u64::from(f.epochs[disk]);
        self.emit(|| SimEvent::DiskFailed { disk, epoch });

        // The dead disk's latent extents leave with it: the rebuild
        // rewrites the slot wholesale from the surviving copy, so they
        // are classified overwritten (the data was never the only copy).
        // The *partner's* latent extents, however, are now the sole copy
        // of those bytes while its mirror is gone — the classic
        // LSE-plus-disk-failure double fault. They are lost.
        let wiped = self.fault.corrupt[disk].reset();
        self.faults.lse_overwritten += wiped as u64;
        if let Some(p) = partner {
            let doomed: Vec<(u64, u64)> = self.fault.corrupt[p].iter().collect();
            self.fault.corrupt[p].reset();
            for (offset, bytes) in doomed {
                self.faults.lse_lost += 1;
                self.emit(|| SimEvent::ExtentLost {
                    disk: p,
                    offset,
                    bytes,
                });
            }
        }

        // The dead disk drops out of every running rebuild's source set,
        // its in-flight rebuild reads move to a surviving source, and a
        // scrub chunk that died with it resumes from the same cursor
        // once the replacement is rebuilt.
        for st in self.fault.rebuilds.values_mut() {
            st.sources.retain(|&s| s != disk);
        }
        let mut policy_owned = Vec::new();
        for req in aborted {
            match self.fault.ios.get(&req.id).copied() {
                Some((Job::Rebuild(slot, phase), offset, bytes)) => {
                    debug_assert_eq!(
                        phase,
                        RebuildPhase::Read,
                        "rebuild writes target the degraded slot, which cannot fail again"
                    );
                    self.reissue_rebuild_read(slot, req.id, offset, bytes);
                }
                Some((Job::Scrub(d, _), _, _)) => {
                    self.fault.ios.remove(&req.id);
                    self.fault.scrub_state[d].inflight = false;
                    self.bg_span_end(BgSpanKind::Scrub, Some(d));
                }
                None => policy_owned.push(req),
            }
        }
        Some(policy_owned)
    }

    /// Driver hook: delivers `disk`'s I/O-completion wake and routes the
    /// finished transfer. Rebuild and scrub transfers advance their
    /// engine here and skip fault classification: the rebuild's copy
    /// loop must terminate, and the scrub verifies the integrity map
    /// directly. Every other transfer is the policy's, classified
    /// against the fault plan.
    pub fn complete_io(&mut self, disk: DiskId) -> IoFate {
        let req = self
            .deliver_wake(disk, WakeKind::Io)
            .expect("io wake returns the request");
        if !self.fault.ios.is_empty() {
            if let Some((job, offset, bytes)) = self.fault.ios.remove(&req.id) {
                match job {
                    Job::Rebuild(slot, phase) => self.on_rebuild_io(slot, phase, offset, bytes),
                    Job::Scrub(d, phase) => self.on_scrub_io(d, phase, offset, bytes),
                }
                return IoFate::Engine;
            }
        }
        match self.classify_completion(disk, &req) {
            IoOutcome::Timeout => match self.note_timeout(req.id) {
                Some(backoff) => IoFate::Retry(req, backoff),
                None => IoFate::Policy(req, IoOutcome::Timeout),
            },
            outcome => IoFate::Policy(req, outcome),
        }
    }

    /// Classifies a completed policy I/O against the fault plan: a
    /// transient timeout, a failed end-to-end checksum (the read touched
    /// a latent corrupt extent), a Bernoulli latent sector error (reads
    /// only), or a clean completion.
    fn classify_completion(&mut self, disk: DiskId, req: &DiskRequest) -> IoOutcome {
        let p_timeout = self.fault.plan.timeout_per_io;
        if p_timeout > 0.0 && self.fault.rng.chance(p_timeout) {
            self.faults.timeouts += 1;
            let io = req.id;
            self.emit(|| SimEvent::IoTimeout { io });
            return IoOutcome::Timeout;
        }
        // End-to-end verification: a read whose extent checksum fails is
        // surfaced as a media error so the policy's existing redirect
        // machinery re-reads the surviving mirror copy; the touched
        // latent extents are classified (repaired-on-read or lost) right
        // here so none can later be returned as clean data. A write that
        // covers a latent extent simply replaces the bad bytes.
        let corrupt = &mut self.fault.corrupt[disk];
        if !corrupt.is_empty() && corrupt.overlaps(req.offset, req.bytes) {
            match req.kind {
                IoKind::Read => {
                    self.classify_latent_extents(disk, req.offset, req.bytes, false);
                    self.fault.retries.remove(&req.id);
                    let io = req.id;
                    self.emit(|| SimEvent::MediaError { io });
                    return IoOutcome::MediaError;
                }
                IoKind::Write => {
                    let n = corrupt.clear_overlapping(req.offset, req.bytes);
                    self.faults.lse_overwritten += n as u64;
                }
            }
        }
        let p_media = self.fault.plan.media_error_per_read;
        if req.kind == IoKind::Read && p_media > 0.0 && self.fault.rng.chance(p_media) {
            self.faults.media_errors += 1;
            self.fault.retries.remove(&req.id);
            let io = req.id;
            self.emit(|| SimEvent::MediaError { io });
            return IoOutcome::MediaError;
        }
        if !self.fault.retries.is_empty() {
            self.fault.retries.remove(&req.id);
        }
        IoOutcome::Ok
    }

    /// Takes every latent extent of `disk` touching `[start, start+len)`
    /// and classifies its fate: repaired from a clean surviving mirror
    /// copy, or lost (partner degraded, absent, or corrupt at the same
    /// extent — in which case the partner's copy is classified lost too,
    /// so no extent is ever counted twice or silently dropped). Returns
    /// true if at least one extent was repaired.
    fn classify_latent_extents(
        &mut self,
        disk: DiskId,
        start: u64,
        len: u64,
        by_scrub: bool,
    ) -> bool {
        let extents = self.fault.corrupt[disk].take_overlapping(start, len);
        if extents.is_empty() {
            return false;
        }
        let partner = surviving_partner(&self.geometry, disk).filter(|&p| !self.is_degraded(p));
        let mut any_repaired = false;
        for (offset, bytes) in extents {
            match partner {
                Some(p) if !self.fault.corrupt[p].overlaps(offset, bytes) => {
                    if by_scrub {
                        self.faults.lse_repaired_by_scrub += 1;
                        self.emit(|| SimEvent::ScrubRepair {
                            disk,
                            offset,
                            bytes,
                        });
                    } else {
                        self.faults.lse_repaired_on_read += 1;
                    }
                    any_repaired = true;
                }
                Some(p) => {
                    for (po, pb) in self.fault.corrupt[p].take_overlapping(offset, bytes) {
                        self.faults.lse_lost += 1;
                        self.emit(|| SimEvent::ExtentLost {
                            disk: p,
                            offset: po,
                            bytes: pb,
                        });
                    }
                    self.faults.lse_lost += 1;
                    self.emit(|| SimEvent::ExtentLost {
                        disk,
                        offset,
                        bytes,
                    });
                }
                None => {
                    self.faults.lse_lost += 1;
                    self.emit(|| SimEvent::ExtentLost {
                        disk,
                        offset,
                        bytes,
                    });
                }
            }
        }
        any_repaired
    }

    /// Books a timeout for request `id`: returns the backoff before the
    /// next retry (exponential, doubling per attempt), or `None` when the
    /// retry budget is exhausted and the request is counted lost.
    fn note_timeout(&mut self, id: u64) -> Option<Duration> {
        let attempts = self.fault.retries.entry(id).or_insert(0);
        if *attempts >= self.fault.plan.max_retries {
            self.fault.retries.remove(&id);
            self.faults.io_lost += 1;
            self.emit(|| SimEvent::IoLost { io: id });
            return None;
        }
        *attempts += 1;
        self.faults.retries += 1;
        let backoff = self.fault.plan.retry_backoff * 2u64.pow(*attempts - 1);
        self.emit(|| SimEvent::IoRetry {
            io: id,
            backoff_us: backoff.as_micros(),
        });
        Some(backoff)
    }

    /// Records that a user read was redirected to a surviving copy.
    pub fn note_redirect(&mut self) {
        self.faults.reads_redirected += 1;
        if self.faults.time_to_first_redirect.is_none() {
            if let Some(t0) = self.fault.first_failure_at {
                self.faults.time_to_first_redirect = Some(self.now.since(t0));
            }
        }
    }

    /// Re-serves user `user`'s failed read `req` from the surviving
    /// partner of `disk`, when the read hit a media error or a degraded
    /// slot and the partner is healthy: notes the redirect, emits
    /// [`SimEvent::ReadRedirected`], submits the foreground read and tags
    /// it [`LegFlavor::DegradedRedirect`]. Returns the new sub-request's
    /// id, under which the caller re-keys its bookkeeping; `None` leaves
    /// the failure to the caller's ordinary completion path.
    pub fn redirect_read(
        &mut self,
        disk: DiskId,
        req: &DiskRequest,
        outcome: IoOutcome,
        user: u64,
    ) -> Option<u64> {
        if req.kind != IoKind::Read || (outcome != IoOutcome::MediaError && !self.is_degraded(disk))
        {
            return None;
        }
        let p = surviving_partner(&self.geometry, disk).filter(|&p| !self.is_degraded(p))?;
        self.note_redirect();
        self.emit(|| SimEvent::ReadRedirected { from: disk, to: p });
        let id = self.submit(p, IoKind::Read, req.offset, req.bytes, Priority::Foreground);
        self.tag_io(id, user, LegFlavor::DegradedRedirect);
        Some(id)
    }

    /// Closes the degraded-time window at `now` (called by the driver
    /// when the run ends with a rebuild still outstanding).
    pub fn finalize_faults(&mut self) {
        if let Some(since) = self.fault.degraded_since.take() {
            self.faults.degraded_time += self.now.since(since);
        }
        if !self.fault.degraded.is_empty() {
            // Keep the window open for any further accounting.
            self.fault.degraded_since = Some(self.now);
        }
        self.faults.lse_latent_at_end = self.fault.corrupt.iter().map(|m| m.len() as u64).sum();
    }

    // ------------------------------------------------------------------
    // Latent sector errors, shocks, and the scrub engine
    // ------------------------------------------------------------------

    /// A pre-sampled LSE candidate fired on `disk`. Candidates are drawn
    /// at the *maximum* configured rate; Poisson thinning accepts each
    /// with probability `rate(power state) / max rate`, so a spun-down
    /// disk accrues latent errors at `lse_rate_standby` and a spinning
    /// one at `lse_rate_active` without the schedule depending on the
    /// (workload-driven) power trajectory.
    pub fn on_lse_candidate(&mut self, disk: DiskId) {
        let plan = &self.fault.plan;
        let max = plan.max_lse_rate();
        if max <= 0.0 || disk >= self.fault.corrupt.len() {
            return;
        }
        let rate = if self.disks[disk].power_state().is_spun_up() {
            plan.lse_rate_active
        } else {
            plan.lse_rate_standby
        };
        let extent = plan.lse_extent;
        if !self.fault.lse_rng.chance((rate / max).clamp(0.0, 1.0)) {
            return;
        }
        let region = self.geometry.data_region();
        let Some(offset) = draw_offset(&mut self.fault.lse_rng, region, extent) else {
            return;
        };
        self.apply_corruption(disk, offset);
    }

    /// Marks one extent of `disk` latent at `offset`. Skipped silently
    /// when the slot is degraded (the replacement holds no data yet) or
    /// the extent overlaps one already latent — only freshly recorded
    /// extents enter the injected count, so conservation is exact.
    pub fn apply_corruption(&mut self, disk: DiskId, offset: u64) {
        if disk >= self.fault.corrupt.len() || self.is_degraded(disk) {
            return;
        }
        let bytes = self.fault.plan.lse_extent;
        let region = self.geometry.data_region();
        if bytes == 0 || region < bytes {
            return;
        }
        let offset = offset.min(region - bytes);
        if self.fault.corrupt[disk].insert(offset, bytes) {
            self.faults.lse_injected += 1;
            self.emit(|| SimEvent::CorruptionInjected {
                disk,
                offset,
                bytes,
            });
        }
    }

    /// Expands one enclosure shock into per-disk effects. A shock picks a
    /// random enclosure (a contiguous group of `shock_enclosure` mirrored
    /// slots), and each member, after a small independent jitter inside
    /// the correlation window, either fails outright (probability
    /// `shock_fail_prob`) or takes a latent corrupt extent. The caller
    /// (the driver) schedules the returned effects — failing a disk can
    /// cascade into recovery planning, which is the driver's domain.
    pub fn expand_shock(&mut self) -> Vec<(Duration, ShockEffect)> {
        let plan = &self.fault.plan;
        let fail_prob = plan.shock_fail_prob;
        let window_us = plan.correlation_window.as_micros().max(1);
        let extent = plan.lse_extent;
        let region = self.geometry.data_region();
        let mirrored = 2 * self.geometry.pairs();
        if mirrored == 0 {
            return Vec::new();
        }
        let enclosure = plan.shock_enclosure.clamp(1, mirrored);
        let enclosures = mirrored.div_ceil(enclosure);
        let base = self.fault.shock_rng.below(enclosures as u64) as usize * enclosure;
        let members = base..(base + enclosure).min(mirrored);
        let disks = members.len();
        self.faults.shocks_injected += 1;
        let enclosure_base = base;
        self.emit(|| SimEvent::ShockInjected {
            enclosure_base,
            disks,
        });
        let rng = &mut self.fault.shock_rng;
        let mut effects = Vec::with_capacity(disks);
        for d in members {
            let jitter = Duration::from_micros(rng.below(window_us));
            if rng.chance(fail_prob) {
                effects.push((jitter, ShockEffect::Fail(d)));
            } else if let Some(off) = draw_offset(rng, region, extent) {
                effects.push((jitter, ShockEffect::Corrupt(d, off)));
            }
        }
        effects
    }

    /// One scrub scheduling slot: for every mirrored disk that is spun
    /// up, not parked or parking, not degraded, and has no scrub chunk in
    /// flight, issues the next sequential background verify read. The
    /// engine is power-aware by construction — it piggybacks on disks the
    /// workload already keeps spinning and never spins one up (or cancels
    /// a pending park) just to scrub, so RoLo-E's standby legs stay in
    /// standby.
    pub fn on_scrub_tick(&mut self) {
        if !self.fault.scrub_enabled {
            return;
        }
        let region = self.geometry.data_region();
        if region == 0 {
            return;
        }
        let mirrored = (2 * self.geometry.pairs()).min(self.disks.len());
        for d in 0..mirrored {
            if self.fault.scrub_state[d].inflight || self.is_degraded(d) {
                continue;
            }
            if !self.disks[d].power_state().is_spun_up() || self.disks[d].is_park_pending() {
                continue;
            }
            let (offset, bytes, first, pass) = {
                let st = &mut self.fault.scrub_state[d];
                let offset = st.cursor;
                let bytes = self.fault.scrub_chunk.min(region - offset);
                if bytes == 0 {
                    st.cursor = 0;
                    continue;
                }
                st.inflight = true;
                let first = !st.started;
                st.started = true;
                (offset, bytes, first, st.pass)
            };
            if first {
                self.emit(|| SimEvent::ScrubStart { disk: d, pass });
            }
            let id = self.alloc_io_id();
            let job = Job::Scrub(d, ScrubPhase::Verify);
            self.fault.ios.insert(id, (job, offset, bytes));
            self.bg_span_begin(BgSpanKind::Scrub, Some(d), &[d]);
            self.submit_with_id(d, id, IoKind::Read, offset, bytes, Priority::Background);
        }
    }

    /// Completes one scrub transfer. A verify read checks the chunk
    /// against the integrity map and, when a latent extent was repaired
    /// from its mirror copy, issues a background repair write over the
    /// same range before the next chunk; otherwise the cursor simply
    /// advances. Completing the last chunk of the region closes the pass.
    fn on_scrub_io(&mut self, disk: DiskId, phase: ScrubPhase, offset: u64, bytes: u64) {
        if phase == ScrubPhase::Repair {
            self.fault.scrub_state[disk].inflight = false;
            self.bg_span_end(BgSpanKind::Scrub, Some(disk));
            return;
        }
        self.faults.scrub_chunks += 1;
        self.faults.scrub_bytes += bytes;
        let repaired = !self.fault.corrupt[disk].is_empty()
            && self.classify_latent_extents(disk, offset, bytes, true);
        let region = self.geometry.data_region();
        let st = &mut self.fault.scrub_state[disk];
        st.pass_bytes += bytes;
        st.cursor += bytes;
        if st.cursor >= region {
            let (pass, pass_bytes) = (st.pass, st.pass_bytes);
            st.cursor = 0;
            st.pass += 1;
            st.pass_bytes = 0;
            st.started = false;
            self.faults.scrub_passes += 1;
            self.emit(|| SimEvent::ScrubComplete {
                disk,
                pass,
                bytes: pass_bytes,
            });
        }
        if repaired {
            let id = self.alloc_io_id();
            let job = Job::Scrub(disk, ScrubPhase::Repair);
            self.fault.ios.insert(id, (job, offset, bytes));
            self.submit_with_id(disk, id, IoKind::Write, offset, bytes, Priority::Background);
        } else {
            self.fault.scrub_state[disk].inflight = false;
            self.bg_span_end(BgSpanKind::Scrub, Some(disk));
        }
    }

    // ------------------------------------------------------------------
    // Rebuild engine
    // ------------------------------------------------------------------

    /// Starts rebuilding slot `plan.failed` onto its replacement disk:
    /// `total_bytes` are copied in 1 MiB chunks, read round-robin from
    /// the plan's participant disks and written to the replacement at
    /// background priority, so foreground I/O naturally throttles the
    /// rebuild via the idle-slot guard. A zero-byte rebuild (nothing
    /// worth copying, e.g. a log disk holding only obsolete second
    /// copies) completes immediately. Idempotent per slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not degraded.
    pub fn begin_rebuild(&mut self, plan: &RecoveryPlan, total_bytes: u64) {
        let slot = plan.failed;
        assert!(self.is_degraded(slot), "rebuild target {slot} not degraded");
        if self.fault.rebuilds.contains_key(&slot) {
            return;
        }
        self.emit(|| SimEvent::RebuildStarted {
            slot,
            bytes: total_bytes,
        });
        let started = self.fault.degraded[&slot];
        if total_bytes == 0 {
            self.bg_span_begin(BgSpanKind::Rebuild, Some(slot), &[slot]);
            self.complete_rebuild(slot, started);
            return;
        }
        let mut sources: Vec<DiskId> = plan
            .wake
            .iter()
            .chain(plan.silent.iter())
            .copied()
            .filter(|&d| d != slot && !self.is_degraded(d))
            .collect();
        if sources.is_empty() {
            let partner =
                surviving_partner(&self.geometry, slot).expect("rebuild with no data source");
            sources.push(partner);
        }
        for &d in &sources {
            self.spin_up(d);
        }
        // The rebuild's copy loop occupies the replacement and every
        // source disk; foreground legs delayed behind its transfers on
        // any of them link to this span.
        let mut covered = sources.clone();
        covered.push(slot);
        self.bg_span_begin(BgSpanKind::Rebuild, Some(slot), &covered);
        self.fault.rebuilds.insert(
            slot,
            RebuildState {
                sources,
                next_source: 0,
                total: total_bytes,
                issued: 0,
                written: 0,
                started,
                inflight: 0,
            },
        );
        for _ in 0..REBUILD_WINDOW {
            self.issue_rebuild_read(slot);
        }
    }

    /// Advances `slot`'s rebuild past a finished transfer: a chunk read
    /// becomes a write to the replacement; a finished write pulls the
    /// next chunk or completes the rebuild. Completed slots are queued
    /// for [`SimCtx::take_finished_rebuilds`].
    fn on_rebuild_io(&mut self, slot: DiskId, phase: RebuildPhase, offset: u64, bytes: u64) {
        match phase {
            RebuildPhase::Read => {
                let id = self.alloc_io_id();
                let job = Job::Rebuild(slot, RebuildPhase::Write);
                self.fault.ios.insert(id, (job, offset, bytes));
                self.submit_with_id(slot, id, IoKind::Write, offset, bytes, Priority::Background);
            }
            RebuildPhase::Write => {
                let st = self
                    .fault
                    .rebuilds
                    .get_mut(&slot)
                    .expect("rebuild state present");
                st.inflight -= 1;
                st.written += bytes;
                self.faults.rebuild_bytes += bytes;
                if st.written >= st.total && st.inflight == 0 {
                    let started = st.started;
                    self.complete_rebuild(slot, started);
                } else {
                    self.issue_rebuild_read(slot);
                }
            }
        }
    }

    /// Drains the slots whose rebuild completed since the last call, so
    /// the driver can notify the policy.
    pub fn take_finished_rebuilds(&mut self) -> Vec<DiskId> {
        std::mem::take(&mut self.fault.finished_rebuilds)
    }

    fn complete_rebuild(&mut self, slot: DiskId, started: SimTime) {
        self.bg_span_end(BgSpanKind::Rebuild, Some(slot));
        self.fault.rebuilds.remove(&slot);
        self.fault.degraded.remove(&slot);
        self.faults.rebuilds_completed += 1;
        self.faults.rebuild_durations.push(self.now.since(started));
        let duration_us = self.now.since(started).as_micros();
        self.emit(|| SimEvent::RebuildCompleted { slot, duration_us });
        if self.fault.degraded.is_empty() {
            if let Some(since) = self.fault.degraded_since.take() {
                self.faults.degraded_time += self.now.since(since);
            }
        }
        self.fault.finished_rebuilds.push(slot);
    }

    /// Issues the next chunk read of `slot`'s rebuild, if any remains.
    fn issue_rebuild_read(&mut self, slot: DiskId) {
        let Some(st) = self.fault.rebuilds.get_mut(&slot) else {
            return;
        };
        if st.issued >= st.total || st.sources.is_empty() {
            return;
        }
        let offset = st.issued;
        let bytes = REBUILD_CHUNK.min(st.total - st.issued);
        st.issued += bytes;
        st.inflight += 1;
        let source = st.sources[st.next_source % st.sources.len()];
        st.next_source += 1;
        let id = self.alloc_io_id();
        let job = Job::Rebuild(slot, RebuildPhase::Read);
        self.fault.ios.insert(id, (job, offset, bytes));
        self.submit_with_id(
            source,
            id,
            IoKind::Read,
            offset,
            bytes,
            Priority::Background,
        );
    }

    /// Re-issues rebuild read `id` of `[offset, offset + bytes)`, aborted
    /// by a source failure, on the next surviving source (the dead
    /// source has already been removed from the rebuild's source list).
    fn reissue_rebuild_read(&mut self, slot: DiskId, id: u64, offset: u64, bytes: u64) {
        let st = self
            .fault
            .rebuilds
            .get_mut(&slot)
            .expect("rebuild state present");
        if st.sources.is_empty() {
            // No surviving source: the pair partner must still be alive
            // (double faults are suppressed), so fall back to it.
            let partner =
                surviving_partner(&self.geometry, slot).expect("rebuild with no data source");
            st.sources.push(partner);
        }
        let source = st.sources[st.next_source % st.sources.len()];
        st.next_source += 1;
        self.submit_with_id(
            source,
            id,
            IoKind::Read,
            offset,
            bytes,
            Priority::Background,
        );
    }
}

/// Draws an aligned corruption offset inside `[0, region)`, or `None`
/// when the region cannot hold one extent.
fn draw_offset(rng: &mut SimRng, region: u64, extent: u64) -> Option<u64> {
    if extent == 0 || region < extent {
        return None;
    }
    let slots = (region - extent) / LSE_ALIGN + 1;
    Some(rng.below(slots) * LSE_ALIGN)
}
