//! GRAID baseline: centralized logging on a dedicated log disk.
//!
//! Reimplementation of GRAID (Mao et al., MASCOTS'08) as described in
//! §II of the RoLo paper: all mirrored disks are kept in STANDBY; each
//! write puts one copy on its primary (in place) and one sequentially on
//! the dedicated log disk. When log occupancy reaches a threshold (80 %),
//! *all* mirrors are spun up and the stale mirror blocks are updated in
//! parallel from the primaries; the log is then reclaimed wholesale and
//! the mirrors spun back down.
//!
//! During a destage period incoming writes go directly to primary +
//! mirror (the mirrors are up anyway), which both matches Fig. 1(c) and
//! guarantees the destage terminates.

use crate::ctx::SimCtx;
use crate::journal::{JournalSet, PendingAppend};
use crate::logspace::LoggerSpace;
use crate::policy::{Policy, PolicyStats};
use crate::recovery::recovery_plan;
use crate::slot::IoSlot;
use rolo_disk::{DiskId, DiskRequest, IoKind, IoOutcome, Priority};
use rolo_metrics::Phase;
use rolo_obs::{BgSpanKind, LegFlavor, SimEvent};
use rolo_sim::{Duration, IoMap};
use rolo_trace::{ReqKind, TraceRecord};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Logging,
    Destaging,
}

#[derive(Debug, Clone, Copy)]
enum Tag {
    User(u64, IoSlot),
    DestageRead { pair: usize, off: u64, len: u64 },
    DestageWrite { pair: usize, len: u64 },
}

#[derive(Debug, Default)]
struct UserMeta {
    /// Extents to mark stale on the mirror at completion.
    marks: Vec<(usize, u64, u64)>,
    /// Extents freshly written in place on the mirror at completion.
    clears: Vec<(usize, u64, u64)>,
    /// Log-disk journal records of `marks`, committed with a fresh LSN
    /// when the request acks.
    appends: Vec<PendingAppend>,
}

/// The GRAID controller.
#[derive(Debug)]
pub struct GraidPolicy {
    pairs: usize,
    log_disk: DiskId,
    threshold: f64,
    chunk: u64,
    log: LoggerSpace,
    /// Dirty maps plus a one-disk journal on the log disk (DESIGN.md
    /// §10). GRAID runs no compactor: the whole-log destage cycle
    /// reclaims every segment wholesale, so fragmentation never
    /// accumulates between cycles.
    journal: JournalSet,
    chain_active: Vec<bool>,
    mode: Mode,
    period: u64,
    io_map: IoMap<Tag>,
    user_meta: IoMap<UserMeta>,
    logging_token: Option<u64>,
    destaging_token: Option<u64>,
    phase_energy_mark: f64,
    stats: PolicyStats,
    draining: bool,
}

impl GraidPolicy {
    /// Creates a GRAID controller for `pairs` mirrored pairs with a log
    /// disk of `log_capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized log or out-of-range threshold.
    pub fn new(
        pairs: usize,
        log_disk: DiskId,
        log_capacity: u64,
        threshold: f64,
        chunk: u64,
    ) -> Self {
        assert!(log_capacity > 0, "zero log capacity");
        assert!((0.0..=1.0).contains(&threshold) && threshold > 0.0);
        GraidPolicy {
            pairs,
            log_disk,
            threshold,
            chunk,
            log: LoggerSpace::new(0, log_capacity),
            journal: JournalSet::new(pairs, [log_disk]),
            chain_active: vec![false; pairs],
            mode: Mode::Logging,
            period: 0,
            io_map: IoMap::default(),
            user_meta: IoMap::default(),
            logging_token: None,
            destaging_token: None,
            phase_energy_mark: 0.0,
            stats: PolicyStats::default(),
            draining: false,
        }
    }

    /// Current log occupancy in `[0, 1]`.
    pub fn log_occupancy(&self) -> f64 {
        self.log.occupancy()
    }

    /// Total stale bytes across all mirrors.
    pub fn dirty_bytes(&self) -> u64 {
        self.journal.dirty_bytes()
    }

    /// Tunes the journal geometry (before the run starts); resets the
    /// journal.
    pub fn set_segment_tuning(&mut self, seg_bytes: u64, archive_ttl: Duration) {
        self.journal.tune(seg_bytes, archive_ttl);
    }

    fn mirror(&self, ctx: &SimCtx, pair: usize) -> DiskId {
        ctx.geometry().mirror_disk(pair)
    }

    fn start_destage(&mut self, ctx: &mut SimCtx) {
        if self.mode == Mode::Destaging {
            // Idempotent kick: re-pump everything that can run.
            for pair in 0..self.pairs {
                if ctx.disk(self.mirror(ctx, pair)).is_spun_up() {
                    self.pump(ctx, pair);
                }
            }
            return;
        }
        self.mode = Mode::Destaging;
        ctx.emit(|| SimEvent::DestageStart { pair: None });
        // A whole-log destage cycle touches every disk in the array
        // (reads from primaries, writes to every mirror).
        let all: Vec<DiskId> = (0..ctx.disk_count()).collect();
        ctx.bg_span_begin(BgSpanKind::Destage, None, &all);
        let energy = ctx.total_energy();
        if let Some(tok) = self.logging_token.take() {
            ctx.intervals
                .end(tok, ctx.now, energy - self.phase_energy_mark);
        }
        self.phase_energy_mark = energy;
        self.destaging_token = Some(ctx.intervals.begin(Phase::Destaging, ctx.now));
        for pair in 0..self.pairs {
            let m = self.mirror(ctx, pair);
            if ctx.disk(m).is_spun_up() {
                self.pump(ctx, pair);
            } else {
                ctx.spin_up(m);
            }
        }
        // Degenerate case: nothing dirty anywhere.
        self.check_destage_done(ctx);
    }

    fn pump(&mut self, ctx: &mut SimCtx, pair: usize) {
        if self.mode != Mode::Destaging || self.chain_active[pair] {
            return;
        }
        match self.journal.take_next(pair, self.chunk) {
            Some((off, len)) => {
                self.chain_active[pair] = true;
                let p = ctx.geometry().primary_disk(pair);
                let id = ctx.submit(p, IoKind::Read, off, len, Priority::Background);
                self.io_map.insert(id, Tag::DestageRead { pair, off, len });
            }
            None => self.check_destage_done(ctx),
        }
    }

    fn check_destage_done(&mut self, ctx: &mut SimCtx) {
        if self.mode != Mode::Destaging {
            return;
        }
        if self.chain_active.iter().any(|&b| b) || !self.journal.all_clean() {
            return;
        }
        // Cycle complete: reclaim the whole log, resume logging. Every
        // journal segment is now fully dead, so the sweep archives them
        // wholesale — GRAID needs no background compactor.
        self.log.reclaim(|_| true);
        for pair in 0..self.pairs {
            self.journal.reclaim_pair(pair);
        }
        self.journal.sweep(ctx);
        ctx.log_timeline.push(ctx.now, 0.0);
        let energy = ctx.total_energy();
        if let Some(tok) = self.destaging_token.take() {
            ctx.intervals
                .end(tok, ctx.now, energy - self.phase_energy_mark);
        }
        self.phase_energy_mark = energy;
        self.mode = Mode::Logging;
        self.period += 1;
        self.stats.destage_cycles += 1;
        ctx.emit(|| SimEvent::DestageEnd { pair: None });
        ctx.bg_span_end(BgSpanKind::Destage, None);
        self.logging_token = Some(ctx.intervals.begin(Phase::Logging, ctx.now));
        if !self.draining {
            for pair in 0..self.pairs {
                let m = self.mirror(ctx, pair);
                ctx.spin_down(m);
            }
        }
    }
}

impl Policy for GraidPolicy {
    fn name(&self) -> &'static str {
        "GRAID"
    }

    fn initial_standby(&self, disk: DiskId) -> bool {
        // Mirrors start spun down; primaries and the log disk are up.
        disk >= self.pairs && disk < 2 * self.pairs
    }

    fn attach(&mut self, ctx: &mut SimCtx) {
        self.logging_token = Some(ctx.intervals.begin(Phase::Logging, ctx.now));
        self.phase_energy_mark = ctx.total_energy();
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        let exts = ctx
            .geometry()
            .split(rec.offset, rec.bytes)
            .expect("driver keeps requests in range");
        let mut meta = UserMeta::default();
        let mut subs: u32 = 0;
        // Admission hold: one sub reserved up front so the slab slot
        // exists before the first sub-request can possibly complete;
        // the balance is topped up below once `subs` is known.
        let uslot = ctx.register_user(user_id, rec.kind, ctx.now, 1);
        match rec.kind {
            ReqKind::Read => {
                for ext in &exts {
                    let mut d = ctx.geometry().primary_disk(ext.pair);
                    let mut flavor = LegFlavor::Transfer;
                    if ctx.is_degraded(d) {
                        // Degraded mode: the mirror absorbs the primary's
                        // reads until its rebuild completes (§III-C).
                        let from = d;
                        d = ctx.geometry().mirror_disk(ext.pair);
                        flavor = LegFlavor::DegradedRedirect;
                        ctx.note_redirect();
                        ctx.emit(|| SimEvent::ReadRedirected { from, to: d });
                    }
                    let id =
                        ctx.submit(d, IoKind::Read, ext.offset, ext.bytes, Priority::Foreground);
                    self.io_map.insert(id, Tag::User(user_id, uslot));
                    ctx.tag_io(id, user_id, flavor);
                    subs += 1;
                }
            }
            ReqKind::Write => {
                // Primary copies in place.
                for ext in &exts {
                    let p = ctx.geometry().primary_disk(ext.pair);
                    let id = ctx.submit(
                        p,
                        IoKind::Write,
                        ext.offset,
                        ext.bytes,
                        Priority::Foreground,
                    );
                    self.io_map.insert(id, Tag::User(user_id, uslot));
                    ctx.tag_io(id, user_id, LegFlavor::Transfer);
                    subs += 1;
                }
                // Second copies appended to the log disk.
                let mut logged_all = true;
                for ext in &exts {
                    match self.log.alloc(ext.bytes, ext.pair, self.period) {
                        Some(segs) => {
                            for seg in segs {
                                let id = ctx.submit(
                                    self.log_disk,
                                    IoKind::Write,
                                    seg.offset,
                                    seg.bytes,
                                    Priority::Foreground,
                                );
                                self.io_map.insert(id, Tag::User(user_id, uslot));
                                ctx.tag_io(id, user_id, LegFlavor::LogAppend);
                                subs += 1;
                                self.stats.log_appended_bytes += seg.bytes;
                            }
                            let rid = self.journal.append(
                                ctx,
                                self.log_disk,
                                ext.pair,
                                self.period,
                                ext.offset,
                                ext.bytes,
                            );
                            meta.appends
                                .push((meta.marks.len() as u32, self.log_disk, rid));
                            meta.marks.push((ext.pair, ext.offset, ext.bytes));
                        }
                        None => {
                            logged_all = false;
                            // Log full: fall back to a direct mirror copy.
                            let m = ctx.geometry().mirror_disk(ext.pair);
                            let id = ctx.submit(
                                m,
                                IoKind::Write,
                                ext.offset,
                                ext.bytes,
                                Priority::Foreground,
                            );
                            self.io_map.insert(id, Tag::User(user_id, uslot));
                            ctx.tag_io(id, user_id, LegFlavor::MirrorCopy);
                            subs += 1;
                            meta.clears.push((ext.pair, ext.offset, ext.bytes));
                            self.stats.direct_writes += 1;
                        }
                    }
                }
                ctx.log_timeline.push(ctx.now, self.log.used_bytes() as f64);
                // The 80 % threshold leaves headroom so logging continues
                // while the mirrors spin up and destage; only exhaustion
                // forces direct writes.
                if !logged_all || self.log.occupancy() >= self.threshold {
                    self.start_destage(ctx);
                }
            }
        }
        debug_assert!(subs >= 1, "every admitted request issues at least one sub");
        if subs > 1 {
            ctx.add_user_subs(uslot, subs - 1);
        }
        self.user_meta.insert(user_id, meta);
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId, req: DiskRequest) {
        match self.io_map.remove(&req.id).expect("unknown sub-request") {
            Tag::User(user, uslot) => {
                if ctx.user_sub_done(uslot).is_some() {
                    let meta = self.user_meta.remove(&user).unwrap_or_default();
                    for (i, &(pair, off, len)) in meta.marks.iter().enumerate() {
                        // The ack instant is the commit point.
                        self.journal.mark(pair, off, len, &meta.appends, i as u32);
                        // Newly stale data may arrive mid-destage; keep the
                        // pump moving.
                        if self.mode == Mode::Destaging {
                            self.pump(ctx, pair);
                        }
                    }
                    for (pair, off, len) in meta.clears {
                        self.journal.clear(pair, off, len);
                    }
                }
            }
            Tag::DestageRead { pair, off, len } => {
                let m = ctx.geometry().mirror_disk(pair);
                let id = ctx.submit(m, IoKind::Write, off, len, Priority::Background);
                self.io_map.insert(id, Tag::DestageWrite { pair, len });
            }
            Tag::DestageWrite { pair, len } => {
                self.stats.destaged_bytes += len;
                self.chain_active[pair] = false;
                self.pump(ctx, pair);
            }
        }
    }

    fn on_io_error(
        &mut self,
        ctx: &mut SimCtx,
        disk: DiskId,
        req: DiskRequest,
        outcome: IoOutcome,
    ) {
        // Only user reads hitting a latent sector error or a degraded
        // slot can be re-served elsewhere; everything else closes through
        // the normal completion path (the rebuild restores the
        // replacement's copy).
        if let Some(Tag::User(user, uslot)) = self.io_map.get(&req.id).copied() {
            if let Some(id) = ctx.redirect_read(disk, &req, outcome, user) {
                self.io_map.remove(&req.id);
                self.io_map.insert(id, Tag::User(user, uslot));
                return;
            }
        }
        self.on_io_complete(ctx, disk, req);
    }

    fn on_disk_failure(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let plan = recovery_plan(crate::config::Scheme::Graid, ctx.geometry(), disk, 0, &[]);
        if disk == self.log_disk {
            // The log held only second copies, but they were the sole
            // redundancy for stale mirror blocks: replay what the
            // manifest can vouch for (lost pairs fall back to the NVRAM
            // dirty maps), drop the now-gone log contents and destage
            // everything dirty from the primaries.
            self.journal.fail(ctx, disk, &mut self.stats);
            self.log.reclaim(|_| true);
            ctx.log_timeline.push(ctx.now, 0.0);
            ctx.begin_rebuild(&plan, 0);
            if self.dirty_bytes() > 0 {
                self.start_destage(ctx);
            }
            return;
        }
        ctx.begin_rebuild(&plan, ctx.geometry().data_region());
        // A mirror that died while (or before) spinning up for a destage
        // loses its spin-up wake with the dead disk; the replacement is
        // already spinning, so kick the pair's pump directly.
        if self.mode == Mode::Destaging && disk >= self.pairs && disk < 2 * self.pairs {
            self.pump(ctx, disk - self.pairs);
        }
    }

    fn on_rebuild_complete(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        // A rebuilt mirror goes back to standby once logging resumes.
        if self.mode == Mode::Logging
            && !self.draining
            && disk >= self.pairs
            && disk < 2 * self.pairs
        {
            ctx.spin_down(disk);
        }
    }

    fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        if disk >= self.pairs && disk < 2 * self.pairs {
            self.pump(ctx, disk - self.pairs);
        }
    }

    fn on_spin_down(&mut self, _ctx: &mut SimCtx, _disk: DiskId) {}
    fn on_timer(&mut self, _ctx: &mut SimCtx, _token: u64) {}

    fn begin_drain(&mut self, ctx: &mut SimCtx) {
        self.draining = true;
        if self.log.used_bytes() > 0 || self.dirty_bytes() > 0 {
            self.start_destage(ctx);
        }
    }

    fn is_drained(&self, ctx: &SimCtx) -> bool {
        self.mode == Mode::Logging
            && self.log.used_bytes() == 0
            && self.journal.all_clean()
            && ctx.outstanding_users() == 0
            && self.io_map.is_empty()
    }

    fn stats(&self) -> PolicyStats {
        self.journal.fold_stats(self.stats)
    }

    fn check_consistency(&self, ctx: &SimCtx) -> Result<(), String> {
        self.log.check_invariants()?;
        self.journal.check_drained()?;
        if self.log.used_bytes() != 0 {
            return Err(format!("{} log bytes unreclaimed", self.log.used_bytes()));
        }
        if ctx.outstanding_users() != 0 {
            return Err(format!(
                "{} user requests unfinished",
                ctx.outstanding_users()
            ));
        }
        if !self.io_map.is_empty() {
            return Err(format!("{} orphaned sub-requests", self.io_map.len()));
        }
        Ok(())
    }
}
