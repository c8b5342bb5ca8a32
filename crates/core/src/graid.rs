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
//! During a destage period incoming writes keep logging while the log
//! has room, so the cycle also destages what they mark; only a write
//! the full log cannot take goes directly to primary + mirror.

use crate::ctx::SimCtx;
use crate::destage::DestageChains;
use crate::intervals::Phase;
use crate::journal::{Committed, JournalSet, LoggedWrite};
use crate::logspace::LoggerSpace;
use crate::policy::{Policy, PolicyStats};
use crate::recovery::recovery_plan;
use rolo_disk::{DiskId, DiskRequest, IoKind, IoOutcome};
use rolo_obs::{BgSpanKind, LegFlavor, SimEvent};
use rolo_sim::{Duration, IoSlab, IoSlot, SlotTable};
use rolo_trace::{ReqKind, TraceRecord};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Logging,
    Destaging,
}

#[derive(Debug, Clone, Copy)]
enum Tag {
    User(IoSlot),
    Destage(usize),
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
    chains: DestageChains,
    mode: Mode,
    period: u64,
    /// Per sub-request, under the slot its `DiskRequest` carries.
    tags: IoSlab<Tag>,
    /// Per user request, under the context's user slot.
    meta: SlotTable<LoggedWrite>,
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
            chains: DestageChains::new(pairs),
            mode: Mode::Logging,
            period: 0,
            tags: IoSlab::new(),
            meta: SlotTable::default(),
            stats: PolicyStats::default(),
            draining: false,
        }
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
        ctx.enter_phase(Phase::Destaging);
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
        if self.mode != Mode::Destaging || self.chains.is_busy(pair) {
            return;
        }
        match self.journal.take_next(pair, self.chunk) {
            Some(run) => {
                let (p, m) = (ctx.geometry().primary_disk(pair), self.mirror(ctx, pair));
                let tag = self.tags.insert(Tag::Destage(pair));
                self.chains.start(ctx, pair, run, (p, run.0), &[m], tag);
            }
            None => self.check_destage_done(ctx),
        }
    }

    fn check_destage_done(&mut self, ctx: &mut SimCtx) {
        if self.mode != Mode::Destaging {
            return;
        }
        if self.chains.any_busy() || !self.journal.all_clean() {
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
        ctx.enter_phase(Phase::Logging);
        self.mode = Mode::Logging;
        self.period += 1;
        self.stats.destage_cycles += 1;
        ctx.emit(|| SimEvent::DestageEnd { pair: None });
        ctx.bg_span_end(BgSpanKind::Destage, None);
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
        ctx.enter_phase(Phase::Logging);
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        let exts = ctx
            .geometry()
            .split(rec.offset, rec.bytes)
            .expect("driver keeps requests in range");
        let user = ctx.register_user(user_id, rec.kind);
        let mut meta = self.meta.take(user);
        match rec.kind {
            ReqKind::Read => {
                for ext in exts {
                    // Degraded mode: the mirror absorbs the primary's
                    // reads until its rebuild completes (§III-C).
                    let (d, flavor) = ctx.route_read(ctx.geometry().primary_disk(ext.pair));
                    let tag = self.tags.insert(Tag::User(user));
                    let extent = (ext.offset, ext.bytes);
                    ctx.submit_user(user, tag, d, IoKind::Read, extent, flavor);
                }
            }
            ReqKind::Write => {
                // Primary copies in place.
                for ext in exts.clone() {
                    let p = ctx.geometry().primary_disk(ext.pair);
                    let tag = self.tags.insert(Tag::User(user));
                    let extent = (ext.offset, ext.bytes);
                    ctx.submit_user(user, tag, p, IoKind::Write, extent, LegFlavor::Transfer);
                }
                // Second copies appended to the log disk.
                let mut logged_all = true;
                let log_disk = self.log_disk;
                for ext in exts {
                    let logged = self.log.alloc(ext.bytes, ext.pair, self.period, |seg| {
                        let tag = self.tags.insert(Tag::User(user));
                        let (extent, flavor) = ((seg.offset(), seg.bytes()), LegFlavor::LogAppend);
                        ctx.submit_user(user, tag, log_disk, IoKind::Write, extent, flavor);
                        self.stats.log_appended_bytes += seg.bytes();
                    });
                    if logged {
                        let rid = self.journal.append(
                            ctx,
                            log_disk,
                            ext.pair,
                            self.period,
                            ext.offset,
                            ext.bytes,
                        );
                        meta.appends.push((meta.marks.len() as u32, log_disk, rid));
                        meta.marks.push((ext.pair, ext.offset, ext.bytes));
                    } else {
                        logged_all = false;
                        // Log full: fall back to a direct mirror copy.
                        let m = ctx.geometry().mirror_disk(ext.pair);
                        let tag = self.tags.insert(Tag::User(user));
                        let extent = (ext.offset, ext.bytes);
                        ctx.submit_user(user, tag, m, IoKind::Write, extent, LegFlavor::MirrorCopy);
                        meta.clears.push((ext.pair, ext.offset, ext.bytes));
                        self.stats.direct_writes += 1;
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
        self.meta.put(user, meta);
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId, req: DiskRequest) {
        match self.tags.remove(req.tag).expect("unknown sub-request") {
            Tag::User(user) => {
                if ctx.user_sub_done(user) {
                    // The ack instant is the commit point.
                    let mut meta = self.meta.take(user);
                    while let Some(step) = self.journal.commit_next(&mut meta) {
                        // Newly stale data may arrive mid-destage; keep the
                        // pump moving.
                        if let (Committed::Marked(pair), Mode::Destaging) = (step, self.mode) {
                            self.pump(ctx, pair);
                        }
                    }
                    self.meta.put(user, meta);
                }
            }
            Tag::Destage(pair) => {
                let slot = || self.tags.insert(Tag::Destage(pair));
                if self.chains.complete(ctx, pair, slot) {
                    self.pump(ctx, pair);
                }
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
        if let Some(&Tag::User(user)) = self.tags.get(req.tag) {
            if ctx.redirect_read(disk, &req, outcome, user) {
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
            if !self.journal.all_clean() {
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

    fn begin_drain(&mut self, ctx: &mut SimCtx) {
        self.draining = true;
        if self.log.used_bytes() > 0 || !self.journal.all_clean() {
            self.start_destage(ctx);
        }
    }

    fn is_drained(&self, _ctx: &SimCtx) -> bool {
        self.mode == Mode::Logging
            && self.log.used_bytes() == 0
            && self.journal.all_clean()
            && self.tags.is_empty()
    }

    fn stats(&self) -> PolicyStats {
        self.chains.fold_stats(self.journal.fold_stats(self.stats))
    }

    fn check_consistency(&self, _ctx: &SimCtx) -> Result<(), String> {
        self.log.check_invariants()?;
        self.journal.check_drained()?;
        if self.log.used_bytes() != 0 {
            return Err(format!("{} log bytes unreclaimed", self.log.used_bytes()));
        }
        if !self.tags.is_empty() {
            return Err(format!("{} orphaned sub-requests", self.tags.len()));
        }
        Ok(())
    }
}
