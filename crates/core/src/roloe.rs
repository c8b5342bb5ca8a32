//! RoLo-E: the energy-oriented flavor (§III-B3).
//!
//! One mirrored pair at a time serves as the logger *and* read cache;
//! every other disk — primaries included — is spun down. Each write puts
//! two copies in the logging space (one on each disk of the logger
//! pair). Popular read blocks are cached in the logging space; a read
//! miss forcibly spins up the target primary (the expensive event that
//! makes RoLo-E unsuitable for read-heavy workloads, Table V), and the
//! awakened disk spins back down after an idle timeout.
//!
//! When the logging space fills there is no decentralized destaging to
//! fall back on: *all* disks spin up for a centralized destage, after
//! which the log is reclaimed wholesale, the logger rotates to the next
//! pair, and everything else spins back down.

use crate::cache::BlockCache;
use crate::ctx::SimCtx;
use crate::destage::DestageChains;
use crate::intervals::Phase;
use crate::journal::{Committed, JournalSet, LoggedWrite};
use crate::logspace::LoggerSpace;
use crate::policy::{Policy, PolicyStats};
use crate::recovery::recovery_plan;
use rolo_disk::{DiskId, DiskRequest, IoKind, IoOutcome, Priority};
use rolo_obs::{BgSpanKind, LegFlavor, SimEvent};
use rolo_raid::Split;
use rolo_sim::{Duration, IoSlab, IoSlot, SlotTable};
use rolo_trace::{ReqKind, TraceRecord};
use std::ops::Range;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Logging,
    Destaging,
}

#[derive(Debug, Clone, Copy)]
enum Tag {
    User(IoSlot),
    CacheFill,
    Destage(usize),
}

#[derive(Debug, Default)]
struct UserMeta {
    /// A write's marks, clears and journal records.
    write: LoggedWrite,
    /// Cache blocks a read miss inserts at completion.
    cache_fill: Range<u64>,
    /// Charge a background cache-fill write of this many bytes.
    fill_bytes: u64,
}

/// The RoLo-E controller.
#[derive(Debug)]
pub struct RoloEPolicy {
    pairs: usize,
    threshold: f64,
    chunk: u64,
    idle_spindown: Duration,
    stripe_unit: u64,
    logger_base: u64,
    logger_size: u64,
    period: u64,
    /// On-duty logger pairs (§III-B3: "one or several mirrored disk
    /// pairs"). The whole window advances by one at each destage cycle.
    logger_pairs: Vec<usize>,
    mode: Mode,
    /// One logical log, physically mirrored on both logger-pair disks.
    log: LoggerSpace,
    /// Dirty maps plus a journal on every disk (the on-duty window
    /// rotates, so over time any disk can hold log copies). Like GRAID,
    /// RoLo-E runs no compactor: the centralized destage reclaims the
    /// whole log, killing every segment wholesale (DESIGN.md §10).
    journal: JournalSet,
    cache: BlockCache,
    chains: DestageChains,
    /// Per sub-request, under the slot its `DiskRequest` carries.
    tags: IoSlab<Tag>,
    /// Per user request, under the context's user slot.
    meta: SlotTable<UserMeta>,
    round_robin: usize,
    draining: bool,
    stats: PolicyStats,
}

impl RoloEPolicy {
    /// Creates a RoLo-E controller.
    ///
    /// `cache_fraction` of the logger region caches popular reads; the
    /// rest takes log appends.
    ///
    /// # Panics
    ///
    /// Panics on a zero logger region, zero pairs or an out-of-range
    /// cache fraction.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pairs: usize,
        logger_base: u64,
        logger_size: u64,
        stripe_unit: u64,
        threshold: f64,
        chunk: u64,
        idle_spindown: Duration,
        cache_fraction: f64,
    ) -> Self {
        assert!(pairs > 0 && logger_size > 0);
        assert!((0.0..1.0).contains(&cache_fraction));
        let cache_bytes = (logger_size as f64 * cache_fraction) as u64;
        let log_share = logger_size - cache_bytes;
        assert!(log_share > 0, "cache fraction leaves no log space");
        RoloEPolicy {
            pairs,
            threshold,
            chunk,
            idle_spindown,
            stripe_unit,
            logger_base,
            logger_size,
            period: 0,
            logger_pairs: vec![0],
            mode: Mode::Logging,
            log: LoggerSpace::new(logger_base, log_share),
            journal: JournalSet::new(pairs, 0..2 * pairs),
            cache: BlockCache::new((cache_bytes / stripe_unit) as usize),
            chains: DestageChains::new(pairs),
            tags: IoSlab::new(),
            meta: SlotTable::default(),
            round_robin: 0,
            draining: false,
            stats: PolicyStats::default(),
        }
    }

    /// Sets the number of simultaneously on-duty logger pairs (before the
    /// run starts); the initial window is pairs `0..k`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k < pairs`.
    pub fn set_on_duty_pairs(&mut self, k: usize) {
        assert!(k >= 1 && k < self.pairs, "on-duty window out of range");
        self.logger_pairs = (0..k).collect();
    }

    /// Tunes the journal geometry (before the run starts); resets all
    /// journals.
    pub fn set_segment_tuning(&mut self, seg_bytes: u64, archive_ttl: Duration) {
        self.journal.tune(seg_bytes, archive_ttl);
    }

    /// All disks of the on-duty logger pairs, primary then mirror.
    fn logger_disks<'a>(&'a self, ctx: &'a SimCtx) -> impl Iterator<Item = DiskId> + 'a {
        let geo = ctx.geometry();
        self.logger_pairs
            .iter()
            .flat_map(move |&j| [geo.primary_disk(j), geo.mirror_disk(j)])
    }

    /// The on-duty *pair* that takes a given write's two log copies,
    /// chosen round-robin across the window.
    fn pick_logger_pair(&mut self) -> usize {
        let k = self.logger_pairs.len();
        self.round_robin = self.round_robin.wrapping_add(1);
        self.logger_pairs[self.round_robin % k]
    }

    /// Alternates across all on-duty disks for cache reads/fills,
    /// skipping degraded slots (their replacements hold no log copies
    /// until rebuilt) whenever a surviving copy-holder exists.
    fn next_logger_disk(&mut self, ctx: &SimCtx) -> DiskId {
        self.round_robin = self.round_robin.wrapping_add(1);
        let healthy = |&d: &DiskId| !ctx.is_degraded(d);
        let live = self.logger_disks(ctx).filter(healthy).count();
        let pick = if live == 0 {
            let all = 2 * self.logger_pairs.len();
            self.logger_disks(ctx).nth(self.round_robin % all)
        } else {
            self.logger_disks(ctx)
                .filter(healthy)
                .nth(self.round_robin % live)
        };
        pick.expect("the index is below the disk count")
    }

    /// Synthetic position of a cached/logged block inside the logger
    /// region (the simulation tracks versions, not data placement).
    fn log_read_offset(&self, block: u64, len: u64) -> u64 {
        let span = self.logger_size.saturating_sub(len).max(1);
        self.logger_base + (block * self.stripe_unit) % span
    }

    fn blocks_of(&self, offset: u64, bytes: u64) -> Range<u64> {
        let first = offset / self.stripe_unit;
        let last = (offset + bytes - 1) / self.stripe_unit;
        first..last + 1
    }

    fn start_destage(&mut self, ctx: &mut SimCtx) {
        if self.mode == Mode::Destaging {
            for pair in 0..self.pairs {
                self.pump(ctx, pair);
            }
            self.check_destage_done(ctx);
            return;
        }
        self.mode = Mode::Destaging;
        ctx.emit(|| SimEvent::DestageStart { pair: None });
        // The centralized cycle spins everything up and destages every
        // pair in parallel: cover the whole array.
        let all: Vec<DiskId> = (0..ctx.disk_count()).collect();
        ctx.bg_span_begin(BgSpanKind::Destage, None, &all);
        ctx.enter_phase(Phase::Destaging);
        for d in 0..ctx.disk_count() {
            ctx.spin_up(d);
        }
        for pair in 0..self.pairs {
            self.pump(ctx, pair);
        }
        self.check_destage_done(ctx);
    }

    fn pump(&mut self, ctx: &mut SimCtx, pair: usize) {
        let geo = ctx.geometry();
        let targets = [geo.primary_disk(pair), geo.mirror_disk(pair)];
        // The chain starts when both disks' spin-ups land.
        let ready = targets.iter().all(|&d| ctx.disk(d).is_spun_up());
        if self.mode != Mode::Destaging || self.chains.is_busy(pair) || !ready {
            return;
        }
        if let Some((off, len)) = self.journal.take_next(pair, self.chunk) {
            let disk = self.next_logger_disk(ctx);
            let src = (disk, self.log_read_offset(off / self.stripe_unit, len));
            let tag = self.tags.insert(Tag::Destage(pair));
            self.chains.start(ctx, pair, (off, len), src, &targets, tag);
        }
    }

    fn check_destage_done(&mut self, ctx: &mut SimCtx) {
        if self.mode != Mode::Destaging {
            return;
        }
        if self.chains.any_busy() || !self.journal.all_clean() {
            return;
        }
        // Reclaim the whole log, rotate the logger pair, park the rest.
        // Every journal segment is now fully dead; the sweep archives
        // them wholesale, so no background compactor is needed.
        self.log.reclaim(|_| true);
        for pair in 0..self.pairs {
            self.journal.reclaim_pair(pair);
        }
        self.journal.sweep(ctx);
        self.cache.clear();
        ctx.log_timeline.push(ctx.now, 0.0);
        ctx.enter_phase(Phase::Logging);
        self.mode = Mode::Logging;
        self.period += 1;
        ctx.emit(|| SimEvent::DestageEnd { pair: None });
        ctx.bg_span_end(BgSpanKind::Destage, None);
        // Advance the whole on-duty window by its width so successive
        // cycles visit disjoint pair sets round-robin.
        let n = self.pairs;
        let k = self.logger_pairs.len();
        let outgoing = self.logger_pairs[0];
        for j in self.logger_pairs.iter_mut() {
            *j = (*j + k) % n;
        }
        self.stats.rotations += 1;
        self.stats.destage_cycles += 1;
        ctx.emit(|| SimEvent::LoggerRotation {
            outgoing,
            incoming: self.logger_pairs[0],
            period: self.period,
        });
        if !self.draining {
            let keep: Vec<DiskId> = self.logger_disks(ctx).collect();
            for d in 0..ctx.disk_count() {
                if !keep.contains(&d) {
                    ctx.spin_down(d);
                }
            }
        }
    }

    fn write_direct(&mut self, ctx: &mut SimCtx, user: IoSlot, w: &mut LoggedWrite, exts: Split) {
        self.stats.direct_writes += 1;
        for ext in exts {
            w.write_direct(ctx, user, ext, || self.tags.insert(Tag::User(user)));
        }
    }
}

/// The request's per-pair extents.
fn extents(ctx: &SimCtx, rec: &TraceRecord) -> Split {
    ctx.geometry()
        .split(rec.offset, rec.bytes)
        .expect("driver keeps requests in range")
}

impl Policy for RoloEPolicy {
    fn name(&self) -> &'static str {
        "RoLo-E"
    }

    fn initial_standby(&self, disk: DiskId) -> bool {
        let pair = if disk < self.pairs {
            disk
        } else {
            disk - self.pairs
        };
        !self.logger_pairs.contains(&pair)
    }

    fn attach(&mut self, ctx: &mut SimCtx) {
        ctx.enter_phase(Phase::Logging);
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        assert!(
            rec.offset + rec.bytes <= ctx.geometry().logical_capacity(),
            "driver keeps requests in range"
        );
        let user = ctx.register_user(user_id, rec.kind);
        let mut meta = self.meta.take(user);
        match rec.kind {
            ReqKind::Read if self.mode == Mode::Logging => {
                let hit = self
                    .blocks_of(rec.offset, rec.bytes)
                    .all(|b| self.cache.contains(b));
                if hit && self.cache.capacity() > 0 {
                    self.stats.cache_hits += 1;
                    for b in self.blocks_of(rec.offset, rec.bytes) {
                        self.cache.touch(b);
                    }
                    let d = self.next_logger_disk(ctx);
                    let off = self.log_read_offset(rec.offset / self.stripe_unit, rec.bytes);
                    let tag = self.tags.insert(Tag::User(user));
                    let extent = (off, rec.bytes);
                    ctx.submit_user(user, tag, d, IoKind::Read, extent, LegFlavor::Transfer);
                } else {
                    self.stats.cache_misses += 1;
                    for ext in extents(ctx, rec) {
                        let (target, flavor) =
                            ctx.route_read(ctx.geometry().primary_disk(ext.pair));
                        if !ctx.disk(target).is_spun_up() {
                            self.stats.read_miss_spinups += 1;
                            ctx.emit(|| SimEvent::ReadMissSpinUp { disk: target });
                        }
                        let tag = self.tags.insert(Tag::User(user));
                        let extent = (ext.offset, ext.bytes);
                        ctx.submit_user(user, tag, target, IoKind::Read, extent, flavor);
                        // Spin the awakened disk back down once idle.
                        ctx.set_timer(self.idle_spindown, target as u64);
                    }
                    meta.cache_fill = self.blocks_of(rec.offset, rec.bytes);
                    meta.fill_bytes = rec.bytes;
                }
            }
            ReqKind::Read => {
                // Centralized destage in progress: everything is up.
                for ext in extents(ctx, rec) {
                    let (target, flavor) = ctx.route_read(ctx.geometry().primary_disk(ext.pair));
                    let tag = self.tags.insert(Tag::User(user));
                    let extent = (ext.offset, ext.bytes);
                    ctx.submit_user(user, tag, target, IoKind::Read, extent, flavor);
                }
            }
            ReqKind::Write => {
                let exts = extents(ctx, rec);
                if self.log.free_bytes() < rec.bytes {
                    // Log exhausted: destage must run; fall back to direct
                    // writes until space is reclaimed.
                    self.start_destage(ctx);
                    self.write_direct(ctx, user, &mut meta.write, exts);
                } else {
                    for ext in exts {
                        // Two copies, on one on-duty pair (round-robin
                        // across the window when it is wider than one).
                        let pair = self.pick_logger_pair();
                        let targets = [
                            ctx.geometry().primary_disk(pair),
                            ctx.geometry().mirror_disk(pair),
                        ];
                        // First copy is the log append proper; the twin
                        // on the pair's other disk is its mirror.
                        let flavors = [LegFlavor::LogAppend, LegFlavor::MirrorCopy];
                        let logged = self.log.alloc(ext.bytes, ext.pair, self.period, |seg| {
                            for (d, flavor) in targets.into_iter().zip(flavors) {
                                let tag = self.tags.insert(Tag::User(user));
                                let extent = (seg.offset(), seg.bytes());
                                ctx.submit_user(user, tag, d, IoKind::Write, extent, flavor);
                            }
                            self.stats.log_appended_bytes += seg.bytes();
                        });
                        assert!(logged, "free space checked above");
                        let mark = meta.write.marks.len() as u32;
                        for d in targets {
                            let rid = self.journal.append(
                                ctx,
                                d,
                                ext.pair,
                                self.period,
                                ext.offset,
                                ext.bytes,
                            );
                            meta.write.appends.push((mark, d, rid));
                        }
                        meta.write.marks.push((ext.pair, ext.offset, ext.bytes));
                    }
                    ctx.log_timeline.push(ctx.now, self.log.used_bytes() as f64);
                    // The threshold leaves headroom so writes keep landing
                    // in the log (on the already-spinning logger pair)
                    // while the rest of the array spins up for destage.
                    if self.mode == Mode::Logging && self.log.occupancy() >= self.threshold {
                        self.start_destage(ctx);
                    }
                }
            }
        }
        self.meta.put(user, meta);
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId, req: DiskRequest) {
        match self.tags.remove(req.tag).expect("unknown sub-request") {
            Tag::User(user) => {
                if !ctx.user_sub_done(user) {
                    return;
                }
                // The ack instant is the commit point: both mirrored
                // copies get one shared LSN.
                let mut meta = self.meta.take(user);
                while let Some(step) = self.journal.commit_next(&mut meta.write) {
                    if self.mode == Mode::Destaging {
                        match step {
                            Committed::Marked(pair) => self.pump(ctx, pair),
                            Committed::Cleared(_) => self.check_destage_done(ctx),
                        }
                    }
                }
                if self.mode == Mode::Logging && !meta.cache_fill.is_empty() {
                    for b in meta.cache_fill.clone() {
                        self.cache.insert(b);
                    }
                    if meta.fill_bytes > 0 {
                        // Writing the fetched blocks into the cache
                        // costs a background write on a logger disk.
                        let d = self.next_logger_disk(ctx);
                        let off =
                            self.log_read_offset(req.offset / self.stripe_unit, meta.fill_bytes);
                        let tag = self.tags.insert(Tag::CacheFill);
                        let len = meta.fill_bytes;
                        ctx.submit(d, IoKind::Write, off, len, Priority::Background, tag);
                    }
                }
                meta.cache_fill = 0..0;
                meta.fill_bytes = 0;
                self.meta.put(user, meta);
            }
            Tag::CacheFill => {}
            Tag::Destage(pair) => {
                let slot = || self.tags.insert(Tag::Destage(pair));
                if self.chains.complete(ctx, pair, slot) {
                    self.pump(ctx, pair);
                    self.check_destage_done(ctx);
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
        match self.tags.get(req.tag).copied() {
            Some(Tag::User(user)) => {
                // The mirrored copy serves the read the failed slot lost.
                if !ctx.redirect_read(disk, &req, outcome, user) {
                    self.on_io_complete(ctx, disk, req);
                }
            }
            Some(Tag::Destage(pair)) => match self.chains.reading(pair) {
                // Re-fetch the run from a surviving logger copy; the chain
                // must make progress or the destage never ends.
                Some((off, len)) => {
                    let src = self.next_logger_disk(ctx);
                    let src_off = self.log_read_offset(off / self.stripe_unit, len);
                    self.chains.read_from(ctx, pair, (src, src_off), req.tag);
                }
                None => self.on_io_complete(ctx, disk, req),
            },
            // Failed destage/cache-fill writes and write sub-requests just
            // close their accounting: the rebuild restores the slot.
            _ => self.on_io_complete(ctx, disk, req),
        }
    }

    fn on_disk_failure(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let pair = if disk < self.pairs {
            disk
        } else {
            disk - self.pairs
        };
        let on_duty = self.logger_pairs.contains(&pair);
        // Whatever log copies the dead disk held are gone: replay the
        // surviving journals against the NVRAM dirty maps, then wipe the
        // slot's journal (the replacement starts blank).
        self.journal.fail(ctx, disk, &mut self.stats);
        let logger_arg = if on_duty { pair } else { self.logger_pairs[0] };
        let plan = recovery_plan(
            crate::config::Scheme::RoloE,
            ctx.geometry(),
            disk,
            logger_arg,
            &[],
        );
        if on_duty && (self.log.used_bytes() > 0 || !self.journal.all_clean()) {
            // Half of the mirrored log died with the disk; flush the
            // surviving copy so redundancy is restored (and the window
            // rotates off the degraded pair at the cycle's end).
            self.start_destage(ctx);
        }
        ctx.begin_rebuild(&plan, ctx.geometry().data_region());
        if self.mode == Mode::Destaging {
            // A dying disk may have swallowed the spin-up wake its pair's
            // chain was waiting for.
            self.pump(ctx, pair);
            self.check_destage_done(ctx);
        }
    }

    fn on_rebuild_complete(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        // Park the rebuilt replacement unless it is on logging duty.
        if self.mode == Mode::Logging
            && !self.draining
            && !self.logger_disks(ctx).any(|d| d == disk)
        {
            ctx.spin_down(disk);
        }
    }

    fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        if self.mode == Mode::Destaging {
            let pair = if disk < self.pairs {
                disk
            } else if disk < 2 * self.pairs {
                disk - self.pairs
            } else {
                return;
            };
            self.pump(ctx, pair);
        }
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, token: u64) {
        let disk = token as usize;
        if self.mode != Mode::Logging || disk >= ctx.disk_count() {
            return;
        }
        if self.logger_disks(ctx).any(|d| d == disk) {
            return;
        }
        if ctx.disk(disk).is_idle() {
            ctx.spin_down(disk);
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
