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
use crate::journal::{JournalSet, PendingAppend};
use crate::logspace::LoggerSpace;
use crate::policy::{Policy, PolicyStats};
use crate::recovery::recovery_plan;
use crate::slot::IoSlot;
use rolo_disk::{DiskId, DiskRequest, IoKind, IoOutcome, Priority};
use rolo_metrics::Phase;
use rolo_obs::{BgSpanKind, LegFlavor, SimEvent};
use rolo_raid::PhysExtent;
use rolo_sim::{Duration, IoMap};
use rolo_trace::{ReqKind, TraceRecord};
use std::ops::Range;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Logging,
    Destaging,
}

#[derive(Debug, Clone, Copy)]
enum Tag {
    User(u64, IoSlot),
    CacheFill,
    DestageRead { pair: usize, off: u64, len: u64 },
    DestageWrite { pair: usize, len: u64 },
}

#[derive(Debug, Default)]
struct UserMeta {
    marks: Vec<(usize, u64, u64)>,
    clears: Vec<(usize, u64, u64)>,
    /// Journal records, flat to keep the write path to one allocation.
    /// The two mirrored copies of `marks[i]` commit with one shared LSN
    /// when the request acks.
    appends: Vec<PendingAppend>,
    /// Cache blocks a read miss inserts at completion.
    cache_fill: Range<u64>,
    /// Charge a background cache-fill write of this many bytes.
    fill_bytes: u64,
}

impl UserMeta {
    /// True if completion has nothing to commit, clear or fill.
    fn is_empty(&self) -> bool {
        self.marks.is_empty()
            && self.clears.is_empty()
            && self.appends.is_empty()
            && self.cache_fill.is_empty()
            && self.fill_bytes == 0
    }
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
    /// Remaining destage writes of the in-flight chain per pair (0 = no
    /// chain).
    chain_writes: Vec<u8>,
    io_map: IoMap<Tag>,
    user_meta: IoMap<UserMeta>,
    logging_token: Option<u64>,
    destaging_token: Option<u64>,
    phase_energy_mark: f64,
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
            chain_writes: vec![0; pairs],
            io_map: IoMap::default(),
            user_meta: IoMap::default(),
            logging_token: None,
            destaging_token: None,
            phase_energy_mark: 0.0,
            round_robin: 0,
            draining: false,
            stats: PolicyStats::default(),
        }
    }

    /// The first on-duty logger pair.
    pub fn logger_pair(&self) -> usize {
        self.logger_pairs[0]
    }

    /// All on-duty logger pairs.
    pub fn on_duty_pairs(&self) -> &[usize] {
        &self.logger_pairs
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

    /// Occupancy of the logical log in `[0, 1]`.
    pub fn log_occupancy(&self) -> f64 {
        self.log.occupancy()
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
        let energy = ctx.total_energy();
        if let Some(tok) = self.logging_token.take() {
            ctx.intervals
                .end(tok, ctx.now, energy - self.phase_energy_mark);
        }
        self.phase_energy_mark = energy;
        self.destaging_token = Some(ctx.intervals.begin(Phase::Destaging, ctx.now));
        for d in 0..ctx.disk_count() {
            ctx.spin_up(d);
        }
        for pair in 0..self.pairs {
            self.pump(ctx, pair);
        }
        self.check_destage_done(ctx);
    }

    fn pair_ready(&self, ctx: &SimCtx, pair: usize) -> bool {
        let p = ctx.geometry().primary_disk(pair);
        let m = ctx.geometry().mirror_disk(pair);
        ctx.disk(p).is_spun_up() && ctx.disk(m).is_spun_up()
    }

    fn pump(&mut self, ctx: &mut SimCtx, pair: usize) {
        if self.mode != Mode::Destaging || self.chain_writes[pair] > 0 {
            return;
        }
        if !self.pair_ready(ctx, pair) {
            return; // chain starts when the pair's spin-ups land
        }
        if let Some((off, len)) = self.journal.take_next(pair, self.chunk) {
            self.chain_writes[pair] = u8::MAX; // sentinel: read in flight
            let src = self.next_logger_disk(ctx);
            let read_off = self.log_read_offset(off / self.stripe_unit, len);
            let id = ctx.submit(src, IoKind::Read, read_off, len, Priority::Background);
            self.io_map.insert(id, Tag::DestageRead { pair, off, len });
        }
    }

    fn check_destage_done(&mut self, ctx: &mut SimCtx) {
        if self.mode != Mode::Destaging {
            return;
        }
        if self.chain_writes.iter().any(|&c| c > 0) || !self.journal.all_clean() {
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
        let energy = ctx.total_energy();
        if let Some(tok) = self.destaging_token.take() {
            ctx.intervals
                .end(tok, ctx.now, energy - self.phase_energy_mark);
        }
        self.phase_energy_mark = energy;
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
        self.logging_token = Some(ctx.intervals.begin(Phase::Logging, ctx.now));
        if !self.draining {
            let keep: Vec<DiskId> = self.logger_disks(ctx).collect();
            for d in 0..ctx.disk_count() {
                if !keep.contains(&d) {
                    ctx.spin_down(d);
                }
            }
        }
    }

    fn write_direct(
        &mut self,
        ctx: &mut SimCtx,
        user_id: u64,
        uslot: IoSlot,
        meta: &mut UserMeta,
        exts: &[PhysExtent],
    ) -> u32 {
        self.stats.direct_writes += 1;
        let mut subs = 0;
        for ext in exts {
            let p = ctx.geometry().primary_disk(ext.pair);
            let m = ctx.geometry().mirror_disk(ext.pair);
            for d in [p, m] {
                let id = ctx.submit(
                    d,
                    IoKind::Write,
                    ext.offset,
                    ext.bytes,
                    Priority::Foreground,
                );
                self.io_map.insert(id, Tag::User(user_id, uslot));
                let flavor = if d == p {
                    LegFlavor::Transfer
                } else {
                    LegFlavor::MirrorCopy
                };
                ctx.tag_io(id, user_id, flavor);
                subs += 1;
            }
            meta.clears.push((ext.pair, ext.offset, ext.bytes));
        }
        subs
    }
}

/// The request's per-pair extents.
fn extents(ctx: &SimCtx, rec: &TraceRecord) -> Vec<PhysExtent> {
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
        self.logging_token = Some(ctx.intervals.begin(Phase::Logging, ctx.now));
        self.phase_energy_mark = ctx.total_energy();
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        assert!(
            rec.offset + rec.bytes <= ctx.geometry().logical_capacity(),
            "driver keeps requests in range"
        );
        let mut meta = UserMeta::default();
        let mut subs: u32 = 0;
        // Admission hold: one sub reserved up front so the slab slot
        // exists before the first sub-request can possibly complete;
        // the balance is topped up below once `subs` is known.
        let uslot = ctx.register_user(user_id, rec.kind, ctx.now, 1);
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
                    let id = ctx.submit(d, IoKind::Read, off, rec.bytes, Priority::Foreground);
                    self.io_map.insert(id, Tag::User(user_id, uslot));
                    ctx.tag_io(id, user_id, LegFlavor::Transfer);
                    subs += 1;
                } else {
                    self.stats.cache_misses += 1;
                    for ext in &extents(ctx, rec) {
                        let p = ctx.geometry().primary_disk(ext.pair);
                        let target = if ctx.is_degraded(p) {
                            ctx.geometry().mirror_disk(ext.pair)
                        } else {
                            p
                        };
                        if !ctx.disk(target).is_spun_up() {
                            self.stats.read_miss_spinups += 1;
                            ctx.emit(|| SimEvent::ReadMissSpinUp { disk: target });
                        }
                        let id = ctx.submit(
                            target,
                            IoKind::Read,
                            ext.offset,
                            ext.bytes,
                            Priority::Foreground,
                        );
                        self.io_map.insert(id, Tag::User(user_id, uslot));
                        let flavor = if target == p {
                            LegFlavor::Transfer
                        } else {
                            LegFlavor::DegradedRedirect
                        };
                        ctx.tag_io(id, user_id, flavor);
                        subs += 1;
                        // Spin the awakened disk back down once idle.
                        ctx.set_timer(self.idle_spindown, target as u64);
                    }
                    meta.cache_fill = self.blocks_of(rec.offset, rec.bytes);
                    meta.fill_bytes = rec.bytes;
                }
            }
            ReqKind::Read => {
                // Centralized destage in progress: everything is up.
                for ext in &extents(ctx, rec) {
                    let p = ctx.geometry().primary_disk(ext.pair);
                    let target = if ctx.is_degraded(p) {
                        ctx.geometry().mirror_disk(ext.pair)
                    } else {
                        p
                    };
                    let id = ctx.submit(
                        target,
                        IoKind::Read,
                        ext.offset,
                        ext.bytes,
                        Priority::Foreground,
                    );
                    self.io_map.insert(id, Tag::User(user_id, uslot));
                    let flavor = if target == p {
                        LegFlavor::Transfer
                    } else {
                        LegFlavor::DegradedRedirect
                    };
                    ctx.tag_io(id, user_id, flavor);
                    subs += 1;
                }
            }
            ReqKind::Write => {
                let exts = extents(ctx, rec);
                if self.log.free_bytes() < rec.bytes {
                    // Log exhausted: destage must run; fall back to direct
                    // writes until space is reclaimed.
                    self.start_destage(ctx);
                    subs += self.write_direct(ctx, user_id, uslot, &mut meta, &exts);
                } else {
                    for ext in &exts {
                        let segs = self
                            .log
                            .alloc(ext.bytes, ext.pair, self.period)
                            .expect("free space checked above");
                        // Two copies, on one on-duty pair (round-robin
                        // across the window when it is wider than one).
                        let pair = self.pick_logger_pair();
                        let targets = [
                            ctx.geometry().primary_disk(pair),
                            ctx.geometry().mirror_disk(pair),
                        ];
                        for seg in segs {
                            for d in targets {
                                let id = ctx.submit(
                                    d,
                                    IoKind::Write,
                                    seg.offset,
                                    seg.bytes,
                                    Priority::Foreground,
                                );
                                self.io_map.insert(id, Tag::User(user_id, uslot));
                                // First copy is the log append proper;
                                // the twin on the pair's other disk is
                                // its mirror.
                                let flavor = if d == targets[0] {
                                    LegFlavor::LogAppend
                                } else {
                                    LegFlavor::MirrorCopy
                                };
                                ctx.tag_io(id, user_id, flavor);
                                subs += 1;
                            }
                            self.stats.log_appended_bytes += seg.bytes;
                        }
                        let mark = meta.marks.len() as u32;
                        for d in targets {
                            let rid = self.journal.append(
                                ctx,
                                d,
                                ext.pair,
                                self.period,
                                ext.offset,
                                ext.bytes,
                            );
                            meta.appends.push((mark, d, rid));
                        }
                        meta.marks.push((ext.pair, ext.offset, ext.bytes));
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
        debug_assert!(subs >= 1, "every admitted request issues at least one sub");
        if subs > 1 {
            ctx.add_user_subs(uslot, subs - 1);
        }
        // Completion reads a missing entry as an empty one.
        if !meta.is_empty() {
            self.user_meta.insert(user_id, meta);
        }
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId, req: DiskRequest) {
        match self.io_map.remove(&req.id).expect("unknown sub-request") {
            Tag::User(user, uslot) => {
                if ctx.user_sub_done(uslot).is_some() {
                    let meta = self.user_meta.remove(&user).unwrap_or_default();
                    for (i, &(pair, off, len)) in meta.marks.iter().enumerate() {
                        // The ack instant is the commit point: both
                        // mirrored copies get one shared LSN.
                        self.journal.mark(pair, off, len, &meta.appends, i as u32);
                        if self.mode == Mode::Destaging {
                            self.pump(ctx, pair);
                        }
                    }
                    for (pair, off, len) in meta.clears {
                        self.journal.clear(pair, off, len);
                        if self.mode == Mode::Destaging {
                            self.check_destage_done(ctx);
                        }
                    }
                    if self.mode == Mode::Logging && !meta.cache_fill.is_empty() {
                        for b in meta.cache_fill {
                            self.cache.insert(b);
                        }
                        if meta.fill_bytes > 0 {
                            // Writing the fetched blocks into the cache
                            // costs a background write on a logger disk.
                            let d = self.next_logger_disk(ctx);
                            let off = self
                                .log_read_offset(req.offset / self.stripe_unit, meta.fill_bytes);
                            let id = ctx.submit(
                                d,
                                IoKind::Write,
                                off,
                                meta.fill_bytes,
                                Priority::Background,
                            );
                            self.io_map.insert(id, Tag::CacheFill);
                        }
                    }
                }
            }
            Tag::CacheFill => {}
            Tag::DestageRead { pair, off, len } => {
                let p = ctx.geometry().primary_disk(pair);
                let m = ctx.geometry().mirror_disk(pair);
                self.chain_writes[pair] = 2;
                for d in [p, m] {
                    let id = ctx.submit(d, IoKind::Write, off, len, Priority::Background);
                    self.io_map.insert(id, Tag::DestageWrite { pair, len });
                }
            }
            Tag::DestageWrite { pair, len } => {
                self.chain_writes[pair] -= 1;
                if self.chain_writes[pair] == 0 {
                    self.stats.destaged_bytes += len;
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
        match self.io_map.get(&req.id).copied() {
            Some(Tag::User(user, uslot)) => {
                // The mirrored copy serves the read the failed slot lost.
                if let Some(id) = ctx.redirect_read(disk, &req, outcome, user) {
                    self.io_map.remove(&req.id);
                    self.io_map.insert(id, Tag::User(user, uslot));
                    return;
                }
                self.on_io_complete(ctx, disk, req);
            }
            Some(Tag::DestageRead { pair, off, len }) => {
                // Re-fetch the chunk from a surviving logger copy; the
                // chain must make progress or the destage never ends.
                self.io_map.remove(&req.id);
                let src = self.next_logger_disk(ctx);
                let read_off = self.log_read_offset(off / self.stripe_unit, len);
                let id = ctx.submit(src, IoKind::Read, read_off, len, Priority::Background);
                self.io_map.insert(id, Tag::DestageRead { pair, off, len });
            }
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

    fn on_spin_down(&mut self, _ctx: &mut SimCtx, _disk: DiskId) {}

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
