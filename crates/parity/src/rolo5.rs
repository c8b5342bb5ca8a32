//! RoLo-5: rotated parity-update logging with decentralized destaging.
//!
//! The write path sheds the parity read-modify-write from the foreground:
//! read-old-data + write-new-data on the data disk, plus one *sequential*
//! append of the parity delta to the on-duty logger's logging region. The
//! parity itself goes stale; per-parity-disk destage processes apply the
//! pending updates (read-parity + write-parity) as background I/O in idle
//! slots. When a parity disk's backlog drains, every delta segment
//! destined for it is reclaimed pool-wide, and the logger keeps rotating
//! over the array's free space — RoLo's two mechanisms (§III-A),
//! transplanted to RAID5 per §VII.

use crate::geometry::Raid5Geometry;
use rolo_core::ctx::SimCtx;
use rolo_core::destage::DestageChains;
use rolo_core::dirty::DirtyMap;
use rolo_core::logspace::LoggerSpace;
use rolo_core::policy::{Policy, PolicyStats};
use rolo_disk::{DiskId, DiskRequest, IoKind, Priority};
use rolo_sim::{IoSlab, IoSlot};
use rolo_trace::{ReqKind, TraceRecord};

#[derive(Debug, Clone, Copy)]
enum Tag {
    User(IoSlot),
    /// Phase-1 read of the chain in this `chains` slot.
    ChainRead(IoSlot),
    /// Phase-2 write of the chain in this `chains` slot.
    ChainWrite(IoSlot),
    /// Background flush of NVRAM-staged deltas to the log.
    NvramFlush,
    Destage(usize),
}

#[derive(Debug)]
struct Chain {
    user: IoSlot,
    data_disk: DiskId,
    data_offset: u64,
    bytes: u64,
    /// Parity mark applied when the chain completes.
    parity_disk: usize,
    parity_mark: (u64, u64),
    /// Delta append pieces (disk, offset, len) issued in phase 2, or the
    /// direct parity RMW when deactivated.
    writes_left: u8,
    direct: bool,
    /// On-duty logger chosen at submission time for this chain's delta.
    log_target: usize,
}

/// The RoLo-5 controller.
#[derive(Debug)]
pub struct Rolo5Policy {
    geometry: Raid5Geometry,
    /// The current on-duty logger slots (§III-D: the append bottleneck is
    /// alleviated "by adjusting the number of on-duty log disks" — one
    /// logger cannot absorb an entire array's write load when every disk
    /// also serves data).
    loggers: Vec<usize>,
    /// Round-robin cursor across the slots.
    cursor: usize,
    period: u64,
    rotate_threshold: f64,
    chunk: u64,
    logger_size: u64,
    spaces: Vec<LoggerSpace>,
    /// Stale parity ranges per parity disk (accumulating).
    dirty: Vec<DirtyMap>,
    /// The snapshot being destaged this round, per parity disk. Rounds
    /// are finite even under sustained load: marks arriving mid-round go
    /// to `dirty` and wait for the next round, and segments older than
    /// the round's watermark period become reclaimable when it ends.
    draining: Vec<DirtyMap>,
    watermark: Vec<u64>,
    destage_active: Vec<bool>,
    /// Each parity disk's destage chain reads and rewrites that disk.
    destage: DestageChains,
    /// Per sub-request, under the slot its `DiskRequest` carries.
    tags: IoSlab<Tag>,
    chains: IoSlab<Chain>,
    deactivated: bool,
    drain_mode: bool,
    /// NVRAM append staging: deltas are durable the moment they enter the
    /// buffer (classic Parity Logging's fault-tolerant buffer), so the
    /// foreground write path drops the log append entirely; batches are
    /// flushed to the on-duty logger as large sequential background
    /// writes. `None` disables staging.
    nvram_batch: Option<u64>,
    nvram_pending: Vec<(usize, u64)>,
    nvram_pending_bytes: u64,
    stats: PolicyStats,
}

impl Rolo5Policy {
    /// Creates a RoLo-5 controller; every disk contributes a logger
    /// region `[logger_base, logger_base + logger_size)`.
    ///
    /// # Panics
    ///
    /// Panics on a zero logger region.
    pub fn new(
        geometry: Raid5Geometry,
        logger_base: u64,
        logger_size: u64,
        rotate_threshold: f64,
        chunk: u64,
    ) -> Self {
        Self::with_loggers(
            geometry,
            logger_base,
            logger_size,
            rotate_threshold,
            chunk,
            2,
        )
    }

    /// Creates a RoLo-5 controller with `on_duty` simultaneous loggers.
    ///
    /// # Panics
    ///
    /// Panics if `on_duty` is zero or leaves no off-duty disk.
    pub fn with_loggers(
        geometry: Raid5Geometry,
        logger_base: u64,
        logger_size: u64,
        rotate_threshold: f64,
        chunk: u64,
        on_duty: usize,
    ) -> Self {
        assert!(logger_size > 0, "zero logger region");
        let disks = geometry.disks();
        assert!(
            on_duty >= 1 && on_duty < disks,
            "on-duty window out of range"
        );
        Rolo5Policy {
            geometry,
            loggers: (0..on_duty).collect(),
            cursor: 0,
            period: 0,
            rotate_threshold,
            chunk,
            logger_size,
            spaces: (0..disks)
                .map(|_| LoggerSpace::new(logger_base, logger_size))
                .collect(),
            dirty: (0..disks).map(|_| DirtyMap::new()).collect(),
            draining: (0..disks).map(|_| DirtyMap::new()).collect(),
            watermark: vec![0; disks],
            destage_active: vec![false; disks],
            destage: DestageChains::new(disks),
            tags: IoSlab::new(),
            chains: IoSlab::new(),
            deactivated: false,
            drain_mode: false,
            nvram_batch: None,
            nvram_pending: Vec::new(),
            nvram_pending_bytes: 0,
            stats: PolicyStats::default(),
        }
    }

    /// Enables NVRAM append staging with the given flush batch size —
    /// the "RoLo-5 + NVRAM" variant of the §VII study. Deltas become
    /// durable on entry to the buffer, so writes no longer wait on a log
    /// append; full batches flush to the on-duty logger as sequential
    /// background writes.
    ///
    /// # Panics
    ///
    /// Panics if `batch_bytes` is zero.
    pub fn enable_nvram(&mut self, batch_bytes: u64) {
        assert!(batch_bytes > 0, "zero NVRAM batch");
        self.nvram_batch = Some(batch_bytes);
    }

    /// Flushes staged deltas to the log if a full batch (or `force`) is
    /// pending.
    fn maybe_flush_nvram(&mut self, ctx: &mut SimCtx, force: bool) {
        let Some(batch) = self.nvram_batch else {
            return;
        };
        if self.nvram_pending_bytes == 0 {
            return;
        }
        if !force && self.nvram_pending_bytes < batch {
            return;
        }
        if self.deactivated {
            // No log space: a real controller replays the buffer straight
            // into the parity destage; the dirty marks already cover it.
            self.stats.direct_writes += self.nvram_pending.len() as u64;
            self.nvram_pending.clear();
            self.nvram_pending_bytes = 0;
            return;
        }
        let entries = std::mem::take(&mut self.nvram_pending);
        let total = self.nvram_pending_bytes;
        self.nvram_pending_bytes = 0;
        let target = match self.pick_logger(total) {
            Some(t) => Some(t),
            None => {
                if self.rotate(ctx) {
                    self.pick_logger(total)
                } else {
                    None
                }
            }
        };
        let Some(target) = target else {
            self.deactivate(ctx);
            self.stats.direct_writes += entries.len() as u64;
            return;
        };
        for (pd, len) in entries {
            let logged = self.spaces[target].alloc(len, pd, self.period, |seg| {
                let tag = self.tags.insert(Tag::NvramFlush);
                let (off, len) = (seg.offset(), seg.bytes());
                ctx.submit(target, IoKind::Write, off, len, Priority::Background, tag);
                self.stats.log_appended_bytes += seg.bytes();
            });
            assert!(logged, "picked logger has space");
        }
        ctx.log_timeline.push(ctx.now, self.log_used_bytes() as f64);
    }

    /// The RAID5 geometry in use.
    pub fn geometry(&self) -> &Raid5Geometry {
        &self.geometry
    }

    /// Picks the next on-duty logger with room for `needed`, round-robin
    /// across the slots; `None` forces a rotation.
    fn pick_logger(&mut self, needed: u64) -> Option<usize> {
        let floor = (self.logger_size as f64 * self.rotate_threshold) as u64;
        let k = self.loggers.len();
        for i in 0..k {
            let idx = self.loggers[(self.cursor + i) % k];
            let free = self.spaces[idx].free_bytes();
            if free >= needed && free > floor {
                self.cursor = (self.cursor + i + 1) % k;
                return Some(idx);
            }
        }
        None
    }

    /// Live delta bytes across the pool.
    pub fn log_used_bytes(&self) -> u64 {
        self.spaces.iter().map(|s| s.used_bytes()).sum()
    }

    /// Replaces the fullest on-duty logger with an off-duty disk whose
    /// logging region is *fully reclaimed* — appending into an empty
    /// region is what keeps log writes sequential (a partially reclaimed
    /// region is fragmented and every append would seek). Returns false
    /// when no empty region exists (the caller then deactivates).
    fn rotate(&mut self, ctx: &mut SimCtx) -> bool {
        // Keep destaging every pending backlog so regions empty out;
        // `destage_active` makes this idempotent and cheap. On-duty
        // loggers are skipped — parity RMW between their appends would
        // destroy the appends' sequentiality; their backlog is processed
        // once they leave the window.
        for d in 0..self.geometry.disks() {
            if self.loggers.contains(&d) {
                continue;
            }
            if !self.dirty[d].is_clean() {
                self.activate_destage(ctx, d);
            } else {
                self.reclaim_for_quiet(d);
            }
        }
        let replacement = (0..self.geometry.disks())
            .find(|d| !self.loggers.contains(d) && self.spaces[*d].used_bytes() == 0);
        let Some(new_disk) = replacement else {
            return false;
        };
        // Swap out the fullest slot.
        let (slot, _) = self
            .loggers
            .iter()
            .enumerate()
            .min_by_key(|(_, &d)| self.spaces[d].free_bytes())
            .expect("at least one logger");
        let retired = std::mem::replace(&mut self.loggers[slot], new_disk);
        self.period += 1;
        self.stats.rotations += 1;
        // The retired logger is off duty: its deferred parity backlog can
        // now be applied.
        if !self.dirty[retired].is_clean() {
            self.activate_destage(ctx, retired);
        }
        true
    }

    /// Reclaims segments whose parity backlog is already clean (their
    /// updates were applied by an earlier destage round) from off-duty
    /// regions.
    fn reclaim_for_quiet(&mut self, pd: usize) {
        if self.dirty[pd].is_clean() && !self.destage_active[pd] {
            let loggers = self.loggers.clone();
            for (d, space) in self.spaces.iter_mut().enumerate() {
                if loggers.contains(&d) {
                    continue;
                }
                space.reclaim(|seg| seg.pair() == pd);
            }
        }
    }

    fn activate_destage(&mut self, ctx: &mut SimCtx, disk: usize) {
        if self.destage_active[disk] {
            self.pump(ctx, disk);
            return;
        }
        if self.dirty[disk].is_clean() && self.draining[disk].is_clean() {
            // Nothing pending: reclaim any stale segments directly.
            self.reclaim_for(ctx, disk);
            return;
        }
        // Start a round: snapshot the backlog; marks arriving mid-round
        // accumulate for the next round.
        if self.draining[disk].is_clean() {
            self.draining[disk] = std::mem::take(&mut self.dirty[disk]);
            self.watermark[disk] = self.period;
        }
        self.destage_active[disk] = true;
        self.pump(ctx, disk);
    }

    fn pump(&mut self, ctx: &mut SimCtx, disk: usize) {
        if !self.destage_active[disk] || self.destage.is_busy(disk) {
            return;
        }
        // Never run parity RMW on an on-duty logger (except while
        // draining or deactivated, when nothing is being appended).
        if self.loggers.contains(&disk) && !self.drain_mode && !self.deactivated {
            return;
        }
        match self.draining[disk].take_next(self.chunk) {
            Some(run) => {
                let tag = self.tags.insert(Tag::Destage(disk));
                self.destage
                    .start(ctx, disk, run, (disk, run.0), &[disk], tag);
            }
            None => self.complete_destage(ctx, disk),
        }
    }

    fn complete_destage(&mut self, ctx: &mut SimCtx, disk: usize) {
        // Both callers reach here with the disk's chain idle.
        if !self.destage_active[disk] || !self.draining[disk].is_clean() {
            return;
        }
        self.destage_active[disk] = false;
        self.stats.destage_cycles += 1;
        // Everything logged up to the round's watermark is now applied.
        let watermark = self.watermark[disk];
        self.reclaim_for_watermark(ctx, disk, watermark);
        // More arrived mid-round: chain straight into the next round.
        if !self.dirty[disk].is_clean() && (self.draining_allowed(disk) || self.draining_forced()) {
            self.activate_destage(ctx, disk);
        }
        if self.deactivated {
            self.try_reactivate(ctx);
        }
    }

    fn draining_allowed(&self, disk: usize) -> bool {
        !self.loggers.contains(&disk)
    }

    fn draining_forced(&self) -> bool {
        self.drain_mode || self.deactivated
    }

    /// Reclaims `pd`'s delta segments up to `watermark` on off-duty
    /// regions.
    fn reclaim_for_watermark(&mut self, ctx: &mut SimCtx, pd: usize, watermark: u64) {
        let loggers = self.loggers.clone();
        let drain_all = self.drain_mode || self.deactivated;
        for (d, space) in self.spaces.iter_mut().enumerate() {
            if loggers.contains(&d) && !drain_all {
                continue;
            }
            space.reclaim(|seg| seg.pair() == pd && seg.period() <= watermark);
        }
        ctx.log_timeline.push(ctx.now, self.log_used_bytes() as f64);
    }

    /// Reclaims `pd`'s stale delta segments on every *off-duty* region.
    /// On-duty regions are left untouched — punching holes into a region
    /// that is actively receiving appends would fragment it and turn the
    /// sequential append stream into random writes; their stale segments
    /// are reclaimed when the disk leaves the window ([`rotate`]'s
    /// `reclaim_for_quiet` sweep).
    fn reclaim_for(&mut self, ctx: &mut SimCtx, disk: usize) {
        let drain_all = self.drain_mode || self.deactivated;
        for (d, space) in self.spaces.iter_mut().enumerate() {
            if self.loggers.contains(&d) && !drain_all {
                continue;
            }
            space.reclaim(|seg| seg.pair() == disk);
        }
        ctx.log_timeline.push(ctx.now, self.log_used_bytes() as f64);
    }

    fn deactivate(&mut self, ctx: &mut SimCtx) {
        if self.deactivated {
            return;
        }
        self.deactivated = true;
        self.stats.deactivations += 1;
        for d in 0..self.geometry.disks() {
            if !self.dirty[d].is_clean() {
                self.activate_destage(ctx, d);
            }
        }
    }

    fn try_reactivate(&mut self, ctx: &mut SimCtx) {
        if !self.deactivated
            || self.destage_active.iter().any(|&a| a)
            || self.dirty.iter().any(|d| !d.is_clean())
            || self.log_used_bytes() > 0
        {
            return;
        }
        self.deactivated = false;
        let _ = self.rotate(ctx);
    }
}

impl Policy for Rolo5Policy {
    fn name(&self) -> &'static str {
        "RoLo-5"
    }

    fn initial_standby(&self, _disk: DiskId) -> bool {
        false
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        let capacity = self.geometry.logical_capacity();
        let bytes = rec.bytes.min(capacity);
        let offset = rec.offset.min(capacity - bytes);
        let exts = self.geometry.split(offset, bytes);
        let uslot = ctx.register_user(user_id, rec.kind);
        ctx.add_user_subs(uslot, exts.len() as u32);
        match rec.kind {
            ReqKind::Read => {
                for e in exts {
                    let tag = self.tags.insert(Tag::User(uslot));
                    let (d, off, len) = (e.data_disk, e.offset, e.bytes);
                    ctx.submit(d, IoKind::Read, off, len, Priority::Foreground, tag);
                }
            }
            ReqKind::Write => {
                for e in exts {
                    let mut target = None;
                    if !self.deactivated {
                        target = self.pick_logger(e.bytes);
                        if target.is_none() {
                            if self.rotate(ctx) {
                                target = self.pick_logger(e.bytes);
                            }
                            if target.is_none() {
                                self.deactivate(ctx);
                            }
                        }
                    }
                    let direct = target.is_none();
                    // Phase 1: read old data (always); plus old parity when
                    // falling back to the in-place RMW. `writes_left`
                    // counts the pending reads until phase 2.
                    let reads = if direct { 2 } else { 1 };
                    let chain_id = self.chains.insert(Chain {
                        user: uslot,
                        data_disk: e.data_disk,
                        data_offset: e.offset,
                        bytes: e.bytes,
                        parity_disk: e.parity_disk,
                        parity_mark: (e.offset, e.bytes),
                        writes_left: reads,
                        direct,
                        log_target: target.unwrap_or(0),
                    });
                    let phase1 = [(e.data_disk, e.offset), (e.parity_disk, e.parity_offset)];
                    for (d, off) in phase1.into_iter().take(usize::from(reads)) {
                        let tag = self.tags.insert(Tag::ChainRead(chain_id));
                        ctx.submit(d, IoKind::Read, off, e.bytes, Priority::Foreground, tag);
                    }
                    if direct {
                        self.stats.direct_writes += 1;
                    }
                }
            }
        }
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId, req: DiskRequest) {
        match self.tags.remove(req.tag).expect("unknown sub-request") {
            Tag::User(user) => {
                ctx.user_sub_done(user);
            }
            Tag::ChainRead(chain_id) => {
                let chain = self.chains.get_mut(chain_id).expect("chain exists");
                // `writes_left` counts outstanding phase-1 reads here.
                chain.writes_left -= 1;
                if chain.writes_left > 0 {
                    return;
                }
                let (dd, doff, len, direct, pd) = (
                    chain.data_disk,
                    chain.data_offset,
                    chain.bytes,
                    chain.direct,
                    chain.parity_disk,
                );
                let poff = chain.parity_mark.0;
                let log_target = chain.log_target;
                let nvram = self.nvram_batch.is_some();
                // Pool raced to full: in-place fallback.
                let raced = !direct && !nvram && self.spaces[log_target].free_bytes() < len;
                if raced {
                    chain.direct = true;
                    self.stats.direct_writes += 1;
                }
                if direct || raced {
                    // In-place fallback: write data + write parity.
                    chain.writes_left = 2;
                    for (d, off) in [(dd, doff), (pd, poff)] {
                        let tag = self.tags.insert(Tag::ChainWrite(chain_id));
                        ctx.submit(d, IoKind::Write, off, len, Priority::Foreground, tag);
                    }
                } else if nvram {
                    // Delta staged in NVRAM (already durable): only the
                    // in-place data write remains in the foreground.
                    let chain = self.chains.get_mut(chain_id).expect("chain exists");
                    chain.writes_left = 1;
                    let tag = self.tags.insert(Tag::ChainWrite(chain_id));
                    ctx.submit(dd, IoKind::Write, doff, len, Priority::Foreground, tag);
                    self.nvram_pending.push((pd, len));
                    self.nvram_pending_bytes += len;
                    self.maybe_flush_nvram(ctx, false);
                } else {
                    // Write data in place + append the parity delta.
                    let tag = self.tags.insert(Tag::ChainWrite(chain_id));
                    ctx.submit(dd, IoKind::Write, doff, len, Priority::Foreground, tag);
                    let mut writes = 1;
                    let logged = self.spaces[log_target].alloc(len, pd, self.period, |seg| {
                        let tag = self.tags.insert(Tag::ChainWrite(chain_id));
                        let (off, len) = (seg.offset(), seg.bytes());
                        let prio = Priority::Foreground;
                        ctx.submit(log_target, IoKind::Write, off, len, prio, tag);
                        self.stats.log_appended_bytes += seg.bytes();
                        writes += 1;
                    });
                    assert!(logged, "free space checked above");
                    chain.writes_left = writes;
                    ctx.log_timeline.push(ctx.now, self.log_used_bytes() as f64);
                }
            }
            Tag::NvramFlush => {}
            Tag::ChainWrite(chain_id) => {
                let chain = self.chains.get_mut(chain_id).expect("chain exists");
                chain.writes_left -= 1;
                if chain.writes_left == 0 {
                    let user = chain.user;
                    let pd = chain.parity_disk;
                    let (moff, mlen) = chain.parity_mark;
                    let direct = chain.direct;
                    self.chains.remove(chain_id);
                    ctx.user_sub_done(user);
                    if direct {
                        // Parity freshly rewritten in place.
                        self.dirty[pd].clear_range(moff, mlen);
                        if self.destage_active[pd]
                            && self.dirty[pd].is_clean()
                            && !self.destage.is_busy(pd)
                        {
                            self.complete_destage(ctx, pd);
                        }
                    } else {
                        self.dirty[pd].mark(moff, mlen);
                        if self.destage_active[pd] {
                            self.pump(ctx, pd);
                        } else if self.drain_mode || self.deactivated {
                            self.activate_destage(ctx, pd);
                        }
                    }
                }
            }
            Tag::Destage(disk) => {
                let slot = || self.tags.insert(Tag::Destage(disk));
                if self.destage.complete(ctx, disk, slot) {
                    // `pump` continues the round or completes it when the
                    // draining snapshot is empty.
                    self.pump(ctx, disk);
                }
            }
        }
    }

    fn begin_drain(&mut self, ctx: &mut SimCtx) {
        self.drain_mode = true;
        self.maybe_flush_nvram(ctx, true);
        for d in 0..self.geometry.disks() {
            if !self.dirty[d].is_clean() || !self.draining[d].is_clean() {
                self.activate_destage(ctx, d);
            } else if self.destage_active[d] {
                self.pump(ctx, d);
            } else {
                self.reclaim_for(ctx, d);
            }
        }
    }

    fn is_drained(&self, _ctx: &SimCtx) -> bool {
        self.nvram_pending_bytes == 0
            && self.chains.is_empty()
            && self.tags.is_empty()
            && self.dirty.iter().all(|d| d.is_clean())
            && self.draining.iter().all(|d| d.is_clean())
            && self.log_used_bytes() == 0
    }

    fn stats(&self) -> PolicyStats {
        self.destage.fold_stats(self.stats)
    }

    fn check_consistency(&self, _ctx: &SimCtx) -> Result<(), String> {
        for space in &self.spaces {
            space.check_invariants()?;
        }
        for (d, m) in self.dirty.iter().enumerate() {
            m.check_invariants()?;
            self.draining[d].check_invariants()?;
            if !m.is_clean() || !self.draining[d].is_clean() {
                return Err(format!("parity disk {d} still has stale bytes"));
            }
        }
        if self.log_used_bytes() != 0 {
            return Err(format!("{} delta bytes unreclaimed", self.log_used_bytes()));
        }
        if self.nvram_pending_bytes != 0 {
            return Err(format!(
                "{} NVRAM bytes unflushed",
                self.nvram_pending_bytes
            ));
        }
        if !self.chains.is_empty() {
            return Err(format!("{} chains still open", self.chains.len()));
        }
        Ok(())
    }
}
