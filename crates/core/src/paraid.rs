//! PARAID-inspired gear-shifting baseline (related work, §VI).
//!
//! The paper contrasts RoLo's use of free space with PARAID's (Weddle et
//! al., TOS'07): *"PARAID uses it to gather all active data onto a small
//! number of disks in a RAID"*, shifting between power "gears" as load
//! changes. This controller is a two-gear PARAID-style adaptation to the
//! RAID10 substrate, built to make the §VI comparison quantitative:
//!
//! * **Low gear** — all mirrors spun down. Writes put their second copy
//!   into a *shadow region* carved from the free space of the (always
//!   active) primaries, round-robin across primaries; mirror copies go
//!   stale.
//! * **High gear** — all mirrors up; writes go direct (plain RAID10);
//!   stale mirror blocks are synced in the background and the shadow
//!   space is reclaimed when the sync completes.
//! * **Shifting** — an EWMA of the arrival rate triggers gear-up when it
//!   crosses `up_iops`; after the load stays below `down_iops` for a
//!   hold period, the array shifts back down (hysteresis against gear
//!   thrash).
//!
//! The contrast with RoLo this enables: PARAID spins *every* mirror per
//! shift (GRAID-like spin bursts, gear-up latency spikes under bursty
//! load), where RoLo touches one logger at a time.

use crate::ctx::SimCtx;
use crate::destage::DestageChains;
use crate::dirty::DirtyMap;
use crate::journal::LoggedWrite;
use crate::logspace::LoggerSpace;
use crate::policy::{Policy, PolicyStats};
use rolo_disk::{DiskId, DiskRequest, IoKind};
use rolo_obs::{BgSpanKind, LegFlavor};
use rolo_sim::{Duration, IoSlab, IoSlot, SimTime, SlotTable};
use rolo_trace::{ReqKind, TraceRecord};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gear {
    Low,
    High,
}

#[derive(Debug, Clone, Copy)]
enum Tag {
    User(IoSlot),
    Sync(usize),
}

/// Timer token for the gear-down hold check.
const GEAR_TIMER: u64 = u64::MAX - 7;

/// The PARAID-inspired two-gear controller.
#[derive(Debug)]
pub struct ParaidPolicy {
    pairs: usize,
    chunk: u64,
    /// Shadow regions on the primaries, indexed by disk id (0..pairs).
    shadows: Vec<LoggerSpace>,
    shadow_cursor: usize,
    dirty: Vec<DirtyMap>,
    chains: DestageChains,
    gear: Gear,
    syncing: bool,
    /// Per sub-request, under the slot its `DiskRequest` carries.
    tags: IoSlab<Tag>,
    /// Per user request, under the context's user slot. PARAID keeps no
    /// journal, so it applies the marks and clears to its own maps.
    meta: SlotTable<LoggedWrite>,
    /// EWMA arrival rate (requests/s) and its last update instant.
    rate: f64,
    rate_at: SimTime,
    /// Gear-shift thresholds (requests/s).
    up_iops: f64,
    down_iops: f64,
    /// How long the load must stay low before gearing down.
    hold: Duration,
    low_since: Option<SimTime>,
    draining: bool,
    stats: PolicyStats,
}

impl ParaidPolicy {
    /// Creates a two-gear controller. `shadow_base`/`shadow_size` locate
    /// the per-primary shadow region; gear-up at `up_iops`, gear-down
    /// after the EWMA stays under `down_iops` for `hold`.
    ///
    /// # Panics
    ///
    /// Panics on zero pairs/shadow or non-positive thresholds with
    /// `up_iops ≤ down_iops`.
    pub fn new(
        pairs: usize,
        shadow_base: u64,
        shadow_size: u64,
        up_iops: f64,
        down_iops: f64,
        hold: Duration,
        chunk: u64,
    ) -> Self {
        assert!(pairs > 0 && shadow_size > 0);
        assert!(
            up_iops > down_iops && down_iops > 0.0,
            "need up_iops > down_iops > 0"
        );
        ParaidPolicy {
            pairs,
            chunk,
            shadows: (0..pairs)
                .map(|_| LoggerSpace::new(shadow_base, shadow_size))
                .collect(),
            shadow_cursor: 0,
            dirty: (0..pairs).map(|_| DirtyMap::new()).collect(),
            chains: DestageChains::new(pairs),
            gear: Gear::Low,
            syncing: false,
            tags: IoSlab::new(),
            meta: SlotTable::default(),
            rate: 0.0,
            rate_at: SimTime::ZERO,
            up_iops,
            down_iops,
            hold,
            low_since: None,
            draining: false,
            stats: PolicyStats::default(),
        }
    }

    /// Total live shadow bytes.
    pub fn shadow_used_bytes(&self) -> u64 {
        self.shadows.iter().map(|s| s.used_bytes()).sum()
    }

    fn mirror(&self, ctx: &SimCtx, pair: usize) -> DiskId {
        ctx.geometry().mirror_disk(pair)
    }

    /// Exponentially-weighted arrival rate with a 30 s time constant.
    fn note_arrival(&mut self, now: SimTime) {
        let dt = now.since(self.rate_at).as_secs_f64();
        self.rate_at = now;
        let tau = 30.0;
        let decay = (-dt / tau).exp();
        self.rate = self.rate * decay + (1.0 - decay) / dt.max(1e-6);
    }

    fn gear_up(&mut self, ctx: &mut SimCtx) {
        if self.gear == Gear::High {
            return;
        }
        self.gear = Gear::High;
        self.low_since = None;
        self.stats.rotations += 1; // counts gear shifts
        for pair in 0..self.pairs {
            let m = self.mirror(ctx, pair);
            ctx.spin_up(m);
        }
        self.start_sync(ctx);
    }

    fn gear_down(&mut self, ctx: &mut SimCtx) {
        if self.gear == Gear::Low || self.syncing {
            return;
        }
        self.gear = Gear::Low;
        self.stats.rotations += 1;
        if !self.draining {
            for pair in 0..self.pairs {
                let m = self.mirror(ctx, pair);
                ctx.spin_down(m);
            }
        }
    }

    fn start_sync(&mut self, ctx: &mut SimCtx) {
        if self.syncing {
            for pair in 0..self.pairs {
                self.pump(ctx, pair);
            }
            return;
        }
        if self.dirty.iter().all(|d| d.is_clean()) && self.shadow_used_bytes() == 0 {
            return;
        }
        self.syncing = true;
        let all: Vec<DiskId> = (0..ctx.disk_count()).collect();
        ctx.bg_span_begin(BgSpanKind::Destage, None, &all);
        for pair in 0..self.pairs {
            self.pump(ctx, pair);
        }
        self.check_sync_done(ctx);
    }

    fn pump(&mut self, ctx: &mut SimCtx, pair: usize) {
        let (p, m) = (ctx.geometry().primary_disk(pair), self.mirror(ctx, pair));
        // The chain starts on the mirror's spin-up completion.
        if !self.syncing || self.chains.is_busy(pair) || !ctx.disk(m).is_spun_up() {
            return;
        }
        if let Some(run) = self.dirty[pair].take_next(self.chunk) {
            let tag = self.tags.insert(Tag::Sync(pair));
            self.chains.start(ctx, pair, run, (p, run.0), &[m], tag);
        }
    }

    fn check_sync_done(&mut self, ctx: &mut SimCtx) {
        if !self.syncing {
            return;
        }
        if self.chains.any_busy() || self.dirty.iter().any(|d| !d.is_clean()) {
            return;
        }
        self.syncing = false;
        ctx.bg_span_end(BgSpanKind::Destage, None);
        self.stats.destage_cycles += 1;
        for shadow in &mut self.shadows {
            shadow.reclaim(|_| true);
        }
        ctx.log_timeline.push(ctx.now, 0.0);
        // If the load already died down, the hold timer (or drain) will
        // gear us back down; nothing else to do here.
    }

    fn write_shadowed(
        &mut self,
        ctx: &mut SimCtx,
        user: IoSlot,
        meta: &mut LoggedWrite,
        ext: rolo_raid::PhysExtent,
    ) {
        let p = ctx.geometry().primary_disk(ext.pair);
        let (off, len) = (ext.offset, ext.bytes);
        let tag = self.tags.insert(Tag::User(user));
        ctx.submit_user(user, tag, p, IoKind::Write, (off, len), LegFlavor::Transfer);
        // Shadow copy on the next primary over (never the same disk,
        // or one failure would take both copies).
        let mut target = self.shadow_cursor % self.pairs;
        if target == ext.pair {
            target = (target + 1) % self.pairs;
        }
        self.shadow_cursor = (target + 1) % self.pairs;
        let shadowed = self.shadows[target].alloc(ext.bytes, ext.pair, 0, |seg| {
            let tag = self.tags.insert(Tag::User(user));
            let (extent, flavor) = ((seg.offset(), seg.bytes()), LegFlavor::LogAppend);
            ctx.submit_user(user, tag, target, IoKind::Write, extent, flavor);
            self.stats.log_appended_bytes += seg.bytes();
        });
        if shadowed {
            meta.marks.push((ext.pair, off, len));
        } else {
            // Shadow space exhausted: forced gear-up (PARAID has no
            // rotation to fall back on).
            self.stats.direct_writes += 1;
            let m = ctx.geometry().mirror_disk(ext.pair);
            let tag = self.tags.insert(Tag::User(user));
            let flavor = LegFlavor::MirrorCopy;
            ctx.submit_user(user, tag, m, IoKind::Write, (off, len), flavor);
            meta.clears.push((ext.pair, off, len));
            self.gear_up(ctx);
        }
    }
}

impl Policy for ParaidPolicy {
    fn name(&self) -> &'static str {
        "PARAID-2g"
    }

    fn initial_standby(&self, disk: DiskId) -> bool {
        disk >= self.pairs && disk < 2 * self.pairs
    }

    fn attach(&mut self, ctx: &mut SimCtx) {
        // Periodic gear-down check.
        ctx.set_timer(self.hold, GEAR_TIMER);
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        self.note_arrival(ctx.now);
        if self.gear == Gear::Low && self.rate > self.up_iops {
            self.gear_up(ctx);
        }
        let exts = ctx
            .geometry()
            .split(rec.offset, rec.bytes)
            .expect("driver keeps requests in range");
        let user = ctx.register_user(user_id, rec.kind);
        let mut meta = self.meta.take(user);
        match rec.kind {
            ReqKind::Read => {
                for ext in exts {
                    let p = ctx.geometry().primary_disk(ext.pair);
                    let tag = self.tags.insert(Tag::User(user));
                    let extent = (ext.offset, ext.bytes);
                    ctx.submit_user(user, tag, p, IoKind::Read, extent, LegFlavor::Transfer);
                }
            }
            ReqKind::Write => {
                // Writes go direct only once the pair's mirror is
                // actually spinning (a graceful up-shift: while mirrors
                // spin up, the low-gear shadow path keeps absorbing
                // writes instead of stalling them ~11 s behind the
                // spin-up).
                for ext in exts {
                    let m = ctx.geometry().mirror_disk(ext.pair);
                    let ready = matches!(
                        ctx.disk(m).power_state(),
                        rolo_disk::PowerState::Active | rolo_disk::PowerState::Idle
                    );
                    if self.gear == Gear::High && ready && !ctx.disk(m).is_park_pending() {
                        meta.write_direct(ctx, user, ext, || self.tags.insert(Tag::User(user)));
                    } else {
                        self.write_shadowed(ctx, user, &mut meta, ext);
                    }
                }
            }
        }
        self.meta.put(user, meta);
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId, req: DiskRequest) {
        match self.tags.remove(req.tag).expect("unknown sub-request") {
            Tag::User(user) => {
                if ctx.user_sub_done(user) {
                    let mut meta = self.meta.take(user);
                    for &(pair, off, len) in &meta.marks {
                        self.dirty[pair].mark(off, len);
                        if self.syncing {
                            self.pump(ctx, pair);
                        }
                    }
                    for &(pair, off, len) in &meta.clears {
                        self.dirty[pair].clear_range(off, len);
                        if self.syncing {
                            self.check_sync_done(ctx);
                        }
                    }
                    meta.reset();
                    self.meta.put(user, meta);
                }
            }
            Tag::Sync(pair) => {
                let slot = || self.tags.insert(Tag::Sync(pair));
                if self.chains.complete(ctx, pair, slot) {
                    self.pump(ctx, pair);
                    self.check_sync_done(ctx);
                }
            }
        }
    }

    fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        if disk >= self.pairs && disk < 2 * self.pairs && self.syncing {
            self.pump(ctx, disk - self.pairs);
        }
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, token: u64) {
        if token != GEAR_TIMER || self.draining {
            return;
        }
        // Decay the EWMA to the present before judging it.
        let dt = ctx.now.since(self.rate_at).as_secs_f64();
        let current = self.rate * (-dt / 30.0).exp();
        if self.gear == Gear::High && !self.syncing && current < self.down_iops {
            match self.low_since {
                Some(since) if ctx.now.since(since) >= self.hold => {
                    self.gear_down(ctx);
                    self.low_since = None;
                }
                None => self.low_since = Some(ctx.now),
                _ => {}
            }
        } else if current >= self.down_iops {
            self.low_since = None;
        }
        ctx.set_timer(self.hold, GEAR_TIMER);
    }

    fn begin_drain(&mut self, ctx: &mut SimCtx) {
        self.draining = true;
        for pair in 0..self.pairs {
            let m = self.mirror(ctx, pair);
            ctx.spin_up(m);
        }
        self.start_sync(ctx);
        // Shadow segments without dirtiness are already consistent.
        if self.dirty.iter().all(|d| d.is_clean()) && !self.chains.any_busy() {
            for shadow in &mut self.shadows {
                shadow.reclaim(|_| true);
            }
            self.syncing = false;
            ctx.bg_span_end(BgSpanKind::Destage, None);
        }
    }

    fn is_drained(&self, _ctx: &SimCtx) -> bool {
        // A busy chain holds a tag, so no chain runs either.
        self.tags.is_empty()
            && self.dirty.iter().all(|d| d.is_clean())
            && self.shadow_used_bytes() == 0
    }

    fn stats(&self) -> PolicyStats {
        self.chains.fold_stats(self.stats)
    }

    fn check_consistency(&self, _ctx: &SimCtx) -> Result<(), String> {
        for shadow in &self.shadows {
            shadow.check_invariants()?;
        }
        for (pair, d) in self.dirty.iter().enumerate() {
            d.check_invariants()?;
            if !d.is_clean() {
                return Err(format!("pair {pair} still has {} stale bytes", d.bytes()));
            }
        }
        if self.shadow_used_bytes() != 0 {
            return Err(format!(
                "{} shadow bytes unreclaimed",
                self.shadow_used_bytes()
            ));
        }
        if !self.tags.is_empty() {
            return Err(format!("{} orphaned sub-requests", self.tags.len()));
        }
        Ok(())
    }
}
