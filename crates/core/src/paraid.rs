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
use crate::dirty::DirtyMap;
use crate::logspace::LoggerSpace;
use crate::policy::{Policy, PolicyStats};
use crate::slot::IoSlot;
use rolo_disk::{DiskId, DiskRequest, IoKind, Priority};
use rolo_obs::{BgSpanKind, LegFlavor};
use rolo_sim::{Duration, IoMap, SimTime};
use rolo_trace::{ReqKind, TraceRecord};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gear {
    Low,
    High,
}

#[derive(Debug, Clone, Copy)]
enum Tag {
    User(u64, IoSlot),
    SyncRead { pair: usize, off: u64, len: u64 },
    SyncWrite { pair: usize, len: u64 },
}

#[derive(Debug, Default)]
struct UserMeta {
    marks: Vec<(usize, u64, u64)>,
    clears: Vec<(usize, u64, u64)>,
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
    chain_active: Vec<bool>,
    gear: Gear,
    syncing: bool,
    io_map: IoMap<Tag>,
    user_meta: IoMap<UserMeta>,
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
            chain_active: vec![false; pairs],
            gear: Gear::Low,
            syncing: false,
            io_map: IoMap::default(),
            user_meta: IoMap::default(),
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

    /// Current gear (true = high).
    pub fn in_high_gear(&self) -> bool {
        self.gear == Gear::High
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
        if !self.syncing || self.chain_active[pair] {
            return;
        }
        if !ctx.disk(self.mirror(ctx, pair)).is_spun_up() {
            return; // chain starts on its spin-up completion
        }
        if let Some((off, len)) = self.dirty[pair].take_next(self.chunk) {
            self.chain_active[pair] = true;
            let p = ctx.geometry().primary_disk(pair);
            let id = ctx.submit(p, IoKind::Read, off, len, Priority::Background);
            self.io_map.insert(id, Tag::SyncRead { pair, off, len });
        }
    }

    fn check_sync_done(&mut self, ctx: &mut SimCtx) {
        if !self.syncing {
            return;
        }
        if self.chain_active.iter().any(|&c| c) || self.dirty.iter().any(|d| !d.is_clean()) {
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
        user_id: u64,
        uslot: IoSlot,
        meta: &mut UserMeta,
        exts: &[rolo_raid::PhysExtent],
    ) -> u32 {
        let mut subs = 0;
        for ext in exts {
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
            // Shadow copy on the next primary over (never the same disk,
            // or one failure would take both copies).
            let mut target = self.shadow_cursor % self.pairs;
            if target == ext.pair {
                target = (target + 1) % self.pairs;
            }
            self.shadow_cursor = (target + 1) % self.pairs;
            match self.shadows[target].alloc(ext.bytes, ext.pair, 0) {
                Some(segs) => {
                    for seg in segs {
                        let id = ctx.submit(
                            target,
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
                    meta.marks.push((ext.pair, ext.offset, ext.bytes));
                }
                None => {
                    // Shadow space exhausted: forced gear-up (PARAID has
                    // no rotation to fall back on).
                    self.stats.direct_writes += 1;
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
                    self.gear_up(ctx);
                }
            }
        }
        subs
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
        let mut meta = UserMeta::default();
        let mut subs: u32 = 0;
        // Admission hold: one sub reserved up front so the slab slot
        // exists before the first sub-request can possibly complete;
        // the balance is topped up below once `subs` is known.
        let uslot = ctx.register_user(user_id, rec.kind, ctx.now, 1);
        match rec.kind {
            ReqKind::Read => {
                for ext in &exts {
                    let p = ctx.geometry().primary_disk(ext.pair);
                    let id =
                        ctx.submit(p, IoKind::Read, ext.offset, ext.bytes, Priority::Foreground);
                    self.io_map.insert(id, Tag::User(user_id, uslot));
                    ctx.tag_io(id, user_id, LegFlavor::Transfer);
                    subs += 1;
                }
            }
            ReqKind::Write => {
                // Writes go direct only once the pair's mirror is
                // actually spinning (a graceful up-shift: while mirrors
                // spin up, the low-gear shadow path keeps absorbing
                // writes instead of stalling them ~11 s behind the
                // spin-up).
                for ext in &exts {
                    let m = ctx.geometry().mirror_disk(ext.pair);
                    let ready = matches!(
                        ctx.disk(m).power_state(),
                        rolo_disk::PowerState::Active | rolo_disk::PowerState::Idle
                    );
                    if self.gear == Gear::High && ready && !ctx.disk(m).is_park_pending() {
                        let p = ctx.geometry().primary_disk(ext.pair);
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
                    } else {
                        subs += self.write_shadowed(
                            ctx,
                            user_id,
                            uslot,
                            &mut meta,
                            std::slice::from_ref(ext),
                        );
                    }
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
                    for (pair, off, len) in meta.marks {
                        self.dirty[pair].mark(off, len);
                        if self.syncing {
                            self.pump(ctx, pair);
                        }
                    }
                    for (pair, off, len) in meta.clears {
                        self.dirty[pair].clear_range(off, len);
                        if self.syncing {
                            self.check_sync_done(ctx);
                        }
                    }
                }
            }
            Tag::SyncRead { pair, off, len } => {
                let m = ctx.geometry().mirror_disk(pair);
                let id = ctx.submit(m, IoKind::Write, off, len, Priority::Background);
                self.io_map.insert(id, Tag::SyncWrite { pair, len });
            }
            Tag::SyncWrite { pair, len } => {
                self.stats.destaged_bytes += len;
                self.chain_active[pair] = false;
                if self.dirty[pair].is_clean() {
                    self.check_sync_done(ctx);
                } else {
                    self.pump(ctx, pair);
                }
            }
        }
    }

    fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        if disk >= self.pairs && disk < 2 * self.pairs && self.syncing {
            self.pump(ctx, disk - self.pairs);
        }
    }

    fn on_spin_down(&mut self, _ctx: &mut SimCtx, _disk: DiskId) {}

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
        if self.dirty.iter().all(|d| d.is_clean()) && !self.chain_active.iter().any(|&c| c) {
            for shadow in &mut self.shadows {
                shadow.reclaim(|_| true);
            }
            self.syncing = false;
            ctx.bg_span_end(BgSpanKind::Destage, None);
        }
    }

    fn is_drained(&self, ctx: &SimCtx) -> bool {
        ctx.outstanding_users() == 0
            && self.io_map.is_empty()
            && self.dirty.iter().all(|d| d.is_clean())
            && self.shadow_used_bytes() == 0
            && !self.chain_active.iter().any(|&c| c)
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn check_consistency(&self, ctx: &SimCtx) -> Result<(), String> {
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
