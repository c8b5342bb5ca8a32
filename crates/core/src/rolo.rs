//! RoLo-P and RoLo-R: rotated logging with decentralized destaging.
//!
//! The two flavors share all of the rotation machinery (§III-A) and
//! differ only in what serves as the on-duty logger (§III-B):
//!
//! * **RoLo-P** — mirrored *disks* serve as loggers (`M_j`); each write
//!   has two copies (primary in place + one log append);
//! * **RoLo-R** — mirrored *pairs* serve as loggers (`P_j`, `M_j`); each
//!   write has three copies (primary in place + two log appends).
//!
//! Following §III-B's "one or a few mirrored disks take turns", the
//! on-duty window holds one logger by default and can be widened
//! ([`SimConfig::rolo_on_duty`](crate::config::SimConfig)) to alleviate
//! the append bottleneck of large arrays (§III-D).
//!
//! Rotation: when the on-duty logger's free logging space falls below a
//! threshold, the logger advances to the next pair. The newly on-duty
//! mirror spins up and a **destage process** for its pair starts: stale
//! blocks are updated from the pair's primary through background I/O in
//! idle slots. When a pair's destage completes, every log segment holding
//! that pair's second copies — on any disk — is stale and is reclaimed
//! (the paper's proactive reclamation), which is what lets logging rotate
//! indefinitely. The previous logger spins down as soon as it is no
//! longer needed (immediately at rotation, or when its own unfinished
//! destage ends, exactly as Fig. 5(a) shows).
//!
//! If the next logger has no usable space, RoLo deactivates (§III-E):
//! all mirrors spin up, writes go straight to both copies, and logging
//! resumes once every destage process has drained and reclaimed the
//! logging space pool.

use crate::ctx::SimCtx;
use crate::journal::{JournalSet, PendingAppend, DEFAULT_COMPACT_FRAC};
use crate::logspace::LoggerSpace;
use crate::policy::{Policy, PolicyStats};
use crate::recovery::recovery_plan;
use crate::slot::IoSlot;
use rolo_disk::{DiskId, DiskRequest, IoKind, IoOutcome, Priority};
use rolo_metrics::Phase;
use rolo_obs::{BgSpanKind, LegFlavor, SimEvent};
use rolo_sim::{Duration, IoMap};
use rolo_trace::{ReqKind, TraceRecord};
use std::collections::BTreeMap;

/// Minimum fraction of the logger region still free when the *next*
/// on-duty logger is proactively spun up, so rotation never stalls a
/// write on a spin-up (the 10.9 s latency would otherwise dominate mean
/// response). The actual look-ahead is rate-based: enough headroom to
/// absorb `SPIN_UP_AHEAD_FACTOR` spin-up times of appends at the
/// currently observed write rate.
const SPIN_UP_AHEAD_FRACTION: f64 = 0.02;
/// Safety factor on the spin-up time for the rate-based look-ahead.
const SPIN_UP_AHEAD_FACTOR: f64 = 3.0;

/// Which RoLo flavor the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoloFlavor {
    /// RoLo-P: single-mirror logger, two copies per write.
    Performance,
    /// RoLo-R: mirrored-pair logger, three copies per write.
    Reliability,
}

#[derive(Debug, Clone, Copy)]
enum Tag {
    User(u64, IoSlot),
    DestageRead { pair: usize, off: u64, len: u64 },
    DestageWrite { pair: usize, len: u64 },
    CompactRead { gen: u64 },
    CompactWrite { gen: u64 },
}

#[derive(Debug, Default)]
struct UserMeta {
    marks: Vec<(usize, u64, u64)>,
    clears: Vec<(usize, u64, u64)>,
    /// Journal records awaiting commit, flat to keep the write path
    /// to one allocation. The copies of `marks[i]` commit at a shared
    /// LSN when the request acknowledges.
    appends: Vec<PendingAppend>,
}

/// One in-flight background compaction: the relocation of a sealed
/// segment's live extents onto the current on-duty logger(s).
#[derive(Debug)]
struct CompactState {
    /// Generation guard: completions of a cancelled compaction's I/O
    /// carry an older `gen` and are ignored.
    gen: u64,
    /// Journal whose segment is being compacted.
    disk: DiskId,
    /// The segment being emptied.
    segment: u64,
    /// Extents still to relocate (popped from the back).
    extents: Vec<(usize, u64, u64)>,
    /// The extent whose read/write chain is in flight.
    current: Option<(usize, u64, u64)>,
    /// Relocation writes outstanding for the current extent.
    writes_left: u32,
    /// Journals receiving the relocated copies.
    targets: Vec<DiskId>,
    /// Live bytes relocated so far.
    relocated: u64,
}

/// The RoLo-P / RoLo-R controller.
#[derive(Debug)]
pub struct RoloPolicy {
    flavor: RoloFlavor,
    pairs: usize,
    rotate_threshold: f64,
    chunk: u64,
    period: u64,
    /// On-duty logger pairs (§III-B: "one or a few mirrored disks take
    /// turns to serve as on-duty log disks"; more slots alleviate the
    /// append bottleneck per §III-D).
    loggers: Vec<usize>,
    /// Next pair to bring on duty when a slot rotates out.
    rotation_cursor: usize,
    /// Round-robin cursor over the slots for append placement.
    slot_cursor: usize,
    /// Logger-space manager per disk id (mirrors always; primaries too
    /// for RoLo-R).
    spaces: BTreeMap<DiskId, LoggerSpace>,
    /// Dirty maps plus a journal per logger disk (DESIGN.md §10), on
    /// the disks of `spaces`: `spaces` manages the physical platter
    /// region, the journal carries the crash-consistent record chain.
    journal: JournalSet,
    compact_frac: f64,
    compaction: Option<CompactState>,
    compaction_gen: u64,
    destage_active: Vec<bool>,
    chain_active: Vec<bool>,
    destage_tokens: Vec<Option<u64>>,
    io_map: IoMap<Tag>,
    user_meta: IoMap<UserMeta>,
    logging_token: Option<u64>,
    phase_energy_mark: f64,
    deactivated: bool,
    draining: bool,
    stats: PolicyStats,
    logger_base: u64,
    logger_size: u64,
    /// Append-rate estimation window for the eager-spin-up look-ahead.
    rate_window_start: rolo_sim::SimTime,
    rate_window_bytes: u64,
    append_rate: f64,
    spin_up_secs: f64,
    eager_spinup: bool,
}

impl RoloPolicy {
    /// Creates a RoLo controller.
    ///
    /// `logger_base`/`logger_size` locate the per-disk logger region (the
    /// geometry's [`logger_base`](rolo_raid::ArrayGeometry::logger_base)).
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized logger region or zero pairs.
    pub fn new(
        flavor: RoloFlavor,
        pairs: usize,
        logger_base: u64,
        logger_size: u64,
        rotate_threshold: f64,
        chunk: u64,
    ) -> Self {
        assert!(pairs > 0, "need at least one pair");
        assert!(logger_size > 0, "zero logger region");
        let mut spaces = BTreeMap::new();
        for pair in 0..pairs {
            // Mirror disks are pairs..2*pairs.
            spaces.insert(pairs + pair, LoggerSpace::new(logger_base, logger_size));
            if flavor == RoloFlavor::Reliability {
                spaces.insert(pair, LoggerSpace::new(logger_base, logger_size));
            }
        }
        let journal = JournalSet::new(pairs, spaces.keys().copied());
        RoloPolicy {
            flavor,
            pairs,
            rotate_threshold,
            chunk,
            period: 0,
            loggers: vec![0],
            rotation_cursor: 1 % pairs,
            slot_cursor: 0,
            spaces,
            journal,
            compact_frac: DEFAULT_COMPACT_FRAC,
            compaction: None,
            compaction_gen: 0,
            destage_active: vec![false; pairs],
            chain_active: vec![false; pairs],
            destage_tokens: vec![None; pairs],
            io_map: IoMap::default(),
            user_meta: IoMap::default(),
            logging_token: None,
            phase_energy_mark: 0.0,
            deactivated: false,
            draining: false,
            stats: PolicyStats::default(),
            logger_base,
            logger_size,
            rate_window_start: rolo_sim::SimTime::ZERO,
            rate_window_bytes: 0,
            append_rate: 0.0,
            spin_up_secs: 11.0,
            eager_spinup: true,
        }
    }

    /// Disables the proactive next-logger spin-up (ablation studies).
    pub fn set_eager_spinup(&mut self, enabled: bool) {
        self.eager_spinup = enabled;
    }

    /// Configures the segment store (call before the run starts; resets
    /// the — still empty — journals to the new segment size).
    pub fn set_segment_tuning(&mut self, seg_bytes: u64, compact_frac: f64, archive_ttl: Duration) {
        self.compact_frac = compact_frac;
        self.journal.tune(seg_bytes, archive_ttl);
    }

    /// Starts a background compaction if a sealed segment's live
    /// fraction fell below the threshold and no compaction is running.
    /// Relocation I/O is background priority, so it folds into the same
    /// idle slots destage uses.
    fn maybe_compact(&mut self, ctx: &mut SimCtx) {
        if self.compaction.is_some()
            || self.deactivated
            || self.draining
            || self.compact_frac <= 0.0
        {
            return;
        }
        let Some((disk, segment, extents)) = self.journal.compaction_candidate(self.compact_frac)
        else {
            return;
        };
        let Some(&(_, _, widest)) = extents.iter().max_by_key(|e| e.2) else {
            return;
        };
        // Relocated copies go to the current on-duty logger(s); if space
        // is tight, skip — the pair's next destage reclaims the segment
        // anyway.
        let Some(slot) = self.pick_slot(ctx, widest) else {
            return;
        };
        let targets = self.pair_targets(ctx, slot);
        self.compaction_gen += 1;
        ctx.emit(|| SimEvent::CompactionStart { pair: None });
        let mut covered = targets.clone();
        covered.push(disk);
        ctx.bg_span_begin(BgSpanKind::Compaction, None, &covered);
        self.compaction = Some(CompactState {
            gen: self.compaction_gen,
            disk,
            segment,
            extents,
            current: None,
            writes_left: 0,
            targets,
            relocated: 0,
        });
        self.pump_compaction(ctx);
    }

    /// Issues the read leg of the next extent relocation, or finishes.
    fn pump_compaction(&mut self, ctx: &mut SimCtx) {
        let Some(st) = &mut self.compaction else {
            return;
        };
        let Some(ext) = st.extents.pop() else {
            self.finish_compaction(ctx);
            return;
        };
        st.current = Some(ext);
        let (gen, disk) = (st.gen, st.disk);
        let (pair, _, len) = ext;
        // Read from the pair's physical log blob on the source disk (the
        // store does not track per-record placement; the blob's offset
        // gives the seek model a representative position).
        let src_off = self.spaces[&disk]
            .segments()
            .iter()
            .find(|g| g.pair == pair)
            .map(|g| g.offset)
            .unwrap_or(self.logger_base);
        let id = ctx.submit(disk, IoKind::Read, src_off, len, Priority::Background);
        self.io_map.insert(id, Tag::CompactRead { gen });
    }

    /// The current extent's data is in memory: write it to the targets.
    fn on_compact_read(&mut self, ctx: &mut SimCtx, gen: u64) {
        let Some(st) = &self.compaction else {
            return;
        };
        if st.gen != gen {
            return;
        }
        let Some((pair, _, len)) = st.current else {
            return;
        };
        let targets = st.targets.clone();
        let period = self.period;
        let mut writes = 0u32;
        for target in targets {
            let segs = self
                .spaces
                .get_mut(&target)
                .and_then(|s| s.alloc(len, pair, period));
            if let Some(segs) = segs {
                for g in segs {
                    let id = ctx.submit(
                        target,
                        IoKind::Write,
                        g.offset,
                        g.bytes,
                        Priority::Background,
                    );
                    self.io_map.insert(id, Tag::CompactWrite { gen });
                    writes += 1;
                }
            }
        }
        if writes == 0 {
            // No physical space for the copies: drop this relocation and
            // move on — the extent simply stays in its old segment.
            if let Some(st) = &mut self.compaction {
                st.current = None;
            }
            self.pump_compaction(ctx);
        } else if let Some(st) = &mut self.compaction {
            st.writes_left = writes;
        }
    }

    /// A relocation write landed; on the last one, commit the relocated
    /// records and release the old extent.
    fn on_compact_write(&mut self, ctx: &mut SimCtx, gen: u64) {
        let Some(st) = &mut self.compaction else {
            return;
        };
        if st.gen != gen {
            return;
        }
        st.writes_left -= 1;
        if st.writes_left > 0 {
            return;
        }
        let Some(extent) = st.current.take() else {
            return;
        };
        st.relocated +=
            self.journal
                .relocate(ctx, st.disk, st.segment, extent, &st.targets, self.period);
        self.pump_compaction(ctx);
    }

    fn finish_compaction(&mut self, ctx: &mut SimCtx) {
        let Some(st) = self.compaction.take() else {
            return;
        };
        let (disk, segment, relocated_bytes) = (st.disk, st.segment, st.relocated);
        ctx.emit(|| SimEvent::SegmentCompacted {
            disk,
            segment,
            relocated_bytes,
        });
        ctx.emit(|| SimEvent::CompactionEnd { pair: None });
        ctx.bg_span_end(BgSpanKind::Compaction, None);
        // The compacted segment is usually fully dead now.
        self.journal.sweep(ctx);
    }

    /// Cancels an in-flight compaction (logger failure): stray I/O
    /// completions are ignored via the generation guard.
    fn cancel_compaction(&mut self, ctx: &mut SimCtx) {
        if self.compaction.take().is_some() {
            ctx.emit(|| SimEvent::CompactionEnd { pair: None });
            ctx.bg_span_end(BgSpanKind::Compaction, None);
        }
    }

    /// Updates the observed append rate (bytes/s) over ~30 s windows.
    fn note_append(&mut self, now: rolo_sim::SimTime, bytes: u64) {
        self.rate_window_bytes += bytes;
        let elapsed = now.since(self.rate_window_start).as_secs_f64();
        if elapsed >= 30.0 {
            self.append_rate = self.rate_window_bytes as f64 / elapsed;
            self.rate_window_start = now;
            self.rate_window_bytes = 0;
        }
    }

    /// Headroom at which the next logger should already be spinning.
    fn spin_up_ahead_bytes(&self) -> u64 {
        let floor =
            (self.logger_size as f64 * (self.rotate_threshold + SPIN_UP_AHEAD_FRACTION)) as u64;
        let rate_based = (self.append_rate * self.spin_up_secs * SPIN_UP_AHEAD_FACTOR) as u64;
        floor.max(rate_based).min(self.logger_size)
    }

    /// The first on-duty logger pair (the only one unless
    /// [`set_on_duty_loggers`](Self::set_on_duty_loggers) widened the
    /// window).
    pub fn logger_pair(&self) -> usize {
        self.loggers[0]
    }

    /// All on-duty logger pairs.
    pub fn on_duty_loggers(&self) -> &[usize] {
        &self.loggers
    }

    /// Sets the number of simultaneously on-duty loggers (before the run
    /// starts). The initial window is pairs `0..k`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k < pairs`.
    pub fn set_on_duty_loggers(&mut self, k: usize) {
        assert!(k >= 1 && k < self.pairs, "on-duty window out of range");
        self.loggers = (0..k).collect();
        self.rotation_cursor = k % self.pairs;
    }

    /// True while logging is deactivated for lack of space (§III-E).
    pub fn is_deactivated(&self) -> bool {
        self.deactivated
    }

    /// Total live logged bytes across the logical logging space pool.
    pub fn log_used_bytes(&self) -> u64 {
        self.spaces.values().map(|s| s.used_bytes()).sum()
    }

    /// Total stale bytes awaiting destage.
    pub fn dirty_bytes(&self) -> u64 {
        self.journal.dirty_bytes()
    }

    /// The pairs whose logger spaces still hold un-reclaimed second
    /// copies of `pair`'s data — exactly the mirrors §III-C must awaken
    /// to recover a failure of `pair`'s primary (feed this to
    /// [`crate::recovery::recovery_plan`] as `recent_loggers`).
    pub fn pairs_holding_copies_of(&self, pair: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .spaces
            .iter()
            .filter(|(_, space)| space.segments().iter().any(|seg| seg.pair == pair))
            .map(|(&disk, _)| {
                if disk >= self.pairs {
                    disk - self.pairs
                } else {
                    disk
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn mirror(&self, ctx: &SimCtx, pair: usize) -> DiskId {
        ctx.geometry().mirror_disk(pair)
    }

    /// Disks receiving log appends for logger pair `j`.
    fn pair_targets(&self, ctx: &SimCtx, j: usize) -> Vec<DiskId> {
        match self.flavor {
            RoloFlavor::Performance => vec![ctx.geometry().mirror_disk(j)],
            RoloFlavor::Reliability => vec![
                ctx.geometry().primary_disk(j),
                ctx.geometry().mirror_disk(j),
            ],
        }
    }

    fn pair_has_space(&self, ctx: &SimCtx, j: usize, needed: u64) -> bool {
        let floor = (self.logger_size as f64 * self.rotate_threshold) as u64;
        self.pair_targets(ctx, j).iter().all(|d| {
            let s = &self.spaces[d];
            s.free_bytes() >= needed && s.free_bytes() > floor
        })
    }

    /// Picks the next on-duty pair with room, round-robin across slots.
    fn pick_slot(&mut self, ctx: &SimCtx, needed: u64) -> Option<usize> {
        let k = self.loggers.len();
        for i in 0..k {
            let j = self.loggers[(self.slot_cursor + i) % k];
            if self.pair_has_space(ctx, j, needed) {
                self.slot_cursor = (self.slot_cursor + i + 1) % k;
                return Some(j);
            }
        }
        None
    }

    fn activate_destage(&mut self, ctx: &mut SimCtx, pair: usize) {
        if self.destage_active[pair] {
            return;
        }
        self.destage_active[pair] = true;
        ctx.emit(|| SimEvent::DestageStart { pair: Some(pair) });
        // The destage chain reads the pair's primary and writes its
        // mirror; foreground legs stuck behind those transfers link here.
        let p = ctx.geometry().primary_disk(pair);
        let m = self.mirror(ctx, pair);
        ctx.bg_span_begin(BgSpanKind::Destage, Some(pair), &[p, m]);
        self.destage_tokens[pair] = Some(ctx.intervals.begin(Phase::Destaging, ctx.now));
        if ctx.disk(m).is_spun_up() {
            self.pump(ctx, pair);
        } else {
            ctx.spin_up(m);
        }
    }

    /// Pair that will next come on duty.
    fn next_on_duty(&self) -> usize {
        let mut cand = self.rotation_cursor;
        // Skip pairs already in the window.
        for _ in 0..self.pairs {
            if !self.loggers.contains(&cand) {
                return cand;
            }
            cand = (cand + 1) % self.pairs;
        }
        cand
    }

    fn rotate(&mut self, ctx: &mut SimCtx) {
        // Retire the fullest slot, bring the next pair on duty.
        let (slot, _) = self
            .loggers
            .iter()
            .enumerate()
            .min_by_key(|(_, &j)| {
                self.pair_targets(ctx, j)
                    .iter()
                    .map(|d| self.spaces[d].free_bytes())
                    .min()
                    .unwrap_or(0)
            })
            .expect("at least one slot");
        let incoming = self.next_on_duty();
        let old = std::mem::replace(&mut self.loggers[slot], incoming);
        self.rotation_cursor = (incoming + 1) % self.pairs;
        self.period += 1;
        self.stats.rotations += 1;
        ctx.emit(|| SimEvent::LoggerRotation {
            outgoing: old,
            incoming,
            period: self.period,
        });
        // Close the old logging period, open the next.
        let energy = ctx.total_energy();
        if let Some(tok) = self.logging_token.take() {
            ctx.intervals
                .end(tok, ctx.now, energy - self.phase_energy_mark);
        }
        self.phase_energy_mark = energy;
        self.logging_token = Some(ctx.intervals.begin(Phase::Logging, ctx.now));
        // The new on-duty mirror spins up and starts destaging its pair.
        let new_mirror = self.mirror(ctx, incoming);
        ctx.spin_up(new_mirror);
        self.activate_destage(ctx, incoming);
        // The old logger spins down unless its own destage is unfinished —
        // in which case its (possibly deferred) destage resumes now.
        if old != incoming && !self.destage_active[old] && !self.draining {
            let m = self.mirror(ctx, old);
            ctx.spin_down(m);
        } else if old != incoming && self.destage_active[old] {
            self.pump(ctx, old);
        }
    }

    fn deactivate(&mut self, ctx: &mut SimCtx) {
        if self.deactivated {
            return;
        }
        self.deactivated = true;
        self.stats.deactivations += 1;
        ctx.emit(|| SimEvent::LoggingDeactivated);
        for pair in 0..self.pairs {
            let m = self.mirror(ctx, pair);
            ctx.spin_up(m);
            if !self.journal.is_clean(pair) {
                self.activate_destage(ctx, pair);
            }
        }
    }

    fn try_reactivate(&mut self, ctx: &mut SimCtx) {
        if !self.deactivated
            || self.destage_active.iter().any(|&a| a)
            || !self.journal.all_clean()
            || self.log_used_bytes() > 0
        {
            return;
        }
        self.deactivated = false;
        ctx.emit(|| SimEvent::LoggingReactivated);
        self.rotate(ctx);
        // Park every mirror that is not an on-duty logger.
        for pair in 0..self.pairs {
            if !self.loggers.contains(&pair) && !self.destage_active[pair] && !self.draining {
                let m = self.mirror(ctx, pair);
                ctx.spin_down(m);
            }
        }
    }

    fn pump(&mut self, ctx: &mut SimCtx, pair: usize) {
        if !self.destage_active[pair] || self.chain_active[pair] {
            return;
        }
        // RoLo-R: the on-duty pair's primary carries every write's log
        // copy, so running its own destage reads against it would delay
        // all foreground writes. Defer the pair's destage until it leaves
        // the on-duty window (it stays marked active and resumes then).
        if self.flavor == RoloFlavor::Reliability
            && self.loggers.contains(&pair)
            && !self.draining
            && !self.deactivated
        {
            return;
        }
        if !ctx.disk(self.mirror(ctx, pair)).is_spun_up() {
            ctx.spin_up(self.mirror(ctx, pair));
            return;
        }
        match self.journal.take_next(pair, self.chunk) {
            Some((off, len)) => {
                self.chain_active[pair] = true;
                let p = ctx.geometry().primary_disk(pair);
                let id = ctx.submit(p, IoKind::Read, off, len, Priority::Background);
                self.io_map.insert(id, Tag::DestageRead { pair, off, len });
            }
            None => self.complete_destage(ctx, pair),
        }
    }

    fn complete_destage(&mut self, ctx: &mut SimCtx, pair: usize) {
        if !self.destage_active[pair] || self.chain_active[pair] || !self.journal.is_clean(pair) {
            return;
        }
        self.destage_active[pair] = false;
        self.stats.destage_cycles += 1;
        ctx.emit(|| SimEvent::DestageEnd { pair: Some(pair) });
        ctx.bg_span_end(BgSpanKind::Destage, Some(pair));
        // Proactive reclamation: every log copy of this pair, anywhere in
        // the pool, is now stale.
        for space in self.spaces.values_mut() {
            space.reclaim(|seg| seg.pair == pair);
        }
        // The pair's dirty map is empty, so its log is fully destaged:
        // advance the stable LSN (pruning the manifest's clears) and drop
        // the pair's live extents from every journal. Segments this
        // leaves fully dead archive below; low-live ones invite the
        // compactor into the idle slot the finished destage vacated.
        self.journal.reclaim_pair(pair);
        self.journal.sweep(ctx);
        self.maybe_compact(ctx);
        ctx.log_timeline.push(ctx.now, self.log_used_bytes() as f64);
        if let Some(tok) = self.destage_tokens[pair].take() {
            ctx.intervals.end(tok, ctx.now, 0.0);
        }
        if !self.loggers.contains(&pair) && !self.deactivated && !self.draining {
            let m = self.mirror(ctx, pair);
            ctx.spin_down(m);
        }
        if self.deactivated {
            self.try_reactivate(ctx);
        }
    }

    fn after_dirty_change(&mut self, ctx: &mut SimCtx, pair: usize) {
        if self.destage_active[pair] {
            if self.chain_active[pair] {
                return;
            }
            if self.journal.is_clean(pair) {
                self.complete_destage(ctx, pair);
            } else {
                self.pump(ctx, pair);
            }
        } else if (self.draining || self.deactivated) && !self.journal.is_clean(pair) {
            self.activate_destage(ctx, pair);
        }
    }

    fn write_direct(
        &mut self,
        ctx: &mut SimCtx,
        user_id: u64,
        uslot: IoSlot,
        meta: &mut UserMeta,
        exts: &[rolo_raid::PhysExtent],
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

impl Policy for RoloPolicy {
    fn name(&self) -> &'static str {
        match self.flavor {
            RoloFlavor::Performance => "RoLo-P",
            RoloFlavor::Reliability => "RoLo-R",
        }
    }

    fn initial_standby(&self, disk: DiskId) -> bool {
        // All mirrors except the initial on-duty loggers start spun down.
        disk >= self.pairs && disk < 2 * self.pairs && !self.loggers.contains(&(disk - self.pairs))
    }

    fn attach(&mut self, ctx: &mut SimCtx) {
        self.logging_token = Some(ctx.intervals.begin(Phase::Logging, ctx.now));
        self.phase_energy_mark = ctx.total_energy();
        self.spin_up_secs = ctx.disk(0).params().spin_up_time.as_secs_f64();
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        let exts = ctx
            .geometry()
            .split(rec.offset, rec.bytes)
            .expect("driver keeps requests in range");
        let mut meta = UserMeta::default();
        let mut subs: u32 = 0;
        // Register up front (one admission hold) so the slab slot is in
        // hand while sub-requests are tagged; topped up to the real
        // count below. Nothing can complete inside this callback, so the
        // hold is never released early.
        let uslot = ctx.register_user(user_id, rec.kind, ctx.now, 1);
        match rec.kind {
            ReqKind::Read => {
                // Primaries are always ACTIVE/IDLE in RoLo-P/R: no
                // spin-up latency on reads (§III-B1). A degraded primary
                // slot hands its reads to the pair's mirror (§III-C).
                for ext in &exts {
                    let mut d = ctx.geometry().primary_disk(ext.pair);
                    let mut flavor = LegFlavor::Transfer;
                    if ctx.is_degraded(d) {
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
            ReqKind::Write if self.deactivated => {
                subs += self.write_direct(ctx, user_id, uslot, &mut meta, &exts);
                // A deactivated-mode write may unblock reactivation later;
                // nothing to do now.
            }
            ReqKind::Write => {
                let mut slot = self.pick_slot(ctx, rec.bytes);
                if slot.is_none() && !self.deactivated {
                    self.rotate(ctx);
                    slot = self.pick_slot(ctx, rec.bytes);
                    if slot.is_none() {
                        self.deactivate(ctx);
                    }
                }
                let usable_slot = if self.deactivated { None } else { slot };
                if let Some(slot) = usable_slot {
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
                        meta.marks.push((ext.pair, ext.offset, ext.bytes));
                    }
                    // Log copies on the chosen on-duty logger disk(s).
                    // Each copy also enters the target's journal as an
                    // uncommitted record; the shared commit LSN is
                    // stamped when the request acknowledges.

                    for target in self.pair_targets(ctx, slot) {
                        for (i, ext) in exts.iter().enumerate() {
                            let segs = self
                                .spaces
                                .get_mut(&target)
                                .expect("logger space exists")
                                .alloc(ext.bytes, ext.pair, self.period)
                                .expect("rotation guaranteed space");
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
                            let rid = self.journal.append(
                                ctx,
                                target,
                                ext.pair,
                                self.period,
                                ext.offset,
                                ext.bytes,
                            );
                            meta.appends.push((i as u32, target, rid));
                        }
                    }
                    ctx.log_timeline.push(ctx.now, self.log_used_bytes() as f64);
                    self.note_append(ctx.now, rec.bytes);
                    // Spin the next on-duty logger up *before* rotation is
                    // due, so the hand-over is seamless (no write ever
                    // waits out a spin-up at the rotation point).
                    let ahead = self.spin_up_ahead_bytes();
                    let low_water = self.loggers.iter().any(|&j| {
                        self.pair_targets(ctx, j)
                            .iter()
                            .any(|d| self.spaces[d].free_bytes() < ahead)
                    });
                    if low_water && !self.deactivated && self.eager_spinup {
                        let next = self.next_on_duty();
                        let m = self.mirror(ctx, next);
                        ctx.spin_up(m);
                    }
                } else {
                    subs += self.write_direct(ctx, user_id, uslot, &mut meta, &exts);
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
                        // The mirrored copies commit under one shared LSN
                        // at the instant the dirty map mutates.
                        self.journal.mark(pair, off, len, &meta.appends, i as u32);
                        self.after_dirty_change(ctx, pair);
                    }
                    for (pair, off, len) in meta.clears {
                        self.journal.clear(pair, off, len);
                        self.after_dirty_change(ctx, pair);
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
                if self.journal.is_clean(pair) {
                    self.complete_destage(ctx, pair);
                } else {
                    self.pump(ctx, pair);
                }
            }
            Tag::CompactRead { gen } => self.on_compact_read(ctx, gen),
            Tag::CompactWrite { gen } => self.on_compact_write(ctx, gen),
        }
    }

    fn on_io_error(
        &mut self,
        ctx: &mut SimCtx,
        disk: DiskId,
        req: DiskRequest,
        outcome: IoOutcome,
    ) {
        // User reads hitting a latent sector error or a degraded slot are
        // re-served by the surviving partner; every other failure closes
        // through the normal path (the rebuild restores the replacement's
        // copy).
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
        let pair = if disk < self.pairs {
            disk
        } else {
            disk - self.pairs
        };
        let scheme = match self.flavor {
            RoloFlavor::Performance => crate::config::Scheme::RoloP,
            RoloFlavor::Reliability => crate::config::Scheme::RoloR,
        };
        // The recovery plan needs the *live* logger history: the pairs
        // whose unreclaimed log segments hold the failed disk's recent
        // second copies (§III-C).
        let recent = self.pairs_holding_copies_of(pair);
        let plan = recovery_plan(scheme, ctx.geometry(), disk, self.logger_pair(), &recent);

        // An in-flight compaction touching the dead disk is cancelled;
        // its stray I/O completions are ignored via the generation guard.
        if self
            .compaction
            .as_ref()
            .is_some_and(|st| st.disk == disk || st.targets.contains(&disk))
        {
            self.cancel_compaction(ctx);
        }

        // Recovery-by-replay: before the dead journal is forgotten, scan
        // the surviving chains, reconstruct the dirty maps, and verify
        // them against the in-memory state (DESIGN.md §10).
        self.journal.fail(ctx, disk, &mut self.stats);

        // Everything logged on the dead disk is gone; its blank
        // replacement starts with an empty logging space. The in-place
        // primary copies still cover all of it, so only redundancy was
        // lost — the per-pair destages restore it below.
        if let Some(space) = self.spaces.get_mut(&disk) {
            *space = LoggerSpace::new(self.logger_base, self.logger_size);
            ctx.log_timeline.push(ctx.now, self.log_used_bytes() as f64);
        }

        // A dead on-duty logger vacates its window slot immediately:
        // the next pair rotates in so appends never target the blank
        // replacement. (For RoLo-P only the mirror serves the slot; for
        // RoLo-R both halves of the pair do.)
        let serves_slot = match self.flavor {
            RoloFlavor::Performance => disk >= self.pairs,
            RoloFlavor::Reliability => true,
        };
        if serves_slot && !self.deactivated {
            if let Some(slot) = self.loggers.iter().position(|&j| j == pair) {
                let incoming = self.next_on_duty();
                self.loggers[slot] = incoming;
                self.rotation_cursor = (incoming + 1) % self.pairs;
                self.period += 1;
                self.stats.rotations += 1;
                ctx.emit(|| SimEvent::LoggerRotation {
                    outgoing: pair,
                    incoming,
                    period: self.period,
                });
                let m = self.mirror(ctx, incoming);
                ctx.spin_up(m);
                self.activate_destage(ctx, incoming);
            }
        }

        ctx.begin_rebuild(&plan, ctx.geometry().data_region());

        // Restore the pair's redundancy promptly: destage its stale
        // blocks (this also reclaims every surviving log copy of the
        // pair once clean). The replacement is already spinning, and a
        // destage that was waiting on the dead disk's spin-up wake gets
        // re-kicked here.
        if !self.journal.is_clean(pair) {
            self.activate_destage(ctx, pair);
        }
        if self.destage_active[pair] {
            self.pump(ctx, pair);
        }
    }

    fn on_rebuild_complete(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        // A rebuilt off-duty mirror returns to standby.
        if disk >= self.pairs && disk < 2 * self.pairs {
            let pair = disk - self.pairs;
            if !self.loggers.contains(&pair)
                && !self.destage_active[pair]
                && !self.deactivated
                && !self.draining
            {
                ctx.spin_down(disk);
            }
        }
    }

    fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        if disk >= self.pairs && disk < 2 * self.pairs {
            let pair = disk - self.pairs;
            if self.destage_active[pair] {
                self.pump(ctx, pair);
            }
        }
    }

    fn on_spin_down(&mut self, _ctx: &mut SimCtx, _disk: DiskId) {}
    fn on_timer(&mut self, _ctx: &mut SimCtx, _token: u64) {}

    fn begin_drain(&mut self, ctx: &mut SimCtx) {
        self.draining = true;
        for pair in 0..self.pairs {
            if self.destage_active[pair] {
                // Includes destages deferred while the pair was on duty.
                self.pump(ctx, pair);
            } else if !self.journal.is_clean(pair) {
                self.activate_destage(ctx, pair);
            } else if self
                .spaces
                .values()
                .any(|s| s.segments().iter().any(|g| g.pair == pair))
            {
                // Segments without dirtiness: every covered block is
                // already consistent; reclaim directly — journals and
                // manifest advance exactly as a completed destage would.
                for space in self.spaces.values_mut() {
                    space.reclaim(|seg| seg.pair == pair);
                }
                self.journal.reclaim_pair(pair);
                self.journal.sweep(ctx);
            }
        }
    }

    fn is_drained(&self, ctx: &SimCtx) -> bool {
        ctx.outstanding_users() == 0
            && self.io_map.is_empty()
            && self.journal.all_clean()
            && self.log_used_bytes() == 0
            && !self.chain_active.iter().any(|&c| c)
    }

    fn stats(&self) -> PolicyStats {
        self.journal.fold_stats(self.stats)
    }

    fn check_consistency(&self, ctx: &SimCtx) -> Result<(), String> {
        for space in self.spaces.values() {
            space.check_invariants()?;
        }
        self.journal.check_drained()?;
        if self.log_used_bytes() != 0 {
            return Err(format!("{} log bytes unreclaimed", self.log_used_bytes()));
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
