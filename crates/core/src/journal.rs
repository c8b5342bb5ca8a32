//! The journaling core every logging controller shares (DESIGN.md §10).
//!
//! GRAID, RoLo-P/R and RoLo-E differ in *where* a second copy lands
//! (placement, rotation, compaction policy), not in what makes the log
//! crash-consistent. [`JournalSet`] owns that part once:
//!
//! * the per-pair [`DirtyMap`]s — the stale-block lists the paper keeps
//!   in controller NVRAM (§III-E);
//! * one [`SegmentStore`] per journal-bearing disk, keyed by disk id so
//!   sweeps and replays visit disks in ascending order;
//! * the [`LogManifest`], the LSN counter and the archive TTL.
//!
//! Every dirty-map mutation goes through it, which is what keeps the
//! commit protocol in one place: a mark commits its records, and a
//! clear enters the manifest, at the same instant and under the next
//! LSN. LSN order therefore equals dirty-map mutation order, and
//! [`replay_journals`] over the surviving stores reproduces the NVRAM
//! maps exactly.

use crate::ctx::SimCtx;
use crate::dirty::DirtyMap;
use crate::policy::PolicyStats;
use crate::segment::{replay_journals, LogManifest, SegmentStore};
use rolo_disk::{DiskId, IoKind};
use rolo_obs::{LegFlavor, SimEvent};
use rolo_raid::PhysExtent;
use rolo_sim::{Duration, IoSlot};
use std::collections::{BTreeMap, HashSet};

/// Default log-segment size ([`SimConfig::log_segment`](crate::SimConfig)).
pub const DEFAULT_SEG_BYTES: u64 = 4 << 20;
/// Default archive-frame TTL ([`SimConfig::archive_ttl`](crate::SimConfig)).
pub const DEFAULT_ARCHIVE_TTL: Duration = Duration::from_secs(60);
/// Default compaction live-fraction threshold
/// ([`SimConfig::compact_live_frac`](crate::SimConfig)).
pub const DEFAULT_COMPACT_FRAC: f64 = 0.25;

/// A logged extent of one pair: `(pair, lba, len)`.
pub type PairExtent = (usize, u64, u64);

/// A journal record awaiting its commit: `(mark index, journal disk,
/// record id)`. The records of a request's mark `i` commit together,
/// under one LSN, when [`JournalSet::commit_next`] applies that mark.
pub type PendingAppend = (u32, DiskId, u64);

/// A user write from its submission to its acknowledgement: the
/// extents it marks stale, the extents it writes in place on both disks
/// (clears), and its marks' journal records, each tagged with its
/// mark's index. [`JournalSet::commit_next`] applies it at the ack and
/// empties it, keeping its buffers for the user slot's next request.
#[derive(Debug, Default)]
pub struct LoggedWrite {
    pub(crate) marks: Vec<PairExtent>,
    pub(crate) clears: Vec<PairExtent>,
    pub(crate) appends: Vec<PendingAppend>,
    /// Steps applied so far: the marks, then the clears.
    applied: usize,
}

impl LoggedWrite {
    /// Writes `ext` in place on its pair's primary and mirror, as legs
    /// of `user` under slots from `slot`, and queues its clear.
    pub(crate) fn write_direct(
        &mut self,
        ctx: &mut SimCtx,
        user: IoSlot,
        ext: PhysExtent,
        mut slot: impl FnMut() -> IoSlot,
    ) {
        let p = ctx.geometry().primary_disk(ext.pair);
        let m = ctx.geometry().mirror_disk(ext.pair);
        let extent = (ext.offset, ext.bytes);
        for (d, flavor) in [(p, LegFlavor::Transfer), (m, LegFlavor::MirrorCopy)] {
            ctx.submit_user(user, slot(), d, IoKind::Write, extent, flavor);
        }
        self.clears.push((ext.pair, ext.offset, ext.bytes));
    }

    /// Empties the write, keeping its buffers' capacity.
    pub(crate) fn reset(&mut self) {
        self.marks.clear();
        self.clears.clear();
        self.appends.clear();
        self.applied = 0;
    }
}

/// One applied step of a [`LoggedWrite`], naming the pair it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Committed {
    /// A mark grew the pair's dirty map and committed its records.
    Marked(usize),
    /// A clear shrank the pair's dirty map.
    Cleared(usize),
}

/// The crash-consistent state of one logging controller: NVRAM dirty
/// maps, per-disk segment journals, manifest and LSNs.
#[derive(Debug)]
pub struct JournalSet {
    dirty: Vec<DirtyMap>,
    journals: BTreeMap<DiskId, SegmentStore>,
    manifest: LogManifest,
    next_lsn: u64,
    archive_ttl_us: u64,
}

impl JournalSet {
    /// Clean dirty maps for `pairs` pairs and an empty journal of
    /// [`DEFAULT_SEG_BYTES`] segments on each of `disks`.
    pub fn new(pairs: usize, disks: impl IntoIterator<Item = DiskId>) -> Self {
        JournalSet {
            dirty: vec![DirtyMap::new(); pairs],
            journals: disks
                .into_iter()
                .map(|d| (d, SegmentStore::new(DEFAULT_SEG_BYTES)))
                .collect(),
            manifest: LogManifest::new(),
            next_lsn: 0,
            archive_ttl_us: DEFAULT_ARCHIVE_TTL.as_micros(),
        }
    }

    /// Sets the segment size and archive TTL before the run starts;
    /// the (still empty) journals are recreated at the new size.
    pub fn tune(&mut self, seg_bytes: u64, archive_ttl: Duration) {
        self.archive_ttl_us = archive_ttl.as_micros();
        for j in self.journals.values_mut() {
            *j = SegmentStore::new(seg_bytes);
        }
    }

    fn alloc_lsn(&mut self) -> u64 {
        self.next_lsn += 1;
        self.next_lsn
    }

    /// True if `pair` has no stale bytes.
    pub fn is_clean(&self, pair: usize) -> bool {
        self.dirty[pair].is_clean()
    }

    /// True if no pair has stale bytes.
    pub fn all_clean(&self) -> bool {
        self.dirty.iter().all(DirtyMap::is_clean)
    }

    /// Appends an uncommitted record for `pair`'s `[lba, lba+len)` to
    /// `disk`'s journal, emitting `SegmentSealed`/`SegmentAllocated` as
    /// the chain grows, and returns the record id to commit later.
    ///
    /// # Panics
    ///
    /// Panics if `disk` carries no journal.
    pub fn append(
        &mut self,
        ctx: &mut SimCtx,
        disk: DiskId,
        pair: usize,
        period: u64,
        lba: u64,
        len: u64,
    ) -> u64 {
        let out = self
            .journals
            .get_mut(&disk)
            .expect("appends target a journal-bearing disk")
            .append(pair, period, lba, len);
        if let Some((segment, live_bytes)) = out.sealed {
            ctx.emit(|| SimEvent::SegmentSealed {
                disk,
                segment,
                live_bytes,
            });
        }
        if let Some(segment) = out.opened {
            ctx.emit(|| SimEvent::SegmentAllocated { disk, segment });
        }
        out.rid
    }

    /// Applies `w`'s next step at its request's ack, so the controller
    /// reacts to each before the next: a reaction's `take_next` takes
    /// from the map the next mark would grow. Mark `i` commits the
    /// records tagged `i` under one fresh LSN (an id handed out before
    /// its journal restarted commits nothing), then marks its extent;
    /// clears follow the marks. `None`, with `w` emptied, at the end.
    pub fn commit_next(&mut self, w: &mut LoggedWrite) -> Option<Committed> {
        let step = w.applied;
        w.applied += 1;
        if let Some(&(pair, off, len)) = w.marks.get(step) {
            let lsn = self.alloc_lsn();
            for &(_, disk, rid) in w.appends.iter().filter(|a| a.0 as usize == step) {
                if let Some(j) = self.journals.get_mut(&disk) {
                    j.commit(rid, lsn);
                }
            }
            self.dirty[pair].mark(off, len);
            Some(Committed::Marked(pair))
        } else if let Some(&(pair, off, len)) = w.clears.get(step - w.marks.len()) {
            self.log_clear(pair, off, len);
            self.dirty[pair].clear_range(off, len);
            Some(Committed::Cleared(pair))
        } else {
            w.reset();
            None
        }
    }

    /// Journals a clear of `pair`'s `[off, off+len)`: the manifest gets
    /// it under a fresh LSN and every journal's live index drops it.
    fn log_clear(&mut self, pair: usize, off: u64, len: u64) {
        let lsn = self.alloc_lsn();
        self.manifest.clear(lsn, pair, off, len);
        for j in self.journals.values_mut() {
            j.clear_extent(pair, off, len);
        }
    }

    /// Extracts `pair`'s next destage run of at most `max_bytes`; the
    /// extraction clears the run, so it is journaled as a clear.
    pub fn take_next(&mut self, pair: usize, max_bytes: u64) -> Option<(u64, u64)> {
        let (off, len) = self.dirty[pair].take_next(max_bytes)?;
        self.log_clear(pair, off, len);
        Some((off, len))
    }

    /// Records that `pair` finished destaging: its stable LSN advances
    /// (pruning its manifest clears) and every journal drops its live
    /// extents, leaving their segments free to archive.
    pub fn reclaim_pair(&mut self, pair: usize) {
        let lsn = self.alloc_lsn();
        self.manifest.reclaim(lsn, pair);
        for j in self.journals.values_mut() {
            j.reclaim_pair(pair);
        }
    }

    /// Archives every fully-dead sealed segment and retires expired
    /// frames, journal by journal, emitting their lifecycle events.
    pub fn sweep(&mut self, ctx: &mut SimCtx) {
        let now_us = ctx.now.as_micros();
        for (&disk, j) in self.journals.iter_mut() {
            for segment in j.archive_ready() {
                let (frame, compressed_bytes) = j.archive(segment, now_us);
                ctx.emit(|| SimEvent::SegmentArchived {
                    disk,
                    segment,
                    frame,
                    compressed_bytes,
                });
            }
            for frame in j.retire_expired(now_us, self.archive_ttl_us) {
                ctx.emit(|| SimEvent::ArchiveFrameRetired { disk, frame });
            }
        }
    }

    /// The first journal, in disk order, holding a sealed segment whose
    /// live fraction fell below `live_frac`: `(disk, oldest such
    /// segment, its live extents)`.
    pub fn compaction_candidate(&self, live_frac: f64) -> Option<(DiskId, u64, Vec<PairExtent>)> {
        self.journals.iter().find_map(|(&disk, j)| {
            let &segment = j.compaction_candidates(live_frac).first()?;
            Some((disk, segment, j.live_extents_of(segment)))
        })
    }

    /// Re-logs what `segment` of `from` still owns of `extent` onto
    /// every journal in `targets` — committed at once, one fresh LSN
    /// per piece — and releases the old copies. Pieces a clear or
    /// overwrite took while the relocation I/O ran are skipped. Returns
    /// the bytes moved.
    pub fn relocate(
        &mut self,
        ctx: &mut SimCtx,
        from: DiskId,
        segment: u64,
        (pair, lba, len): PairExtent,
        targets: &[DiskId],
        period: u64,
    ) -> u64 {
        let pieces = self.journals[&from].live_intersection(segment, pair, lba, len);
        let mut moved = 0;
        for (plba, plen) in pieces {
            let lsn = self.alloc_lsn();
            for &t in targets {
                let rid = self.append(ctx, t, pair, period, plba, plen);
                self.journals
                    .get_mut(&t)
                    .expect("appended above")
                    .commit(rid, lsn);
            }
            // A source that is itself a target had the extent re-homed
            // by the commit above.
            if !targets.contains(&from) {
                self.journals
                    .get_mut(&from)
                    .expect("relocation source has a journal")
                    .clear_extent(pair, plba, plen);
            }
            moved += plen;
        }
        self.journals
            .get_mut(&from)
            .expect("relocation source has a journal")
            .note_compacted(moved);
        moved
    }

    /// Recovery after `disk` died (DESIGN.md §10); a no-op if `disk`
    /// carries no journal. Replays the surviving journals against the
    /// manifest, counts torn records, and checks every covered pair's
    /// replayed map against its NVRAM map (`replay_divergence`). A pair
    /// is *lost* — its NVRAM map stands alone — iff the dead journal
    /// held a committed record above the pair's stable LSN that no
    /// survivor holds; with no survivors (GRAID's log disk) that is
    /// every pair with such a record. The dead journal then restarts
    /// blank, still counting record ids, so ids handed out before the
    /// failure never commit a new record.
    pub fn fail(&mut self, ctx: &mut SimCtx, disk: DiskId, stats: &mut PolicyStats) {
        let Some(dead) = self.journals.get(&disk) else {
            return;
        };
        stats.log_replays += 1;
        ctx.emit(|| SimEvent::ReplayStarted { disk });
        let survivors = || {
            self.journals
                .iter()
                .filter(move |&(&d, _)| d != disk)
                .map(|(_, j)| j)
        };
        let outcome = replay_journals(survivors(), &self.manifest, self.dirty.len());
        let (records, torn) = (outcome.records_scanned, outcome.torn_records);
        stats.torn_records += torn;
        if torn > 0 {
            ctx.emit(|| SimEvent::TornRecordDetected { disk, count: torn });
        }
        let survivor_lsns: HashSet<u64> = survivors()
            .flat_map(SegmentStore::committed_records)
            .map(|(lsn, _)| lsn)
            .collect();
        let lost: HashSet<usize> = dead
            .committed_records()
            .into_iter()
            .filter(|&(lsn, pair)| {
                lsn > self.manifest.pair_stable(pair) && !survivor_lsns.contains(&lsn)
            })
            .map(|(_, pair)| pair)
            .collect();
        let mut divergent_pairs = 0u64;
        for (pair, map) in outcome.maps.into_iter().enumerate() {
            if lost.contains(&pair) {
                continue;
            }
            if map == self.dirty[pair] {
                // Install the replayed map: load-bearing (the controller
                // proceeds on reconstructed state) yet behavior-identical.
                self.dirty[pair] = map;
            } else {
                divergent_pairs += 1;
            }
        }
        stats.replay_divergence += divergent_pairs;
        ctx.emit(|| SimEvent::ReplayCompleted {
            disk,
            records,
            torn,
            divergent_pairs,
        });
        self.journals
            .get_mut(&disk)
            .expect("checked above")
            .restart();
    }

    /// `stats` with the journals' segment counters folded in.
    pub fn fold_stats(&self, mut stats: PolicyStats) -> PolicyStats {
        for j in self.journals.values() {
            let js = j.stats();
            stats.segments_sealed += js.sealed_segments;
            stats.segments_archived += js.archived_segments;
            stats.frames_retired += js.retired_frames;
            stats.compacted_bytes += js.compacted_bytes;
        }
        stats
    }

    /// End-of-run audit: every journal and dirty map passes its
    /// invariants, no journal still tracks live bytes and no pair is
    /// stale.
    pub fn check_drained(&self) -> Result<(), String> {
        for (disk, j) in &self.journals {
            j.check_invariants()
                .map_err(|e| format!("journal {disk}: {e}"))?;
            if j.live_bytes() != 0 {
                return Err(format!(
                    "journal {disk} still tracks {} live bytes",
                    j.live_bytes()
                ));
            }
        }
        for (pair, d) in self.dirty.iter().enumerate() {
            d.check_invariants()?;
            if !d.is_clean() {
                return Err(format!("pair {pair} still has {} stale bytes", d.bytes()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scheme, SimConfig};

    fn ctx() -> SimCtx {
        let cfg = SimConfig::paper_default(Scheme::RoloR, 2);
        let geo = cfg.geometry().expect("valid geometry");
        let standby = vec![false; cfg.disk_count()];
        SimCtx::new(&cfg, geo, &standby)
    }

    /// A write of one mark of `extent`, committing `records` (disk, id).
    fn logged(extent: PairExtent, records: &[(DiskId, u64)]) -> LoggedWrite {
        LoggedWrite {
            marks: vec![extent],
            appends: records.iter().map(|&(disk, rid)| (0, disk, rid)).collect(),
            ..LoggedWrite::default()
        }
    }

    /// Applies every step of `w`, as an acknowledgement does.
    fn commit(js: &mut JournalSet, mut w: LoggedWrite) {
        while js.commit_next(&mut w).is_some() {}
    }

    fn committed(js: &JournalSet, disk: DiskId) -> u64 {
        js.journals[&disk].stats().committed_records
    }

    #[test]
    fn commit_next_applies_one_step_at_a_time() {
        let mut ctx = ctx();
        let mut js = JournalSet::new(2, [2, 3]);
        // Marks on pairs 0, 1 and 0 again, then a clear on pair 1.
        let mut w = LoggedWrite::default();
        for (i, (pair, lba)) in [(0, 0), (1, 0), (0, 4096)].into_iter().enumerate() {
            w.marks.push((pair, lba, 4096));
            let rid = js.append(&mut ctx, 2 + pair, pair, 0, lba, 4096);
            w.appends.push((i as u32, 2 + pair, rid));
        }
        w.clears.push((1, 0, 4096));
        assert_eq!(js.commit_next(&mut w), Some(Committed::Marked(0)));
        // A destage reacting here takes the first extent alone.
        assert_eq!((committed(&js, 2), committed(&js, 3)), (1, 0));
        assert_eq!(js.take_next(0, 1 << 20), Some((0, 4096)));
        assert_eq!(js.commit_next(&mut w), Some(Committed::Marked(1)));
        assert_eq!(js.commit_next(&mut w), Some(Committed::Marked(0)));
        assert_eq!((committed(&js, 2), committed(&js, 3)), (2, 1));
        assert_eq!(js.commit_next(&mut w), Some(Committed::Cleared(1)));
        assert!(js.is_clean(1));
        assert_eq!(js.commit_next(&mut w), None);
        assert_eq!(js.take_next(0, 1 << 20), Some((4096, 4096)));
        // The ack emptied the write for its slot's next request.
        assert_eq!(js.commit_next(&mut w), None);
        assert!(js.all_clean());
    }

    #[test]
    fn fail_applies_the_lost_pair_rule_and_restarts_the_dead_journal() {
        let mut ctx = ctx();
        let mut stats = PolicyStats::default();
        let mut js = JournalSet::new(2, [2, 3]);
        // Pair 0 is logged on disk 2 only; pair 1 on disks 2 and 3.
        let a = js.append(&mut ctx, 2, 0, 0, 0, 4096);
        commit(&mut js, logged((0, 0, 4096), &[(2, a)]));
        let b2 = js.append(&mut ctx, 2, 1, 0, 8192, 4096);
        let b3 = js.append(&mut ctx, 3, 1, 0, 8192, 4096);
        commit(&mut js, logged((1, 8192, 4096), &[(2, b2), (3, b3)]));
        // A request still in flight when disk 2 dies.
        let in_flight = [
            (2, js.append(&mut ctx, 2, 1, 0, 0, 512)),
            (3, js.append(&mut ctx, 3, 1, 0, 0, 512)),
        ];
        let before = (committed(&js, 2), committed(&js, 3));
        js.fail(&mut ctx, 2, &mut stats);
        assert_eq!((stats.log_replays, stats.torn_records), (1, 1));
        // Pair 0 is lost (its only copy died) and keeps its NVRAM map;
        // pair 1 replays from disk 3 without divergence.
        assert_eq!(stats.replay_divergence, 0);
        assert_eq!(js.dirty[0].bytes() + js.dirty[1].bytes(), 2 * 4096);
        // The replacement journal on disk 2 takes new records before the
        // in-flight request acks; the request's pre-failure id there
        // matches none of them, and its copy on disk 3 still commits.
        for lba in [0, 4096, 8192] {
            js.append(&mut ctx, 2, 0, 1, lba, 4096);
        }
        commit(&mut js, logged((1, 0, 512), &in_flight));
        assert_eq!(committed(&js, 2), before.0);
        assert_eq!(committed(&js, 3), before.1 + 1);
        // A disk without a journal: no replay.
        js.fail(&mut ctx, 0, &mut stats);
        assert_eq!(stats.log_replays, 1);
    }
}
