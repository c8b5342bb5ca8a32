//! Log-structured segment lifecycle for the logger regions
//! (DESIGN.md §10).
//!
//! [`LoggerSpace`](crate::logspace::LoggerSpace) answers *where on the
//! platter* a log append lands; this module answers *what the log
//! means* after a crash. Every logger disk carries a [`SegmentStore`]:
//! a chain of fixed-size segments holding checksummed
//! [`AppendRecord`]s, each tagged with the `(pair, period, LBA-range)`
//! it logged. Records **commit** — receive their log sequence number
//! and a valid checksum — exactly when the user request they belong to
//! is acknowledged, which is also the instant the controller applies
//! the corresponding dirty-map mark. A record that never commits
//! (its request was still in flight when a logger died) fails its
//! checksum on a recovery scan: that is the *torn record* the
//! replay engine detects and excludes.
//!
//! Dirty-map *clears* (destage extraction, direct-write overwrite) and
//! per-pair *reclaims* (destage completion) are not segment records:
//! they are updates to the controller-durable [`LogManifest`] — the
//! §III-E used/unused region lists the paper keeps in controller
//! memory. The manifest stays small because every reclaim prunes the
//! pair's clears and advances its stable LSN.
//!
//! **Crash consistency.** [`replay_journals`] merges the committed
//! records of the surviving segment chains with the manifest's clears
//! in global LSN order and re-applies them to empty dirty maps.
//! Because commit order equals dirty-map mutation order, the replayed
//! maps are byte-identical to the controller's in-memory maps at every
//! instant — the property the randomized crash-point suites assert.
//!
//! **Space reclamation.** A segment seals when full, becomes dead as
//! later writes/clears supersede its records (tracked by a per-pair
//! live-extent index), and — once fully dead with no in-flight
//! records — is folded into an append-only compressed
//! [`ArchiveFrame`]. Frames retire after a TTL. Dropping a fully-dead
//! segment never changes replay: every byte of a dead record is, by
//! definition, covered by a later committed record or clear, so the
//! last writer of each byte survives.

use crate::dirty::DirtyMap;
use rolo_sim::ExtentMap;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::num::NonZeroU64;

/// Modeled on-media footprint of a record header (checksum, LSN, tags).
pub const RECORD_HEADER_BYTES: u64 = 32;

/// Modeled fixed overhead of one compressed archive frame.
const FRAME_HEADER_BYTES: u64 = 64;

/// Deterministic stand-in for the compressor: dead log payloads are
/// highly redundant, so frames compress 4:1 plus a fixed header.
fn compressed_size(payload: u64) -> u64 {
    FRAME_HEADER_BYTES + payload / 4
}

/// Word-folded FNV-1a over the record's identity and commit LSN — the
/// checksum a recovery scan recomputes to detect torn records. Folding
/// whole words (with a shift to diffuse the high bits the multiply
/// alone leaves weak) keeps the stamp off the commit path's critical
/// nanoseconds; torn-record detection only needs any-field sensitivity,
/// not cryptographic strength. The stamp keeps the low 32 bits, which
/// the last shift has already folded the high half into.
fn record_checksum(rid: u64, pair: u16, period: u16, lba: u64, len: u32, lsn: u64) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [
        rid,
        u64::from(pair),
        u64::from(period),
        lba,
        u64::from(len),
        lsn,
    ] {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 32;
    }
    h as u32
}

/// Lifecycle state of one segment in a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentState {
    /// The append target: new records go here.
    Active,
    /// Full; no further appends, records age toward dead.
    Sealed,
    /// Fully dead and folded into an archive frame.
    Archived,
}

/// One checksummed log record: a `(pair, period, LBA-range)` append.
///
/// A record stores no id of its own: a segment's records carry
/// consecutive ids, so record `i` has id [`Segment::first_rid`]` + i`
/// ([`Segment::records_with_ids`]). A segment keeps its records until
/// it archives, so this struct is the journal's heap cost per logged
/// write, 32 bytes (DESIGN.md §10): the length is narrowed to 32 bits
/// and the tags to 16, each with a checked conversion at
/// [`SegmentStore::append`], and the checksum is 32 bits.
#[derive(Debug, Clone)]
pub struct AppendRecord {
    /// Logical byte offset of the logged write.
    pub lba: u64,
    /// Commit LSN; `None` while the user request is in flight (a crash
    /// now leaves this record torn). LSNs start at 1.
    pub lsn: Option<NonZeroU64>,
    bytes: u32,
    /// Checksum over the header fields and the record's id; valid only
    /// once committed.
    checksum: u32,
    pair: u16,
    period: u16,
    /// True if the request was aborted (e.g. lost to a disk failure)
    /// and the record will never commit.
    pub abandoned: bool,
}

const _: () = assert!(std::mem::size_of::<AppendRecord>() <= 32);

impl AppendRecord {
    /// Mirrored pair whose write this record logs.
    pub fn pair(&self) -> usize {
        usize::from(self.pair)
    }

    /// Logging period the write belonged to.
    pub fn period(&self) -> u64 {
        u64::from(self.period)
    }

    /// Length of the logged write in bytes.
    pub fn bytes(&self) -> u64 {
        u64::from(self.bytes)
    }

    /// True if the record, whose id is `rid`, committed and its
    /// checksum validates — the test a recovery scan applies; anything
    /// else is torn.
    pub fn verify(&self, rid: u64) -> bool {
        self.lsn
            .is_some_and(|lsn| self.checksum == self.checksum_at(rid, lsn.get()))
    }

    fn checksum_at(&self, rid: u64, lsn: u64) -> u32 {
        record_checksum(rid, self.pair, self.period, self.lba, self.bytes, lsn)
    }

    /// Modeled on-media footprint: header plus payload.
    pub fn footprint(&self) -> u64 {
        RECORD_HEADER_BYTES + self.bytes()
    }
}

/// One fixed-size segment of a logger disk's chain.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Chain-local id, assigned in allocation order.
    pub id: u64,
    /// Current lifecycle state.
    pub state: SegmentState,
    /// Bytes appended (record footprints).
    pub used: u64,
    /// Bytes still referenced by the live-extent index.
    pub live: u64,
    /// Id of the segment's first record; the rest follow consecutively.
    pub first_rid: u64,
    /// Records appended while not yet archived (trimmed to length on
    /// seal, drained on archive).
    pub records: Vec<AppendRecord>,
    /// Records appended but not yet committed or abandoned.
    pub pending: u64,
}

impl Segment {
    /// The segment's records, each with its id.
    pub fn records_with_ids(&self) -> impl Iterator<Item = (u64, &AppendRecord)> {
        (self.first_rid..).zip(&self.records)
    }
}

/// One append-only compressed archive frame (a fully-dead segment's
/// records, compressed and queued for TTL retirement).
#[derive(Debug, Clone, Serialize)]
pub struct ArchiveFrame {
    /// Archive-local frame id, in append order.
    pub id: u64,
    /// Segment the frame archived.
    pub segment: u64,
    /// Records folded in.
    pub records: u64,
    /// Uncompressed payload bytes.
    pub bytes: u64,
    /// Modeled compressed size.
    pub compressed: u64,
    /// Creation instant (simulated µs) — drives TTL retirement.
    pub created_us: u64,
}

/// Counters a controller folds into its `PolicyStats`.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SegmentStats {
    /// Records appended.
    pub appended_records: u64,
    /// Payload bytes appended.
    pub appended_bytes: u64,
    /// Records committed (checksummed at user acknowledgement).
    pub committed_records: u64,
    /// Records abandoned (request lost before acknowledgement).
    pub abandoned_records: u64,
    /// Segments sealed.
    pub sealed_segments: u64,
    /// Segments archived into frames.
    pub archived_segments: u64,
    /// Frames retired after their TTL.
    pub retired_frames: u64,
    /// Live bytes relocated out of compacted segments.
    pub compacted_bytes: u64,
}

/// What an append did to the chain, so the caller can emit lifecycle
/// events (`SegmentSealed` / `SegmentAllocated`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Record id of the new append (pass to `commit`/`abandon`).
    pub rid: u64,
    /// `(segment id, live bytes at seal)` if the previous active
    /// segment sealed to make room.
    pub sealed: Option<(u64, u64)>,
    /// Id of a newly opened segment, if one was allocated.
    pub opened: Option<u64>,
}

/// One logger disk's segment chain, live-extent index and archive.
#[derive(Debug, Clone, Default)]
pub struct SegmentStore {
    seg_bytes: u64,
    segments: Vec<Segment>,
    active: Option<usize>,
    /// Per-pair live extents, valued by owning segment slot, so
    /// same-segment neighbours coalesce. A `Vec` indexed by pair (grown
    /// on demand) keeps each map small and hot — the commit path's index
    /// ops dominate journal cost, so one big `(pair, lba)`-keyed map is
    /// measurably slower.
    live: Vec<ExtentMap<usize>>,
    /// In-flight records, a ring indexed by `rid - pending_base`: every
    /// append pushes a slot, commit/abandon takes it back. Rids are
    /// dense and retire in rough submission order, so the ring keeps
    /// the per-record take at O(1) with no hashing or tree walk.
    pending: VecDeque<Option<(usize, usize)>>,
    /// Rid of `pending`'s front slot.
    pending_base: u64,
    frames: Vec<ArchiveFrame>,
    next_rid: u64,
    next_frame: u64,
    stats: SegmentStats,
}

impl SegmentStore {
    /// Creates an empty chain of `seg_bytes`-sized segments.
    ///
    /// # Panics
    ///
    /// Panics if `seg_bytes` does not exceed the record header.
    pub fn new(seg_bytes: u64) -> Self {
        assert!(
            seg_bytes > RECORD_HEADER_BYTES,
            "segment smaller than one record header"
        );
        SegmentStore {
            seg_bytes,
            ..Default::default()
        }
    }

    /// Replaces the chain with a blank one of the same segment size —
    /// a replacement disk's journal — that keeps counting record ids,
    /// so an id handed out before the restart never matches a new
    /// record, and keeps the lifetime counters, so the dead disk's
    /// seals, archives and retirements still count.
    pub fn restart(&mut self) {
        *self = SegmentStore {
            seg_bytes: self.seg_bytes,
            next_rid: self.next_rid,
            pending_base: self.next_rid,
            stats: self.stats,
            ..Default::default()
        };
    }

    /// Configured segment size in bytes.
    pub fn seg_bytes(&self) -> u64 {
        self.seg_bytes
    }

    /// The segment chain, in allocation order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Archive frames not yet retired, in append order.
    pub fn frames(&self) -> &[ArchiveFrame] {
        &self.frames
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SegmentStats {
        self.stats
    }

    /// Total live bytes across the chain.
    pub fn live_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.live).sum()
    }

    /// Appends a record for `pair`/`period` covering `[lba, lba+len)`,
    /// sealing the active segment and opening a new one as needed. The
    /// record is uncommitted (torn if the logger dies now) until
    /// [`commit`](Self::commit) stamps it.
    ///
    /// # Panics
    ///
    /// Panics if `len` does not fit in 32 bits, or if `pair` or
    /// `period` does not fit in 16 bits.
    pub fn append(&mut self, pair: usize, period: u64, lba: u64, len: u64) -> AppendOutcome {
        let bytes = u32::try_from(len).expect("record length fits in 32 bits");
        let pair = u16::try_from(pair).expect("pair index fits in 16 bits");
        let period = u16::try_from(period).expect("logging period fits in 16 bits");
        let footprint = RECORD_HEADER_BYTES + len;
        let mut sealed = None;
        let mut opened = None;
        let need_new = match self.active {
            Some(slot) => {
                let seg = &self.segments[slot];
                // An oversized record gets a dedicated segment rather
                // than growing this one past its size.
                seg.used + footprint > self.seg_bytes && seg.used > 0
            }
            None => true,
        };
        if need_new {
            if let Some(slot) = self.active.take() {
                sealed = Some(self.seal(slot));
            }
            let id = self.segments.len() as u64;
            self.segments.push(Segment {
                id,
                state: SegmentState::Active,
                used: 0,
                live: 0,
                first_rid: self.next_rid,
                records: Vec::new(),
                pending: 0,
            });
            self.active = Some(self.segments.len() - 1);
            opened = Some(id);
        }
        let slot = self.active.expect("active segment exists");
        let rid = self.next_rid;
        self.next_rid += 1;
        let seg = &mut self.segments[slot];
        seg.records.push(AppendRecord {
            lba,
            lsn: None,
            bytes,
            checksum: 0,
            pair,
            period,
            abandoned: false,
        });
        seg.used += footprint;
        seg.pending += 1;
        if self.pending.is_empty() {
            self.pending_base = rid;
        }
        self.pending.push_back(Some((slot, seg.records.len() - 1)));
        self.stats.appended_records += 1;
        self.stats.appended_bytes += len;
        AppendOutcome {
            rid,
            sealed,
            opened,
        }
    }

    /// Takes rid's in-flight entry out of the ring, draining retired
    /// slots off the front so the ring stays as short as the commit
    /// window. `None` if the rid was never pending or already taken.
    fn take_pending(&mut self, rid: u64) -> Option<(usize, usize)> {
        let at = usize::try_from(rid.checked_sub(self.pending_base)?).ok()?;
        let taken = self.pending.get_mut(at)?.take();
        while let Some(None) = self.pending.front() {
            self.pending.pop_front();
            self.pending_base += 1;
        }
        taken
    }

    /// Seals the active segment and trims its record buffer to length:
    /// a sealed segment never grows again, and it keeps its records
    /// until it archives — under RoLo-P, mostly not before the
    /// end-of-run drain (DESIGN.md §10).
    fn seal(&mut self, slot: usize) -> (u64, u64) {
        let seg = &mut self.segments[slot];
        debug_assert_eq!(seg.state, SegmentState::Active);
        seg.state = SegmentState::Sealed;
        seg.records.shrink_to_fit();
        self.stats.sealed_segments += 1;
        (seg.id, seg.live)
    }

    /// Commits record `rid` at `lsn`: stamps the checksum and claims
    /// the record's LBA range in the live-extent index (superseding any
    /// older owners of those bytes). Call exactly when the owning user
    /// request is acknowledged — the same instant the dirty-map mark is
    /// applied — so replay order equals dirty-map mutation order.
    ///
    /// # Panics
    ///
    /// Panics if `lsn` is 0 (LSNs start at 1).
    pub fn commit(&mut self, rid: u64, lsn: u64) {
        let Some((slot, idx)) = self.take_pending(rid) else {
            return;
        };
        let (pair, lba, len) = {
            let seg = &mut self.segments[slot];
            let rec = &mut seg.records[idx];
            rec.lsn = Some(NonZeroU64::new(lsn).expect("LSNs start at 1"));
            rec.checksum = rec.checksum_at(rid, lsn);
            seg.pending -= 1;
            (rec.pair(), rec.lba, rec.bytes())
        };
        self.stats.committed_records += 1;
        self.claim_live(pair, lba, len, slot);
    }

    /// Abandons record `rid` (its request was lost before it was
    /// acknowledged); the record stays in the chain as permanently torn
    /// dead weight until its segment archives.
    pub fn abandon(&mut self, rid: u64) {
        let Some((slot, idx)) = self.take_pending(rid) else {
            return;
        };
        let seg = &mut self.segments[slot];
        seg.records[idx].abandoned = true;
        seg.pending -= 1;
        self.stats.abandoned_records += 1;
    }

    /// Applies a dirty-map clear to the live-extent index: bytes in
    /// `[lba, lba+len)` of `pair` no longer need the log. The clear
    /// itself is manifest state ([`LogManifest::clear`]), not a record.
    pub fn clear_extent(&mut self, pair: usize, lba: u64, len: u64) {
        self.remove_live(pair, lba, len);
    }

    /// Drops every live extent of `pair` (destage completion: the whole
    /// pair's log is stale). Takes the pair's whole map in one pass —
    /// no per-extent removals.
    pub fn reclaim_pair(&mut self, pair: usize) {
        let Some(map) = self.live.get_mut(pair) else {
            return;
        };
        for (_, len, slot) in std::mem::take(map).iter() {
            self.segments[slot].live -= len;
        }
    }

    /// Claims `[lba, lba+len)` of `pair` for `slot`: overlapped bytes
    /// change owner (their old segments lose them), and contiguous
    /// same-slot neighbours coalesce, which keeps the per-pair maps tiny
    /// under sequential appends without changing per-segment live sums.
    /// Runs once per committed record, the journal's hottest operation.
    fn claim_live(&mut self, pair: usize, lba: u64, len: u64, slot: usize) {
        self.segments[slot].live += len;
        if pair >= self.live.len() {
            self.live.resize_with(pair + 1, ExtentMap::new);
        }
        let segments = &mut self.segments;
        self.live[pair].assign(lba, len, slot, |old, bytes| segments[old].live -= bytes);
    }

    /// Removes `[lba, lba+len)` of `pair` from the index, splitting
    /// straddling extents (the pieces keep their original owner).
    /// O(1) when the pair holds nothing — the common case for clears
    /// fanned out across a pool of journals.
    fn remove_live(&mut self, pair: usize, lba: u64, len: u64) {
        let Some(map) = self.live.get_mut(pair) else {
            return;
        };
        let segments = &mut self.segments;
        map.remove(lba, len, |old, bytes| segments[old].live -= bytes);
    }

    /// Sealed segments whose live fraction dropped below
    /// `live_fraction` — the compactor's relocation candidates, oldest
    /// first.
    pub fn compaction_candidates(&self, live_fraction: f64) -> Vec<u64> {
        self.segments
            .iter()
            .filter(|s| {
                s.state == SegmentState::Sealed
                    && s.live > 0
                    && (s.live as f64) < live_fraction * s.used as f64
            })
            .map(|s| s.id)
            .collect()
    }

    /// The live extents still owned by `segment`, in `(pair, lba)`
    /// order — what a compaction pass must relocate.
    pub fn live_extents_of(&self, segment: u64) -> Vec<(usize, u64, u64)> {
        let slot = segment as usize;
        let mut out = Vec::new();
        for (pair, map) in self.live.iter().enumerate() {
            for (lba, len, owner) in map.iter() {
                if owner == slot {
                    out.push((pair, lba, len));
                }
            }
        }
        out
    }

    /// Clips `[lba, lba+len)` of `pair` to the pieces still live *and*
    /// still owned by `segment` — re-checked at relocation completion
    /// so a clear or overwrite that raced the relocation I/O is never
    /// re-logged.
    pub fn live_intersection(
        &self,
        segment: u64,
        pair: usize,
        lba: u64,
        len: u64,
    ) -> Vec<(u64, u64)> {
        let slot = segment as usize;
        let end = lba + len;
        let Some(map) = self.live.get(pair) else {
            return Vec::new();
        };
        map.overlapping(lba, len)
            .filter(|&(_, _, owner)| owner == slot)
            .map(|(s, l, _)| {
                let from = s.max(lba);
                (from, (s + l).min(end) - from)
            })
            .collect()
    }

    /// Sealed, fully-dead segments with no in-flight records — ready to
    /// be folded into archive frames, oldest first.
    pub fn archive_ready(&self) -> Vec<u64> {
        self.segments
            .iter()
            .filter(|s| s.state == SegmentState::Sealed && s.live == 0 && s.pending == 0)
            .map(|s| s.id)
            .collect()
    }

    /// Archives `segment` into a compressed frame created at `now_us`,
    /// returning `(frame id, compressed bytes)`. Dropping a fully-dead
    /// segment's records from the replayable chain is sound: every byte
    /// they logged is superseded by a later committed record or clear.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not ready (see [`Self::archive_ready`]).
    pub fn archive(&mut self, segment: u64, now_us: u64) -> (u64, u64) {
        let slot = segment as usize;
        let seg = &mut self.segments[slot];
        assert_eq!(
            seg.state,
            SegmentState::Sealed,
            "archive of unsealed segment"
        );
        assert_eq!(seg.live, 0, "archive of a segment with live records");
        assert_eq!(
            seg.pending, 0,
            "archive of a segment with in-flight records"
        );
        let records = std::mem::take(&mut seg.records);
        let payload = seg.used;
        seg.state = SegmentState::Archived;
        let id = self.next_frame;
        self.next_frame += 1;
        let compressed = compressed_size(payload);
        self.frames.push(ArchiveFrame {
            id,
            segment,
            records: records.len() as u64,
            bytes: payload,
            compressed,
            created_us: now_us,
        });
        self.stats.archived_segments += 1;
        (id, compressed)
    }

    /// Retires (deletes) every frame older than `ttl_us` at `now_us`,
    /// returning the retired frame ids in append order.
    pub fn retire_expired(&mut self, now_us: u64, ttl_us: u64) -> Vec<u64> {
        let mut retired = Vec::new();
        self.frames.retain(|f| {
            if now_us.saturating_sub(f.created_us) >= ttl_us {
                retired.push(f.id);
                false
            } else {
                true
            }
        });
        self.stats.retired_frames += retired.len() as u64;
        retired
    }

    /// Notes `bytes` relocated out of a compacted segment (the new
    /// copies enter via [`Self::append`] + [`Self::commit`] as usual).
    pub fn note_compacted(&mut self, bytes: u64) {
        self.stats.compacted_bytes += bytes;
    }

    /// `(lsn, pair)` of every committed record still in the replayable
    /// chain (non-archived segments). A failure of this journal removes
    /// exactly these LSNs from replay; callers cross-check them against
    /// the surviving journals to find pairs whose coverage was lost.
    pub fn committed_records(&self) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        for seg in &self.segments {
            if seg.state == SegmentState::Archived {
                continue;
            }
            for (rid, rec) in seg.records_with_ids() {
                if let Some(lsn) = rec.lsn.filter(|_| rec.verify(rid)) {
                    out.push((lsn.get(), rec.pair()));
                }
            }
        }
        out
    }

    /// Flips the stored checksum of the committed record `rid`, modeling
    /// silent on-media corruption: the record still scans, but end-to-end
    /// verification fails and replay must fall back to a mirrored copy.
    /// Returns `false` if no committed copy of `rid` exists in a
    /// non-archived segment (nothing to corrupt).
    pub fn corrupt_record(&mut self, rid: u64) -> bool {
        // Segments hold ascending, consecutive id ranges; an archived
        // segment's range is empty.
        let Some(slot) = self
            .segments
            .partition_point(|s| s.first_rid <= rid)
            .checked_sub(1)
        else {
            return false;
        };
        let seg = &mut self.segments[slot];
        let Some(rec) = usize::try_from(rid - seg.first_rid)
            .ok()
            .and_then(|idx| seg.records.get_mut(idx))
        else {
            return false;
        };
        if rec.lsn.is_none() || rec.abandoned {
            return false;
        }
        rec.checksum ^= 0xdead_beef;
        true
    }

    /// Scans the chain the way a recovery pass does: committed records
    /// are verified and folded into `merged` (keyed by LSN; copies on
    /// other chains deduplicate). A record that fails verification is
    /// *torn* if it never committed (no LSN — the crash interrupted it)
    /// and *corrupt* if it committed but its checksum no longer matches
    /// (silent media corruption); corrupt records are collected so the
    /// caller can classify each as repaired or lost once every chain has
    /// been scanned.
    fn scan_into(
        &self,
        merged: &mut BTreeMap<u64, (usize, u64, u64)>,
        corrupt: &mut Vec<(u64, usize)>,
        outcome: &mut ReplayOutcome,
    ) {
        for seg in &self.segments {
            if seg.state == SegmentState::Archived {
                continue;
            }
            outcome.segments_scanned += 1;
            for (rid, rec) in seg.records_with_ids() {
                outcome.records_scanned += 1;
                let pair = rec.pair();
                if !rec.verify(rid) {
                    match rec.lsn {
                        Some(lsn) if !rec.abandoned => {
                            outcome.corrupt_records += 1;
                            corrupt.push((lsn.get(), pair));
                        }
                        _ => outcome.torn_records += 1,
                    }
                    continue;
                }
                let lsn = rec.lsn.expect("verified record has an LSN").get();
                merged.entry(lsn).or_insert((pair, rec.lba, rec.bytes()));
            }
        }
    }

    /// Debug invariant check for the chain, index and archive.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut live_by_slot: HashMap<usize, u64> = HashMap::new();
        for (pair, map) in self.live.iter().enumerate() {
            map.check_invariants()
                .map_err(|e| format!("live index of pair {pair}: {e}"))?;
            for (_, len, slot) in map.iter() {
                *live_by_slot.entry(slot).or_default() += len;
            }
        }
        let mut actives = 0;
        let mut min_rid = 0;
        for (slot, seg) in self.segments.iter().enumerate() {
            if seg.id != slot as u64 {
                return Err(format!("segment id {} at slot {slot}", seg.id));
            }
            // Id ranges ascend without overlap (an archived segment's
            // range is empty, but its first id was handed out).
            if seg.first_rid < min_rid || seg.first_rid >= self.next_rid {
                return Err(format!("segment {}: first rid out of order", seg.id));
            }
            min_rid = seg.first_rid + seg.records.len().max(1) as u64;
            let indexed = live_by_slot.get(&slot).copied().unwrap_or(0);
            if indexed != seg.live {
                return Err(format!(
                    "segment {}: live accounting {} != indexed {indexed}",
                    seg.id, seg.live
                ));
            }
            let pending = seg
                .records
                .iter()
                .filter(|r| r.lsn.is_none() && !r.abandoned)
                .count() as u64;
            match seg.state {
                SegmentState::Active => {
                    actives += 1;
                    if self.active != Some(slot) {
                        return Err(format!("segment {} active but not the target", seg.id));
                    }
                }
                SegmentState::Sealed => {}
                SegmentState::Archived => {
                    if seg.live != 0 || !seg.records.is_empty() || seg.pending != 0 {
                        return Err(format!("archived segment {} not empty", seg.id));
                    }
                }
            }
            if seg.state != SegmentState::Archived {
                if pending != seg.pending {
                    return Err(format!(
                        "segment {}: pending {} != counted {pending}",
                        seg.id, seg.pending
                    ));
                }
                let used: u64 = seg.records.iter().map(AppendRecord::footprint).sum();
                if used != seg.used {
                    return Err(format!(
                        "segment {}: used {} != record footprints {used}",
                        seg.id, seg.used
                    ));
                }
                if seg.live > seg.used {
                    return Err(format!("segment {}: live exceeds used", seg.id));
                }
            }
        }
        if actives > 1 {
            return Err(format!("{actives} active segments"));
        }
        if let Some(slot) = self.active {
            if self
                .segments
                .get(slot)
                .map(|s| s.state != SegmentState::Active)
                .unwrap_or(true)
            {
                return Err(format!("active slot {slot} is not an Active segment"));
            }
        }
        for (at, entry) in self.pending.iter().enumerate() {
            let Some(&(slot, idx)) = entry.as_ref() else {
                continue;
            };
            let rid = self.pending_base + at as u64;
            let (first_rid, rec) = self
                .segments
                .get(slot)
                .and_then(|s| Some((s.first_rid, s.records.get(idx)?)))
                .ok_or_else(|| format!("pending rid {rid} points at nothing"))?;
            if first_rid + idx as u64 != rid || rec.lsn.is_some() || rec.abandoned {
                return Err(format!("pending rid {rid} out of sync"));
            }
        }
        let mut prev_frame: Option<u64> = None;
        for f in &self.frames {
            if let Some(p) = prev_frame {
                if f.id <= p {
                    return Err("archive frames out of append order".into());
                }
            }
            prev_frame = Some(f.id);
        }
        Ok(())
    }
}

/// One dirty-map clear in the manifest's op log.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ClearOp {
    /// Mirrored pair the clear applies to.
    pub pair: usize,
    /// Start of the cleared range.
    pub lba: u64,
    /// Length of the cleared range.
    pub len: u64,
}

/// The controller-durable log metadata (§III-E region lists): dirty-map
/// clears since each pair's last reclaim, and the per-pair stable LSN
/// below which the log is known fully destaged (the dirty map was empty
/// at that LSN, so older records and clears never replay).
///
/// Clears are bucketed per pair, LSN-ascending (LSNs are handed out in
/// mutation order, so a push never goes backwards): recording a clear
/// is a push and a pair's reclaim drops its bucket wholesale, keeping
/// both off any whole-manifest scan. Only a replay — the rare path —
/// pays to merge the buckets back into global LSN order.
#[derive(Debug, Clone, Default)]
pub struct LogManifest {
    /// Clears since each pair's last reclaim, indexed by pair.
    ops: Vec<Vec<(u64, ClearOp)>>,
    /// Stable LSNs, indexed by pair (0 = never completed a destage).
    pair_stable: Vec<u64>,
}

impl LogManifest {
    /// Creates an empty manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a dirty-map clear at `lsn` (destage extraction or
    /// direct-write overwrite).
    pub fn clear(&mut self, lsn: u64, pair: usize, lba: u64, len: u64) {
        if pair >= self.ops.len() {
            self.ops.resize_with(pair + 1, Vec::new);
        }
        let bucket = &mut self.ops[pair];
        debug_assert!(bucket.last().is_none_or(|&(l, _)| l < lsn));
        bucket.push((lsn, ClearOp { pair, lba, len }));
    }

    /// Records a destage completion for `pair` at `lsn`: the pair's
    /// dirty map is empty, so its stable LSN advances and every older
    /// clear for it is pruned — this is what keeps the manifest small.
    pub fn reclaim(&mut self, lsn: u64, pair: usize) {
        if pair >= self.pair_stable.len() {
            self.pair_stable.resize(pair + 1, 0);
        }
        self.pair_stable[pair] = self.pair_stable[pair].max(lsn);
        if let Some(bucket) = self.ops.get_mut(pair) {
            bucket.retain(|&(l, _)| l > lsn);
        }
    }

    /// The stable LSN of `pair` (0 if it never completed a destage).
    pub fn pair_stable(&self, pair: usize) -> u64 {
        self.pair_stable.get(pair).copied().unwrap_or(0)
    }

    /// Number of clears currently held.
    pub fn op_count(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// All held clears, merged back into global LSN order (replay's
    /// view; each per-pair bucket is already sorted).
    fn ops_by_lsn(&self) -> Vec<(u64, ClearOp)> {
        let mut out: Vec<(u64, ClearOp)> = self.ops.iter().flatten().copied().collect();
        out.sort_unstable_by_key(|&(l, _)| l);
        out
    }
}

/// The result of a recovery-by-replay pass.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Reconstructed per-pair dirty maps.
    pub maps: Vec<DirtyMap>,
    /// Non-archived segments scanned across the surviving chains.
    pub segments_scanned: u64,
    /// Records scanned (before deduplication).
    pub records_scanned: u64,
    /// Records that failed checksum verification (torn by the crash).
    pub torn_records: u64,
    /// Committed records whose checksum no longer matched (silent media
    /// corruption, as opposed to a torn crash-interrupted record).
    pub corrupt_records: u64,
    /// Corrupt records whose LSN survived verified on another chain —
    /// the mirrored copy repairs them.
    pub corrupt_repaired: u64,
    /// Corrupt records with no verified copy of their LSN anywhere —
    /// the logged write is unrecoverable.
    pub corrupt_lost: u64,
    /// Deduplicated committed appends redone into the maps.
    pub applied_appends: u64,
    /// Manifest clears undone from the maps.
    pub applied_clears: u64,
    /// Records skipped as at-or-below their pair's stable LSN.
    pub skipped_stable: u64,
}

/// Recovery-by-replay: scans the surviving segment chains, drops torn
/// records, deduplicates the mirrored copies by LSN, interleaves the
/// manifest's clears, and re-applies everything above each pair's
/// stable LSN — in commit order — onto empty dirty maps.
///
/// Because records commit at the same instant their dirty-map mark is
/// applied, the result equals the controller's in-memory maps for every
/// pair whose records survive on at least one chain.
pub fn replay_journals<'a, I>(journals: I, manifest: &LogManifest, pairs: usize) -> ReplayOutcome
where
    I: IntoIterator<Item = &'a SegmentStore>,
{
    let mut outcome = ReplayOutcome {
        maps: vec![DirtyMap::new(); pairs],
        ..Default::default()
    };
    let mut appends: BTreeMap<u64, (usize, u64, u64)> = BTreeMap::new();
    let mut corrupt: Vec<(u64, usize)> = Vec::new();
    for store in journals {
        store.scan_into(&mut appends, &mut corrupt, &mut outcome);
    }
    // Classify every corrupt record exactly once: repaired if any chain
    // holds a verified copy of its LSN, lost otherwise — so
    // `corrupt_records == corrupt_repaired + corrupt_lost` always.
    for (lsn, _pair) in corrupt {
        if appends.contains_key(&lsn) {
            outcome.corrupt_repaired += 1;
        } else {
            outcome.corrupt_lost += 1;
        }
    }
    // Merge appends and clears in global LSN order (LSNs are unique
    // across both, so a simple two-cursor merge is exact).
    let manifest_ops = manifest.ops_by_lsn();
    let mut clears = manifest_ops.iter().peekable();
    let mut records = appends.iter().peekable();
    loop {
        let next_is_clear = match (clears.peek(), records.peek()) {
            (Some(&&(cl, _)), Some((&rl, _))) => cl < rl,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if next_is_clear {
            let &(lsn, op) = clears.next().expect("peeked");
            if lsn <= manifest.pair_stable(op.pair) {
                outcome.skipped_stable += 1;
                continue;
            }
            if op.pair < pairs {
                outcome.maps[op.pair].clear_range(op.lba, op.len);
                outcome.applied_clears += 1;
            }
        } else {
            let (&lsn, &(pair, lba, len)) = records.next().expect("peeked");
            if lsn <= manifest.pair_stable(pair) {
                outcome.skipped_stable += 1;
                continue;
            }
            if pair < pairs && len > 0 {
                outcome.maps[pair].mark(lba, len);
                outcome.applied_appends += 1;
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a store and a reference dirty map in lockstep the way a
    /// controller does, then checks replay reconstructs the reference.
    struct Harness {
        store: SegmentStore,
        mirror: SegmentStore,
        manifest: LogManifest,
        reference: DirtyMap,
        next_lsn: u64,
    }

    impl Harness {
        fn new(seg_bytes: u64) -> Self {
            Harness {
                store: SegmentStore::new(seg_bytes),
                mirror: SegmentStore::new(seg_bytes),
                manifest: LogManifest::new(),
                reference: DirtyMap::new(),
                next_lsn: 0,
            }
        }

        fn lsn(&mut self) -> u64 {
            self.next_lsn += 1;
            self.next_lsn
        }

        fn write(&mut self, lba: u64, len: u64) -> (u64, u64) {
            let a = self.store.append(0, 1, lba, len);
            let b = self.mirror.append(0, 1, lba, len);
            (a.rid, b.rid)
        }

        fn ack(&mut self, rids: (u64, u64), lba: u64, len: u64) {
            let lsn = self.lsn();
            self.store.commit(rids.0, lsn);
            self.mirror.commit(rids.1, lsn);
            self.reference.mark(lba, len);
        }

        fn clear(&mut self, lba: u64, len: u64) {
            let lsn = self.lsn();
            self.manifest.clear(lsn, 0, lba, len);
            self.store.clear_extent(0, lba, len);
            self.mirror.clear_extent(0, lba, len);
            self.reference.clear_range(lba, len);
        }

        fn replay_one_survivor(&self) -> ReplayOutcome {
            replay_journals([&self.mirror], &self.manifest, 1)
        }
    }

    fn maps_equal(a: &DirtyMap, b: &DirtyMap) -> bool {
        a.bytes() == b.bytes() && a.iter().collect::<Vec<_>>() == b.iter().collect::<Vec<_>>()
    }

    #[test]
    fn commit_claims_live_extents_and_supersedes() {
        let mut s = SegmentStore::new(1 << 20);
        let a = s.append(0, 1, 100, 50);
        s.commit(a.rid, 1);
        assert_eq!(s.live_bytes(), 50);
        // A later write over part of the range supersedes the old copy.
        let b = s.append(0, 1, 120, 100);
        s.commit(b.rid, 2);
        assert_eq!(s.live_bytes(), 20 + 100);
        s.check_invariants().unwrap();
    }

    #[test]
    fn seal_and_open_on_overflow() {
        let mut s = SegmentStore::new(RECORD_HEADER_BYTES + 100);
        let a = s.append(0, 1, 0, 100);
        assert_eq!(a.opened, Some(0));
        assert!(a.sealed.is_none());
        let b = s.append(0, 1, 200, 100);
        assert_eq!(b.sealed.map(|(id, _)| id), Some(0));
        assert_eq!(b.opened, Some(1));
        assert_eq!(s.segments()[0].state, SegmentState::Sealed);
        s.check_invariants().unwrap();
    }

    #[test]
    fn torn_records_fail_verification() {
        let mut s = SegmentStore::new(1 << 20);
        let a = s.append(0, 1, 0, 100);
        let b = s.append(0, 1, 200, 100);
        s.commit(a.rid, 7);
        // b never commits: a crash now leaves it torn.
        let manifest = LogManifest::new();
        let out = replay_journals([&s], &manifest, 1);
        assert_eq!(out.torn_records, 1);
        assert_eq!(out.applied_appends, 1);
        assert_eq!(out.maps[0].bytes(), 100);
        let _ = b;
    }

    #[test]
    fn corrupt_record_detected_and_repaired_from_mirror() {
        let mut h = Harness::new(1 << 16);
        let w1 = h.write(0, 4096);
        h.ack(w1, 0, 4096);
        assert!(h.store.corrupt_record(w1.0));
        let out = replay_journals([&h.store, &h.mirror], &h.manifest, 1);
        assert_eq!(out.corrupt_records, 1);
        assert_eq!(out.corrupt_repaired, 1);
        assert_eq!(out.corrupt_lost, 0);
        assert_eq!(out.torn_records, 0, "corruption is not torn");
        assert!(maps_equal(&out.maps[0], &h.reference));
    }

    #[test]
    fn corrupt_record_without_clean_copy_is_lost() {
        let mut h = Harness::new(1 << 16);
        let w1 = h.write(0, 4096);
        h.ack(w1, 0, 4096);
        assert!(h.store.corrupt_record(w1.0));
        assert!(h.mirror.corrupt_record(w1.1));
        let out = replay_journals([&h.store, &h.mirror], &h.manifest, 1);
        assert_eq!(out.corrupt_records, 2);
        assert_eq!(out.corrupt_repaired, 0);
        assert_eq!(out.corrupt_lost, 2);
        assert_eq!(out.maps[0].bytes(), 0, "the logged write is gone");
    }

    #[test]
    fn corrupt_record_requires_commit() {
        let mut s = SegmentStore::new(1 << 20);
        let a = s.append(0, 1, 0, 100);
        assert!(
            !s.corrupt_record(a.rid),
            "an uncommitted record is torn, not silently corrupt"
        );
        s.commit(a.rid, 1);
        assert!(s.corrupt_record(a.rid));
    }

    #[test]
    fn replay_matches_reference_with_clears() {
        let mut h = Harness::new(1 << 16);
        let w1 = h.write(0, 4096);
        h.ack(w1, 0, 4096);
        let w2 = h.write(8192, 4096);
        h.ack(w2, 8192, 4096);
        h.clear(0, 2048); // destage extracted half the first extent
        let w3 = h.write(1024, 512); // re-dirtied inside the cleared range
        h.ack(w3, 1024, 512);
        let out = h.replay_one_survivor();
        assert_eq!(out.torn_records, 0);
        assert!(maps_equal(&out.maps[0], &h.reference));
    }

    #[test]
    fn reclaim_advances_stability_and_prunes() {
        let mut h = Harness::new(1 << 16);
        let w1 = h.write(0, 4096);
        h.ack(w1, 0, 4096);
        h.clear(0, 4096);
        // Destage completed: stable LSN advances, clears prune.
        let lsn = h.lsn();
        h.manifest.reclaim(lsn, 0);
        h.store.reclaim_pair(0);
        h.mirror.reclaim_pair(0);
        assert_eq!(h.manifest.op_count(), 0);
        assert_eq!(h.store.live_bytes(), 0);
        // Writes after the reclaim still replay.
        let w2 = h.write(500, 100);
        h.ack(w2, 500, 100);
        let out = h.replay_one_survivor();
        assert!(out.skipped_stable > 0);
        assert!(maps_equal(&out.maps[0], &h.reference));
        h.store.check_invariants().unwrap();
    }

    #[test]
    fn archive_requires_fully_dead_and_retires_by_ttl() {
        let mut h = Harness::new(RECORD_HEADER_BYTES + 4096);
        let w1 = h.write(0, 4096);
        h.ack(w1, 0, 4096);
        let w2 = h.write(8192, 4096); // seals segment 0
        h.ack(w2, 8192, 4096);
        assert!(h.store.archive_ready().is_empty(), "segment 0 still live");
        h.clear(0, 4096);
        assert_eq!(h.store.archive_ready(), vec![0]);
        let (frame, compressed) = h.store.archive(0, 1_000);
        assert!(compressed < RECORD_HEADER_BYTES + 4096);
        assert_eq!(h.store.segments()[0].state, SegmentState::Archived);
        // Replay is unaffected by the archived segment.
        let out = replay_journals([&h.store], &h.manifest, 1);
        assert!(maps_equal(&out.maps[0], &h.reference));
        // TTL retirement.
        assert!(h.store.retire_expired(1_500, 1_000).is_empty());
        assert_eq!(h.store.retire_expired(2_000, 1_000), vec![frame]);
        h.store.check_invariants().unwrap();
    }

    #[test]
    fn compaction_candidates_and_live_intersection() {
        let mut s = SegmentStore::new(2 * (RECORD_HEADER_BYTES + 1000));
        let a = s.append(0, 1, 0, 1000);
        s.commit(a.rid, 1);
        let b = s.append(1, 1, 0, 1000);
        s.commit(b.rid, 2);
        let c = s.append(0, 2, 5000, 1000); // seals segment 0
        s.commit(c.rid, 3);
        // Pair 0's extent in segment 0 dies; pair 1's stays live.
        s.clear_extent(0, 0, 1000);
        let cands = s.compaction_candidates(0.6);
        assert_eq!(cands, vec![0]);
        assert_eq!(s.live_extents_of(0), vec![(1, 0, 1000)]);
        // The intersection re-check clips to what segment 0 still owns.
        assert_eq!(s.live_intersection(0, 1, 0, 1000), vec![(0, 1000)]);
        s.clear_extent(1, 0, 500);
        assert_eq!(s.live_intersection(0, 1, 0, 1000), vec![(500, 500)]);
        s.check_invariants().unwrap();
    }

    #[test]
    fn relocation_rehomes_extents_between_stores() {
        let mut h = Harness::new(RECORD_HEADER_BYTES + 1000);
        let w1 = h.write(0, 1000);
        h.ack(w1, 0, 1000);
        let w2 = h.write(5000, 1000); // seals segment 0 in both stores
        h.ack(w2, 5000, 1000);
        // Relocate segment 0's live extent to the active segment.
        let exts = h.store.live_extents_of(0);
        assert_eq!(exts, vec![(0, 0, 1000)]);
        let rids = h.write(0, 1000);
        let lsn = h.lsn();
        h.store.commit(rids.0, lsn);
        h.mirror.commit(rids.1, lsn);
        h.store.note_compacted(1000);
        assert_eq!(h.store.live_extents_of(0), Vec::new());
        assert_eq!(h.store.archive_ready(), vec![0]);
        // Replay still matches the (unchanged) reference map.
        let out = h.replay_one_survivor();
        assert!(maps_equal(&out.maps[0], &h.reference));
        h.store.check_invariants().unwrap();
    }

    #[test]
    fn restart_keeps_counting_record_ids() {
        let mut s = SegmentStore::new(1 << 20);
        let torn = s.append(0, 1, 0, 100);
        let done = s.append(0, 1, 200, 100);
        s.commit(done.rid, 1);
        s.restart();
        assert!(s.segments().is_empty());
        // The counters outlive the chain.
        let before = s.stats().committed_records;
        assert_eq!(before, 1);
        // Pre-restart ids commit nothing, before or after new appends.
        s.commit(torn.rid, 2);
        let fresh = s.append(0, 2, 0, 100);
        assert!(fresh.rid > done.rid, "ids continue past the old ones");
        s.commit(torn.rid, 3);
        s.commit(done.rid, 3);
        assert_eq!(s.stats().committed_records, before);
        assert_eq!(s.live_bytes(), 0);
        s.commit(fresh.rid, 4);
        assert_eq!(s.stats().committed_records, before + 1);
        assert_eq!(s.live_bytes(), 100);
        s.check_invariants().unwrap();
    }

    /// Record ids are implicit (a segment's first id plus the record's
    /// index), so every id-addressed operation must hit exactly the
    /// named record: across segment boundaries and after a restart,
    /// where the new chain's first id is not 0.
    #[test]
    fn ids_address_exactly_their_record_across_seals_and_restart() {
        // Three records per segment.
        let mut s = SegmentStore::new(3 * (RECORD_HEADER_BYTES + 100));
        let old: Vec<u64> = (0..7).map(|i| s.append(i, 1, 0, 100).rid).collect();
        assert!(s.stats().sealed_segments >= 2);
        s.commit(old[1], 1);
        s.restart();
        // Record i logs pair i and commits at LSN 100 + i, so a
        // committed (lsn, pair) names exactly one record.
        let ids: Vec<u64> = (0..8).map(|i| s.append(i, 2, 0, 100).rid).collect();
        assert_eq!(ids[0], old[6] + 1, "ids continue past the old chain");
        assert!(s.stats().sealed_segments >= 4);
        assert_eq!(s.segments()[2].first_rid, ids[6]);
        // Commit out of order; record 4 is lost, record 7 stays torn.
        for i in [6, 0, 3, 2, 5, 1] {
            s.commit(ids[i], 100 + i as u64);
        }
        s.abandon(ids[4]);
        // The old chain's ids name nothing in the new one.
        for &rid in &old {
            s.commit(rid, 99);
            s.abandon(rid);
            assert!(!s.corrupt_record(rid));
        }
        // Only a committed record can be corrupted; record 3 opens the
        // second segment.
        assert!(!s.corrupt_record(ids[4]), "abandoned");
        assert!(!s.corrupt_record(ids[7]), "uncommitted");
        assert!(!s.corrupt_record(ids[7] + 1), "not yet appended");
        assert!(s.corrupt_record(ids[3]));
        s.check_invariants().unwrap();

        let committed: Vec<(u64, usize)> = [0, 1, 2, 5, 6].map(|i| (100 + i as u64, i)).to_vec();
        assert_eq!(s.committed_records(), committed);
        let out = replay_journals([&s], &LogManifest::new(), 8);
        assert_eq!(out.records_scanned, 8);
        assert_eq!(out.torn_records, 2, "records 4 and 7");
        assert_eq!(out.corrupt_records, 1);
        assert_eq!(out.corrupt_lost, 1);
        assert_eq!(out.applied_appends, 5);
        let dirty: Vec<u64> = out.maps.iter().map(DirtyMap::bytes).collect();
        assert_eq!(dirty, [100, 100, 100, 0, 0, 100, 100, 0]);
    }

    /// The record's last (only) copy in `s`.
    fn last_record(s: &SegmentStore) -> &AppendRecord {
        let seg = s.segments().last().expect("a segment");
        seg.records.last().expect("a record")
    }

    #[test]
    #[should_panic(expected = "record length fits in 32 bits")]
    fn oversized_record_length_panics_instead_of_wrapping() {
        let mut s = SegmentStore::new(1 << 20);
        let last = u64::from(u32::MAX);
        s.append(0, 1, 0, last);
        assert_eq!(last_record(&s).bytes(), last);
        s.append(0, 1, 0, last + 1);
    }

    #[test]
    #[should_panic(expected = "pair index fits in 16 bits")]
    fn oversized_record_pair_panics_instead_of_wrapping() {
        let mut s = SegmentStore::new(1 << 20);
        let last = usize::from(u16::MAX);
        s.append(last, 1, 0, 100);
        assert_eq!(last_record(&s).pair(), last);
        s.append(last + 1, 1, 0, 100);
    }

    #[test]
    #[should_panic(expected = "logging period fits in 16 bits")]
    fn oversized_record_period_panics_instead_of_wrapping() {
        let mut s = SegmentStore::new(1 << 20);
        let last = u64::from(u16::MAX);
        s.append(0, last, 0, 100);
        assert_eq!(last_record(&s).period(), last);
        s.append(0, last + 1, 0, 100);
    }

    #[test]
    fn duplicate_copies_deduplicate_by_lsn() {
        let mut h = Harness::new(1 << 16);
        let w = h.write(100, 200);
        h.ack(w, 100, 200);
        let out = replay_journals([&h.store, &h.mirror], &h.manifest, 1);
        assert_eq!(out.records_scanned, 2);
        assert_eq!(out.applied_appends, 1);
        assert!(maps_equal(&out.maps[0], &h.reference));
    }
}
