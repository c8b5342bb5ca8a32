//! The typed event taxonomy emitted by every instrumented layer.
//!
//! Events are deliberately small `Copy`-ish payloads (ids, offsets,
//! byte counts, enum states) rather than references into simulator
//! state, so a drained trace is self-describing and serializes to
//! one JSON object per event.

use rolo_disk::{DiskId, IoKind, PowerState};
use rolo_sim::SimTime;
use rolo_trace::ReqKind;
use serde::Serialize;

/// One structured simulation event.
///
/// Variants cover the full observable lifecycle: user requests
/// (arrive / dispatch / complete), disk power-state transitions,
/// logger rotation and destaging, logging-mode changes, and every
/// fault/retry/rebuild milestone.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SimEvent {
    /// A user request entered the simulator from the trace.
    RequestArrive {
        /// Trace-order user request id.
        id: u64,
        /// Read or write, as recorded in the trace.
        kind: ReqKind,
        /// Logical byte offset of the request.
        offset: u64,
        /// Request length in bytes.
        bytes: u64,
    },
    /// A (sub-)request was dispatched to a physical disk.
    RequestDispatch {
        /// Disk-level I/O id (policy tag).
        io: u64,
        /// Target physical disk.
        disk: DiskId,
        /// Read or write at the disk level.
        kind: IoKind,
        /// Physical byte offset on the disk.
        offset: u64,
        /// I/O length in bytes.
        bytes: u64,
        /// True for background (destage/rebuild) I/O.
        background: bool,
    },
    /// The last sub-request of a user request completed.
    RequestComplete {
        /// Trace-order user request id.
        id: u64,
        /// Read or write, as recorded in the trace.
        kind: ReqKind,
        /// End-to-end response time in microseconds.
        response_us: u64,
    },
    /// Initial power state of a disk at simulation start.
    DiskInit {
        /// Physical disk.
        disk: DiskId,
        /// State the disk starts the run in.
        state: PowerState,
    },
    /// A disk moved between power states.
    DiskState {
        /// Physical disk.
        disk: DiskId,
        /// State before the transition.
        from: PowerState,
        /// State after the transition.
        to: PowerState,
    },
    /// RoLo rotated its logger role to the next mirror slot.
    LoggerRotation {
        /// Slot that stops logging and starts destaging.
        outgoing: usize,
        /// Slot that takes over logging.
        incoming: usize,
        /// Rotation period counter after this rotation.
        period: u64,
    },
    /// A destage cycle started.
    DestageStart {
        /// Mirror pair being destaged, when the scheme destages
        /// per-pair (RoLo); `None` for whole-log destage (GRAID).
        pair: Option<usize>,
    },
    /// A destage cycle finished and its log space was reclaimed.
    DestageEnd {
        /// Mirror pair that finished, when per-pair; else `None`.
        pair: Option<usize>,
    },
    /// Write logging was switched off (log pressure); writes go direct.
    LoggingDeactivated,
    /// Write logging was re-enabled after log space was reclaimed.
    LoggingReactivated,
    /// A read miss forced a standby disk to spin up.
    ReadMissSpinUp {
        /// Disk being woken.
        disk: DiskId,
    },
    /// A read was redirected from a failed disk to its mirror partner.
    ReadRedirected {
        /// Disk the read was originally addressed to.
        from: DiskId,
        /// Surviving disk that serves it instead.
        to: DiskId,
    },
    /// A whole-disk failure fired; a hot spare was installed.
    DiskFailed {
        /// Slot that failed (the spare takes over the same slot).
        disk: DiskId,
        /// Fault epoch after the replacement.
        epoch: u64,
    },
    /// The fault plan scheduled a whole-disk failure before replay.
    FaultScheduled {
        /// Slot that will fail.
        disk: DiskId,
        /// Scheduled failure time in microseconds.
        at_us: u64,
    },
    /// An I/O completion was classified as a timeout.
    IoTimeout {
        /// Disk-level I/O id.
        io: u64,
    },
    /// A timed-out I/O was scheduled for retry with backoff.
    IoRetry {
        /// Disk-level I/O id.
        io: u64,
        /// Backoff before the retry, in microseconds.
        backoff_us: u64,
    },
    /// An I/O exhausted its retries and was declared lost.
    IoLost {
        /// Disk-level I/O id.
        io: u64,
    },
    /// An I/O completion was classified as a latent media error.
    MediaError {
        /// Disk-level I/O id.
        io: u64,
    },
    /// A degraded-mode rebuild onto a spare started.
    RebuildStarted {
        /// Slot being rebuilt.
        slot: DiskId,
        /// Bytes to reconstruct.
        bytes: u64,
    },
    /// A rebuild finished and the slot left degraded mode.
    RebuildCompleted {
        /// Slot that finished rebuilding.
        slot: DiskId,
        /// Rebuild duration in simulated microseconds.
        duration_us: u64,
    },
    /// A fresh log segment was opened (became the append target) on a
    /// logger disk's segment chain.
    SegmentAllocated {
        /// Logger disk owning the segment chain.
        disk: DiskId,
        /// Chain-local segment id (monotonically increasing).
        segment: u64,
    },
    /// An active segment filled up and was sealed (no further appends).
    SegmentSealed {
        /// Logger disk owning the segment chain.
        disk: DiskId,
        /// Segment that sealed; must have been allocated earlier.
        segment: u64,
        /// Bytes still live (referenced by the dirty map) at seal time.
        live_bytes: u64,
    },
    /// Live records were relocated out of a mostly-dead sealed segment.
    SegmentCompacted {
        /// Logger disk owning the segment chain.
        disk: DiskId,
        /// Segment the live records were relocated out of.
        segment: u64,
        /// Bytes relocated to the active segment.
        relocated_bytes: u64,
    },
    /// A cold fully-destaged segment was folded into an append-only
    /// compressed archive frame.
    SegmentArchived {
        /// Logger disk owning the segment chain.
        disk: DiskId,
        /// Segment that was archived; must have been allocated earlier.
        segment: u64,
        /// Archive frame the segment's records were compressed into.
        frame: u64,
        /// Compressed frame size in bytes.
        compressed_bytes: u64,
    },
    /// An archive frame outlived its TTL and was retired (deleted).
    ArchiveFrameRetired {
        /// Logger disk owning the archive.
        disk: DiskId,
        /// Frame that was retired.
        frame: u64,
    },
    /// A background compaction pass started on a pair's logger disks.
    CompactionStart {
        /// Mirror pair whose destage idle-slots host the pass, when
        /// per-pair (RoLo); `None` for centralized logs.
        pair: Option<usize>,
    },
    /// A background compaction pass finished.
    CompactionEnd {
        /// Mirror pair, when per-pair; else `None`.
        pair: Option<usize>,
    },
    /// A logger disk died and recovery-by-replay began scanning the
    /// surviving segment chains.
    ReplayStarted {
        /// The failed logger disk whose log state is being replayed.
        disk: DiskId,
    },
    /// A record failed its checksum during a replay scan (torn by the
    /// mid-write crash; excluded from redo).
    TornRecordDetected {
        /// The failed logger disk being replayed.
        disk: DiskId,
        /// Number of torn records found so far in this replay.
        count: u64,
    },
    /// Recovery-by-replay finished reconstructing the dirty map.
    ReplayCompleted {
        /// The failed logger disk that was replayed.
        disk: DiskId,
        /// Committed records redone into the reconstructed dirty map.
        records: u64,
        /// Torn records detected and excluded.
        torn: u64,
        /// Pairs whose replayed map diverged from the live controller
        /// state (must be 0 for a crash-consistent log).
        divergent_pairs: u64,
    },
    /// The fault injector marked an extent of a disk as silently
    /// corrupt (a latent sector error landed).
    CorruptionInjected {
        /// Disk holding the now-latent extent.
        disk: DiskId,
        /// Physical byte offset of the extent.
        offset: u64,
        /// Extent length in bytes.
        bytes: u64,
    },
    /// A correlated-failure shock hit a shared enclosure, failing or
    /// corrupting several of its disks within a short window.
    ShockInjected {
        /// First disk of the affected enclosure.
        enclosure_base: DiskId,
        /// Disks in the enclosure.
        disks: usize,
    },
    /// The scrub engine began a sequential verification pass over a
    /// disk's data region.
    ScrubStart {
        /// Disk being scrubbed.
        disk: DiskId,
        /// Pass number (0-based, monotone per disk).
        pass: u64,
    },
    /// The scrub engine detected a latent extent and repaired it from
    /// the surviving mirror copy.
    ScrubRepair {
        /// Disk the latent extent was found on.
        disk: DiskId,
        /// Physical byte offset of the repaired extent.
        offset: u64,
        /// Extent length in bytes.
        bytes: u64,
    },
    /// A scrub pass covered the whole data region of a disk.
    ScrubComplete {
        /// Disk that finished the pass.
        disk: DiskId,
        /// Pass number that completed.
        pass: u64,
        /// Bytes verified in the pass.
        bytes: u64,
    },
    /// A latent extent became unrecoverable: its mirror partner is dead
    /// or also corrupt, so the data is lost (counted, never silent).
    ExtentLost {
        /// Disk the unrecoverable extent is on.
        disk: DiskId,
        /// Physical byte offset of the lost extent.
        offset: u64,
        /// Extent length in bytes.
        bytes: u64,
    },
    /// An SLO's short-lookback burn rate crossed the warning threshold
    /// when a telemetry window closed (DESIGN.md §12). Boxed, like
    /// [`SimEvent::SloBreach`]: the name's `String` would otherwise set
    /// the size of every event a ring sink holds.
    SloBurnWarning(Box<SloBurnWarning>),
    /// An SLO's burn rate crossed the breach threshold on both
    /// lookbacks; within a window a breach always follows its
    /// [`SimEvent::SloBurnWarning`].
    SloBreach(Box<SloBreach>),
    /// The trace ran out; the driver began draining in-flight work.
    TraceEnded,
}

/// The payload of [`SimEvent::SloBurnWarning`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloBurnWarning {
    /// Name of the SLO objective (e.g. `latency_p95`).
    pub slo: String,
    /// Telemetry window index whose close fired the alert.
    pub window: u64,
    /// Burn rate over the short lookback, in hundredths.
    pub burn_short_x100: u64,
    /// Burn rate over the long lookback, in hundredths.
    pub burn_long_x100: u64,
}

/// The payload of [`SimEvent::SloBreach`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloBreach {
    /// Name of the SLO objective (e.g. `latency_p95`).
    pub slo: String,
    /// Telemetry window index whose close fired the alert.
    pub window: u64,
    /// The window's observed value in milli-units (ns for latency
    /// objectives, mW for energy objectives).
    pub observed_x1000: u64,
    /// The objective's bound, in the same milli-units.
    pub target_x1000: u64,
}

/// Number of [`SimEvent`] variants ([`SimEvent::KIND_NAMES`] has one
/// entry per variant).
pub const NUM_EVENT_KINDS: usize = 39;

impl SimEvent {
    /// Every variant's [`SimEvent::kind_name`], indexed by
    /// [`SimEvent::kind_index`].
    pub const KIND_NAMES: [&'static str; NUM_EVENT_KINDS] = [
        "RequestArrive",
        "RequestDispatch",
        "RequestComplete",
        "DiskInit",
        "DiskState",
        "LoggerRotation",
        "DestageStart",
        "DestageEnd",
        "LoggingDeactivated",
        "LoggingReactivated",
        "ReadMissSpinUp",
        "ReadRedirected",
        "DiskFailed",
        "FaultScheduled",
        "IoTimeout",
        "IoRetry",
        "IoLost",
        "MediaError",
        "RebuildStarted",
        "RebuildCompleted",
        "SegmentAllocated",
        "SegmentSealed",
        "SegmentCompacted",
        "SegmentArchived",
        "ArchiveFrameRetired",
        "CompactionStart",
        "CompactionEnd",
        "ReplayStarted",
        "TornRecordDetected",
        "ReplayCompleted",
        "CorruptionInjected",
        "ShockInjected",
        "ScrubStart",
        "ScrubRepair",
        "ScrubComplete",
        "ExtentLost",
        "SloBurnWarning",
        "SloBreach",
        "TraceEnded",
    ];

    /// Stable dense index of the variant into `[_; NUM_EVENT_KINDS]`
    /// arrays, in declaration order.
    pub fn kind_index(&self) -> usize {
        match self {
            SimEvent::RequestArrive { .. } => 0,
            SimEvent::RequestDispatch { .. } => 1,
            SimEvent::RequestComplete { .. } => 2,
            SimEvent::DiskInit { .. } => 3,
            SimEvent::DiskState { .. } => 4,
            SimEvent::LoggerRotation { .. } => 5,
            SimEvent::DestageStart { .. } => 6,
            SimEvent::DestageEnd { .. } => 7,
            SimEvent::LoggingDeactivated => 8,
            SimEvent::LoggingReactivated => 9,
            SimEvent::ReadMissSpinUp { .. } => 10,
            SimEvent::ReadRedirected { .. } => 11,
            SimEvent::DiskFailed { .. } => 12,
            SimEvent::FaultScheduled { .. } => 13,
            SimEvent::IoTimeout { .. } => 14,
            SimEvent::IoRetry { .. } => 15,
            SimEvent::IoLost { .. } => 16,
            SimEvent::MediaError { .. } => 17,
            SimEvent::RebuildStarted { .. } => 18,
            SimEvent::RebuildCompleted { .. } => 19,
            SimEvent::SegmentAllocated { .. } => 20,
            SimEvent::SegmentSealed { .. } => 21,
            SimEvent::SegmentCompacted { .. } => 22,
            SimEvent::SegmentArchived { .. } => 23,
            SimEvent::ArchiveFrameRetired { .. } => 24,
            SimEvent::CompactionStart { .. } => 25,
            SimEvent::CompactionEnd { .. } => 26,
            SimEvent::ReplayStarted { .. } => 27,
            SimEvent::TornRecordDetected { .. } => 28,
            SimEvent::ReplayCompleted { .. } => 29,
            SimEvent::CorruptionInjected { .. } => 30,
            SimEvent::ShockInjected { .. } => 31,
            SimEvent::ScrubStart { .. } => 32,
            SimEvent::ScrubRepair { .. } => 33,
            SimEvent::ScrubComplete { .. } => 34,
            SimEvent::ExtentLost { .. } => 35,
            SimEvent::SloBurnWarning(_) => 36,
            SimEvent::SloBreach(_) => 37,
            SimEvent::TraceEnded => 38,
        }
    }

    /// Short stable name of the variant, for per-kind summaries.
    pub fn kind_name(&self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }

    /// The physical disk this event concerns, if it names one (for
    /// redirects, the disk the I/O was originally addressed to). Used by
    /// `inspect dump --check` to validate per-disk timestamp monotonicity.
    pub fn disk(&self) -> Option<DiskId> {
        match self {
            SimEvent::RequestDispatch { disk, .. }
            | SimEvent::DiskInit { disk, .. }
            | SimEvent::DiskState { disk, .. }
            | SimEvent::ReadMissSpinUp { disk }
            | SimEvent::DiskFailed { disk, .. }
            | SimEvent::FaultScheduled { disk, .. } => Some(*disk),
            SimEvent::ReadRedirected { from, .. } => Some(*from),
            SimEvent::RebuildStarted { slot, .. } | SimEvent::RebuildCompleted { slot, .. } => {
                Some(*slot)
            }
            SimEvent::SegmentAllocated { disk, .. }
            | SimEvent::SegmentSealed { disk, .. }
            | SimEvent::SegmentCompacted { disk, .. }
            | SimEvent::SegmentArchived { disk, .. }
            | SimEvent::ArchiveFrameRetired { disk, .. }
            | SimEvent::ReplayStarted { disk }
            | SimEvent::TornRecordDetected { disk, .. }
            | SimEvent::ReplayCompleted { disk, .. }
            | SimEvent::CorruptionInjected { disk, .. }
            | SimEvent::ScrubStart { disk, .. }
            | SimEvent::ScrubRepair { disk, .. }
            | SimEvent::ScrubComplete { disk, .. }
            | SimEvent::ExtentLost { disk, .. } => Some(*disk),
            _ => None,
        }
    }
}

/// A [`SimEvent`] paired with the simulated time it was recorded at.
///
/// This is the unit stored by sinks and the shape of one JSONL line in
/// `inspect dump` output: `{"at":<micros>,"event":{...}}`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TracedEvent {
    /// Simulated timestamp of the event.
    pub at: SimTime,
    /// The event payload.
    pub event: SimEvent,
}

// A ring sink holds a buffer of these (DESIGN.md §9.2).
const _: () = assert!(std::mem::size_of::<TracedEvent>() <= 48);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_externally_tagged() {
        let ev = TracedEvent {
            at: SimTime::from_micros(42),
            event: SimEvent::DiskState {
                disk: 3,
                from: PowerState::Idle,
                to: PowerState::Standby,
            },
        };
        let json = serde_json::to_string(&ev).unwrap();
        let v = serde_json::from_str(&json).unwrap();
        assert_eq!(v["at"].as_u64(), Some(42));
        assert_eq!(v["event"]["DiskState"]["disk"].as_u64(), Some(3));
        assert_eq!(v["event"]["DiskState"]["from"].as_str(), Some("Idle"));

        let unit = serde_json::to_string(&SimEvent::TraceEnded).unwrap();
        assert_eq!(unit, "\"TraceEnded\"");

        // A boxed payload serializes as the struct variant it replaced.
        let breach = SimEvent::SloBreach(Box::new(SloBreach {
            slo: "latency_p95".into(),
            window: 3,
            observed_x1000: 7,
            target_x1000: 5,
        }));
        assert_eq!(
            serde_json::to_string(&breach).unwrap(),
            r#"{"SloBreach":{"slo":"latency_p95","window":3,"observed_x1000":7,"target_x1000":5}}"#
        );
    }

    #[test]
    fn kind_names_match_variants() {
        assert_eq!(
            SimEvent::RequestArrive {
                id: 0,
                kind: ReqKind::Read,
                offset: 0,
                bytes: 0
            }
            .kind_name(),
            "RequestArrive"
        );
        assert_eq!(SimEvent::TraceEnded.kind_name(), "TraceEnded");
        assert_eq!(SimEvent::IoLost { io: 0 }.kind_name(), "IoLost");
    }

    #[test]
    fn kind_names_are_distinct() {
        let mut names = SimEvent::KIND_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_EVENT_KINDS);
    }
}
