//! Rebuild simulation for disk failures (§III-C, quantified).
//!
//! [`recovery_plan`](crate::recovery::recovery_plan) says *which* disks
//! participate in a recovery; this module simulates the rebuild itself on
//! the disk substrate to quantify what the plan costs: the spin-up delay
//! of awakened disks, the copy time of regenerating the failed disk's
//! contents onto a replacement, and the energy consumed — per scheme and
//! failed role.
//!
//! The rebuild engine is policy-independent: it takes a recovery plan,
//! builds the disks in their pre-failure power states, spins up the
//! `wake` set, then streams the data region from the source disks to the
//! replacement in large sequential chunks (round-robin across sources
//! when more than one holds needed content, as when a RoLo primary's
//! recent writes live across several past loggers).
//!
//! This module is the *offline* engine (isolated disks, no foreground
//! traffic). Rebuilds running inside a live trace replay go through
//! [`SimCtx::begin_rebuild`](crate::ctx::SimCtx), where — with span
//! tracing on — each rebuild opens a `BgSpan` over its source and
//! replacement slots, and foreground legs it delays record the causal
//! link (DESIGN.md §9.1).

use crate::config::{Scheme, SimConfig};
use crate::recovery::RecoveryPlan;
use rolo_disk::{Disk, DiskWake, IoKind, PowerState, Priority};
use rolo_obs::{NullSink, SimEvent, TraceSink};
use rolo_sim::{CalendarQueue, Duration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Outcome of one simulated rebuild.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebuildReport {
    /// Scheme the plan came from.
    pub scheme: String,
    /// Total wall time from failure to fully rebuilt replacement.
    pub duration: Duration,
    /// Energy consumed by every participating disk over that window (J).
    pub energy_j: f64,
    /// Disks that had to spin up.
    pub disks_awakened: usize,
    /// Disks used in total (including already-active ones).
    pub disks_involved: usize,
    /// Bytes copied onto the replacement.
    pub bytes_rebuilt: u64,
}

/// Chunk size used for rebuild streaming.
const REBUILD_CHUNK: u64 = 1 << 20;

/// Simulates rebuilding a failed disk according to `plan`.
///
/// `standby` marks which disks were spun down at failure time (the
/// scheme's steady state). The replacement disk starts spun up (a fresh
/// drive). Source reads round-robin across `plan.wake ∪ plan.silent`;
/// each chunk is read from a source and written to the replacement.
///
/// # Panics
///
/// Panics if the plan has no source disks.
pub fn simulate_rebuild(
    cfg: &SimConfig,
    plan: &RecoveryPlan,
    standby: &[bool],
    rebuild_bytes: u64,
) -> RebuildReport {
    simulate_rebuild_traced(cfg, plan, standby, rebuild_bytes, &mut NullSink)
}

/// Like [`simulate_rebuild`], but emits [`SimEvent`]s (rebuild start and
/// completion, per-chunk dispatches, disk state transitions) into `sink`
/// so the offline rebuild engine is observable with the same taxonomy as
/// the live driver.
pub fn simulate_rebuild_traced(
    cfg: &SimConfig,
    plan: &RecoveryPlan,
    standby: &[bool],
    rebuild_bytes: u64,
    sink: &mut dyn TraceSink,
) -> RebuildReport {
    let sources: Vec<usize> = plan
        .wake
        .iter()
        .chain(plan.silent.iter())
        .copied()
        .collect();
    assert!(!sources.is_empty(), "recovery plan has no sources");
    let rng = SimRng::seed_from(cfg.seed ^ 0xfa11);

    // Participating disks: sources + the replacement (modelled as a fresh
    // disk reusing the failed disk's id slot).
    let mut disks: Vec<Disk> = Vec::new();
    for &d in &sources {
        let state = if standby.get(d).copied().unwrap_or(false) {
            PowerState::Standby
        } else {
            PowerState::Idle
        };
        disks.push(Disk::with_initial_state(
            d,
            cfg.disk.clone(),
            rng.fork(&format!("rebuild-src-{d}")),
            state,
        ));
    }
    let replacement_idx = disks.len();
    disks.push(Disk::with_initial_state(
        plan.failed,
        cfg.disk.clone(),
        rng.fork("rebuild-replacement"),
        PowerState::Idle,
    ));

    #[derive(Clone, Copy)]
    enum Ev {
        Io(usize),
        SpinUp(usize),
        SpinDown(usize),
        BgRetry(usize),
    }

    let mut queue: CalendarQueue<Ev> = CalendarQueue::new();
    let mut offset = 0u64;
    let mut src_cursor = 0usize;
    let mut copied = 0u64;
    // Maps an engine index to the real array slot, for trace events.
    let slot_of = |idx: usize| -> usize {
        if idx < sources.len() {
            sources[idx]
        } else {
            plan.failed
        }
    };
    let submit = |disks: &mut Vec<Disk>,
                  queue: &mut CalendarQueue<Ev>,
                  sink: &mut dyn TraceSink,
                  idx: usize,
                  kind: IoKind,
                  off: u64,
                  len: u64,
                  now: SimTime| {
        let before = disks[idx].power_state();
        if let Some(w) = disks[idx].submit(
            rolo_disk::DiskRequest::new(0, kind, off, len, Priority::Foreground),
            now,
        ) {
            let ev = match w {
                DiskWake::Io(_) => Ev::Io(idx),
                DiskWake::SpinUp(_) => Ev::SpinUp(idx),
                DiskWake::SpinDown(_) => Ev::SpinDown(idx),
                DiskWake::BgRetry(_) => Ev::BgRetry(idx),
            };
            queue.schedule(w.due(), ev);
        }
        if sink.enabled() {
            let disk = slot_of(idx);
            let after = disks[idx].power_state();
            if after != before {
                sink.record(
                    now,
                    SimEvent::DiskState {
                        disk,
                        from: before,
                        to: after,
                    },
                );
            }
            sink.record(
                now,
                SimEvent::RequestDispatch {
                    io: 0,
                    disk,
                    kind,
                    offset: off,
                    bytes: len,
                    background: true,
                },
            );
        }
    };
    if sink.enabled() {
        sink.record(
            SimTime::ZERO,
            SimEvent::RebuildStarted {
                slot: plan.failed,
                bytes: rebuild_bytes,
            },
        );
    }

    // Kick off: first chunk read from the first source (spins it up if
    // needed — the spin-up cost is part of the §III-C story).
    let len = REBUILD_CHUNK.min(rebuild_bytes.max(1));
    submit(
        &mut disks,
        &mut queue,
        sink,
        0,
        IoKind::Read,
        0,
        len,
        SimTime::ZERO,
    );
    let mut awaiting_write = false;
    let mut pending_len = len;

    let mut now = SimTime::ZERO;
    while let Some(ev) = queue.pop() {
        now = ev.time;
        match ev.payload {
            Ev::Io(idx) => {
                let out = disks[idx].on_io_complete(now);
                if let Some(w) = out.next {
                    let evn = match w {
                        DiskWake::Io(_) => Ev::Io(idx),
                        DiskWake::SpinUp(_) => Ev::SpinUp(idx),
                        DiskWake::SpinDown(_) => Ev::SpinDown(idx),
                        DiskWake::BgRetry(_) => Ev::BgRetry(idx),
                    };
                    queue.schedule(w.due(), evn);
                }
                if idx == replacement_idx {
                    // Chunk landed on the replacement: next chunk.
                    copied += out.completed.bytes;
                    awaiting_write = false;
                    offset += out.completed.bytes;
                    if offset < rebuild_bytes {
                        src_cursor = (src_cursor + 1) % sources.len();
                        let len = REBUILD_CHUNK.min(rebuild_bytes - offset);
                        pending_len = len;
                        submit(
                            &mut disks,
                            &mut queue,
                            sink,
                            src_cursor,
                            IoKind::Read,
                            offset,
                            len,
                            now,
                        );
                    }
                } else if !awaiting_write {
                    // Source read done: write the chunk to the replacement.
                    awaiting_write = true;
                    submit(
                        &mut disks,
                        &mut queue,
                        sink,
                        replacement_idx,
                        IoKind::Write,
                        offset,
                        pending_len,
                        now,
                    );
                }
            }
            Ev::SpinUp(idx) => {
                let before = disks[idx].power_state();
                if let Some(w) = disks[idx].on_spin_up_complete(now) {
                    let evn = match w {
                        DiskWake::Io(_) => Ev::Io(idx),
                        DiskWake::SpinUp(_) => Ev::SpinUp(idx),
                        DiskWake::SpinDown(_) => Ev::SpinDown(idx),
                        DiskWake::BgRetry(_) => Ev::BgRetry(idx),
                    };
                    queue.schedule(w.due(), evn);
                }
                let after = disks[idx].power_state();
                if sink.enabled() && after != before {
                    sink.record(
                        now,
                        SimEvent::DiskState {
                            disk: slot_of(idx),
                            from: before,
                            to: after,
                        },
                    );
                }
            }
            Ev::SpinDown(idx) => {
                if let Some(DiskWake::SpinUp(t)) = disks[idx].on_spin_down_complete(now) {
                    queue.schedule(t, Ev::SpinUp(idx));
                }
            }
            Ev::BgRetry(idx) => {
                if let Some(DiskWake::Io(t)) = disks[idx].on_bg_retry(now) {
                    queue.schedule(t, Ev::Io(idx));
                }
            }
        }
        if copied >= rebuild_bytes {
            break;
        }
    }

    if sink.enabled() {
        sink.record(
            now,
            SimEvent::RebuildCompleted {
                slot: plan.failed,
                duration_us: now.since(SimTime::ZERO).as_micros(),
            },
        );
    }
    let energy: f64 = disks
        .iter()
        .map(|d| d.energy_report(now).total_joules)
        .sum();
    RebuildReport {
        scheme: String::new(),
        duration: now.since(SimTime::ZERO),
        energy_j: energy,
        disks_awakened: plan.wake.len(),
        disks_involved: plan.disks_involved(),
        bytes_rebuilt: copied,
    }
}

/// Convenience: plan + rebuild for a primary-disk failure under `scheme`
/// with `recent_loggers` holding log copies (RoLo-P/R only).
pub fn rebuild_primary_failure(
    cfg: &SimConfig,
    scheme: Scheme,
    recent_loggers: &[usize],
) -> RebuildReport {
    let geometry = cfg.geometry().expect("valid geometry");
    // Default the on-duty logger to a pair other than the failed disk's,
    // so the failure exercises the representative off-duty path.
    let logger_pair = recent_loggers.last().copied().unwrap_or(1 % cfg.pairs);
    let plan = crate::recovery::recovery_plan(scheme, &geometry, 0, logger_pair, recent_loggers);
    // Steady-state standby sets per scheme.
    let standby: Vec<bool> = (0..cfg.disk_count())
        .map(|d| match scheme {
            Scheme::Raid10 => false,
            Scheme::Graid => d >= cfg.pairs && d < 2 * cfg.pairs,
            Scheme::RoloP | Scheme::RoloR => {
                d >= cfg.pairs && d < 2 * cfg.pairs && d != cfg.pairs + logger_pair
            }
            Scheme::RoloE => d != logger_pair && d != cfg.pairs + logger_pair,
        })
        .collect();
    let mut report = simulate_rebuild(cfg, &plan, &standby, cfg.data_region());
    report.scheme = scheme.to_string();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(scheme: Scheme) -> SimConfig {
        let mut c = SimConfig::paper_default(scheme, 10);
        // Small data region keeps the rebuild quick in tests.
        c.logger_region = c.disk.capacity_bytes - (1 << 30);
        c
    }

    #[test]
    fn raid10_rebuild_needs_no_spinups() {
        let c = cfg(Scheme::Raid10);
        let r = rebuild_primary_failure(&c, Scheme::Raid10, &[]);
        assert_eq!(r.disks_awakened, 0);
        assert_eq!(r.bytes_rebuilt, c.data_region());
        // 1 GiB at ~55 MB/s with alternating read/write: tens of seconds.
        assert!(r.duration.as_secs_f64() > 10.0 && r.duration.as_secs_f64() < 300.0);
    }

    #[test]
    fn rolo_p_rebuild_wakes_fewer_than_graid() {
        let c = cfg(Scheme::RoloP);
        let rolo = rebuild_primary_failure(&c, Scheme::RoloP, &[3, 4, 5]);
        let graid = rebuild_primary_failure(&cfg(Scheme::Graid), Scheme::Graid, &[]);
        assert!(rolo.disks_awakened < graid.disks_awakened);
        assert!(
            rolo.energy_j < graid.energy_j,
            "RoLo {:.0} J !< GRAID {:.0} J",
            rolo.energy_j,
            graid.energy_j
        );
    }

    #[test]
    fn spinup_latency_shows_in_duration() {
        // A rebuild whose sources are all standby must include the 10.9 s
        // spin-up in its wall time.
        let c = cfg(Scheme::RoloE);
        let r = rebuild_primary_failure(&c, Scheme::RoloE, &[5]);
        assert!(r.duration.as_secs_f64() > 10.9);
    }

    #[test]
    fn copies_every_byte_exactly_once() {
        let mut c = cfg(Scheme::Raid10);
        c.logger_region = c.disk.capacity_bytes - (64 << 20);
        let r = rebuild_primary_failure(&c, Scheme::Raid10, &[]);
        assert_eq!(r.bytes_rebuilt, c.data_region());
    }
}
