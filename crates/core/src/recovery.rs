//! Disk-failure recovery (§III-C): who takes part, and what the
//! rebuild costs.
//!
//! When a disk fails, only the disks *essential for data recovery* are
//! spun up; disks that are already active are used "silently". The sets
//! differ per scheme, and their sizes are what §IV's reliability
//! comparison turns on:
//!
//! * **RAID10** — the failed disk's partner is already active: nothing
//!   spins up.
//! * **GRAID** — a failed mirror is rebuilt from its (active) primary;
//!   a failed primary requires *all* mirrored disks to spin up (the
//!   mirror is stale and the log disk's copies span every pair's recent
//!   writes, so the paper's analysis charges the full set); a failed log
//!   disk loses no data (second copies only).
//! * **RoLo-P/R** — a failed mirror (on- or off-duty) is rebuilt from
//!   its always-active primary; a failed primary wakes its own mirror
//!   plus only the mirrors that served as on-duty loggers during the
//!   last few logging periods (they hold the primary's recent second
//!   copies).
//! * **RoLo-E** — the failed disk's pair partner holds everything needed:
//!   it spins up unless it belongs to the active logger pair.
//!
//! [`recovery_plan`] computes those sets. [`rebuild_primary_failure`]
//! puts a time and an energy cost on one of them: it drills a primary
//! failure on an idle array through the same driver and in-run rebuild
//! engine ([`SimCtx::begin_rebuild`]) that every fault run uses.
//!
//! **Ordering with recovery-by-replay (DESIGN.md §10).** When the
//! failed disk carried a segment journal, the controller first runs
//! [`replay_journals`](crate::segment::replay_journals) over the
//! surviving chains to reconstruct (and cross-check) the dirty maps,
//! and only then executes this plan: the destage and rebuild the plan
//! triggers consume the *replayed* maps, so the §III-C wake set is
//! computed against state that is provably consistent with what the
//! surviving logs contain.

use crate::config::{Scheme, SimConfig};
use crate::ctx::SimCtx;
use crate::driver::run_trace_observed;
use crate::faults::FaultPlan;
use crate::policy::{Policy, PolicyStats};
use rolo_disk::{DiskId, DiskRequest};
use rolo_obs::NullSink;
use rolo_raid::{ArrayGeometry, DiskRole};
use rolo_sim::Duration;
use rolo_trace::TraceRecord;

/// The set of disks involved in recovering from one disk failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The failed disk.
    pub failed: DiskId,
    /// Standby disks that must spin up for the recovery.
    pub wake: Vec<DiskId>,
    /// Already-active disks used silently.
    pub silent: Vec<DiskId>,
    /// True if the failure loses no user data even before recovery
    /// (e.g. a GRAID log-disk failure: only second copies are lost).
    pub redundancy_only: bool,
}

impl RecoveryPlan {
    /// Total disks participating in the recovery.
    pub fn disks_involved(&self) -> usize {
        self.wake.len() + self.silent.len()
    }
}

/// Computes the §III-C recovery plan for `failed` under `scheme`.
///
/// `logger_pair` is the current on-duty logger pair (ignored for RAID10
/// and GRAID); `recent_loggers` lists the pairs that served as loggers
/// over the periods whose log copies have not yet been reclaimed —
/// exactly the mirrors holding a failed primary's recent second copies.
///
/// # Panics
///
/// Panics if `failed` is out of range for the scheme's disk count
/// (GRAID has `2 × pairs + 1` disks, the rest `2 × pairs`).
pub fn recovery_plan(
    scheme: Scheme,
    geometry: &ArrayGeometry,
    failed: DiskId,
    logger_pair: usize,
    recent_loggers: &[usize],
) -> RecoveryPlan {
    let pairs = geometry.pairs();
    let graid_log_disk = geometry.disks();
    let max_disk = match scheme {
        Scheme::Graid => graid_log_disk + 1,
        _ => geometry.disks(),
    };
    assert!(failed < max_disk, "disk {failed} out of range");

    // GRAID's dedicated log disk.
    if scheme == Scheme::Graid && failed == graid_log_disk {
        return RecoveryPlan {
            failed,
            wake: Vec::new(),
            silent: (0..pairs).map(|p| geometry.primary_disk(p)).collect(),
            redundancy_only: true,
        };
    }

    let (role, pair) = geometry.disk_role(failed);
    match (scheme, role) {
        (Scheme::Raid10, DiskRole::Primary) => RecoveryPlan {
            failed,
            wake: Vec::new(),
            silent: vec![geometry.mirror_disk(pair)],
            redundancy_only: false,
        },
        (Scheme::Raid10, DiskRole::Mirror) => RecoveryPlan {
            failed,
            wake: Vec::new(),
            silent: vec![geometry.primary_disk(pair)],
            redundancy_only: false,
        },
        (Scheme::Graid, DiskRole::Mirror) => RecoveryPlan {
            failed,
            wake: Vec::new(),
            silent: vec![geometry.primary_disk(pair)],
            redundancy_only: true,
        },
        (Scheme::Graid, DiskRole::Primary) => RecoveryPlan {
            failed,
            // §IV: "all the mirrored disks must be spun up for the
            // recovery of the failure of any primary disk in GRAID".
            wake: (0..pairs).map(|p| geometry.mirror_disk(p)).collect(),
            silent: vec![graid_log_disk],
            redundancy_only: false,
        },
        (Scheme::RoloP | Scheme::RoloR, DiskRole::Mirror) => {
            // On- or off-duty: the pair's primary is always active.
            RecoveryPlan {
                failed,
                wake: Vec::new(),
                silent: vec![geometry.primary_disk(pair)],
                redundancy_only: true,
            }
        }
        (Scheme::RoloP | Scheme::RoloR, DiskRole::Primary) => {
            // The pair's own mirror plus the recent on-duty loggers.
            let mut wake = vec![geometry.mirror_disk(pair)];
            for &lp in recent_loggers {
                let m = geometry.mirror_disk(lp);
                if !wake.contains(&m) {
                    wake.push(m);
                }
            }
            // For RoLo-R the logger pair's *primary* also holds log
            // copies, but primaries are active anyway — unless the
            // failed disk is that very primary, which can hardly serve
            // its own recovery.
            let mut silent = Vec::new();
            if scheme == Scheme::RoloR && geometry.primary_disk(logger_pair) != failed {
                silent.push(geometry.primary_disk(logger_pair));
            }
            // The on-duty mirror is already spinning.
            let on_duty = geometry.mirror_disk(logger_pair);
            if let Some(i) = wake.iter().position(|&d| d == on_duty) {
                wake.remove(i);
                silent.push(on_duty);
            }
            RecoveryPlan {
                failed,
                wake,
                silent,
                redundancy_only: false,
            }
        }
        (Scheme::RoloE, _) => {
            let partner = match role {
                DiskRole::Primary => geometry.mirror_disk(pair),
                DiskRole::Mirror => geometry.primary_disk(pair),
            };
            let active = pair == logger_pair;
            RecoveryPlan {
                failed,
                wake: if active { Vec::new() } else { vec![partner] },
                silent: if active { vec![partner] } else { Vec::new() },
                redundancy_only: false,
            }
        }
    }
}

/// Outcome of one rebuild drill.
#[derive(Debug, Clone, PartialEq)]
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

/// Drills a primary-disk failure under `scheme` with `recent_loggers`
/// holding log copies (RoLo-P/R only).
///
/// Disk 0 fails at time zero on an idle array whose disks sit in the
/// scheme's steady-state power states, and its replacement is rebuilt
/// over the whole data region from the §III-C plan's sources. The drill
/// runs through the driver with no trace, so the rebuild is the one
/// every fault run uses ([`SimCtx::begin_rebuild`]): several chunks in
/// flight, and every standby source spun up at once.
pub fn rebuild_primary_failure(
    cfg: &SimConfig,
    scheme: Scheme,
    recent_loggers: &[usize],
) -> RebuildReport {
    let mut cfg = cfg.clone();
    cfg.scheme = scheme;
    cfg.faults = FaultPlan::single(0, Duration::ZERO);
    let geometry = cfg.geometry().expect("valid geometry");
    // Default the on-duty logger to a pair other than the failed disk's,
    // so the failure exercises the representative off-duty path.
    let logger_pair = recent_loggers.last().copied().unwrap_or(1 % cfg.pairs);
    let plan = recovery_plan(scheme, &geometry, 0, logger_pair, recent_loggers);
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
    let drill = Drill {
        plan,
        standby,
        energy_j: 0.0,
        spin_cycles: 0,
    };
    // The failure must fall inside the replay window; the rebuild then
    // runs on through the drain.
    let (report, drill, _) = run_trace_observed(
        &cfg,
        std::iter::empty(),
        drill,
        Duration::from_micros(1),
        Box::new(NullSink),
        false,
    );
    RebuildReport {
        scheme: scheme.to_string(),
        duration: *report
            .faults
            .rebuild_durations
            .first()
            .expect("the drill's one rebuild completes"),
        energy_j: drill.energy_j,
        disks_awakened: drill.spin_cycles as usize,
        disks_involved: drill.plan.disks_involved(),
        bytes_rebuilt: report.faults.rebuild_bytes,
    }
}

/// The drill's controller: it holds the steady-state standby mask,
/// answers the one failure with the plan's rebuild, and measures the
/// participants' energy and the array's spin-ups at its end.
struct Drill {
    plan: RecoveryPlan,
    standby: Vec<bool>,
    /// Participants' energy at the failure, then over the rebuild (J).
    energy_j: f64,
    /// Array spin-ups when the rebuild completes.
    spin_cycles: u64,
}

impl Drill {
    /// Energy of `plan.wake ∪ plan.silent ∪ {failed}` so far (J).
    fn participant_energy(&self, ctx: &SimCtx) -> f64 {
        let by_disk = ctx.energy_by_disk();
        let plan = &self.plan;
        plan.wake
            .iter()
            .chain(&plan.silent)
            .chain([&plan.failed])
            .map(|&d| by_disk[d].total_joules)
            .sum()
    }
}

impl Policy for Drill {
    fn name(&self) -> &'static str {
        "rebuild-drill"
    }

    fn initial_standby(&self, disk: DiskId) -> bool {
        self.standby[disk]
    }

    fn on_user_request(&mut self, _ctx: &mut SimCtx, _user_id: u64, _rec: &TraceRecord) {
        unreachable!("the drill replays no trace");
    }

    fn on_io_complete(&mut self, _ctx: &mut SimCtx, _disk: DiskId, _req: DiskRequest) {
        unreachable!("every drill transfer belongs to the rebuild engine");
    }

    fn on_disk_failure(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        assert_eq!(disk, self.plan.failed, "the drill fails one disk");
        self.energy_j = self.participant_energy(ctx);
        let bytes = ctx.geometry().data_region();
        ctx.begin_rebuild(&self.plan, bytes);
    }

    fn on_rebuild_complete(&mut self, ctx: &mut SimCtx, _disk: DiskId) {
        self.energy_j = self.participant_energy(ctx) - self.energy_j;
        self.spin_cycles = ctx.spin_cycles();
    }

    fn begin_drain(&mut self, _ctx: &mut SimCtx) {}

    fn is_drained(&self, _ctx: &SimCtx) -> bool {
        true
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }

    fn check_consistency(&self, _ctx: &SimCtx) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> ArrayGeometry {
        ArrayGeometry::new(10, 64 * 1024, 1 << 30, 1 << 30).unwrap()
    }

    #[test]
    fn raid10_uses_partner_silently() {
        let g = geo();
        let p = recovery_plan(Scheme::Raid10, &g, 3, 0, &[]);
        assert!(p.wake.is_empty());
        assert_eq!(p.silent, vec![13]);
        let m = recovery_plan(Scheme::Raid10, &g, 13, 0, &[]);
        assert_eq!(m.silent, vec![3]);
    }

    #[test]
    fn graid_primary_failure_wakes_every_mirror() {
        let g = geo();
        let p = recovery_plan(Scheme::Graid, &g, 2, 0, &[]);
        assert_eq!(p.wake.len(), 10, "all mirrors spin up");
        assert!(!p.redundancy_only);
    }

    #[test]
    fn graid_log_disk_failure_loses_no_data() {
        let g = geo();
        let p = recovery_plan(Scheme::Graid, &g, 20, 0, &[]);
        assert!(p.redundancy_only);
        assert!(p.wake.is_empty());
    }

    #[test]
    fn rolo_p_mirror_failure_is_cheap() {
        let g = geo();
        // On-duty logger fails: its primary (active) takes over silently.
        let p = recovery_plan(Scheme::RoloP, &g, 10, 0, &[0]);
        assert!(p.wake.is_empty());
        assert_eq!(p.silent, vec![0]);
        assert!(p.redundancy_only);
    }

    #[test]
    fn rolo_p_primary_failure_wakes_recent_loggers_only() {
        let g = geo();
        // P3 fails; loggers over unreclaimed periods were pairs 5, 6, 7
        // (7 = current).
        let p = recovery_plan(Scheme::RoloP, &g, 3, 7, &[5, 6, 7]);
        // Wakes M3 + M5 + M6; M7 is the active logger (silent).
        assert_eq!(p.wake, vec![13, 15, 16]);
        assert_eq!(p.silent, vec![17]);
        assert!(p.disks_involved() < 10, "far fewer than GRAID's full set");
    }

    #[test]
    fn rolo_p_beats_graid_on_wake_count() {
        let g = geo();
        let rolo = recovery_plan(Scheme::RoloP, &g, 0, 2, &[1, 2]);
        let graid = recovery_plan(Scheme::Graid, &g, 0, 0, &[]);
        assert!(rolo.wake.len() < graid.wake.len());
    }

    #[test]
    fn rolo_r_logger_primary_counts_as_silent_copy_holder() {
        let g = geo();
        let p = recovery_plan(Scheme::RoloR, &g, 3, 7, &[7]);
        assert!(p.silent.contains(&7), "logger pair's primary is active");
        assert!(p.silent.contains(&17), "on-duty mirror is active");
    }

    #[test]
    fn rolo_e_partner_recovery() {
        let g = geo();
        // Off-duty pair: the partner must wake.
        let p = recovery_plan(Scheme::RoloE, &g, 4, 0, &[]);
        assert_eq!(p.wake, vec![14]);
        // Logger pair: the partner is already active.
        let q = recovery_plan(Scheme::RoloE, &g, 0, 0, &[]);
        assert!(q.wake.is_empty());
        assert_eq!(q.silent, vec![10]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_disk() {
        recovery_plan(Scheme::Raid10, &geo(), 20, 0, &[]);
    }

    #[test]
    fn duplicate_recent_loggers_deduped() {
        let g = geo();
        let p = recovery_plan(Scheme::RoloP, &g, 0, 5, &[3, 3, 4, 4]);
        assert_eq!(p.wake, vec![10, 13, 14]);
    }

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
        // 1 GiB at the partner's media rate: tens of seconds.
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

    #[test]
    fn drill_matches_the_controllers_rebuild() {
        // RAID10 and GRAID answer a primary failure on an idle array with
        // the drill's own plan and standby mask, so the drill must time
        // the rebuild their controllers run.
        for scheme in [Scheme::Raid10, Scheme::Graid] {
            let mut c = cfg(scheme);
            let drill = rebuild_primary_failure(&c, scheme, &[]);
            c.faults = FaultPlan::single(0, Duration::ZERO);
            let dur = Duration::from_secs(60);
            let run = crate::driver::run_scheme(&c, std::iter::empty(), dur);
            assert_eq!(run.faults.rebuild_durations, [drill.duration], "{scheme}");
            assert_eq!(run.faults.rebuild_bytes, drill.bytes_rebuilt, "{scheme}");
            assert_eq!(run.spin_cycles, drill.disks_awakened as u64, "{scheme}");
        }
        for scheme in Scheme::all() {
            let c = cfg(scheme);
            let recent = [3, 4, 5];
            let drill = rebuild_primary_failure(&c, scheme, &recent);
            let plan = recovery_plan(scheme, &c.geometry().unwrap(), 0, 5, &recent);
            assert_eq!(drill.disks_awakened, plan.wake.len(), "{scheme}");
        }
    }
}
