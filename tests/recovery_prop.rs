//! Property tests of the §III-C recovery planner and of
//! recovery-by-replay (DESIGN.md §10): for every scheme, array width
//! and live-state shape, the plan must be well-formed — disjoint
//! wake/silent sets, no self-recovery, never more participants than
//! the array holds — and killing a journal-bearing disk at a
//! randomized crash point must trigger a replay whose reconstructed
//! dirty maps match the controller's state exactly.

use proptest::prelude::*;
use rolo::core::{recovery_plan, Scheme, SimConfig};
use rolo::obs::{RingSink, SimEvent};
use rolo::raid::ArrayGeometry;
use rolo::sim::Duration;
use rolo::trace::SyntheticConfig;

fn check_plan(
    scheme: Scheme,
    pairs: usize,
    failed: usize,
    logger_pair: usize,
    recent: &[usize],
) -> Result<(), TestCaseError> {
    let geo = ArrayGeometry::new(pairs, 64 * 1024, 1 << 30, 1 << 30).expect("valid geometry");
    let array = match scheme {
        Scheme::Graid => geo.disks() + 1, // dedicated log disk
        _ => geo.disks(),
    };
    let plan = recovery_plan(scheme, &geo, failed, logger_pair, recent);
    prop_assert_eq!(plan.failed, failed);
    for &d in plan.wake.iter().chain(plan.silent.iter()) {
        prop_assert!(d < array, "{scheme}: disk {d} out of range {array}");
        prop_assert!(d != failed, "{scheme}: plan recovers from the failed disk");
    }
    for &w in &plan.wake {
        prop_assert!(
            !plan.silent.contains(&w),
            "{scheme}: disk {w} both wakes and serves silently"
        );
    }
    let mut wake = plan.wake.clone();
    wake.sort_unstable();
    wake.dedup();
    prop_assert_eq!(wake.len(), plan.wake.len(), "{scheme}: duplicate wake");
    let mut silent = plan.silent.clone();
    silent.sort_unstable();
    silent.dedup();
    prop_assert_eq!(
        silent.len(),
        plan.silent.len(),
        "{scheme}: duplicate silent"
    );
    prop_assert!(
        plan.disks_involved() < array,
        "{scheme}: {} participants in a {array}-disk array (failed disk excluded)",
        plan.disks_involved()
    );
    prop_assert!(
        plan.disks_involved() >= 1 || plan.redundancy_only,
        "{scheme}: data-losing failure with an empty recovery set"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 0,
    })]

    #[test]
    fn recovery_plans_are_well_formed(
        pairs in 2usize..20,
        failed_frac in 0u64..1000,
        logger_frac in 0u64..1000,
        recent_a in 0u64..1000,
        recent_b in 0u64..1000,
        scheme_idx in 0usize..5,
    ) {
        let scheme = Scheme::all()[scheme_idx];
        // GRAID's log disk is a valid failure target past the mirrors.
        let disks = match scheme {
            Scheme::Graid => 2 * pairs + 1,
            _ => 2 * pairs,
        };
        let failed = (failed_frac as usize * disks / 1000).min(disks - 1);
        let logger_pair = (logger_frac as usize * pairs / 1000).min(pairs - 1);
        let recent = [
            (recent_a as usize * pairs / 1000).min(pairs - 1),
            (recent_b as usize * pairs / 1000).min(pairs - 1),
        ];
        check_plan(scheme, pairs, failed, logger_pair, &recent)?;
    }

    #[test]
    fn recovery_plans_cover_every_disk_exhaustively(
        pairs in 2usize..8,
        logger_pair_seed in 0u64..1000,
    ) {
        // Sweep every failure target (not just sampled ones) so corner
        // slots — pair 0, the last mirror, GRAID's log disk — are hit on
        // every run.
        for scheme in Scheme::all() {
            let disks = match scheme {
                Scheme::Graid => 2 * pairs + 1,
                _ => 2 * pairs,
            };
            let logger_pair = (logger_pair_seed as usize * pairs / 1000).min(pairs - 1);
            for failed in 0..disks {
                check_plan(scheme, pairs, failed, logger_pair, &[logger_pair])?;
            }
        }
    }
}

proptest! {
    // Each case is a full trace-driven simulation: keep the sample
    // small; the `log_recovery` smoke bin sweeps the dense crash matrix.
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 0,
    })]

    /// Randomized crash-point replay: kill a journal-bearing disk at a
    /// random instant under a write-heavy load and require (a) a replay
    /// pass ran and (b) it reconstructed every covered pair's dirty map
    /// byte-identically to the controller's NVRAM state
    /// (`policy.replay_divergence == 0`).
    ///
    /// The in-run comparison is transitively a comparison against the
    /// uncrashed reference: the fault injector's pinned failure at time
    /// T perturbs nothing before T (the event stream up to T is
    /// byte-identical with and without the fault scheduled), so the
    /// controller's pre-crash dirty maps — which the replayed maps must
    /// equal — are exactly the uncrashed run's maps at T.
    #[test]
    fn crash_point_replay_reconstructs_dirty_maps(
        scheme_idx in 0usize..4,
        disk_seed in 0usize..1000,
        crash_secs in 60u64..300,
        trace_seed in 0u64..1000,
    ) {
        let scheme = [Scheme::RoloP, Scheme::RoloR, Scheme::RoloE, Scheme::Graid][scheme_idx];
        let pairs = 4usize;
        let mut cfg = SimConfig::paper_default(scheme, pairs);
        cfg.disk.capacity_bytes = 256 << 20;
        cfg.logger_region = 32 << 20;
        cfg.graid_log_capacity = 64 << 20;
        // A journal-bearing slot: RoLo-P journals its mirrors, RoLo-R
        // and RoLo-E every mirrored disk, GRAID only the log disk.
        let disk = match scheme {
            Scheme::RoloP => pairs + disk_seed % pairs,
            Scheme::RoloR | Scheme::RoloE => disk_seed % (2 * pairs),
            _ => 2 * pairs,
        };
        cfg.faults.disk_failures = vec![(disk, Duration::from_secs(crash_secs))];
        let dur = Duration::from_secs(400);
        let wl = SyntheticConfig::motivation_write_only(40.0);
        let report = rolo::core::run_scheme(&cfg, wl.generator(dur, trace_seed), dur);
        report
            .consistency
            .as_ref()
            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
        prop_assert_eq!(report.faults.disk_failures, 1, "{}: fault never fired", scheme);
        prop_assert!(
            report.policy.log_replays >= 1,
            "{scheme}: killing journal disk {disk} ran no replay"
        );
        prop_assert_eq!(
            report.policy.replay_divergence, 0,
            "{}: replayed dirty maps diverged from the controller's", scheme
        );
    }
}

/// The crash-matrix config shared by the lifecycle-targeted crashes.
fn crash_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, 4);
    cfg.disk.capacity_bytes = 256 << 20;
    cfg.logger_region = 32 << 20;
    cfg.graid_log_capacity = 64 << 20;
    cfg
}

/// Probes an uncrashed run of `scheme` and returns the
/// `(micros, disk)` instants of every segment compaction and archival
/// inside the crashable window. The fault injector's pinned failure
/// perturbs nothing before it fires, so these instants land at exactly
/// the same journal state in the crashed run.
type Instants = Vec<(u64, usize)>;

fn lifecycle_instants(scheme: Scheme, trace_seed: u64) -> (Instants, Instants) {
    let cfg = crash_cfg(scheme);
    let dur = Duration::from_secs(400);
    let wl = SyntheticConfig::motivation_write_only(40.0);
    let (report, mut obs) = rolo::core::run_scheme_observed(
        &cfg,
        wl.generator(dur, trace_seed),
        dur,
        Box::new(RingSink::new(1 << 21)),
        false,
    );
    report.consistency.as_ref().expect("probe run consistent");
    let mut compacted = Vec::new();
    let mut archived = Vec::new();
    for ev in obs.sink.drain() {
        let at = ev.at.as_micros();
        if !(30_000_000..=350_000_000).contains(&at) {
            continue;
        }
        match ev.event {
            SimEvent::SegmentCompacted { disk, .. } => compacted.push((at, disk)),
            SimEvent::SegmentArchived { disk, .. } => archived.push((at, disk)),
            _ => {}
        }
    }
    (compacted, archived)
}

/// Runs the crash at `(micros ± jitter, disk)` and requires a clean
/// replay: the fault fired, a replay pass ran, and the reconstructed
/// dirty maps match the controller's byte-for-byte.
fn crash_at(
    scheme: Scheme,
    at_micros: u64,
    disk: usize,
    jitter_us: u64,
    trace_seed: u64,
) -> Result<(), TestCaseError> {
    // Jitter straddles the instant: half the draws land just before
    // (mid-operation), half just after (freshly mutated journal state).
    let crash = at_micros
        .saturating_add(jitter_us)
        .saturating_sub(100_000)
        .max(30_000_000);
    let mut cfg = crash_cfg(scheme);
    cfg.faults.disk_failures = vec![(disk, Duration::from_micros(crash))];
    let dur = Duration::from_secs(400);
    let wl = SyntheticConfig::motivation_write_only(40.0);
    let report = rolo::core::run_scheme(&cfg, wl.generator(dur, trace_seed), dur);
    report
        .consistency
        .as_ref()
        .unwrap_or_else(|e| panic!("{scheme}: {e}"));
    prop_assert_eq!(
        report.faults.disk_failures,
        1,
        "{}: fault never fired",
        scheme
    );
    prop_assert!(
        report.policy.log_replays >= 1,
        "{scheme}: killing journal disk {disk} at {crash}us ran no replay"
    );
    prop_assert_eq!(
        report.policy.replay_divergence,
        0,
        "{}: replayed dirty maps diverged after a mid-lifecycle crash",
        scheme
    );
    Ok(())
}

proptest! {
    // Each case probes one uncrashed run, then replays it with the
    // crash pinned to a lifecycle instant: two full simulations.
    #![proptest_config(ProptestConfig {
        cases: 4,
        max_shrink_iters: 0,
    })]

    /// Mid-compaction crash: kill the journal disk at (or ±100 ms
    /// around) a segment-compaction instant, when relocated records
    /// have just re-committed and their sources are superseded — the
    /// replay must still reconstruct the dirty maps exactly. RoLo-E
    /// never compacts under this workload, so the sweep covers the two
    /// flavors that do.
    #[test]
    fn crash_mid_compaction_replays_exactly(
        scheme_idx in 0usize..2,
        pick in 0usize..1000,
        jitter_us in 0u64..200_000,
        trace_seed in 0u64..4,
    ) {
        let scheme = [Scheme::RoloP, Scheme::RoloR][scheme_idx];
        let (compacted, _) = lifecycle_instants(scheme, trace_seed);
        prop_assert!(
            !compacted.is_empty(),
            "{scheme}: probe run never compacted — the crash point is untestable"
        );
        let (at, disk) = compacted[pick % compacted.len()];
        crash_at(scheme, at, disk, jitter_us, trace_seed)?;
    }

    /// Mid-archival crash: kill the journal disk at (or ±100 ms around)
    /// a segment-archival instant, when a sealed segment has just moved
    /// to an archive frame pending TTL retirement.
    #[test]
    fn crash_mid_archival_replays_exactly(
        scheme_idx in 0usize..3,
        pick in 0usize..1000,
        jitter_us in 0u64..200_000,
        trace_seed in 0u64..4,
    ) {
        let scheme = [Scheme::RoloP, Scheme::RoloR, Scheme::RoloE][scheme_idx];
        let (_, archived) = lifecycle_instants(scheme, trace_seed);
        prop_assert!(
            !archived.is_empty(),
            "{scheme}: probe run never archived — the crash point is untestable"
        );
        let (at, disk) = archived[pick % archived.len()];
        crash_at(scheme, at, disk, jitter_us, trace_seed)?;
    }
}
