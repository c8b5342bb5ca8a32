//! Golden orderings from the paper's evaluation, locked down on seeded
//! synthetic traces so regressions in any controller surface as a test
//! failure rather than a silently shifted figure:
//!
//! * RoLo-P responds no slower than GRAID on a write-dominated trace
//!   (Fig. 9: decentralized destaging beats the centralized log disk);
//! * RoLo-E consumes no more energy than every other scheme (Table V);
//! * RoLo-R keeps three copies of every logged write (§III-B2): one
//!   primary in place plus two log appends, and never falls back to
//!   direct writes on an uncontended logger.

use rolo::core::{Scheme, SimConfig, SimReport};
use rolo::sim::{Duration, SimTime};
use rolo::trace::{ReqKind, SyntheticConfig, TraceRecord};

fn small_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, 4);
    cfg.logger_region = 64 << 20;
    cfg.graid_log_capacity = 96 << 20;
    cfg
}

fn run_write_only(scheme: Scheme, iops: f64, secs: u64, seed: u64) -> SimReport {
    let dur = Duration::from_secs(secs);
    let wl = SyntheticConfig::motivation_write_only(iops);
    let report = rolo::core::run_scheme(&small_cfg(scheme), wl.generator(dur, seed), dur);
    report
        .consistency
        .as_ref()
        .unwrap_or_else(|e| panic!("{scheme}: {e}"));
    assert!(report.user_requests > 0, "{scheme} served nothing");
    report
}

#[test]
fn rolo_p_responds_no_slower_than_graid() {
    let rolo_p = run_write_only(Scheme::RoloP, 50.0, 1800, 7);
    let graid = run_write_only(Scheme::Graid, 50.0, 1800, 7);
    assert!(
        rolo_p.mean_response_ms() <= graid.mean_response_ms(),
        "RoLo-P mean response {:.3} ms must not exceed GRAID's {:.3} ms",
        rolo_p.mean_response_ms(),
        graid.mean_response_ms()
    );
}

#[test]
fn rolo_e_is_cheapest_on_energy() {
    let roloe = run_write_only(Scheme::RoloE, 30.0, 1800, 11);
    for scheme in [Scheme::Raid10, Scheme::Graid, Scheme::RoloP, Scheme::RoloR] {
        let other = run_write_only(scheme, 30.0, 1800, 11);
        assert!(
            roloe.total_energy_j <= other.total_energy_j,
            "RoLo-E energy {:.0} J must not exceed {scheme}'s {:.0} J",
            roloe.total_energy_j,
            other.total_energy_j
        );
    }
}

#[test]
fn rolo_r_keeps_three_copies_of_every_logged_write() {
    // Hand-built write-only trace so the total user-written volume is
    // exact: 400 writes x 64 KiB, paced well under the array's limit.
    let bytes_per_write = 64 * 1024u64;
    let writes = 400u64;
    let records: Vec<TraceRecord> = (0..writes)
        .map(|i| {
            TraceRecord::new(
                SimTime::from_millis(i * 50),
                ReqKind::Write,
                (i * 2 * bytes_per_write) % (1 << 30),
                bytes_per_write,
            )
        })
        .collect();
    let dur = Duration::from_secs(60);
    let report = rolo::core::run_scheme(&small_cfg(Scheme::RoloR), records, dur);
    report.consistency.as_ref().expect("consistent");
    assert_eq!(report.user_requests, writes);
    assert_eq!(
        report.policy.direct_writes, 0,
        "an uncontended RoLo-R logger must log every write"
    );
    let written = writes * bytes_per_write;
    assert!(
        report.policy.log_appended_bytes >= 2 * written,
        "RoLo-R logged {} bytes for {} user bytes — fewer than two log \
         copies per write",
        report.policy.log_appended_bytes,
        written
    );
}
