//! Behavioural tests of the five controllers over the shared driver.
//!
//! Each test runs a small calibrated workload end-to-end and checks the
//! properties the paper's design hinges on: consistency after drain,
//! spin-count patterns (Table I), rotation arithmetic, copy counts, and
//! cache behaviour.

use rolo_core::{driver, RoloFlavor, RoloPolicy, Scheme, SimConfig, SimReport};
use rolo_disk::IoKind;
use rolo_obs::{RingSink, SimEvent};
use rolo_sim::Duration;
use rolo_trace::{Burstiness, ReqKind, SizeDist, SyntheticConfig, TraceRecord};

/// A small-logger configuration so tests rotate/destage quickly.
fn small_cfg(scheme: Scheme, pairs: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, pairs);
    cfg.logger_region = 64 << 20; // 64 MiB logger per disk
    cfg.graid_log_capacity = 128 << 20; // 128 MiB dedicated log
    cfg
}

fn write_workload(iops: f64) -> SyntheticConfig {
    SyntheticConfig {
        iops,
        write_ratio: 1.0,
        read_size: SizeDist::Fixed(64 * 1024),
        write_size: SizeDist::Fixed(64 * 1024),
        sequential_fraction: 0.3,
        write_footprint: 2 << 30,
        read_footprint: 2 << 30,
        read_hot_fraction: 0.5,
        hot_set_bytes: 64 << 20,
        burstiness: Burstiness::Smooth,
        batch_mean: 1.0,
        align: 4096,
    }
}

fn mixed_workload(iops: f64, write_ratio: f64, hot: f64) -> SyntheticConfig {
    SyntheticConfig {
        write_ratio,
        read_hot_fraction: hot,
        read_size: SizeDist::Fixed(32 * 1024),
        hot_set_bytes: 16 << 20,
        ..write_workload(iops)
    }
}

fn run(cfg: &SimConfig, workload: &SyntheticConfig, secs: u64, seed: u64) -> SimReport {
    let dur = Duration::from_secs(secs);
    driver::run_scheme(cfg, workload.generator(dur, seed), dur)
}

#[test]
fn raid10_runs_consistently_and_never_spins() {
    let cfg = small_cfg(Scheme::Raid10, 4);
    let r = run(&cfg, &write_workload(50.0), 120, 1);
    r.consistency.as_ref().expect("consistent");
    assert!(r.user_requests > 4000);
    assert_eq!(
        r.spin_cycles, 0,
        "RAID10 keeps every disk spinning (Table I)"
    );
    assert!(r.mean_response_ms() > 0.0);
}

#[test]
fn graid_destages_at_threshold_and_reclaims() {
    let cfg = small_cfg(Scheme::Graid, 4);
    // 50 IOPS × 64 KiB ≈ 3.2 MB/s → 128 MiB log × 80 % fills in ~32 s.
    let r = run(&cfg, &write_workload(50.0), 300, 2);
    r.consistency.as_ref().expect("consistent");
    assert!(
        r.policy.destage_cycles >= 2,
        "expected several destage cycles, got {}",
        r.policy.destage_cycles
    );
    assert!(r.policy.destaged_bytes > 0);
    // Spin cycles come in bursts of one per mirror per cycle.
    assert!(
        r.spin_cycles >= r.policy.destage_cycles * cfg.pairs as u64 / 2,
        "mirrors spin per destage cycle: {} cycles, {} spins",
        r.policy.destage_cycles,
        r.spin_cycles
    );
    // The destaging phase exists and consumed wall time.
    assert!(r.destaging_interval_ratio > 0.0);
}

#[test]
fn rolo_p_rotates_proportionally_to_volume() {
    let cfg = small_cfg(Scheme::RoloP, 4);
    let wl = write_workload(50.0);
    let secs = 300;
    let r = run(&cfg, &wl, secs, 3);
    r.consistency.as_ref().expect("consistent");
    // Volume ≈ 3.2 MB/s × 300 s ≈ 960 MiB; logger 64 MiB → ~15 rotations.
    let volume = 50.0 * 64.0 * 1024.0 * secs as f64;
    let expected = volume / (64u64 << 20) as f64;
    let got = r.policy.rotations as f64;
    assert!(
        got > expected * 0.6 && got < expected * 1.6,
        "rotations {got} vs expected ~{expected}"
    );
    assert!(r.policy.log_appended_bytes > 0);
    assert!(r.policy.destaged_bytes > 0);
}

#[test]
fn rolo_p_spins_an_order_of_magnitude_less_than_graid() {
    // Table I's key contrast: per logging cycle GRAID spins *all* mirrors
    // while RoLo-P spins only the next on-duty logger.
    let wl = write_workload(40.0);
    let g = run(&small_cfg(Scheme::Graid, 5), &wl, 400, 4);
    let p = run(&small_cfg(Scheme::RoloP, 5), &wl, 400, 4);
    g.consistency.as_ref().expect("graid consistent");
    p.consistency.as_ref().expect("rolo consistent");
    assert!(g.spin_cycles > 0 && p.spin_cycles > 0);
    // Normalise by work done (cycles vs rotations are both per-volume).
    let graid_spins_per_cycle = g.spin_cycles as f64 / g.policy.destage_cycles.max(1) as f64;
    let rolo_spins_per_rotation = p.spin_cycles as f64 / p.policy.rotations.max(1) as f64;
    assert!(
        graid_spins_per_cycle > 3.0 * rolo_spins_per_rotation,
        "GRAID {graid_spins_per_cycle} spins/cycle vs RoLo {rolo_spins_per_rotation} per rotation"
    );
}

#[test]
fn rolo_r_writes_three_copies() {
    let cfg_r = small_cfg(Scheme::RoloR, 4);
    let cfg_p = small_cfg(Scheme::RoloP, 4);
    let wl = write_workload(30.0);
    let r = run(&cfg_r, &wl, 120, 5);
    let p = run(&cfg_p, &wl, 120, 5);
    r.consistency.as_ref().expect("consistent");
    // RoLo-R logs each write twice: about 2× the appended bytes.
    let ratio = r.policy.log_appended_bytes as f64 / p.policy.log_appended_bytes as f64;
    assert!(
        (ratio - 2.0).abs() < 0.4,
        "RoLo-R/RoLo-P appended ratio {ratio}"
    );
    // And its mean response time is no better.
    assert!(r.mean_response_ms() >= p.mean_response_ms() * 0.95);
}

#[test]
fn rolo_e_cache_hit_rate_tracks_read_locality() {
    let mut cfg = small_cfg(Scheme::RoloE, 4);
    cfg.logger_region = 512 << 20; // rotations wipe the cache; keep them rare
    let wl = mixed_workload(20.0, 0.4, 0.9);
    let r = run(&cfg, &wl, 400, 6);
    r.consistency.as_ref().expect("consistent");
    let hit = r.policy.cache_hit_rate();
    assert!(
        hit > 0.6,
        "hot-set reads should mostly hit after warmup, hit rate {hit}"
    );
    assert!(r.policy.cache_misses > 0);
}

#[test]
fn rolo_e_spins_far_more_than_rolo_p_under_read_misses() {
    // Table I: RoLo-E's spin count dwarfs RoLo-P's when read misses force
    // spun-down primaries awake.
    let wl = mixed_workload(20.0, 0.9, 0.2); // many cold reads
    let e = run(&small_cfg(Scheme::RoloE, 4), &wl, 300, 7);
    let p = run(&small_cfg(Scheme::RoloP, 4), &wl, 300, 7);
    e.consistency.as_ref().expect("consistent");
    assert!(e.policy.read_miss_spinups > 0);
    assert!(
        e.spin_cycles > 3 * p.spin_cycles.max(1),
        "RoLo-E {} vs RoLo-P {}",
        e.spin_cycles,
        p.spin_cycles
    );
}

#[test]
fn energy_ordering_matches_fig10_on_bursty_writes() {
    // Bursty, write-dominated workload (the src2_2 shape).
    let wl = SyntheticConfig {
        burstiness: Burstiness::Bursty {
            on_fraction: 0.1,
            mean_on_secs: 20.0,
        },
        ..write_workload(20.0)
    };
    let secs = 600;
    let raid10 = run(&small_cfg(Scheme::Raid10, 4), &wl, secs, 8);
    let graid = run(&small_cfg(Scheme::Graid, 4), &wl, secs, 8);
    let rolo_p = run(&small_cfg(Scheme::RoloP, 4), &wl, secs, 8);
    let rolo_e = run(&small_cfg(Scheme::RoloE, 4), &wl, secs, 8);
    for r in [&raid10, &graid, &rolo_p, &rolo_e] {
        r.consistency.as_ref().expect("consistent");
    }
    assert!(
        rolo_e.total_energy_j < rolo_p.total_energy_j,
        "RoLo-E {} !< RoLo-P {}",
        rolo_e.total_energy_j,
        rolo_p.total_energy_j
    );
    assert!(
        rolo_p.total_energy_j < raid10.total_energy_j * 0.9,
        "RoLo-P {} should clearly beat RAID10 {}",
        rolo_p.total_energy_j,
        raid10.total_energy_j
    );
    assert!(
        graid.total_energy_j < raid10.total_energy_j,
        "GRAID {} !< RAID10 {}",
        graid.total_energy_j,
        raid10.total_energy_j
    );
}

#[test]
fn runs_are_deterministic() {
    let cfg = small_cfg(Scheme::RoloP, 3);
    let wl = write_workload(25.0);
    let a = run(&cfg, &wl, 90, 42);
    let b = run(&cfg, &wl, 90, 42);
    assert_eq!(a.total_energy_j, b.total_energy_j);
    assert_eq!(a.spin_cycles, b.spin_cycles);
    assert_eq!(a.user_requests, b.user_requests);
    assert_eq!(a.responses.mean(), b.responses.mean());
    let c = run(&cfg, &wl, 90, 43);
    assert_ne!(a.total_energy_j, c.total_energy_j);
}

#[test]
fn overload_deactivates_and_recovers() {
    // Writes arrive faster than destaging can reclaim: RoLo must
    // deactivate (§III-E) instead of wedging, and still drain clean.
    let mut cfg = small_cfg(Scheme::RoloP, 2);
    cfg.logger_region = 16 << 20;
    let wl = write_workload(400.0);
    let r = run(&cfg, &wl, 60, 9);
    r.consistency.as_ref().expect("consistent after overload");
    assert!(
        r.policy.deactivations > 0 || r.policy.rotations > 10,
        "heavy load should rotate hard or deactivate: {:?}",
        r.policy
    );
}

#[test]
fn graid_handles_read_mix() {
    let cfg = small_cfg(Scheme::Graid, 4);
    let wl = mixed_workload(30.0, 0.5, 0.5);
    let r = run(&cfg, &wl, 120, 10);
    r.consistency.as_ref().expect("consistent");
    assert!(r.read_responses.count() > 0);
    assert!(r.write_responses.count() > 0);
    // Reads are served by always-on primaries: no spin-up latency, so
    // the p99 read stays well under a spin-up.
    let p99 = r.read_responses.percentile(99.0).unwrap();
    assert!(p99.as_secs_f64() < 5.0, "read p99 {p99}");
}

#[test]
fn rolo_policy_direct_construction() {
    // The policy types are usable without the scheme dispatcher.
    let cfg = small_cfg(Scheme::RoloP, 2);
    let geo = cfg.geometry().unwrap();
    let policy = RoloPolicy::new(
        RoloFlavor::Performance,
        cfg.pairs,
        geo.logger_base(),
        geo.logger_region(),
        cfg.rotate_free_threshold,
        cfg.destage_chunk,
    );
    let dur = Duration::from_secs(30);
    let wl = write_workload(20.0);
    let r = driver::run_trace(&cfg, wl.generator(dur, 11), policy, dur);
    r.consistency.as_ref().expect("consistent");
    assert_eq!(r.scheme, "RoLo-P");
}

#[test]
fn rolo_p_multi_logger_window() {
    // §III-D: widening the on-duty window spreads append load; the run
    // stays consistent and keeps one extra mirror spinning.
    let mut cfg = small_cfg(Scheme::RoloP, 5);
    cfg.rolo_on_duty = 2;
    let r = run(&cfg, &write_workload(80.0), 180, 21);
    r.consistency.as_ref().expect("consistent");
    let single = {
        let mut c = small_cfg(Scheme::RoloP, 5);
        c.rolo_on_duty = 1;
        run(&c, &write_workload(80.0), 180, 21)
    };
    single.consistency.as_ref().expect("consistent");
    // Two on-duty mirrors idle more energy than one.
    assert!(
        r.total_energy_j > single.total_energy_j,
        "K=2 {} !> K=1 {}",
        r.total_energy_j,
        single.total_energy_j
    );
    assert!(r.user_requests == single.user_requests);
}

#[test]
fn paraid_shifts_gears_and_stays_consistent() {
    use rolo_core::ParaidPolicy;
    // Bursty load: quiet baseline with heavy ON phases that cross the
    // gear-up threshold.
    let cfg = small_cfg(Scheme::Raid10, 4);
    let geo = cfg.geometry().unwrap();
    let wl = SyntheticConfig {
        burstiness: Burstiness::Bursty {
            on_fraction: 0.25,
            mean_on_secs: 60.0,
        },
        ..write_workload(20.0)
    };
    let policy = ParaidPolicy::new(
        cfg.pairs,
        geo.logger_base(),
        geo.logger_region(),
        40.0, // gear up when the burst rate (~80 IOPS) arrives
        10.0,
        Duration::from_secs(30),
        cfg.destage_chunk,
    );
    let dur = Duration::from_secs(1200);
    let r = driver::run_trace(&cfg, wl.generator(dur, 77), policy, dur);
    r.consistency.as_ref().expect("consistent");
    assert!(
        r.policy.rotations >= 2,
        "expected gear shifts, got {}",
        r.policy.rotations
    );
    assert!(r.policy.log_appended_bytes > 0, "low gear must shadow-log");
    assert!(r.policy.destaged_bytes > 0, "gear-up must sync mirrors");
}

#[test]
fn paraid_spins_all_mirrors_per_shift_unlike_rolo() {
    use rolo_core::ParaidPolicy;
    let cfg = small_cfg(Scheme::RoloP, 4);
    let geo = cfg.geometry().unwrap();
    let wl = SyntheticConfig {
        burstiness: Burstiness::Bursty {
            on_fraction: 0.2,
            mean_on_secs: 45.0,
        },
        ..write_workload(25.0)
    };
    let dur = Duration::from_secs(1500);
    let paraid = driver::run_trace(
        &cfg,
        wl.generator(dur, 88),
        ParaidPolicy::new(
            cfg.pairs,
            geo.logger_base(),
            geo.logger_region(),
            50.0,
            8.0,
            Duration::from_secs(20),
            cfg.destage_chunk,
        ),
        dur,
    );
    let rolo = run(&cfg, &wl, 1500, 88);
    paraid.consistency.as_ref().expect("paraid consistent");
    rolo.consistency.as_ref().expect("rolo consistent");
    // The §VI contrast: when PARAID shifts at all, it spins the whole
    // mirror set; RoLo touches one logger per rotation.
    if paraid.policy.rotations > 0 {
        let per_shift = paraid.spin_cycles as f64 / paraid.policy.rotations as f64;
        let rolo_per_rotation = rolo.spin_cycles as f64 / rolo.policy.rotations.max(1) as f64;
        assert!(
            per_shift > rolo_per_rotation,
            "PARAID {per_shift}/shift !> RoLo {rolo_per_rotation}/rotation"
        );
    }
}

#[test]
fn rolo_e_multi_pair_window() {
    // §III-B3's "one or several mirrored disk pairs": a two-pair window
    // splits the append load across four disks and stays consistent.
    let mut cfg = small_cfg(Scheme::RoloE, 5);
    cfg.rolo_on_duty = 2;
    let wl = write_workload(60.0);
    let two = run(&cfg, &wl, 300, 33);
    two.consistency.as_ref().expect("consistent");
    let mut cfg1 = small_cfg(Scheme::RoloE, 5);
    cfg1.rolo_on_duty = 1;
    let one = run(&cfg1, &wl, 300, 33);
    one.consistency.as_ref().expect("consistent");
    assert_eq!(one.user_requests, two.user_requests);
    // Four spinning disks cost more than two.
    assert!(
        two.total_energy_j > one.total_energy_j,
        "K=2 {} !> K=1 {}",
        two.total_energy_j,
        one.total_energy_j
    );
}

#[test]
fn sstf_scheduling_consistent_and_not_slower() {
    // SSTF reorders the foreground queues; everything still drains
    // consistently and a deep-queue workload does not get slower.
    let wl = write_workload(120.0);
    let mut fifo_cfg = small_cfg(Scheme::RoloP, 4);
    fifo_cfg.logger_region = 256 << 20;
    let mut sstf_cfg = fifo_cfg.clone();
    sstf_cfg.scheduler = rolo_disk::SchedulerKind::Sstf;
    let fifo = run(&fifo_cfg, &wl, 240, 91);
    let sstf = run(&sstf_cfg, &wl, 240, 91);
    fifo.consistency.as_ref().expect("fifo consistent");
    sstf.consistency.as_ref().expect("sstf consistent");
    assert_eq!(fifo.user_requests, sstf.user_requests);
    assert!(
        sstf.mean_response_ms() <= fifo.mean_response_ms() * 1.05,
        "SSTF {} vs FIFO {}",
        sstf.mean_response_ms(),
        fifo.mean_response_ms()
    );
}

/// The first background read dispatched once the run's last request
/// has completed, on 2 pairs with 256 KB destage runs: `(disk, offset,
/// bytes)`. A 256 KB write at offset 0 lands as four 64 KB extents:
/// pair 0 at 0, pair 1 at 0, pair 0 at 64 KB and pair 1 at 64 KB.
fn first_read_after_last_ack(
    scheme: Scheme,
    records: Vec<TraceRecord>,
    secs: u64,
) -> (usize, u64, u64) {
    let mut cfg = SimConfig::paper_default(scheme, 2);
    cfg.destage_chunk = 256 << 10;
    cfg.logger_region = 4 << 20;
    cfg.graid_log_capacity = 1 << 20;
    cfg.destage_threshold = 0.1;
    let dur = Duration::from_secs(secs);
    let sink = Box::new(RingSink::new(1 << 12));
    let (report, mut obs) = driver::run_scheme_observed(&cfg, records, dur, sink, false);
    report.consistency.as_ref().expect("consistent");
    assert_eq!(obs.sink.dropped(), 0, "the ring kept every event");
    let events = obs.sink.drain();
    let last_ack = events
        .iter()
        .rposition(|e| matches!(e.event, SimEvent::RequestComplete { .. }))
        .expect("the requests complete");
    events[last_ack..]
        .iter()
        .find_map(|e| match e.event {
            SimEvent::RequestDispatch {
                disk,
                kind: IoKind::Read,
                offset,
                bytes,
                background: true,
                ..
            } => Some((disk, offset, bytes)),
            _ => None,
        })
        .expect("the ack starts a destage chain")
}

/// A request's marks commit one at a time at its acknowledgement, and
/// the controller reacts to each before the next: the reaction takes
/// a run from the map the next mark would grow. So when a request's
/// first mark starts its pair's destage chain, the chain's first read
/// covers that extent alone, not the pair's two adjacent extents.
#[test]
fn a_chain_started_between_two_marks_reads_only_the_first() {
    let write = |ms: u64, offset: u64, bytes: u64| {
        let at = rolo_sim::SimTime::ZERO + Duration::from_millis(ms);
        TraceRecord::new(at, ReqKind::Write, offset, bytes)
    };
    // GRAID and RoLo-E: a 64 KB write keeps pair 1 dirty, so the cycle
    // the 256 KB write's submission starts is still running at its
    // ack. RoLo-E's logger pair 0 is up; GRAID pumps in destaging mode.
    let mid_cycle = || vec![write(0, 17 << 16, 64 << 10), write(1000, 0, 256 << 10)];
    let (disk, offset, bytes) = first_read_after_last_ack(Scheme::Graid, mid_cycle(), 60);
    assert_eq!((disk, offset, bytes), (0, 0, 64 << 10), "GRAID");
    // RoLo-E reads the run from a copy on logger pair 0's disk 0 or 2.
    let (disk, _, bytes) = first_read_after_last_ack(Scheme::RoloE, mid_cycle(), 60);
    assert!(disk == 0 || disk == 2, "RoLo-E read disk {disk}");
    assert_eq!(bytes, 64 << 10, "RoLo-E");
    // RoLo-P: the write acks during the drain, so its first mark
    // activates pair 0's destage with the on-duty mirror up.
    let during_drain = vec![write(9_999, 0, 256 << 10)];
    let (disk, offset, bytes) = first_read_after_last_ack(Scheme::RoloP, during_drain, 10);
    assert_eq!((disk, offset, bytes), (0, 0, 64 << 10), "RoLo-P");
}
