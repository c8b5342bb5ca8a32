//! Fault-injection study (§III-C / §IV): sweeps disk-failure timing
//! across every scheme under a live trace replay and reports degraded
//! latency, rebuild-under-load duration and request survival, then
//! cross-validates Monte-Carlo MTTDL against the CTMC closed forms
//! using the *measured* rebuild time as the repair rate.
//!
//! Run with `paper fault_study`; a failed check panics.

use rolo_core::{Scheme, SimConfig, SimReport};
use rolo_reliability::closed_form::{self, mttr_days_to_mu};
use rolo_reliability::{models, monte_carlo, MarkovChain};
use rolo_sim::Duration;
use rolo_trace::SyntheticConfig;

const PAIRS: usize = 4;
const TRACE_SECS: u64 = 600;
const FAIL_TIMES: [u64; 2] = [60, 300];
const FAILED_DISK: usize = 1;

/// Shrunk per-disk capacity so a full rebuild fits inside the trace
/// window; the MTTDL section scales the measured rate back up to the
/// paper's disk size.
const TEST_CAPACITY: u64 = 256 << 20;

fn base_cfg(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, PAIRS);
    cfg.disk.capacity_bytes = TEST_CAPACITY;
    cfg.logger_region = 32 << 20;
    cfg.graid_log_capacity = 64 << 20;
    cfg
}

fn workload() -> SyntheticConfig {
    let mut wl = SyntheticConfig::motivation_write_only(60.0);
    wl.write_ratio = 0.7;
    wl
}

fn run_one(scheme: Scheme, fail_at: Option<u64>) -> SimReport {
    let mut cfg = base_cfg(scheme);
    if let Some(t) = fail_at {
        cfg.faults.disk_failures = vec![(FAILED_DISK, Duration::from_secs(t))];
    }
    // Transient faults ride along at modest rates in every faulted run.
    if fail_at.is_some() {
        cfg.faults.media_error_per_read = 1e-3;
        cfg.faults.timeout_per_io = 1e-3;
    }
    let dur = Duration::from_secs(TRACE_SECS);
    let report = rolo_core::run_scheme(&cfg, workload().generator(dur, 4242), dur);
    report
        .consistency
        .as_ref()
        .unwrap_or_else(|e| panic!("{scheme}: inconsistent after fault run: {e}"));
    report
}

fn ms(d: Option<Duration>) -> f64 {
    d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3)
}

fn scheme_models(scheme: Scheme, lambda: f64, mu: f64) -> (f64, MarkovChain) {
    match scheme {
        Scheme::Raid10 => (
            closed_form::raid10_4(lambda, mu),
            models::raid10_4(lambda, mu).expect("chain"),
        ),
        Scheme::Graid => (
            closed_form::graid_5(lambda, mu),
            models::graid_5(lambda, mu).expect("chain"),
        ),
        Scheme::RoloP => (
            closed_form::rolo_p_4(lambda, mu),
            models::rolo_p_4(lambda, mu).expect("chain"),
        ),
        Scheme::RoloR => (
            closed_form::rolo_r_4(lambda, mu),
            models::rolo_r_4(lambda, mu).expect("chain"),
        ),
        Scheme::RoloE => (
            closed_form::rolo_e_4(lambda, mu),
            models::rolo_e_4(lambda, mu).expect("chain"),
        ),
    }
}

/// Runs the fault sweep and the MTTDL cross-validation, printing both
/// tables; panics if a rebuild does not finish, Monte Carlo and the CTMC
/// disagree, or RoLo-R does not out-survive RAID10.
pub fn run() {
    println!("== Degraded-mode service under mid-trace disk failure ==");
    println!(
        "{} pairs, {} MB/disk, disk {} fails, {} s trace\n",
        PAIRS,
        TEST_CAPACITY >> 20,
        FAILED_DISK,
        TRACE_SECS
    );
    println!(
        "{:<8} {:>7} {:>10} {:>10} {:>10} {:>9} {:>9} {:>7} {:>7} {:>6}",
        "scheme",
        "fail@s",
        "p95 ms",
        "deg p95",
        "ttfr ms",
        "rebuild s",
        "redirect",
        "retry",
        "lost",
        "reqs"
    );

    // Measured rebuild seconds per scheme (slowest observed), feeding μ.
    let mut measured_rebuild = Vec::new();

    for scheme in Scheme::all() {
        let healthy = run_one(scheme, None);
        let healthy_p95 = ms(healthy.responses.percentile(95.0));
        let mut worst_rebuild = 0.0f64;
        for fail_at in FAIL_TIMES {
            let r = run_one(scheme, Some(fail_at));
            assert_eq!(
                r.faults.rebuilds_completed, 1,
                "{scheme}: rebuild did not finish inside the run"
            );
            let rebuild_s = r.faults.rebuild_durations[0].as_secs_f64();
            worst_rebuild = worst_rebuild.max(rebuild_s);
            println!(
                "{:<8} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>9.1} {:>9} {:>7} {:>7} {:>6}",
                scheme.to_string(),
                fail_at,
                healthy_p95,
                ms(r.degraded_responses.percentile(95.0)),
                r.faults
                    .time_to_first_redirect
                    .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3),
                rebuild_s,
                r.faults.reads_redirected,
                r.faults.retries,
                r.faults.io_lost,
                r.user_requests
            );
        }
        measured_rebuild.push((scheme, worst_rebuild));
    }

    println!("\n== MTTDL: Monte Carlo vs CTMC closed forms ==");
    // Scale the measured rebuild rate from the shrunk test disks up to
    // the paper's disk size (rebuild time grows linearly with capacity)
    // and — as in Table III — hold one common repair rate across the
    // schemes, taken conservatively from the slowest measured rebuild.
    let full_capacity = SimConfig::paper_default(Scheme::Raid10, PAIRS)
        .disk
        .capacity_bytes;
    let scale = full_capacity as f64 / TEST_CAPACITY as f64;
    let worst_rebuild_s = measured_rebuild
        .iter()
        .map(|(_, s)| *s)
        .fold(0.0f64, f64::max);
    let mttr_days = worst_rebuild_s * scale / 86_400.0;
    let mu = mttr_days_to_mu(mttr_days);
    let lambda = 1e-5; // per disk-hour, ~11.4-year MTBF
    println!(
        "λ = {lambda}/h; common MTTR = {mttr_days:.3} days \
         (slowest rebuild {worst_rebuild_s:.1} s × {scale:.0} capacity scale)\n"
    );
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "scheme", "CTMC (h)", "MC (h)", "MC σ"
    );
    let mut mttdl = Vec::new();
    for (scheme, _) in &measured_rebuild {
        let (cf, chain) = scheme_models(*scheme, lambda, mu);
        let mc = monte_carlo::absorption_time_mc(&chain, 0, 5_000, 99).expect("mc");
        println!(
            "{:<8} {:>14.3e} {:>14.3e} {:>10.2e}",
            scheme.to_string(),
            cf,
            mc.mean,
            mc.std_error
        );
        let rel = (mc.mean - cf).abs() / cf;
        assert!(
            rel < 0.1,
            "{scheme}: MC MTTDL {:.3e} disagrees with CTMC {cf:.3e} ({rel:.1}%)",
            mc.mean
        );
        mttdl.push((*scheme, cf, mc.mean));
    }

    // The paper's reliability claim (Table III): RoLo-R tops RAID10.
    let get = |s: Scheme| mttdl.iter().find(|(x, _, _)| *x == s).unwrap();
    let (_, cf_r10, mc_r10) = get(Scheme::Raid10);
    let (_, cf_rr, mc_rr) = get(Scheme::RoloR);
    assert!(
        cf_rr > cf_r10 && mc_rr > mc_r10,
        "RoLo-R must out-survive RAID10 in both models"
    );
    println!("\nordering check: RoLo-R > RAID10 holds in CTMC and MC — OK");
}
