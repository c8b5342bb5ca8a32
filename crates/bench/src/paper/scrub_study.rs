//! Silent-corruption defense study (DESIGN.md §11): Monte-Carlo sweep
//! of latent sector errors and correlated enclosure shocks across the
//! three RoLo flavors, with the background scrub toggled per cell.
//!
//! Three claims are checked on every invocation:
//!
//! 1. **Zero silent corruption** — across ≥1000 runs (default seeds)
//!    every injected latent extent ends the run classified (repaired by
//!    scrub, repaired on read, overwritten, lost, or still latent);
//!    none is silently forgotten (`FaultMetrics::lse_conserved`).
//! 2. **Power-aware scrubbing pays** — with identical fault schedules,
//!    each flavor's aggregate data loss with the scrub on is no worse
//!    than with it off, and RoLo-E (the flavor that spins disks down
//!    and therefore accrues standby-rate latent errors) repairs a
//!    strictly positive number of extents by scrub.
//! 3. **CTMC and Monte-Carlo MTTDL agree** — the scrub-aware latent
//!    chains (`models::*_4_lse`) show scrub-on MTTDL ≥ scrub-off for
//!    every flavor, both in the exact absorption time and in the
//!    Monte-Carlo estimate, and the exact value falls inside the MC
//!    95 % confidence interval at the validation point.
//!
//! ```text
//! paper scrub_study [--seeds N] [--check]
//! ```
//!
//! * `--seeds` — Monte-Carlo seeds per (flavor × scrub) cell
//!   (default 167 → 1002 runs across the 6 cells).
//! * `--check` — CI chaos-job mode: same assertions (they always run),
//!   prints an explicit PASS line for the job log.
//!
//! A failed claim panics.

use crate::{expect_consistent, parallel_map};
use rolo_core::{FaultMetrics, Scheme, SimConfig};
use rolo_reliability::closed_form::mttr_days_to_mu;
use rolo_reliability::{models, monte_carlo, MarkovChain};
use rolo_sim::Duration;
use rolo_trace::SyntheticConfig;
use serde::Serialize;

const PAIRS: usize = 2;
const TRACE_SECS: u64 = 120;

/// Shrunk per-disk capacity so scrub passes and rebuilds complete many
/// times inside the two-minute window.
const TEST_CAPACITY: u64 = 96 << 20;

/// The flavors under study: the paper's three rotated-logging layouts.
const FLAVORS: [Scheme; 3] = [Scheme::RoloP, Scheme::RoloR, Scheme::RoloE];

fn base_cfg(scheme: Scheme, scrub: bool, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, PAIRS);
    cfg.disk.capacity_bytes = TEST_CAPACITY;
    cfg.logger_region = 32 << 20;
    cfg.graid_log_capacity = 64 << 20;
    cfg.seed = 4242 + seed;
    cfg.scrub_enabled = scrub;
    cfg.scrub_chunk = 2 << 20;
    // Aggressive accrual so a two-minute window sees a meaningful
    // population: spun-down disks decay four times faster than active
    // ones (the RoLo-E danger window the scrub exists to close).
    cfg.faults.lse_rate_active = 0.02;
    cfg.faults.lse_rate_standby = 0.08;
    cfg.faults.lse_extent = 64 << 10;
    // Every third seed adds correlated enclosure shocks on top — the
    // randomized multi-fault matrix the CI chaos job sweeps.
    if seed.is_multiple_of(3) {
        cfg.faults.shock_rate = 1.0 / 60.0;
        cfg.faults.shock_fail_prob = 0.2;
        cfg.faults.shock_enclosure = 2;
        cfg.faults.correlation_window = Duration::from_secs(2);
    }
    cfg.faults.seed = 0xFA_17 ^ (seed.wrapping_mul(0x9E37_79B9));
    cfg
}

fn workload() -> SyntheticConfig {
    let mut wl = SyntheticConfig::motivation_write_only(40.0);
    // Reads expose latent extents to the on-read verify path.
    wl.write_ratio = 0.5;
    wl
}

/// One (flavor × scrub) cell: fault-fate counters aggregated over all
/// seeds, plus how many runs saw any data loss at all.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    scheme: String,
    scrub: bool,
    runs: u64,
    injected: u64,
    repaired_on_read: u64,
    repaired_by_scrub: u64,
    overwritten: u64,
    lost: u64,
    latent_at_end: u64,
    scrub_passes: u64,
    scrub_bytes: u64,
    shocks: u64,
    loss_runs: u64,
}

impl Cell {
    fn new(scheme: Scheme, scrub: bool) -> Self {
        Cell {
            scheme: scheme.to_string(),
            scrub,
            runs: 0,
            injected: 0,
            repaired_on_read: 0,
            repaired_by_scrub: 0,
            overwritten: 0,
            lost: 0,
            latent_at_end: 0,
            scrub_passes: 0,
            scrub_bytes: 0,
            shocks: 0,
            loss_runs: 0,
        }
    }

    fn absorb(&mut self, f: &FaultMetrics) {
        self.runs += 1;
        self.injected += f.lse_injected;
        self.repaired_on_read += f.lse_repaired_on_read;
        self.repaired_by_scrub += f.lse_repaired_by_scrub;
        self.overwritten += f.lse_overwritten;
        self.lost += f.lse_lost;
        self.latent_at_end += f.lse_latent_at_end;
        self.scrub_passes += f.scrub_passes;
        self.scrub_bytes += f.scrub_bytes;
        self.shocks += f.shocks_injected;
        self.loss_runs += u64::from(f.lse_lost > 0);
    }

    /// Fraction of injected extents that were ultimately lost.
    fn loss_frac(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.lost as f64 / self.injected as f64
        }
    }
}

#[derive(Debug, Clone, Serialize)]
pub struct MttdlRow {
    scheme: String,
    lse_per_hour: f64,
    scrub_per_hour: f64,
    mttdl_scrub_off_h: f64,
    mttdl_scrub_on_h: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct Study {
    trace_secs: u64,
    seeds_per_cell: u64,
    pub total_runs: u64,
    cells: Vec<Cell>,
    mttdl: Vec<MttdlRow>,
}

/// Runs one seed of one cell and returns its fault counters after the
/// conservation audit.
fn run_one(scheme: Scheme, scrub: bool, seed: u64) -> FaultMetrics {
    let cfg = base_cfg(scheme, scrub, seed);
    let dur = Duration::from_secs(TRACE_SECS);
    let report = rolo_core::run_scheme(&cfg, workload().generator(dur, cfg.seed), dur);
    expect_consistent(&report, &format!("{scheme} scrub={scrub} seed={seed}"));
    let f = &report.faults;
    assert!(
        f.lse_conserved(),
        "{scheme} scrub={scrub} seed={seed}: silent corruption — injected {} but classified {}",
        f.lse_injected,
        f.lse_classified()
    );
    report.faults
}

/// The measured scrub-on / scrub-off cells for every flavor.
fn sweep(seeds: u64) -> Vec<Cell> {
    let jobs: Vec<(Scheme, bool, u64)> = FLAVORS
        .iter()
        .flat_map(|&s| {
            (0..seeds).flat_map(move |seed| [(s, false, seed), (s, true, seed)].into_iter())
        })
        .collect();
    let metrics = parallel_map(jobs.clone(), |(scheme, scrub, seed)| {
        run_one(scheme, scrub, seed)
    });
    let mut cells: Vec<Cell> = FLAVORS
        .iter()
        .flat_map(|&s| [Cell::new(s, false), Cell::new(s, true)].into_iter())
        .collect();
    for ((scheme, scrub, _), f) in jobs.iter().zip(&metrics) {
        let cell = cells
            .iter_mut()
            .find(|c| c.scheme == scheme.to_string() && c.scrub == *scrub)
            .expect("cell exists");
        cell.absorb(f);
    }
    cells
}

/// Scrub-aware CTMC MTTDL table at rates measured from the sweep,
/// with the scrub rate de-rated to the paper's full disk capacity (a
/// bigger disk takes proportionally longer to scan).
fn mttdl_table(cells: &[Cell], seeds: u64) -> Vec<MttdlRow> {
    type Flavor = fn(f64, f64, f64, f64) -> Result<MarkovChain, rolo_reliability::CtmcError>;
    let flavors: [(Scheme, Flavor); 3] = [
        (Scheme::RoloP, models::rolo_p_4_lse),
        (Scheme::RoloR, models::rolo_r_4_lse),
        (Scheme::RoloE, models::rolo_e_4_lse),
    ];
    let lambda = 1e-5; // whole-disk failures per disk-hour
    let mu = mttr_days_to_mu(3.0);
    let disk_hours = seeds as f64 * 2.0 * PAIRS as f64 * TRACE_SECS as f64 / 3600.0;
    let paper_capacity = SimConfig::paper_default(Scheme::RoloP, PAIRS)
        .disk
        .capacity_bytes;
    let capacity_scale = paper_capacity as f64 / TEST_CAPACITY as f64;
    let mut rows = Vec::new();
    for (scheme, flavor) in flavors {
        let name = scheme.to_string();
        let off = cells
            .iter()
            .find(|c| c.scheme == name && !c.scrub)
            .expect("off cell");
        let on = cells
            .iter()
            .find(|c| c.scheme == name && c.scrub)
            .expect("on cell");
        let lse_per_hour = off.injected as f64 / disk_hours;
        assert!(
            on.scrub_passes > 0,
            "{name}: scrub-on cell completed no scrub passes"
        );
        let passes_per_disk_hour =
            on.scrub_passes as f64 / (2.0 * PAIRS as f64) / (on.runs as f64 * TRACE_SECS as f64)
                * 3600.0;
        let scrub_per_hour = passes_per_disk_hour / capacity_scale;
        let mttdl_off = flavor(lambda, mu, lse_per_hour, 0.0)
            .and_then(|c| c.absorption_time(0))
            .expect("scrub-off chain");
        let mttdl_on = flavor(lambda, mu, lse_per_hour, scrub_per_hour)
            .and_then(|c| c.absorption_time(0))
            .expect("scrub-on chain");
        assert!(
            mttdl_on >= mttdl_off,
            "{name}: CTMC says scrubbing hurts MTTDL ({mttdl_on:.3e} < {mttdl_off:.3e})"
        );
        rows.push(MttdlRow {
            scheme: name,
            lse_per_hour,
            scrub_per_hour,
            mttdl_scrub_off_h: mttdl_off,
            mttdl_scrub_on_h: mttdl_on,
        });
    }
    rows
}

/// Cross-validates the scrub-aware chains against Monte-Carlo
/// absorption sampling at a fixed validation point (rates chosen so MC
/// converges quickly): ordering must agree and the exact value must
/// fall inside the widened 95 % confidence interval.
fn cross_validate_mc() {
    type Flavor = fn(f64, f64, f64, f64) -> Result<MarkovChain, rolo_reliability::CtmcError>;
    let flavors: [(&str, Flavor); 3] = [
        ("RoLo-P", models::rolo_p_4_lse),
        ("RoLo-R", models::rolo_r_4_lse),
        ("RoLo-E", models::rolo_e_4_lse),
    ];
    let (l, m, lse, scrub) = (1e-3, 0.05, 1e-2, 0.5);
    println!("\nCTMC vs Monte-Carlo cross-validation (l={l}, m={m}, lse={lse}, scrub={scrub}):");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>14}",
        "flavor", "exact off", "exact on", "mc off", "mc on"
    );
    for (name, flavor) in flavors {
        let chain_off = flavor(l, m, lse, 0.0).expect("chain");
        let chain_on = flavor(l, m, lse, scrub).expect("chain");
        let exact_off = chain_off.absorption_time(0).expect("absorption");
        let exact_on = chain_on.absorption_time(0).expect("absorption");
        let mc_off = monte_carlo::absorption_time_mc(&chain_off, 0, 4_000, 11).expect("mc");
        let mc_on = monte_carlo::absorption_time_mc(&chain_on, 0, 4_000, 13).expect("mc");
        assert!(
            exact_on >= exact_off,
            "{name}: exact ordering violated ({exact_on:.3e} < {exact_off:.3e})"
        );
        assert!(
            mc_on.mean >= mc_off.mean,
            "{name}: MC ordering violated ({:.3e} < {:.3e})",
            mc_on.mean,
            mc_off.mean
        );
        for (exact, mc) in [(exact_off, &mc_off), (exact_on, &mc_on)] {
            let (lo, hi) = mc.confidence_95();
            assert!(
                exact >= lo * 0.9 && exact <= hi * 1.1,
                "{name}: exact {exact:.4e} outside widened MC CI [{lo:.4e}, {hi:.4e}]"
            );
        }
        println!(
            "{:<8} {:>14.4e} {:>14.4e} {:>14.4e} {:>14.4e}",
            name, exact_off, exact_on, mc_off.mean, mc_on.mean
        );
    }
}

/// Sweeps `seeds` seeds per (flavor × scrub) cell, checks the three
/// claims, prints every table and returns the study.
pub fn run(seeds: u64) -> Study {
    let cells = sweep(seeds);
    let total_runs: u64 = cells.iter().map(|c| c.runs).sum();
    println!(
        "scrub study: {} flavors x scrub on/off x {} seeds = {} runs, all conserved",
        FLAVORS.len(),
        seeds,
        total_runs
    );
    println!(
        "\n{:<8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>7} {:>8} {:>9} {:>9}",
        "scheme",
        "scrub",
        "injected",
        "rd-read",
        "rd-scrub",
        "overwr",
        "lost",
        "latent",
        "loss-run",
        "loss-frac"
    );
    for c in &cells {
        println!(
            "{:<8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>7} {:>8} {:>9} {:>9.4}",
            c.scheme,
            if c.scrub { "on" } else { "off" },
            c.injected,
            c.repaired_on_read,
            c.repaired_by_scrub,
            c.overwritten,
            c.lost,
            c.latent_at_end,
            c.loss_runs,
            c.loss_frac()
        );
    }

    // Claim 2: with identical fault schedules, turning the scrub on
    // never increases a flavor's aggregate loss fraction, and RoLo-E —
    // the power-managed flavor whose spun-down disks decay fastest —
    // both repairs extents by scrub and strictly shrinks its loss.
    for flavor in FLAVORS {
        let name = flavor.to_string();
        let off = cells.iter().find(|c| c.scheme == name && !c.scrub).unwrap();
        let on = cells.iter().find(|c| c.scheme == name && c.scrub).unwrap();
        assert!(on.injected > 0 && off.injected > 0, "{name}: no injections");
        // Fault schedules are seed-identical across the on/off cells,
        // so absolute loss counts compare like-for-like.
        assert!(
            on.lost <= off.lost,
            "{name}: scrub-on lost {} extents, more than scrub-off's {}",
            on.lost,
            off.lost
        );
        assert!(
            on.repaired_by_scrub > 0,
            "{name}: scrub-on cell repaired nothing by scrub"
        );
        assert!(
            on.latent_at_end < off.latent_at_end,
            "{name}: scrub did not shrink the end-of-run latent population \
             ({} vs {})",
            on.latent_at_end,
            off.latent_at_end
        );
    }
    let e_off = cells
        .iter()
        .find(|c| c.scheme == Scheme::RoloE.to_string() && !c.scrub)
        .unwrap();
    let e_on = cells
        .iter()
        .find(|c| c.scheme == Scheme::RoloE.to_string() && c.scrub)
        .unwrap();
    assert!(
        e_on.lost <= e_off.lost,
        "RoLo-E: power-aware scrubbing failed to cut data loss ({} vs {})",
        e_on.lost,
        e_off.lost
    );
    println!(
        "\npower-aware scrubbing: RoLo-E lost {} extents with scrub on vs {} off",
        e_on.lost, e_off.lost
    );

    let mttdl = mttdl_table(&cells, seeds);
    println!(
        "\n{:<8} {:>12} {:>12} {:>16} {:>16}",
        "scheme", "lse/h", "scrub/h", "MTTDL off (h)", "MTTDL on (h)"
    );
    for r in &mttdl {
        println!(
            "{:<8} {:>12.4} {:>12.6} {:>16.4e} {:>16.4e}",
            r.scheme, r.lse_per_hour, r.scrub_per_hour, r.mttdl_scrub_off_h, r.mttdl_scrub_on_h
        );
    }

    cross_validate_mc();

    Study {
        trace_secs: TRACE_SECS,
        seeds_per_cell: seeds,
        total_runs,
        cells,
        mttdl,
    }
}
