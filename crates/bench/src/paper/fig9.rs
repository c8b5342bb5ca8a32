//! Figure 9: MTTDL (years) as a function of MTTR (1–7 days) for RAID10,
//! GRAID, RoLo-P and RoLo-R, at λ = 1/100 000 h.
//!
//! Reproduces both the paper's closed forms (Eqs. 1–4, what the figure
//! plots) and our explicit CTMC models as a cross-check, and prints the
//! headline comparisons the paper calls out (+33 % for RoLo-R over
//! RAID10, −20 % for RoLo-P, −33 % for GRAID).

use rolo_reliability::{closed_form, hours_to_years, models};
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    mttr_days: f64,
    raid10_years: f64,
    graid_years: f64,
    rolo_p_years: f64,
    rolo_r_years: f64,
    rolo_e_years: f64,
    /// CTMC cross-check values (model reconstruction).
    ctmc_raid10_years: f64,
    ctmc_rolo_r_years: f64,
}

/// Evaluates the closed forms and chains, prints Fig. 9 and the
/// headline deltas, and returns the rows.
pub fn run() -> Vec<Row> {
    let lambda = closed_form::PAPER_LAMBDA_PER_HOUR;
    println!("Figure 9: MTTDL vs MTTR (lambda = 1e-5 / hour)");
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "days", "RoLo-R", "RAID10", "RoLo-P", "GRAID", "RoLo-E"
    );
    let mut rows = Vec::new();
    for d in 1..=7 {
        let mttr = d as f64;
        let mu = closed_form::mttr_days_to_mu(mttr);
        let row = Row {
            mttr_days: mttr,
            raid10_years: hours_to_years(closed_form::raid10_4(lambda, mu)),
            graid_years: hours_to_years(closed_form::graid_5(lambda, mu)),
            rolo_p_years: hours_to_years(closed_form::rolo_p_4(lambda, mu)),
            rolo_r_years: hours_to_years(closed_form::rolo_r_4(lambda, mu)),
            rolo_e_years: hours_to_years(closed_form::rolo_e_4(lambda, mu)),
            ctmc_raid10_years: hours_to_years(
                models::raid10_4(lambda, mu)
                    .unwrap()
                    .absorption_time(0)
                    .unwrap(),
            ),
            ctmc_rolo_r_years: hours_to_years(
                models::rolo_r_4(lambda, mu)
                    .unwrap()
                    .absorption_time(0)
                    .unwrap(),
            ),
        };
        println!(
            "{:>5} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            d,
            row.rolo_r_years,
            row.raid10_years,
            row.rolo_p_years,
            row.graid_years,
            row.rolo_e_years
        );
        rows.push(row);
    }

    let mu1 = closed_form::mttr_days_to_mu(1.0);
    println!(
        "\nRoLo-R vs RAID10 : {:+.1} % (paper: up to +33 %)",
        (closed_form::rolo_r_4(lambda, mu1) / closed_form::raid10_4(lambda, mu1) - 1.0) * 100.0
    );
    println!(
        "RoLo-P vs RAID10 : {:+.1} % (paper: up to -20 %)",
        (closed_form::rolo_p_4(lambda, mu1) / closed_form::raid10_4(lambda, mu1) - 1.0) * 100.0
    );
    println!(
        "GRAID  vs RAID10 : {:+.1} % (paper: up to -33 %)",
        (closed_form::graid_5(lambda, mu1) / closed_form::raid10_4(lambda, mu1) - 1.0) * 100.0
    );
    println!(
        "RoLo-E vs RAID10 : {:.2}x (paper: n = 2x, all-write workloads only)",
        closed_form::rolo_e_4(lambda, mu1) / closed_form::raid10_4(lambda, mu1)
    );

    rows
}
