//! `paper`: one CLI over the paper's experiments ([`rolo_bench::paper`]),
//! one subcommand each. `paper --help` prints the grammar
//! (`rolo_bench::cli::PAPER_USAGE`).
//!
//! `paper <study>` runs one of the 20 studies and writes its rows to
//! `results/<study>.json`; `paper all` runs every study in DESIGN.md
//! §4's order. Malformed arguments exit 2 before anything runs; a failed
//! gate, or an input or output file that cannot be used, exits 1; a
//! failed assertion inside an experiment panics.

use rolo_bench::cli::{self, Paper};
use rolo_bench::paper::{self, export_csv, fault_study, log_recovery, scrub_study};
use rolo_bench::write_results;
use rolo_sim::Duration;
use serde::Serialize;
use std::path::Path;

/// Prints `msg` to stderr and exits 1: a failed gate, or an input or
/// output file that cannot be used.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Writes `rows` to `results/<name>.json`, or exits 1 if it cannot.
fn save(name: &str, rows: &impl Serialize) {
    if !write_results(name, rows) {
        std::process::exit(1)
    }
}

/// Runs each study over `window` and writes its rows.
fn run_studies(studies: &[paper::Study], window: Duration) {
    for (name, study) in studies {
        save(name, &study(window));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", cli::PAPER_USAGE);
        return;
    }
    let inv = cli::parse_paper(&args).unwrap_or_else(|e| {
        let sub = args.first().map_or(String::new(), |s| format!(" {s}"));
        eprintln!("paper{sub}: {e}\n\n{}", cli::PAPER_USAGE);
        std::process::exit(2)
    });
    match inv.command {
        Paper::Study(i) => run_studies(&paper::STUDIES[i..=i], inv.window),
        Paper::All => run_studies(&paper::STUDIES, inv.window),
        Paper::FaultStudy => fault_study::run(),
        Paper::ScrubStudy => {
            let study = scrub_study::run(inv.seeds);
            save("scrub_study", &study);
            if inv.check {
                let runs = study.total_runs;
                println!("scrub_study --check passed: {runs} runs conserved, orderings hold");
            }
        }
        Paper::LogRecovery => {
            if let Err(failures) = log_recovery::run(inv.spec.pairs, inv.secs, inv.iops) {
                for f in &failures {
                    eprintln!("FAIL: {f}");
                }
                std::process::exit(1);
            }
        }
        Paper::ExportCsv => {
            let dir =
                |i: usize, default| Path::new(inv.files.get(i).map_or(default, String::as_str));
            export_csv::run(dir(0, "results"), dir(1, "results/csv")).unwrap_or_else(|e| fail(e));
        }
        Paper::Run => {
            let report = paper::run::run(&inv).unwrap_or_else(|e| fail(e));
            paper::run::print_report(&report);
            if let Some(path) = &inv.json {
                std::fs::write(path, report.deterministic_json())
                    .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
                println!("\nreport written to {path}");
            }
        }
    }
}
