//! `inspect`: one CLI over the observability stack (DESIGN.md §§9–14),
//! with five subcommands — `dump`, `export`, `diff`, `rca` and `spans`.
//! `inspect --help` prints the grammar (`rolo_bench::cli::USAGE`).
//!
//! Every subcommand that replays a run parses the same run spec and
//! replays through `RunSpec::observe`; each module documents its
//! outputs and gates. Malformed arguments exit 2 with a message; a
//! failed gate exits 1.

mod diff;
mod dump;
mod export;
mod rca;
mod spans;

use rolo_bench::cli::{self, Command};

/// Ring capacity for the event-stream subcommands: large enough to
/// hold every event of a multi-hour run of any scheme; overflow is
/// reported, not silent.
const RING_CAPACITY: usize = 2_000_000;

/// Prints `msg` to stderr and exits 1: the failure of a gate or an
/// output file.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", cli::USAGE);
        return;
    }
    let inv = cli::parse(&args).unwrap_or_else(|e| {
        eprintln!("inspect: {e}\n\n{}", cli::USAGE);
        std::process::exit(2)
    });
    match inv.command {
        Command::Dump => dump::run(&inv),
        Command::Export => export::run(&inv),
        Command::Diff => diff::run(&inv),
        Command::Rca => rca::run(&inv),
        Command::Spans => spans::run(&inv),
    }
}
