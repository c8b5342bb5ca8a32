//! The command lines of the `inspect` and `paper` tools: one
//! scheme-slug table, one parser for both tools' subcommands, and each
//! subcommand's flags and defaults.
//!
//! A run spec is the positional `[scheme] [trace] [hours]` plus
//! `--seed`/`--pairs`. Each subcommand keeps the defaults of the tool it
//! replaced, takes only that tool's flags, and rejects anything else
//! with a typed [`ArgError`] instead of panicking or silently falling
//! back to a default.

use crate::paper::{log_recovery::CRASH_SECS, STUDIES};
use crate::WEEK;
use rolo_core::{run_scheme_observed, RunObservations, Scheme, SimConfig, SimReport};
use rolo_obs::TraceSink;
use rolo_sim::Duration;
use rolo_trace::{profiles, TraceProfile, TraceRecord};
use std::fmt;

/// Every scheme's command-line slug, in [`Scheme::all`] order.
const SCHEME_SLUGS: [(&str, Scheme); 5] = [
    ("raid10", Scheme::Raid10),
    ("graid", Scheme::Graid),
    ("rolo-p", Scheme::RoloP),
    ("rolo-r", Scheme::RoloR),
    ("rolo-e", Scheme::RoloE),
];

/// The scheme a command-line slug names.
fn scheme_from_slug(slug: &str) -> Option<Scheme> {
    SCHEME_SLUGS
        .iter()
        .find(|(s, _)| *s == slug)
        .map(|&(_, scheme)| scheme)
}

/// The scheme `arg` names, or an error naming `arg`.
///
/// # Errors
///
/// [`ArgError::Value`] if `arg` is no scheme's slug.
fn scheme_arg(arg: &str) -> Result<Scheme, ArgError> {
    scheme_from_slug(arg)
        .ok_or_else(|| bad("scheme", arg, "raid10, graid, rolo-p, rolo-r or rolo-e"))
}

/// The Table III trace profile `arg` names, or an error naming `arg`.
///
/// # Errors
///
/// [`ArgError::Value`] if [`profiles::by_name`] knows no such profile.
fn trace_arg(arg: &str) -> Result<TraceProfile, ArgError> {
    profiles::by_name(arg).ok_or_else(|| bad("trace", arg, "a Table III profile"))
}

/// The command-line slug of `scheme`, as artifact file names spell it.
fn scheme_slug(scheme: Scheme) -> &'static str {
    SCHEME_SLUGS
        .iter()
        .find(|(_, s)| *s == scheme)
        .map(|&(slug, _)| slug)
        .expect("every scheme has a slug")
}

/// `inspect --help`.
pub const USAGE: &str = "\
usage: inspect <subcommand> [args]

  dump   [scheme] [trace] [hours] [--seed S] [--pairs N] [--out PATH]
         [--check] [--scrub] [--slo]
  export [scheme] [trace] [hours] [--seed S] [--pairs N] [--tag NAME]
         [--out-dir DIR]
  diff   <a.json> <b.json> [--check]
  rca    [scheme] [trace] [hours] [--seed S] [--pairs N] [--trace-seed S]
         [--check] [--expect-dominant PHASE] [--expect-clean]
  spans  [trace] [hours] [--top N]

scheme: raid10 | graid | rolo-p | rolo-r | rolo-e
trace:  a Table III profile (src2_2, proj_0, mds_0, wdev_0, web_1, rsrch_2, hm_1)
hours:  simulated window, finite and > 0
";

/// `paper --help`.
pub const PAPER_USAGE: &str = "\
usage: paper <subcommand> [args]

  <study> [--week-secs S]  one of the 20 studies behind the paper's tables
                           and figures, in DESIGN.md §4's order: fig2 fig3
                           table1 fig9 fig10 fig11 fig12 fig13
                           stripe_sensitivity disksize_sensitivity
                           recovery_study ablation parity_study
                           related_work_study idle_slots diskmodel_study
                           seed_variance threshold_sensitivity fig14
                           table_traces
  all [--week-secs S]      every study, in that order
  fault_study
  scrub_study  [--seeds N] [--check]
  log_recovery [--pairs N] [--secs S] [--iops R]
  export_csv   [results_dir] [out_dir]
  run          [scheme] [trace] [hours] [--seed S] [--pairs N]
               [--msr FILE] [--stripe-kib K] [--free-gib G] [--json PATH]

A study writes its rows to $ROLO_RESULTS_DIR/<study>.json (default
results/). --week-secs: the replay window, default 604800 (a week).
The trace-driven studies replay it; the two motivation figures (§II)
cap their shorter fixed windows at it.
scheme: raid10 | graid | rolo-p | rolo-r | rolo-e
trace:  a Table III profile (src2_2, proj_0, mds_0, wdev_0, web_1, rsrch_2, hm_1)
hours:  simulated window, finite and > 0
";

/// A malformed command line, by what is wrong with it; the message
/// names the argument. The tool prints it and exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// The subcommand is missing or unknown.
    Command(String),
    /// The subcommand takes no such flag.
    Flag(String),
    /// A value is missing, malformed, out of range or names nothing.
    Value(String),
    /// A positional argument too many, or too few for `diff`.
    Positional(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ArgError::Command(m)
        | ArgError::Flag(m)
        | ArgError::Value(m)
        | ArgError::Positional(m)) = self;
        f.write_str(m)
    }
}

impl std::error::Error for ArgError {}

/// An `inspect` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Event stream as JSONL, residency table, lifecycle checks.
    Dump,
    /// OpenMetrics, window timeline and export JSON of one run.
    Export,
    /// Regression triage between two export documents.
    Diff,
    /// Root-cause attribution of every SLO alert window.
    Rca,
    /// Per-scheme critical-path attribution.
    Spans,
}

/// A `paper` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paper {
    /// The study `STUDIES[i]` of [`crate::paper::STUDIES`].
    Study(usize),
    /// Every study, in [`crate::paper::STUDIES`] order.
    All,
    /// Degraded mode under disk failures, MTTDL cross-validation.
    FaultStudy,
    /// Latent errors against the power-aware scrub.
    ScrubStudy,
    /// Crash-consistency replay matrix.
    LogRecovery,
    /// `results/*.json` as CSV.
    ExportCsv,
    /// One scheme over one trace, with the full report.
    Run,
}

/// What one positional argument of a subcommand sets.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Scheme,
    Trace,
    Hours,
    File,
}

/// The grammar of one tool's subcommands, which [`parse`] and
/// [`parse_paper`] read through.
trait Subcommand: Copy + Sized {
    /// Every subcommand, in usage order.
    fn every() -> Vec<Self>;
    /// The name the command line spells.
    fn name(self) -> &'static str;
    /// Every flag the subcommand takes.
    fn flags(self) -> &'static [&'static str];
    /// What each positional argument sets, in order.
    fn positionals(self) -> &'static [Slot];
    /// The run the subcommand replays when no argument overrides it.
    fn default_spec(self) -> RunSpec;
}

impl Subcommand for Command {
    fn every() -> Vec<Self> {
        use Command::{Diff, Dump, Export, Rca, Spans};
        vec![Dump, Export, Diff, Rca, Spans]
    }

    fn name(self) -> &'static str {
        match self {
            Command::Dump => "dump",
            Command::Export => "export",
            Command::Diff => "diff",
            Command::Rca => "rca",
            Command::Spans => "spans",
        }
    }

    fn flags(self) -> &'static [&'static str] {
        match self {
            Command::Dump => &["--seed", "--pairs", "--out", "--check", "--scrub", "--slo"],
            Command::Export => &["--seed", "--pairs", "--tag", "--out-dir"],
            Command::Diff => &["--check"],
            Command::Rca => &[
                "--seed",
                "--pairs",
                "--trace-seed",
                "--check",
                "--expect-dominant",
                "--expect-clean",
            ],
            Command::Spans => &["--top"],
        }
    }

    fn positionals(self) -> &'static [Slot] {
        match self {
            Command::Dump | Command::Export | Command::Rca => {
                &[Slot::Scheme, Slot::Trace, Slot::Hours]
            }
            Command::Spans => &[Slot::Trace, Slot::Hours],
            Command::Diff => &[Slot::File, Slot::File],
        }
    }

    /// `rca` defaults to the locked telemetry acceptance run; `spans`
    /// replays every scheme, each at its paper-default seed.
    fn default_spec(self) -> RunSpec {
        let base = RunSpec {
            scheme: Scheme::RoloP,
            trace: "src2_2".to_owned(),
            hours: 1.0,
            seed: 1,
            pairs: 4,
            trace_seed: None,
        };
        match self {
            Command::Dump | Command::Export | Command::Diff => base,
            Command::Rca => RunSpec {
                scheme: Scheme::RoloE,
                trace: "hm_1".to_owned(),
                hours: 3.0,
                seed: 0x7e1e,
                pairs: 10,
                trace_seed: Some(42),
            },
            Command::Spans => RunSpec {
                hours: 2.0,
                pairs: 20,
                seed: SimConfig::paper_default(Scheme::RoloP, 20).seed,
                ..base
            },
        }
    }
}

impl Subcommand for Paper {
    fn every() -> Vec<Self> {
        let fixed = [
            Paper::All,
            Paper::FaultStudy,
            Paper::ScrubStudy,
            Paper::LogRecovery,
            Paper::ExportCsv,
            Paper::Run,
        ];
        (0..STUDIES.len()).map(Paper::Study).chain(fixed).collect()
    }

    fn name(self) -> &'static str {
        match self {
            Paper::Study(i) => STUDIES[i].0,
            Paper::All => "all",
            Paper::FaultStudy => "fault_study",
            Paper::ScrubStudy => "scrub_study",
            Paper::LogRecovery => "log_recovery",
            Paper::ExportCsv => "export_csv",
            Paper::Run => "run",
        }
    }

    /// `--week-secs` sets the studies' replay window.
    fn flags(self) -> &'static [&'static str] {
        match self {
            Paper::Study(_) | Paper::All => &["--week-secs"],
            Paper::FaultStudy | Paper::ExportCsv => &[],
            Paper::ScrubStudy => &["--seeds", "--check"],
            Paper::LogRecovery => &["--pairs", "--secs", "--iops"],
            Paper::Run => &[
                "--seed",
                "--pairs",
                "--msr",
                "--stripe-kib",
                "--free-gib",
                "--json",
            ],
        }
    }

    fn positionals(self) -> &'static [Slot] {
        match self {
            Paper::Run => &[Slot::Scheme, Slot::Trace, Slot::Hours],
            Paper::ExportCsv => &[Slot::File, Slot::File],
            _ => &[],
        }
    }

    /// `run` replays RoLo-P over src2_2 for 24 h on 20 pairs, seed 1;
    /// `log_recovery` takes only its pair count, 4, from the spec.
    fn default_spec(self) -> RunSpec {
        let run = RunSpec {
            scheme: Scheme::RoloP,
            trace: "src2_2".to_owned(),
            hours: 24.0,
            seed: 1,
            pairs: 20,
            trace_seed: None,
        };
        match self {
            Paper::LogRecovery => RunSpec { pairs: 4, ..run },
            _ => run,
        }
    }
}

/// One replay a subcommand observes: a scheme over a Table III trace
/// profile for a simulated window, and its seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Controller scheme.
    pub scheme: Scheme,
    /// Trace profile name; [`parse`] only accepts names
    /// [`profiles::by_name`] knows.
    pub trace: String,
    /// Simulated window in hours, finite and > 0.
    pub hours: f64,
    /// Simulation seed (`SimConfig::seed`).
    pub seed: u64,
    /// Mirrored pairs in the array.
    pub pairs: usize,
    /// Trace-generator seed; `None` generates the trace from `seed`.
    pub trace_seed: Option<u64>,
}

impl RunSpec {
    /// `<scheme>_<trace>`: the basename this run's artifacts default to.
    pub fn tag(&self) -> String {
        format!("{}_{}", scheme_slug(self.scheme), self.trace)
    }

    /// The simulated window, to the nearest microsecond.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.hours * 3600.0)
    }

    /// The named trace profile.
    ///
    /// # Panics
    ///
    /// Panics if `trace` names no profile, which [`parse`] rules out.
    pub fn profile(&self) -> TraceProfile {
        profiles::by_name(&self.trace).expect("parse checks trace names")
    }

    /// The paper-default configuration for the scheme and pair count,
    /// seeded with `seed`.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_default(self.scheme, self.pairs);
        cfg.seed = self.seed;
        cfg
    }

    /// The trace records, generated from `trace_seed` (or `seed`).
    pub fn records(&self) -> impl Iterator<Item = TraceRecord> {
        let seed = self.trace_seed.unwrap_or(self.seed);
        self.profile().generator(self.duration(), seed)
    }

    /// Replays the records under `cfg` — [`RunSpec::config`] plus the
    /// subcommand's own settings — recording into `sink`, with request
    /// spans when `spans` is set.
    pub fn observe(
        &self,
        cfg: &SimConfig,
        sink: Box<dyn TraceSink>,
        spans: bool,
    ) -> (SimReport, RunObservations) {
        run_scheme_observed(cfg, self.records(), self.duration(), sink, spans)
    }
}

/// A parsed command line of `inspect` (`C` = [`Command`]) or `paper`
/// (`C` = [`Paper`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation<C = Command> {
    /// The subcommand.
    pub command: C,
    /// The replay to observe or run (`diff` replays nothing).
    pub spec: RunSpec,
    /// `diff`: the two export documents, A then B. `export_csv`: the
    /// results and output directories.
    pub files: Vec<String>,
    /// `dump --out`: the JSONL path.
    pub out: Option<String>,
    /// `export --tag`: the artifact basename.
    pub tag: Option<String>,
    /// `export --out-dir`: the artifact directory.
    pub out_dir: Option<String>,
    /// `spans --top`: slowest requests to list per scheme (0 = none).
    pub top: usize,
    /// `rca --expect-dominant`: the first breach window's required
    /// dominant phase.
    pub expect_dominant: Option<String>,
    /// `--check` of `dump`, `diff`, `rca` and `scrub_study`.
    pub check: bool,
    /// `dump --scrub`.
    pub scrub: bool,
    /// `dump --slo`.
    pub slo: bool,
    /// `rca --expect-clean`.
    pub expect_clean: bool,
    /// `--week-secs` of the studies: the replay window.
    pub window: Duration,
    /// `scrub_study --seeds`: seeds per (flavor × scrub) cell.
    pub seeds: u64,
    /// `log_recovery --secs`: the crash window in seconds.
    pub secs: u64,
    /// `log_recovery --iops`: the write load.
    pub iops: f64,
    /// `run --msr`: an MSR trace to replay instead of the profile.
    pub msr: Option<String>,
    /// `run --stripe-kib`: the stripe unit in KiB.
    pub stripe_kib: u64,
    /// `run --free-gib`: the free (logger) space per disk in GiB.
    pub free_gib: f64,
    /// `run --json`: where to write the report as JSON.
    pub json: Option<String>,
}

/// Parses `inspect`'s arguments, program name excluded.
///
/// # Errors
///
/// Returns an [`ArgError`] for a missing or unknown subcommand, a flag
/// the subcommand does not take, a missing or malformed value, an
/// unknown scheme or trace, non-positive hours or pairs, or the wrong
/// number of positional arguments.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Invocation, ArgError> {
    let inv = parse_as::<Command, S>(args)?;
    if inv.command == Command::Diff && inv.files.len() != 2 {
        let need = "diff needs two export files: <a.json> <b.json>";
        return Err(ArgError::Positional(need.to_owned()));
    }
    Ok(inv)
}

/// Parses `paper`'s arguments, program name excluded.
///
/// # Errors
///
/// Returns an [`ArgError`] for a missing or unknown subcommand, a flag
/// the subcommand does not take, a missing or malformed value, an
/// unknown scheme or trace, a non-positive window, count or rate, a
/// `log_recovery` window that ends before its last crash, or a
/// positional argument too many.
pub fn parse_paper<S: AsRef<str>>(args: &[S]) -> Result<Invocation<Paper>, ArgError> {
    parse_as(args)
}

fn parse_as<C: Subcommand, S: AsRef<str>>(args: &[S]) -> Result<Invocation<C>, ArgError> {
    let mut args = args.iter().map(AsRef::as_ref);
    let name = args
        .next()
        .ok_or_else(|| ArgError::Command("missing subcommand".to_owned()))?;
    let command = C::every()
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| ArgError::Command(format!("unknown subcommand `{name}`")))?;
    let mut inv = Invocation {
        command,
        spec: command.default_spec(),
        files: Vec::new(),
        out: None,
        tag: None,
        out_dir: None,
        top: 0,
        expect_dominant: None,
        check: false,
        scrub: false,
        slo: false,
        expect_clean: false,
        window: WEEK,
        seeds: 167,
        secs: 400,
        iops: 40.0,
        msr: None,
        stripe_kib: 64,
        free_gib: 8.0,
        json: None,
    };
    let mut slots = command.positionals().iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            match slots.next() {
                Some(Slot::Scheme) => inv.spec.scheme = scheme_arg(arg)?,
                Some(Slot::Trace) => inv.spec.trace = trace_arg(arg)?.name.to_owned(),
                Some(Slot::Hours) => inv.spec.hours = real("hours", arg)?,
                Some(Slot::File) => inv.files.push(arg.to_owned()),
                None => return Err(ArgError::Positional(format!("unexpected argument `{arg}`"))),
            }
            continue;
        }
        let Some(&flag) = command.flags().iter().find(|&&f| f == arg) else {
            let name = command.name();
            return Err(ArgError::Flag(format!("`{name}` takes no flag {arg}")));
        };
        let missing = || ArgError::Value(format!("missing value for {flag}"));
        let mut value = || args.next().ok_or_else(missing);
        match flag {
            "--seed" => inv.spec.seed = number(flag, value()?)?,
            "--trace-seed" => inv.spec.trace_seed = Some(number(flag, value()?)?),
            "--pairs" => inv.spec.pairs = positive(flag, value()?)?,
            "--top" => inv.top = number(flag, value()?)?,
            "--out" => inv.out = Some(value()?.to_owned()),
            "--tag" => inv.tag = Some(value()?.to_owned()),
            "--out-dir" => inv.out_dir = Some(value()?.to_owned()),
            "--expect-dominant" => inv.expect_dominant = Some(value()?.to_owned()),
            "--check" => inv.check = true,
            "--scrub" => inv.scrub = true,
            "--slo" => inv.slo = true,
            "--expect-clean" => inv.expect_clean = true,
            "--week-secs" => {
                let v = value()?;
                let micros = positive::<u64>(flag, v)?.checked_mul(1_000_000);
                let micros = micros.ok_or_else(|| bad(flag, v, "a window the clock can hold"))?;
                inv.window = Duration::from_micros(micros);
            }
            "--seeds" => inv.seeds = positive(flag, value()?)?,
            "--secs" => {
                let v = value()?;
                inv.secs = number(flag, v)?;
                let last = CRASH_SECS[CRASH_SECS.len() - 1];
                if inv.secs <= last {
                    let past = format!("a window past the last crash instant ({last} s)");
                    return Err(bad(flag, v, &past));
                }
            }
            "--iops" => inv.iops = real(flag, value()?)?,
            "--msr" => inv.msr = Some(value()?.to_owned()),
            "--stripe-kib" => inv.stripe_kib = positive(flag, value()?)?,
            "--free-gib" => inv.free_gib = real(flag, value()?)?,
            "--json" => inv.json = Some(value()?.to_owned()),
            _ => unreachable!("{flag} is listed but not handled"),
        }
    }
    Ok(inv)
}

fn bad(what: &str, value: &str, expected: &str) -> ArgError {
    ArgError::Value(format!("{what}: `{value}` is not {expected}"))
}

/// `value` parsed as an unsigned integer, or an error naming `what`.
///
/// # Errors
///
/// [`ArgError::Value`] if `value` does not parse as a `T`.
fn number<T: std::str::FromStr>(what: &str, value: &str) -> Result<T, ArgError> {
    value
        .parse()
        .map_err(|_| bad(what, value, "an unsigned integer"))
}

/// `value` parsed as a non-zero unsigned integer, or an error naming
/// `what`.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    what: &str,
    value: &str,
) -> Result<T, ArgError> {
    match value.parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        _ => Err(bad(what, value, "a positive integer")),
    }
}

/// `value` parsed as a finite number > 0, or an error naming `what`.
fn real(what: &str, value: &str) -> Result<f64, ArgError> {
    match value.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(bad(what, value, "a finite number > 0")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a space-separated command line.
    fn parse_line(line: &str) -> Result<Invocation, ArgError> {
        parse(&line.split_whitespace().collect::<Vec<_>>())
    }

    fn spec(line: &str) -> RunSpec {
        parse_line(line).expect("line parses").spec
    }

    /// (scheme, trace, hours, seed, pairs, trace seed).
    type Fields<'a> = (Scheme, &'a str, f64, u64, usize, Option<u64>);

    fn fields(s: &RunSpec) -> Fields<'_> {
        (s.scheme, &s.trace, s.hours, s.seed, s.pairs, s.trace_seed)
    }

    #[test]
    fn defaults_match_the_retired_tools() {
        let dump: Fields = (Scheme::RoloP, "src2_2", 1.0, 1, 4, None);
        assert_eq!(fields(&spec("dump")), dump);
        assert_eq!(fields(&spec("export")), dump);
        let rca: Fields = (Scheme::RoloE, "hm_1", 3.0, 0x7e1e, 10, Some(42));
        assert_eq!(fields(&spec("rca")), rca);
        let spans = spec("spans");
        assert_eq!(
            (spans.trace.as_str(), spans.hours, spans.pairs),
            ("src2_2", 2.0, 20)
        );
        // `spans` runs each scheme at its paper-default seed, as before.
        for scheme in Scheme::all() {
            let cfg = RunSpec {
                scheme,
                ..spans.clone()
            }
            .config();
            assert_eq!(cfg, SimConfig::paper_default(scheme, 20));
        }
        assert_eq!(parse_line("spans").unwrap().top, 0);
    }

    #[test]
    fn scheme_slugs_round_trip_to_artifact_names() {
        for (slug, scheme) in SCHEME_SLUGS {
            assert_eq!(scheme_from_slug(slug), Some(scheme));
            assert_eq!(scheme_slug(scheme), slug);
        }
        assert_eq!(SCHEME_SLUGS.map(|(_, s)| s), Scheme::all());
        assert_eq!(format!("rca_{}", spec("rca").tag()), "rca_rolo-e_hm_1");
        let rolo_p = spec("rca rolo-p hm_1 3 --pairs 10");
        assert_eq!(format!("rca_{}", rolo_p.tag()), "rca_rolo-p_hm_1");
        assert_eq!(spec("export").tag(), "rolo-p_src2_2");
        assert_eq!(spec("export rolo-e hm_1").tag(), "rolo-e_hm_1");
    }

    #[test]
    fn flags_and_positionals_land_in_the_invocation() {
        let d = parse_line("dump rolo-e hm_1 0.5 --pairs 10 --seed 7 --out x.jsonl --slo --check");
        let d = d.unwrap();
        assert_eq!(fields(&d.spec), (Scheme::RoloE, "hm_1", 0.5, 7, 10, None));
        assert!(d.out.as_deref() == Some("x.jsonl") && d.slo && d.check && !d.scrub);
        let r = parse_line("rca --trace-seed 9 --expect-dominant SpinUpStall").unwrap();
        assert_eq!(r.spec.trace_seed, Some(9));
        assert_eq!(r.expect_dominant.as_deref(), Some("SpinUpStall"));
        let x = parse_line("diff a.json b.json --check").unwrap();
        assert!(x.files == ["a.json", "b.json"] && x.check);
        assert_eq!(parse_line("spans hm_1 1 --top 5").unwrap().top, 5);
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for case in [
            "spans src2_2 1h => hours: `1h` is not a finite number > 0",
            "dump rolo-p src2_2 -1 => hours: `-1` is not a finite number > 0",
            "dump rolo-p src2_2 0 => hours: `0` is not a finite number > 0",
            "dump rolo-p src2_2 inf => hours: `inf` is not a finite number > 0",
            "dump rolo-p src2_2 NaN => hours: `NaN` is not a finite number > 0",
            "dump rolo-p src2_2 1 --seed x => --seed: `x` is not an unsigned integer",
            "export --pairs 0 => --pairs: `0` is not a positive integer",
            "spans src2_2 1 --top => missing value for --top",
            "spans nosuch 1 => trace: `nosuch` is not a Table III profile",
            "rca rolo-x => scheme: `rolo-x` is not raid10, graid, rolo-p, rolo-r or rolo-e",
            "spans src2_2 1 extra => unexpected argument `extra`",
            "diff a.json => diff needs two export files: <a.json> <b.json>",
            " => missing subcommand",
            "trace_dump => unknown subcommand `trace_dump`",
            "spans --seed 3 => `spans` takes no flag --seed",
        ] {
            let (line, message) = case.split_once(" => ").expect("`line => message`");
            assert_eq!(parse_line(line).expect_err(line).to_string(), message);
        }
    }

    fn paper_line(line: &str) -> Result<Invocation<Paper>, ArgError> {
        parse_paper(&line.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn paper_keeps_the_retired_binaries_defaults() {
        let run = paper_line("run").unwrap();
        assert_eq!(
            fields(&run.spec),
            (Scheme::RoloP, "src2_2", 24.0, 1, 20, None)
        );
        assert_eq!((run.stripe_kib, run.free_gib), (64, 8.0));
        assert!(run.msr.is_none() && run.json.is_none());
        let crash = paper_line("log_recovery").unwrap();
        assert_eq!((crash.spec.pairs, crash.secs, crash.iops), (4, 400, 40.0));
        let scrub = paper_line("scrub_study").unwrap();
        assert_eq!((scrub.seeds, scrub.check), (167, false));
        assert_eq!(paper_line("fig10").unwrap().window, WEEK);
        let csv = paper_line("export_csv").unwrap();
        assert!(csv.files.is_empty());
    }

    #[test]
    fn paper_flags_and_positionals_land_in_the_invocation() {
        let r = paper_line(
            "run rolo-e hm_1 2 --pairs 10 --seed 7 --msr t.csv --stripe-kib 32 \
             --free-gib 4.5 --json r.json",
        )
        .unwrap();
        assert_eq!(fields(&r.spec), (Scheme::RoloE, "hm_1", 2.0, 7, 10, None));
        assert_eq!((r.stripe_kib, r.free_gib), (32, 4.5));
        assert_eq!(
            (r.msr.as_deref(), r.json.as_deref()),
            (Some("t.csv"), Some("r.json"))
        );
        let w = paper_line("all --week-secs 3600").unwrap();
        assert_eq!(
            (w.command, w.window),
            (Paper::All, Duration::from_secs(3600))
        );
        let f = paper_line("fig10 --week-secs 86400").unwrap();
        assert_eq!(f.command.name(), "fig10");
        let lr = paper_line("log_recovery --pairs 2 --secs 241 --iops 12.5").unwrap();
        assert_eq!((lr.spec.pairs, lr.secs, lr.iops), (2, 241, 12.5));
        let s = paper_line("scrub_study --seeds 24 --check").unwrap();
        assert_eq!((s.seeds, s.check), (24, true));
        let csv = paper_line("export_csv in out").unwrap();
        assert_eq!(csv.files, ["in", "out"]);
    }

    #[test]
    fn malformed_paper_lines_are_errors_not_panics() {
        for case in [
            "run rolo-p src2_2 1 --stripe-kib 0 => --stripe-kib: `0` is not a positive integer",
            "run --free-gib -1 => --free-gib: `-1` is not a finite number > 0",
            "run --scheme rolo-e => `run` takes no flag --scheme",
            "fig10 --week-secs 18446744073710 => \
             --week-secs: `18446744073710` is not a window the clock can hold",
            "fault_study --week-secs 60 => `fault_study` takes no flag --week-secs",
            "export_csv a b c => unexpected argument `c`",
            "smoke => unknown subcommand `smoke`",
        ] {
            let (line, message) = case.split_once(" => ").expect("`line => message`");
            assert_eq!(paper_line(line).expect_err(line).to_string(), message);
        }
    }

    #[test]
    fn paper_usage_lists_every_subcommand_in_order() {
        let names: Vec<&str> = Paper::every().into_iter().map(Paper::name).collect();
        let words: Vec<&str> = PAPER_USAGE
            .split_whitespace()
            .filter(|w| names.contains(w))
            .collect();
        assert_eq!(words, names);
        // One flag per study and `all`, and each retired binary's own:
        // scrub_study 2, log_recovery 3, simulate's 6 beside its
        // positional scheme, trace and hours.
        let total: usize = Paper::every().iter().map(|c| c.flags().len()).sum();
        assert_eq!(total, STUDIES.len() + 1 + 2 + 3 + 6);
    }

    #[test]
    fn the_fixed_knobs_are_gone_and_nothing_was_added() {
        for line in [
            "rca --exemplars 8",
            "diff a b --max-mean-delta-pct 5",
            "diff a b --max-requests-delta-pct 1",
            "diff a b --max-phase-shift-pts 5",
        ] {
            let err = parse_line(line).expect_err(line);
            assert!(matches!(err, ArgError::Flag(_)), "{line}");
        }
        // 6 dump + 4 export + 1 diff + 6 rca + 1 spans: the 22 flags of
        // the five retired tools minus those four.
        let total: usize = Command::every().iter().map(|c| c.flags().len()).sum();
        assert_eq!(total, 18);
    }
}
