//! Golden engine-equivalence fixtures: the hot-path engine rewrite
//! (calendar event queue, slab-allocated I/O state, batched RNG draws)
//! must not change a single observable byte. This suite replays every
//! scheme over two contrasting traces (write-heavy `src2_2`, read-heavy
//! `hm_1`) — with span recording on and off, and with the background
//! scrub on and off — plus one RoLo-E × `hm_1` cell whose 16-block read
//! cache evicts, and compares the FNV-1a digest of each run's
//! `deterministic_json` against the digests committed under
//! `baselines/engine/golden.txt`. The 40 matrix cells were generated by
//! the pre-rewrite (binary-heap, HashMap-everywhere) engine, the
//! evicting cell by the `BTreeMap`-ordered LRU its slab list replaced.
//!
//! Four `src2_2` crash cells kill one journal-bearing disk mid-run
//! (GRAID's log disk, a RoLo-P mirror, a RoLo-R primary, a RoLo-E disk),
//! so the recovery-by-replay path — torn-record detection, the lost-pair
//! rule and the journal wipe — is pinned by bytes, not only by the
//! `replay_divergence == 0` invariant. Each digests its report's
//! `deterministic_json` and its full event stream as JSONL; they were
//! blessed from the controllers that kept one journal copy each, before
//! the journaling core (`rolo_core::journal`) replaced them.
//!
//! Four more cells, digested the same way, pin the extent-map users no
//! other cell reaches: RoLo-E × `hm_1` and RoLo-P × `src2_2` under the
//! silent-corruption fault plan with the scrub on (the integrity maps
//! fill, and scrub repair, overwrite and loss all fire), and PARAID and
//! RoLo-5 over `src2_2` (their dirty maps and logger free lists). They
//! were blessed from the interval trees that `rolo_sim::ExtentMap`
//! replaced.
//!
//! Two more pin the fault engine's rerouted paths. GRAID × `src2_2`
//! with the scrub and spans on loses primary 1 at 120 s and pair 2's
//! mirror (one of its rebuild sources) half a second later, so rebuild
//! reads in flight on the dead source are re-issued on a survivor; its
//! background spans (destage, rebuild, scrub) are digested too.
//! RoLo-E × `hm_1` under transient timeouts and Bernoulli media errors
//! pins the retry backoff, the lost-I/O path and the degraded-read
//! redirect. Both were blessed from the `SimCtx` that the `ctx/` module
//! split replaced.
//!
//! Any digest drift fails until the baseline is deliberately re-blessed
//! with `ROLO_BLESS_GOLDEN=1 cargo test --test engine_equivalence` — an
//! intentional model change, never a silent engine divergence.

mod common;

use rolo::core::{
    run_scheme, run_scheme_observed, run_trace_observed, FaultPlan, ParaidPolicy, RunObservations,
    Scheme, SimConfig, SimReport,
};
use rolo::obs::{NullSink, RingSink, TraceSink};
use rolo::parity::{Raid5Geometry, Rolo5Policy};
use rolo::sim::Duration;
use rolo::trace::{profiles, TraceRecord};
use std::collections::BTreeMap;
use std::path::PathBuf;

const TRACES: [&str; 2] = ["src2_2", "hm_1"];

/// Read-cache blocks of the evicting cell.
const SMALL_CACHE_BLOCKS: u64 = 16;

/// Crash cells over `src2_2`: `(scheme, disk killed, instant in ms)`.
/// Each instant falls while the disk's journal holds records still in
/// flight, so RoLo-P/R/E replays see torn records.
const CRASHES: [(Scheme, usize, u64); 4] = [
    (Scheme::Graid, 8, 30_000),
    (Scheme::RoloP, 4, 13_534),
    (Scheme::RoloR, 0, 6_004),
    (Scheme::RoloE, 0, 16_546),
];

/// Silent-corruption cells: `(scheme, trace)`.
const LSE_CELLS: [(Scheme, &str); 2] = [(Scheme::RoloE, "hm_1"), (Scheme::RoloP, "src2_2")];

/// A ring large enough to hold an observed cell's whole event stream.
const EVENT_RING: usize = 1 << 20;

const HEADER: &str = "\
# deterministic_json FNV-1a digests of the pre-rewrite engine
# (5 schemes x {src2_2, hm_1} x spans on/off x scrub on/off,
# 900 simulated seconds, 4 pairs, seed 42), plus RoLo-E x hm_1 with a
# 16-block read cache that evicts, plus four src2_2 crash cells
# (report JSON and full JSONL event stream each) that kill one
# journal-bearing disk, plus four cells digested the same way: RoLo-E x
# hm_1 and RoLo-P x src2_2 under latent errors and enclosure shocks with
# the scrub on, and PARAID and RoLo-5 over src2_2, plus GRAID x src2_2
# losing a rebuild source mid-rebuild (with its background spans) and
# RoLo-E x hm_1 under transient timeouts and media errors. Regenerate
# with ROLO_BLESS_GOLDEN=1 cargo test --test engine_equivalence
";

fn cfg(scheme: Scheme, scrub: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, 4);
    cfg.logger_region = 64 << 20;
    cfg.graid_log_capacity = 96 << 20;
    cfg.scrub_enabled = scrub;
    cfg
}

fn workload(trace: &str, dur: Duration, seed: u64) -> Vec<TraceRecord> {
    profiles::by_name(trace)
        .expect("known trace profile")
        .generator(dur, seed)
        .collect()
}

/// RoLo-E × `hm_1` with 1/64 of the 64 MiB logger region as read cache:
/// 16 blocks of one 64 KiB stripe unit, spans and scrub off.
fn evicting_cell(dur: Duration) -> String {
    let mut c = cfg(Scheme::RoloE, false);
    c.roloe_cache_fraction = 1.0 / 64.0;
    assert_eq!(c.logger_region / 64 / c.stripe_unit, SMALL_CACHE_BLOCKS);
    let report = run_scheme(&c, workload("hm_1", dur, 42), dur);
    // Every miss fills the cache, so misses several times its size
    // keep the cell evicting.
    assert!(
        report.policy.cache_misses > 4 * SMALL_CACHE_BLOCKS,
        "the cache=16 cell must keep evicting: {} misses",
        report.policy.cache_misses
    );
    report.deterministic_json()
}

/// Digests an observed run's `deterministic_json` and its full event
/// stream (as JSONL) under `<cell>/json` and `<cell>/events`, and its
/// background spans under `<cell>/spans` when spans were on, after
/// `check` has inspected the report. `run` gets a ring sink large enough
/// for the whole stream; a dropped event fails the cell.
fn observed_cell(
    out: &mut BTreeMap<String, String>,
    cell: &str,
    run: impl FnOnce(Box<dyn TraceSink>) -> (SimReport, RunObservations),
    check: impl FnOnce(&SimReport),
) {
    let (report, mut obs) = run(Box::new(RingSink::new(EVENT_RING)));
    assert_eq!(obs.sink.dropped(), 0, "{cell}: the ring dropped events");
    check(&report);
    let jsonl: Vec<String> = obs
        .sink
        .drain()
        .iter()
        .map(|e| serde_json::to_string(e).expect("event serializes"))
        .collect();
    out.insert(
        format!("{cell}/json"),
        common::digest(report.deterministic_json().as_bytes()),
    );
    out.insert(
        format!("{cell}/events"),
        common::digest(jsonl.join("\n").as_bytes()),
    );
    if let Some(spans) = &obs.spans {
        let json = serde_json::to_string(&spans.background).expect("spans serialize");
        out.insert(format!("{cell}/spans"), common::digest(json.as_bytes()));
    }
}

/// Kills `disk` at `at_ms` during `src2_2`, keyed
/// `<scheme>/src2_2/fail=<disk>@<ms>ms/{json,events}`.
fn crash_cell(out: &mut BTreeMap<String, String>, scheme: Scheme, disk: usize, at_ms: u64) {
    let dur = Duration::from_secs(900);
    let mut c = cfg(scheme, false);
    c.faults = FaultPlan::single(disk, Duration::from_millis(at_ms));
    let cell = format!("{scheme}/src2_2/fail={disk}@{at_ms}ms");
    let records = workload("src2_2", dur, 42);
    let run = |sink| run_scheme_observed(&c, records, dur, sink, false);
    observed_cell(out, &cell, run, |report| {
        assert_eq!(
            report.faults.disk_failures, 1,
            "{cell}: the failure must fire once"
        );
        let p = &report.policy;
        assert_eq!(p.log_replays, 1, "{cell}: one replay pass");
        assert_eq!(p.replay_divergence, 0, "{cell}: replay diverged");
        if scheme != Scheme::Graid {
            assert!(p.torn_records > 0, "{cell}: the crash must tear records");
        }
    });
}

/// Runs `scheme` over `trace` on 256 MiB disks with a 32 MiB logger, the
/// scrub on, and latent sector errors plus correlated enclosure shocks
/// injected (the corruption plan of `tests/fault_injection.rs`), keyed
/// `<scheme>/<trace>/lse/{json,events}`.
fn lse_cell(out: &mut BTreeMap<String, String>, scheme: Scheme, trace: &str) {
    let dur = Duration::from_secs(900);
    let mut c = cfg(scheme, true);
    c.disk.capacity_bytes = 256 << 20;
    c.logger_region = 32 << 20;
    c.faults.lse_rate_active = 0.02;
    c.faults.lse_rate_standby = 0.08;
    c.faults.lse_extent = 64 << 10;
    c.faults.shock_rate = 1.0 / 120.0;
    c.faults.shock_fail_prob = 0.2;
    c.faults.shock_enclosure = 2;
    c.faults.correlation_window = Duration::from_secs(2);
    c.faults.seed = 42;
    let cell = format!("{scheme}/{trace}/lse");
    let records = workload(trace, dur, 42);
    let run = |sink| run_scheme_observed(&c, records, dur, sink, false);
    observed_cell(out, &cell, run, |report| {
        let f = &report.faults;
        assert!(f.lse_conserved(), "{cell}: latent extents unaccounted");
        assert!(f.lse_repaired_by_scrub > 0, "{cell}: no scrub repair");
        assert!(
            f.lse_overwritten > 0,
            "{cell}: no latent extent overwritten"
        );
        assert!(f.lse_lost > 0, "{cell}: no latent extent lost");
    });
}

/// GRAID over `src2_2` with the scrub and spans on, on 256 MiB disks
/// with a 32 MiB logger: primary 1 fails at 120 s and disk 6 (pair 2's
/// mirror, one of the sources GRAID reads to rebuild it) at 120.5 s,
/// with rebuild reads in flight on it.
fn rebuild_source_cell(out: &mut BTreeMap<String, String>) {
    let dur = Duration::from_secs(900);
    let mut c = cfg(Scheme::Graid, true);
    c.disk.capacity_bytes = 256 << 20;
    c.logger_region = 32 << 20;
    c.faults.disk_failures = vec![
        (1, Duration::from_secs(120)),
        (6, Duration::from_millis(120_500)),
    ];
    let cell = "GRAID/src2_2/fail=1@120000ms+6@120500ms";
    let region = c.data_region();
    let records = workload("src2_2", dur, 42);
    let run = |sink| run_scheme_observed(&c, records, dur, sink, true);
    observed_cell(out, cell, run, |report| {
        report
            .consistency
            .as_ref()
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        let f = &report.faults;
        assert_eq!(f.disk_failures, 2, "{cell}: both failures must fire");
        assert_eq!(f.rebuilds_completed, 2, "{cell}: both slots rebuilt");
        assert_eq!(f.rebuild_bytes, 2 * region, "{cell}: rebuild bytes");
        assert!(f.scrub_chunks > 0, "{cell}: the scrub never ran");
    });
}

/// RoLo-E over `hm_1` with transient timeouts (20 % of I/Os, two retries
/// with a 5 ms doubling backoff) and Bernoulli media errors on 2 % of
/// reads, keyed `RoLo-E/hm_1/transient/{json,events}`.
fn transient_cell(out: &mut BTreeMap<String, String>) {
    let dur = Duration::from_secs(900);
    let mut c = cfg(Scheme::RoloE, false);
    c.faults.timeout_per_io = 0.2;
    c.faults.media_error_per_read = 0.02;
    c.faults.max_retries = 2;
    c.faults.retry_backoff = Duration::from_millis(5);
    c.faults.seed = 42;
    let cell = "RoLo-E/hm_1/transient";
    let records = workload("hm_1", dur, 42);
    let run = |sink| run_scheme_observed(&c, records, dur, sink, false);
    observed_cell(out, cell, run, |report| {
        report
            .consistency
            .as_ref()
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        let f = &report.faults;
        assert!(f.timeouts > 0, "{cell}: no timeout");
        assert!(f.retries > 0, "{cell}: no retry");
        assert!(f.io_lost > 0, "{cell}: no I/O exhausted its retries");
        assert!(f.media_errors > 0, "{cell}: no media error");
        assert!(f.reads_redirected > 0, "{cell}: no read redirected");
        assert!(report.policy.destage_cycles > 0, "{cell}: never destaged");
    });
}

/// Checks a logging policy's run outside the scheme matrix: consistent,
/// and it both rotated (or shifted gear) and destaged.
fn check_logging(cell: &str, report: &SimReport) {
    report
        .consistency
        .as_ref()
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    assert!(report.policy.rotations > 0, "{cell}: never rotated");
    assert!(report.policy.destaged_bytes > 0, "{cell}: never destaged");
}

/// PARAID over `src2_2`: gear up at 40 IOPS, down at 8 IOPS, 30 s hold.
fn paraid_cell(out: &mut BTreeMap<String, String>) {
    let dur = Duration::from_secs(900);
    let c = cfg(Scheme::Raid10, false);
    let geo = c.geometry().expect("geometry");
    let policy = ParaidPolicy::new(
        c.pairs,
        geo.logger_base(),
        geo.logger_region(),
        40.0,
        8.0,
        Duration::from_secs(30),
        c.destage_chunk,
    );
    let records = workload("src2_2", dur, 42);
    let run = |sink| {
        let (report, _, obs) = run_trace_observed(&c, records, policy, dur, sink, false);
        (report, obs)
    };
    observed_cell(out, "PARAID/src2_2", run, |r| check_logging("PARAID", r));
}

/// RoLo-5 over `src2_2` on the matrix array, rotating at 2 % fill.
fn rolo5_cell(out: &mut BTreeMap<String, String>) {
    let dur = Duration::from_secs(900);
    let c = cfg(Scheme::Raid10, false);
    let geo = Raid5Geometry::new(c.disk_count(), c.stripe_unit, c.data_region());
    let policy = Rolo5Policy::new(geo, c.data_region(), c.logger_region, 0.02, c.destage_chunk);
    let records = workload("src2_2", dur, 42);
    let run = |sink| {
        let (report, _, obs) = run_trace_observed(&c, records, policy, dur, sink, false);
        (report, obs)
    };
    observed_cell(out, "RoLo-5/src2_2", run, |r| check_logging("RoLo-5", r));
}

/// Runs every cell and returns `key → digest`, sorted by key.
fn current_digests() -> BTreeMap<String, String> {
    let dur = Duration::from_secs(900);
    let mut out = BTreeMap::new();
    for scheme in Scheme::all() {
        for trace in TRACES {
            let records = workload(trace, dur, 42);
            for scrub in [false, true] {
                for spans in [false, true] {
                    let c = cfg(scheme, scrub);
                    let json = if spans {
                        let sink = Box::new(NullSink);
                        let (report, _) = run_scheme_observed(&c, records.clone(), dur, sink, true);
                        report.deterministic_json()
                    } else {
                        run_scheme(&c, records.clone(), dur).deterministic_json()
                    };
                    let key = format!(
                        "{scheme}/{trace}/spans={}/scrub={}",
                        if spans { "on" } else { "off" },
                        if scrub { "on" } else { "off" },
                    );
                    out.insert(key, common::digest(json.as_bytes()));
                }
            }
        }
    }
    let key = format!("{}/hm_1/cache={SMALL_CACHE_BLOCKS}", Scheme::RoloE);
    out.insert(key, common::digest(evicting_cell(dur).as_bytes()));
    for (scheme, disk, at_ms) in CRASHES {
        crash_cell(&mut out, scheme, disk, at_ms);
    }
    for (scheme, trace) in LSE_CELLS {
        lse_cell(&mut out, scheme, trace);
    }
    paraid_cell(&mut out);
    rolo5_cell(&mut out);
    rebuild_source_cell(&mut out);
    transient_cell(&mut out);
    out
}

#[test]
fn engine_reproduces_golden_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines/engine/golden.txt");
    common::check_golden(&path, HEADER, &current_digests());
}
