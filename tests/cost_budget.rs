//! Cost budgets: allocations per request, simulator events per request
//! and peak heap for a short fixed-seed slice through every controller,
//! checked against the ceilings in `baselines/cost/budget.txt`.
//!
//! The cells replay `proj_0` through RAID10, GRAID, RoLo-P, RoLo-R,
//! PARAID and RoLo-5 with logging space small enough to rotate and
//! destage, and `hm_1` through RoLo-E, once plain and once with a ring
//! sink, spans and RCA on. Every count is exact for a given build: the
//! records are generated before the measured section, the replay runs
//! on the test's own thread, and the allocator counts per thread.
//!
//! Blessing (`ROLO_BLESS_GOLDEN=1 cargo test --test cost_budget`) sets
//! each ceiling to the measurement plus the headroom in [`Metric`]. A
//! change that lowers a cost re-blesses the file; one that raises a
//! cost past its ceiling fails here until it is re-blessed and the rise
//! is named in CHANGES.md.

use rolo::core::{
    run_scheme_observed, run_trace_observed, ParaidPolicy, Scheme, SimConfig, SimReport,
};
use rolo::obs::{NullSink, RingSink, TraceSink};
use rolo::parity::{Raid5Geometry, Rolo5Policy};
use rolo::sim::Duration;
use rolo::trace::{profiles, TraceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The system allocator plus per-thread counters, so tests running in
/// parallel cannot see each other's allocations.
struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

thread_local! {
    // Signed: a thread may free what another allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note(freed: usize, allocated: usize) {
    // `try_with` never panics, which an allocator must not do; it only
    // fails while the thread's locals are being torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() - freed as isize + allocated as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    if allocated > 0 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the counting beside it touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(0, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(0, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        note(layout.size(), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(layout.size(), new_size);
        }
        p
    }
}

/// One budgeted cost.
#[derive(Debug, Clone, Copy)]
enum Metric {
    AllocsPerReq,
    EventsPerReq,
    PeakHeapMb,
}

impl Metric {
    const ALL: [Metric; 3] = [
        Metric::AllocsPerReq,
        Metric::EventsPerReq,
        Metric::PeakHeapMb,
    ];

    fn name(self) -> &'static str {
        match self {
            Metric::AllocsPerReq => "allocs_per_req",
            Metric::EventsPerReq => "events_per_req",
            Metric::PeakHeapMb => "peak_heap_mb",
        }
    }

    /// The ceiling a blessing sets over a measurement. Allocations get
    /// 0.05 per request, far below the 1.0 one more allocation per
    /// request adds; events are deterministic and get none; the peak
    /// gets 5 % for growth-policy differences between toolchains.
    fn ceiling(self, measured: f64) -> f64 {
        match self {
            Metric::AllocsPerReq => measured + 0.05,
            Metric::EventsPerReq => measured,
            Metric::PeakHeapMb => measured * 1.05,
        }
    }
}

/// What one cell cost.
struct Cost {
    requests: u64,
    allocs: u64,
    events: u64,
    peak_bytes: u64,
    destage_cycles: u64,
}

impl Cost {
    fn get(&self, m: Metric) -> f64 {
        match m {
            Metric::AllocsPerReq => self.allocs as f64 / self.requests as f64,
            Metric::EventsPerReq => self.events as f64 / self.requests as f64,
            Metric::PeakHeapMb => self.peak_bytes as f64 / 1e6,
        }
    }
}

/// Replays `trace` for `dur` through `run`, counting from after the
/// records are generated to after the report is dropped.
fn measure(
    trace: &str,
    dur: Duration,
    run: impl FnOnce(Vec<TraceRecord>, Duration) -> SimReport,
) -> Cost {
    let records: Vec<_> = profiles::by_name(trace)
        .expect("known trace profile")
        .generator(dur, 7)
        .collect();
    let generated = records.len() as u64;
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    let allocs = ALLOCS.with(Cell::get);
    let report = run(records, dur);
    let destage_cycles = report.policy.destage_cycles;
    let (requests, events) = (report.user_requests, report.profile.events_processed);
    drop(report);
    let cost = Cost {
        requests,
        allocs: ALLOCS.with(Cell::get) - allocs,
        events,
        peak_bytes: (PEAK.with(Cell::get) - live).max(0) as u64,
        destage_cycles,
    };
    assert_eq!(cost.requests, generated, "every request completes");
    assert!(cost.requests > 1000, "{trace}: too short a slice");
    cost
}

/// `cfg.scheme`'s controller, with no observers or with a 4096-event
/// ring, spans and (if `cfg` enables it) RCA.
fn scheme(
    cfg: &SimConfig,
    observed: bool,
) -> impl FnOnce(Vec<TraceRecord>, Duration) -> SimReport + '_ {
    move |records, dur| {
        let sink: Box<dyn TraceSink> = if observed {
            Box::new(RingSink::new(4096))
        } else {
            Box::new(NullSink)
        };
        run_scheme_observed(cfg, records, dur, sink, observed).0
    }
}

/// The budgeted cells: `(name, cost)`.
fn cells() -> Vec<(&'static str, Cost)> {
    let (hour, two_hours) = (Duration::from_secs(3600), Duration::from_secs(2 * 3600));
    let small = |scheme| {
        let mut cfg = SimConfig::paper_default(scheme, 4);
        cfg.logger_region = 64 << 20;
        cfg.graid_log_capacity = 128 << 20;
        cfg.seed = 7;
        cfg
    };
    let raid10 = small(Scheme::Raid10);
    let geo = raid10.geometry().expect("valid geometry");
    // PARAID gears up at 40 IOPS and down at 8 after a 30 s hold; RoLo-5
    // rotates at 2 % fill, both on the RAID10 cell's disks.
    let paraid = |records, dur| {
        let policy = ParaidPolicy::new(
            raid10.pairs,
            geo.logger_base(),
            geo.logger_region(),
            40.0,
            8.0,
            Duration::from_secs(30),
            raid10.destage_chunk,
        );
        run_trace_observed(&raid10, records, policy, dur, Box::new(NullSink), false).0
    };
    let rolo5 = |records, dur| {
        let geo = Raid5Geometry::new(
            raid10.disk_count(),
            raid10.stripe_unit,
            raid10.data_region(),
        );
        let policy = Rolo5Policy::new(
            geo,
            raid10.data_region(),
            raid10.logger_region,
            0.02,
            raid10.destage_chunk,
        );
        run_trace_observed(&raid10, records, policy, dur, Box::new(NullSink), false).0
    };
    let mut roloe = SimConfig::paper_default(Scheme::RoloE, 10);
    roloe.seed = 7;
    let mut observed = roloe.clone();
    observed.rca_enabled = true;
    let (graid, rolop, rolor) = (
        small(Scheme::Graid),
        small(Scheme::RoloP),
        small(Scheme::RoloR),
    );
    let cells = vec![
        (
            "raid10/proj_0",
            measure("proj_0", hour, scheme(&raid10, false)),
        ),
        (
            "graid/proj_0",
            measure("proj_0", hour, scheme(&graid, false)),
        ),
        (
            "rolo-p/proj_0",
            measure("proj_0", hour, scheme(&rolop, false)),
        ),
        (
            "rolo-r/proj_0",
            measure("proj_0", hour, scheme(&rolor, false)),
        ),
        ("paraid/proj_0", measure("proj_0", hour, paraid)),
        ("rolo-5/proj_0", measure("proj_0", hour, rolo5)),
        (
            "rolo-e/hm_1",
            measure("hm_1", two_hours, scheme(&roloe, false)),
        ),
        (
            "rolo-e-observed/hm_1",
            measure("hm_1", two_hours, scheme(&observed, true)),
        ),
    ];
    for (cell, cost) in &cells[1..4] {
        assert!(cost.destage_cycles > 0, "{cell}: the slice must destage");
    }
    cells
}

const HEADER: &str = "\
# Cost ceilings (tests/cost_budget.rs): `<cell>/<metric> <ceiling>`.
# proj_0 for 1 h on 4 pairs with 64 MB logger regions (128 MB GRAID
# log) through RAID10, GRAID, RoLo-P, RoLo-R, PARAID and RoLo-5; hm_1
# for 2 h on 10 pairs through RoLo-E, plain and with a 4096-event ring,
# spans and RCA. Seed 7. Each ceiling is the blessed measurement plus
# headroom: +0.05 allocations per request, +0 events per request, +5 %
# peak heap.
# Regenerate with
# ROLO_BLESS_GOLDEN=1 cargo test --test cost_budget
";

#[test]
fn costs_stay_within_budget() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines/cost/budget.txt");
    let mut measured = BTreeMap::new();
    for (cell, cost) in cells() {
        for m in Metric::ALL {
            measured.insert(format!("{cell}/{}", m.name()), (m, cost.get(m)));
        }
    }
    if std::env::var("ROLO_BLESS_GOLDEN").is_ok() {
        let mut text = HEADER.to_owned();
        for (key, &(m, v)) in &measured {
            writeln!(text, "{key} {:.4}", m.ceiling(v)).expect("format");
        }
        std::fs::create_dir_all(path.parent().expect("budget file has a directory"))
            .expect("create the budget directory");
        std::fs::write(&path, text).expect("write the budget");
        println!("blessed {} ceilings to {}", measured.len(), path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); bless it with ROLO_BLESS_GOLDEN=1",
            path.display()
        )
    });
    let ceilings: BTreeMap<&str, f64> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, v) = l.split_once(' ').expect("budget line is `<key> <ceiling>`");
            (key, v.trim().parse().expect("ceiling is a number"))
        })
        .collect();
    let mut problems = Vec::new();
    for (key, &(_, got)) in &measured {
        match ceilings.get(key.as_str()) {
            None => problems.push(format!("no ceiling for {key} (measured {got:.4})")),
            // Ceilings are written to four decimals.
            Some(&cap) if got > cap + 5e-5 => {
                problems.push(format!("over budget: {key} = {got:.4} > {cap:.4}"))
            }
            Some(&cap) => println!("{key} {got:.4} (ceiling {cap:.4})"),
        }
    }
    for key in ceilings.keys() {
        if !measured.contains_key(*key) {
            problems.push(format!("ceiling for a cell no longer measured: {key}"));
        }
    }
    assert!(
        problems.is_empty(),
        "{} is exceeded or stale in {} key(s); a deliberate rise is re-blessed and named in \
         CHANGES.md:\n{}",
        path.display(),
        problems.len(),
        problems.join("\n")
    );
}
