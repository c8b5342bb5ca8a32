//! `inspect dump`: replays one scheme/trace combination with a
//! `RingSink` attached and dumps the recorded event stream as JSONL,
//! plus a per-disk power-state residency table and per-kind event
//! counts (DESIGN.md §9).
//!
//! * `--out` — JSONL output path (default `results/trace_dump.jsonl`).
//! * `--scrub` — shrink the disks, enable the background scrub and
//!   latent-error injection (DESIGN.md §11) so scrub events appear in
//!   the stream.
//! * `--slo` — print the scheme's SLO burn/breach summary (per
//!   objective: warnings, breaches, first firing windows, peak burn)
//!   from the run's `SloBurnWarning`/`SloBreach` events (DESIGN.md
//!   §12).
//! * `--check` — re-parse every emitted line with the vendored JSON
//!   parser and validate that events touching the same disk carry
//!   non-decreasing timestamps; exit 1 on any malformed line or
//!   time-travel (the CI guard). It also checks the segment lifecycle
//!   (DESIGN.md §10). With `--scrub` it additionally checks the scrub
//!   lifecycle: per disk, every pass opens with `ScrubStart`, repairs
//!   land only inside an open pass, `ScrubComplete` closes the pass it
//!   opened, and no scrub event ever touches a disk whose tracked power
//!   state is spun down. It always checks the SLO alert lifecycle —
//!   within one telemetry window a `SloBreach` must be preceded by that
//!   objective's `SloBurnWarning` — and with `--slo` on RoLo-E (the
//!   scheme the pipeline exists to flag) it fails if the run produced
//!   no SLO events at all (vacuous check).

use crate::{fail, RING_CAPACITY};
use rolo_bench::cli::Invocation;
use rolo_core::Scheme;
use rolo_obs::{RingSink, SimEvent, TracedEvent};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;

/// Accumulates per-disk residency in each power state from the
/// `DiskInit`/`DiskState` events of a trace.
#[derive(Default)]
struct Residency {
    /// disk → (current state, since-micros).
    current: BTreeMap<usize, (String, u64)>,
    /// (disk, state) → accumulated micros.
    acc: BTreeMap<(usize, String), u64>,
}

impl Residency {
    fn observe(&mut self, ev: &TracedEvent) {
        let at = ev.at.as_micros();
        match &ev.event {
            SimEvent::DiskInit { disk, state } => {
                self.current.insert(*disk, (format!("{state:?}"), at));
            }
            SimEvent::DiskState { disk, to, .. } => {
                if let Some((state, since)) = self.current.remove(disk) {
                    *self.acc.entry((*disk, state)).or_default() += at - since;
                }
                self.current.insert(*disk, (format!("{to:?}"), at));
            }
            _ => {}
        }
    }

    fn finish(&mut self, end_micros: u64) {
        for (disk, (state, since)) in std::mem::take(&mut self.current) {
            *self.acc.entry((disk, state)).or_default() += end_micros.saturating_sub(since);
        }
    }

    fn print(&self) {
        const STATES: [&str; 5] = ["Active", "Idle", "Standby", "SpinningUp", "SpinningDown"];
        println!("\nper-disk state residency (seconds):");
        println!(
            "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "disk", "active", "idle", "standby", "spin-up", "spin-down"
        );
        let disks: BTreeSet<usize> = self.acc.keys().map(|&(disk, _)| disk).collect();
        for disk in disks {
            print!("{disk:>5}");
            for state in STATES {
                let us = self.acc.get(&(disk, state.to_owned())).copied();
                print!(" {:>12.1}", us.unwrap_or(0) as f64 / 1e6);
            }
            println!();
        }
    }
}

/// Runs `inspect dump`.
pub fn run(inv: &Invocation) {
    let spec = &inv.spec;
    let mut cfg = spec.config();
    if inv.scrub {
        // Shrunk disks so full scrub passes complete inside the window,
        // plus latent-error accrual for the scrub to find.
        cfg.disk.capacity_bytes = 256 << 20;
        cfg.logger_region = 32 << 20;
        cfg.graid_log_capacity = 64 << 20;
        cfg.scrub_enabled = true;
        cfg.faults.lse_rate_active = 0.005;
        cfg.faults.lse_rate_standby = 0.02;
    }
    let (report, obs) = spec.observe(&cfg, Box::new(RingSink::new(RING_CAPACITY)), false);
    let mut sink = obs.sink;
    let dropped = sink.dropped();
    let events = sink.drain();
    if dropped > 0 {
        eprintln!(
            "warning: ring overflowed, {dropped} oldest events overwritten \
             (capacity {RING_CAPACITY})"
        );
    }

    // JSONL dump: one TracedEvent object per line.
    let path = inv.out.clone().unwrap_or_else(|| {
        let dir = rolo_bench::results_dir();
        let _ = std::fs::create_dir_all(&dir);
        dir.join("trace_dump.jsonl").to_string_lossy().into_owned()
    });
    let mut file =
        std::fs::File::create(&path).unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
    for ev in &events {
        writeln!(file, "{}", Serialize::to_value(ev)).expect("write JSONL line");
    }
    drop(file);
    println!(
        "{} events ({} dropped) written to {path}",
        events.len(),
        dropped
    );

    // Per-kind counts and the residency table.
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut residency = Residency::default();
    let mut end = 0;
    for ev in &events {
        *kinds.entry(ev.event.kind_name()).or_default() += 1;
        residency.observe(ev);
        end = end.max(ev.at.as_micros());
    }
    println!("\nevent counts by kind:");
    for (kind, n) in &kinds {
        println!("{kind:>20} {n:>10}");
    }
    residency.finish(end);
    residency.print();

    // --slo: per-objective burn/breach summary from the event stream
    // (DESIGN.md §12). Burn rates travel in the events as x100 fixed
    // point, so the peak column is exact, not re-derived.
    if inv.slo {
        #[derive(Default)]
        struct SloTally {
            warnings: u64,
            breaches: u64,
            first_warn: Option<u64>,
            first_breach: Option<u64>,
            peak_burn_x100: u64,
        }
        let mut tallies: BTreeMap<String, SloTally> = BTreeMap::new();
        for ev in &events {
            match &ev.event {
                SimEvent::SloBurnWarning(w) => {
                    let t = tallies.entry(w.slo.clone()).or_default();
                    t.warnings += 1;
                    t.first_warn.get_or_insert(w.window);
                    t.peak_burn_x100 = t.peak_burn_x100.max(w.burn_short_x100);
                }
                SimEvent::SloBreach(b) => {
                    let t = tallies.entry(b.slo.clone()).or_default();
                    t.breaches += 1;
                    t.first_breach.get_or_insert(b.window);
                }
                _ => {}
            }
        }
        println!("\nSLO burn/breach summary ({}):", report.scheme);
        if tallies.is_empty() {
            println!("  no SLO events: every objective stayed within budget");
        } else {
            println!(
                "{:>16} {:>9} {:>9} {:>11} {:>13} {:>10}",
                "slo", "warnings", "breaches", "first-warn", "first-breach", "peak-burn"
            );
            let fmt_w = |w: Option<u64>| w.map_or("-".to_owned(), |w| format!("w{w}"));
            for (slo, t) in &tallies {
                println!(
                    "{:>16} {:>9} {:>9} {:>11} {:>13} {:>9.2}x",
                    slo,
                    t.warnings,
                    t.breaches,
                    fmt_w(t.first_warn),
                    fmt_w(t.first_breach),
                    t.peak_burn_x100 as f64 / 100.0
                );
            }
        }
    }

    println!(
        "\nscheme {} | {} requests | mean response {:.3} ms | {}",
        report.scheme,
        report.user_requests,
        report.mean_response_ms(),
        report.profile.summary()
    );

    if inv.check {
        check(inv, &events, &path);
    }
}

/// `--check`: every line must round-trip through the strict JSON
/// parser, and the stream must respect the per-disk clock and the
/// segment, scrub and SLO lifecycles. Exits 1 on the first kind of
/// violation found, in that order.
fn check(inv: &Invocation, events: &[TracedEvent], path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot re-read {path}: {e}")));
    for (i, line) in text.lines().enumerate() {
        if let Err(e) = serde_json::from_str(line) {
            fail(format!("malformed JSONL at {path}:{}: {e}", i + 1));
        }
    }
    // Violations per lifecycle, each complaint printed as found.
    let (mut clock, mut segment, mut scrub, mut slo) = (0u64, 0u64, 0u64, 0u64);
    let complain = |n: &mut u64, i: usize, msg: String| {
        *n += 1;
        eprintln!("event {i}: {msg}");
    };
    // Per-disk clock: the ring preserves emission order, so the events
    // touching any one disk must carry non-decreasing timestamps — a
    // violation means an event was stamped with a stale clock (or the
    // ring reordered), either of which breaks every downstream
    // residency/latency computation.
    let mut last_at: BTreeMap<usize, u64> = BTreeMap::new();
    // Segment lifecycle (DESIGN.md §10): sealing, compacting or
    // archiving a segment the stream never allocated, or retiring a
    // frame no archive produced, breaks the journal's state machine.
    let mut allocated: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut archived_frames: BTreeSet<(usize, u64)> = BTreeSet::new();
    // Scrub lifecycle (DESIGN.md §11): per disk, a pass opens with
    // ScrubStart(pass), repairs land only while a pass is open, and
    // ScrubComplete closes exactly the pass that opened. The scrub is
    // power-aware, so no scrub event may touch a disk whose tracked
    // power state is spun down (Standby; for the issue-time ScrubStart,
    // SpinningDown as well).
    let mut power: BTreeMap<usize, String> = BTreeMap::new();
    let mut open_pass: BTreeMap<usize, u64> = BTreeMap::new();
    let mut scrub_events = 0u64;
    // SLO alert lifecycle (DESIGN.md §12): the monitor's breach
    // condition subsumes its warning condition, so within any one
    // telemetry window a SloBreach for an objective must appear after
    // that objective's SloBurnWarning in the stream.
    let mut warned: BTreeSet<(String, u64)> = BTreeSet::new();
    let mut slo_events = 0u64;
    for (i, ev) in events.iter().enumerate() {
        if let Some(disk) = ev.event.disk() {
            let at = ev.at.as_micros();
            if let Some(prev) = last_at.insert(disk, at).filter(|&prev| at < prev) {
                let kind = ev.event.kind_name();
                complain(
                    &mut clock,
                    i,
                    format!("disk {disk} time-travel: {at} < {prev} ({kind})"),
                );
            }
        }
        if let SimEvent::SegmentArchived { disk, frame, .. } = &ev.event {
            archived_frames.insert((*disk, *frame));
        }
        let spun_down = |disk: &usize| power.get(disk).map(String::as_str) == Some("Standby");
        match &ev.event {
            SimEvent::SegmentAllocated { disk, segment: seg } => {
                allocated.insert((*disk, *seg));
            }
            SimEvent::SegmentSealed {
                disk, segment: seg, ..
            }
            | SimEvent::SegmentCompacted {
                disk, segment: seg, ..
            }
            | SimEvent::SegmentArchived {
                disk, segment: seg, ..
            } if !allocated.contains(&(*disk, *seg)) => {
                let what = ev.event.kind_name();
                let msg = format!("{what} references never-allocated segment {seg} on disk {disk}");
                complain(&mut segment, i, msg);
            }
            SimEvent::ArchiveFrameRetired { disk, frame }
                if !archived_frames.contains(&(*disk, *frame)) =>
            {
                let msg = format!(
                    "ArchiveFrameRetired references never-archived frame {frame} on disk {disk}"
                );
                complain(&mut segment, i, msg);
            }
            SimEvent::DiskInit { disk, state } => {
                power.insert(*disk, format!("{state:?}"));
            }
            SimEvent::DiskState { disk, to, .. } => {
                power.insert(*disk, format!("{to:?}"));
            }
            SimEvent::ScrubStart { disk, pass } => {
                scrub_events += 1;
                let state = power.get(disk).map(String::as_str).unwrap_or("?");
                if state == "Standby" || state == "SpinningDown" {
                    complain(
                        &mut scrub,
                        i,
                        format!("ScrubStart on disk {disk} in state {state}"),
                    );
                }
                if let Some(open) = open_pass.insert(*disk, *pass) {
                    let msg =
                        format!("ScrubStart pass {pass} on disk {disk} while pass {open} open");
                    complain(&mut scrub, i, msg);
                }
            }
            SimEvent::ScrubRepair { disk, .. } => {
                scrub_events += 1;
                if spun_down(disk) {
                    complain(
                        &mut scrub,
                        i,
                        format!("ScrubRepair on spun-down disk {disk}"),
                    );
                }
                if !open_pass.contains_key(disk) {
                    complain(
                        &mut scrub,
                        i,
                        format!("ScrubRepair on disk {disk} with no pass open"),
                    );
                }
            }
            SimEvent::ScrubComplete { disk, pass, .. } => {
                scrub_events += 1;
                if spun_down(disk) {
                    complain(
                        &mut scrub,
                        i,
                        format!("ScrubComplete on spun-down disk {disk}"),
                    );
                }
                let msg = match open_pass.remove(disk) {
                    Some(open) if open == *pass => continue,
                    Some(open) => format!("closes open pass {open}"),
                    None => "with no pass open".to_owned(),
                };
                let msg = format!("ScrubComplete pass {pass} on disk {disk} {msg}");
                complain(&mut scrub, i, msg);
            }
            SimEvent::SloBurnWarning(w) => {
                slo_events += 1;
                warned.insert((w.slo.clone(), w.window));
            }
            SimEvent::SloBreach(b) => {
                slo_events += 1;
                let (name, window) = (&b.slo, b.window);
                if !warned.contains(&(name.clone(), window)) {
                    let msg = format!(
                        "SloBreach({name}, w{window}) with no preceding warning in its window"
                    );
                    complain(&mut slo, i, msg);
                }
            }
            _ => {}
        }
    }
    for (n, what) in [
        (clock, "per-disk timestamp"),
        (segment, "segment-lifecycle"),
        (scrub, "scrub-lifecycle"),
    ] {
        if n > 0 {
            fail(format!("check: {n} {what} violations"));
        }
    }
    if inv.scrub && scrub_events == 0 {
        fail("check: --scrub run produced no scrub events (vacuous check)");
    }
    if slo > 0 {
        fail(format!("check: {slo} SLO-lifecycle violations"));
    }
    // The pipeline exists to flag RoLo-E's spin-up tail: a --slo check
    // run on that scheme that raises no alert at all proves nothing, so
    // fail it as vacuous (mirrors the --scrub guard).
    if inv.slo && inv.spec.scheme == Scheme::RoloE && slo_events == 0 {
        fail("check: --slo run on rolo-e produced no SLO events (vacuous check)");
    }
    println!(
        "check: {} JSONL lines parse cleanly, per-disk timestamps monotone, \
         segment lifecycle ordered, scrub lifecycle ordered ({} scrub events), \
         SLO lifecycle ordered ({} SLO events)",
        text.lines().count(),
        scrub_events,
        slo_events
    );
}
