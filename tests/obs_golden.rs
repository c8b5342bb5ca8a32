//! Golden digests of every observation export. Two runs drive every
//! observability layer at once: a small wrapping `RingSink`, request
//! and background spans, telemetry, exemplars and RCA.
//!
//! - RoLo-E over two hours of `hm_1` on 10 pairs breaches its latency
//!   SLO, so the RCA report has windows to attribute.
//! - RoLo-P over `proj_0` with a 64 MB logger region rotates, destages
//!   and compacts, so every background span kind appears.
//!
//! Each export is reduced to an FNV-1a digest and compared against
//! `baselines/obs/golden.txt`. The exports are the drained JSONL, the
//! sink's offered/dropped counts and per-kind drop roll-up, the
//! serialized request and background spans, the exemplars, the RCA
//! report, the telemetry snapshot and the report's `deterministic_json`.
//! Any drift fails until the file is deliberately re-blessed with
//! `ROLO_BLESS_GOLDEN=1 cargo test --test obs_golden`.

mod common;

use rolo::core::{run_scheme_observed, RunObservations, Scheme, SimConfig, SimReport};
use rolo::obs::{BgSpanKind, RequestSpan, RingSink, SimEvent, TraceSink, TracedEvent};
use rolo::sim::{Duration, SimTime};
use rolo::trace::profiles;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

/// Events the ring retains; both runs emit several times more.
const RING: usize = 4096;

/// A ring sink the test keeps a handle on, because the per-kind drop
/// roll-up is not part of the `TraceSink` trait. It also keeps every
/// request span it is offered, in completion order, since the run keeps
/// none.
#[derive(Debug)]
struct SharedRing(Rc<RefCell<RingSink>>, Vec<RequestSpan>);

impl TraceSink for SharedRing {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at: SimTime, event: SimEvent) {
        self.0.borrow_mut().record(at, event);
    }

    fn recorded(&self) -> u64 {
        self.0.borrow().recorded()
    }

    fn dropped(&self) -> u64 {
        self.0.borrow().dropped()
    }

    fn drain(&mut self) -> Vec<TracedEvent> {
        self.0.borrow_mut().drain()
    }

    fn span(&mut self, span: &RequestSpan) {
        self.1.push(span.clone());
    }

    fn take_spans(&mut self) -> Vec<RequestSpan> {
        std::mem::take(&mut self.1)
    }

    fn name(&self) -> &'static str {
        "ring"
    }
}

struct Observed {
    report: SimReport,
    obs: RunObservations,
    ring: Rc<RefCell<RingSink>>,
    /// The request spans, in completion order.
    spans: Vec<RequestSpan>,
}

fn observe(cfg: &SimConfig, trace: &str, dur: Duration) -> Observed {
    let records: Vec<_> = profiles::by_name(trace)
        .expect("known trace profile")
        .generator(dur, 42)
        .collect();
    let ring = Rc::new(RefCell::new(RingSink::new(RING)));
    let sink = Box::new(SharedRing(Rc::clone(&ring), Vec::new()));
    let (report, mut obs) = run_scheme_observed(cfg, records, dur, sink, true);
    let spans = obs.sink.take_spans();
    Observed {
        report,
        obs,
        ring,
        spans,
    }
}

/// Digests every export of one run, keyed `<run>/<export>`.
fn digest_into(out: &mut BTreeMap<String, String>, run: &str, o: &Observed) {
    let mut put = |export: &str, text: &str| {
        out.insert(format!("{run}/{export}"), common::digest(text.as_bytes()));
    };
    let json = |r: Result<String, serde_json::Error>| r.expect("serializes");
    let (recorded, dropped, by_kind) = {
        let ring = o.ring.borrow();
        let by_kind = format!("{:?}", ring.dropped_by_kind());
        (ring.recorded(), ring.dropped(), by_kind)
    };
    put(
        "sink",
        &format!("recorded={recorded} dropped={dropped} by_kind={by_kind}"),
    );
    let events = o.ring.borrow_mut().drain();
    let jsonl: Vec<String> = events
        .iter()
        .map(|e| json(serde_json::to_string(e)))
        .collect();
    put("jsonl", &jsonl.join("\n"));
    let spans = o.obs.spans.as_ref().expect("spans were on");
    put("spans.requests", &json(serde_json::to_string(&o.spans)));
    put(
        "spans.background",
        &json(serde_json::to_string(&spans.background)),
    );
    put("exemplars", &json(serde_json::to_string(&o.obs.exemplars)));
    put("rca", &json(serde_json::to_string(&o.obs.rca)));
    put("telemetry", &json(serde_json::to_string(&o.obs.telemetry)));
    put("deterministic_json", &o.report.deterministic_json());
}

fn roloe_hm1() -> Observed {
    let mut cfg = SimConfig::paper_default(Scheme::RoloE, 10);
    cfg.seed = 0x7e1e;
    cfg.rca_enabled = true;
    observe(&cfg, "hm_1", Duration::from_secs(2 * 3600))
}

fn rolop_proj0() -> Observed {
    let mut cfg = SimConfig::paper_default(Scheme::RoloP, 4);
    cfg.logger_region = 64 << 20;
    cfg.rca_enabled = true;
    observe(&cfg, "proj_0", Duration::from_secs(3600))
}

/// The report's response summary is the merge of its read and write
/// summaries: it counts every read and every write once.
fn check_response_summaries(name: &str, r: &SimReport) {
    let (reads, writes) = (r.read_responses.count(), r.write_responses.count());
    assert_eq!(
        r.responses.count(),
        reads + writes,
        "{name}: reads + writes"
    );
}

/// Fails unless the run exercised what its digests are meant to pin.
fn check_coverage(e: &Observed, p: &Observed) {
    for (name, o) in [("rolo-e", e), ("rolo-p", p)] {
        check_response_summaries(name, &o.report);
        assert!(o.ring.borrow().dropped() > 0, "{name}: the ring must wrap");
        assert!(
            !o.obs.spans.as_ref().expect("spans on").requests.is_empty(),
            "{name}: no request spans"
        );
    }
    let rca = e.obs.rca.as_ref().expect("rca on");
    assert!(rca.breaches > 0, "rolo-e must breach its SLO");
    assert!(!rca.windows.is_empty(), "rolo-e: empty RCA report");
    let bg = &p.obs.spans.as_ref().expect("spans on").background;
    for kind in [BgSpanKind::Destage, BgSpanKind::Compaction] {
        assert!(
            bg.iter().any(|s| s.kind == kind),
            "rolo-p: no {kind:?} background span"
        );
    }
    assert!(p.report.policy.rotations > 0, "rolo-p must rotate");
}

const HEADER: &str = "\
# FNV-1a digests of the observation exports (tests/obs_golden.rs):
# RoLo-E x hm_1 (2 h, 10 pairs) and RoLo-P x proj_0 (1 h, 4 pairs,
# 64 MB logger region), each with a 4096-event ring sink, spans
# and RCA. The two deterministic_json digests were last re-blessed
# when the report dropped its `metrics` export (a declared output
# change that moved no other key). Regenerate with
# ROLO_BLESS_GOLDEN=1 cargo test --test obs_golden
";

#[test]
fn observation_exports_match_golden_digests() {
    let (e, p) = (roloe_hm1(), rolop_proj0());
    check_coverage(&e, &p);
    let mut current = BTreeMap::new();
    digest_into(&mut current, "rolo-e/hm_1", &e);
    digest_into(&mut current, "rolo-p/proj_0", &p);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines/obs/golden.txt");
    common::check_golden(&path, HEADER, &current);
}
