//! Golden engine-equivalence fixtures: the hot-path engine rewrite
//! (calendar event queue, slab-allocated I/O state, batched RNG draws)
//! must not change a single observable byte. This suite replays every
//! scheme over two contrasting traces (write-heavy `src2_2`, read-heavy
//! `hm_1`) — with span recording on and off, and with the background
//! scrub on and off — and compares the
//! FNV-1a digest of each run's `deterministic_json` against the digests
//! committed under `baselines/engine/golden.txt`, which were generated
//! by the pre-rewrite (binary-heap, HashMap-everywhere) engine.
//!
//! Any digest drift fails CI until the baseline is deliberately
//! re-blessed with `ROLO_BLESS_GOLDEN=1 cargo test -p rolo-bench
//! --test engine_equivalence` — an intentional model change, never a
//! silent engine divergence.

use rolo_bench::fnv1a_hex;
use rolo_core::{run_scheme, run_scheme_observed, Scheme, SimConfig};
use rolo_obs::NullSink;
use rolo_sim::Duration;
use rolo_trace::{profiles, TraceRecord};
use std::collections::BTreeMap;
use std::path::PathBuf;

const TRACES: [&str; 2] = ["src2_2", "hm_1"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/engine/golden.txt")
}

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

/// Runs the full matrix and returns `key → digest`, sorted by key.
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
                    out.insert(key, fnv1a_hex(json.as_bytes()));
                }
            }
        }
    }
    out
}

fn parse_golden(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, digest) = l.split_once(' ').expect("golden line is `<key> <digest>`");
            (key.to_owned(), digest.trim().to_owned())
        })
        .collect()
}

fn render_golden(digests: &BTreeMap<String, String>) -> String {
    let mut out = String::from(
        "# deterministic_json FNV-1a digests of the pre-rewrite engine\n\
         # (5 schemes x {src2_2, hm_1} x spans on/off x scrub on/off,\n\
         # 900 simulated seconds, 4 pairs, seed 42). Regenerate with\n\
         # ROLO_BLESS_GOLDEN=1 cargo test -p rolo-bench --test engine_equivalence\n",
    );
    for (k, v) in digests {
        out.push_str(&format!("{k} {v}\n"));
    }
    out
}

#[test]
fn engine_reproduces_golden_digests() {
    let current = current_digests();
    let path = golden_path();
    if std::env::var("ROLO_BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create baselines/engine");
        std::fs::write(&path, render_golden(&current)).expect("write golden digests");
        println!("blessed {} digests to {}", current.len(), path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); bless it with ROLO_BLESS_GOLDEN=1",
            path.display()
        )
    });
    let golden = parse_golden(&text);
    assert_eq!(
        golden.len(),
        current.len(),
        "golden fixture covers a different matrix; re-bless deliberately"
    );
    let mut drifted = Vec::new();
    for (key, want) in &golden {
        let got = current.get(key).expect("matrix sizes already matched");
        if got != want {
            drifted.push(format!("{key}: {got} != golden {want}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "engine output drifted from the pre-rewrite bytes for {} cell(s):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
