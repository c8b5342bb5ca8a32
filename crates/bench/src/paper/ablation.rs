//! Ablation study of RoLo's design choices (not a paper figure —
//! DESIGN.md §4 calls these out as the load-bearing mechanisms).
//!
//! Three mechanisms are switched off or varied one at a time on RoLo-P
//! under the src2_2 workload:
//!
//! 1. **idle-slot detection** (`bg_idle_guard`): 0 ms (destage whenever
//!    the queue is momentarily empty) vs the 10 ms default vs 50 ms —
//!    quantifies how much "only free bandwidth" protection the guard
//!    buys in foreground response time;
//! 2. **seamless logger hand-over** (`eager_spinup`): off vs on — shows
//!    the cost of stalling writes behind a 10.9 s spin-up at rotation;
//! 3. **spatial destage bundling** (`destage_chunk`): 4 KB vs 64 KB vs
//!    512 KB — the §VI claim that bundling contiguous blocks matters.

use crate::{expect_consistent, mj, run_profile, whole_hours};
use rolo_core::{Scheme, SimConfig};
use rolo_sim::Duration;
use serde::Serialize;

#[derive(Debug, Serialize)]
pub struct Row {
    variant: String,
    mean_response_ms: f64,
    p99_response_ms: f64,
    energy_j: f64,
    rotations: u64,
    destaged_gib: f64,
    deactivations: u64,
}

fn variant(label: &str, window: Duration, mutate: impl FnOnce(&mut SimConfig)) -> Row {
    let mut cfg = SimConfig::paper_default(Scheme::RoloP, 20);
    mutate(&mut cfg);
    let profile = rolo_trace::profiles::src2_2();
    let r = run_profile(&cfg, &profile, 0xab1a, window);
    expect_consistent(&r, label);
    Row {
        variant: label.to_owned(),
        mean_response_ms: r.mean_response_ms(),
        p99_response_ms: r
            .responses
            .percentile(99.0)
            .map(|d| d.as_millis_f64())
            .unwrap_or(0.0),
        energy_j: r.total_energy_j,
        rotations: r.policy.rotations,
        destaged_gib: r.policy.destaged_bytes as f64 / (1u64 << 30) as f64,
        deactivations: r.policy.deactivations,
    }
}

type Variant = (&'static str, Box<dyn FnOnce(&mut SimConfig) + Send>);

/// Runs RoLo-P's design variants over src2_2 for `window`, prints the
/// ablation table and returns its rows.
pub fn run(window: Duration) -> Vec<Row> {
    let variants: Vec<Variant> = vec![
        (
            "baseline (10ms guard, eager, 64K chunks)",
            Box::new(|_: &mut SimConfig| {}),
        ),
        (
            "no idle guard (0ms)",
            Box::new(|c: &mut SimConfig| {
                c.bg_idle_guard = Duration::ZERO;
            }),
        ),
        (
            "wide idle guard (50ms)",
            Box::new(|c: &mut SimConfig| {
                c.bg_idle_guard = Duration::from_millis(50);
            }),
        ),
        (
            "no eager spin-up",
            Box::new(|c: &mut SimConfig| {
                c.eager_spinup = false;
            }),
        ),
        (
            "tiny destage chunks (4K)",
            Box::new(|c: &mut SimConfig| {
                c.destage_chunk = 4 * 1024;
            }),
        ),
        (
            "large destage chunks (512K)",
            Box::new(|c: &mut SimConfig| {
                c.destage_chunk = 512 * 1024;
            }),
        ),
        (
            "two on-duty loggers",
            Box::new(|c: &mut SimConfig| {
                c.rolo_on_duty = 2;
            }),
        ),
        (
            "SSTF disk scheduling",
            Box::new(|c: &mut SimConfig| {
                c.scheduler = rolo_disk::SchedulerKind::Sstf;
            }),
        ),
    ];
    let rows: Vec<Row> = variants
        .into_iter()
        .map(|(label, f)| variant(label, window, f))
        .collect();

    println!(
        "RoLo-P design ablations under src2_2 ({} h)",
        whole_hours(window)
    );
    println!(
        "{:<42} {:>10} {:>10} {:>11} {:>6} {:>9} {:>7}",
        "variant", "mean resp", "p99", "energy", "rots", "destaged", "deact"
    );
    for r in &rows {
        println!(
            "{:<42} {:>8.2}ms {:>8.1}ms {:>11} {:>6} {:>7.1}Gi {:>7}",
            r.variant,
            r.mean_response_ms,
            r.p99_response_ms,
            mj(r.energy_j),
            r.rotations,
            r.destaged_gib,
            r.deactivations
        );
    }
    let base = rows[0].mean_response_ms;
    println!("\nresponse-time deltas vs baseline:");
    for r in rows.iter().skip(1) {
        println!(
            "  {:<42} {:+.1} %",
            r.variant,
            (r.mean_response_ms / base - 1.0) * 100.0
        );
    }
    rows
}
