//! `compare A.json B.json`: two full runs, A the parent and B the
//! change, judged per workload and end-to-end metric against the bounds
//! in `BENCHMARK.json`.

use crate::stats::Summary;
use crate::BENCHMARK_JSON;
use serde_json::Value;

/// The judgement on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better: it beats A in at least nine tenths of all (a, b)
    /// pairs and its median is better by more than A's quartile distance.
    Improved,
    /// Neither better nor worse by the rules here.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread of A or B exceeds the bound and the runs do not
    /// separate, so the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges samples `b` against `a`. `bound` is the share of A's median
/// by which B may be worse.
///
/// # Panics
///
/// Panics if either sample is empty.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // How much better `y` is than `x`.
    let gain = |x: f64, y: f64| if higher_is_better { y - x } else { x - y };
    let pairs = a.len() * b.len();
    let b_wins = a
        .iter()
        .map(|&x| b.iter().filter(|&&y| gain(x, y) > 0.0).count())
        .sum::<usize>();
    let b_loses = a
        .iter()
        .map(|&x| b.iter().filter(|&&y| gain(x, y) < 0.0).count())
        .sum::<usize>();
    let separated = b_wins == pairs || b_loses == pairs;
    if sa.spread().max(sb.spread()) > bound && !separated {
        return Verdict::Unresolved;
    }
    let change = gain(sa.median, sb.median);
    if change < -bound * sa.median.abs() {
        Verdict::Worse
    } else if b_wins * 10 >= pairs * 9 && change > sa.q3 - sa.q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn samples(run: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values = run["workloads"][workload]["end_to_end"][metric]["values"].as_array()?;
    let v: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
    (!v.is_empty()).then_some(v)
}

/// Per-layer metrics of the simulated layers, which repeat exactly for
/// a seed: a change that is not a model change must leave them equal.
fn is_exact(name: &str) -> bool {
    ["sim.", "disk.", "journal.", "cache.", "mem.", "model."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// Prints the comparison of two full runs. Returns whether no workload ×
/// metric came out worse.
///
/// # Errors
///
/// Returns a message when either run is not the JSON a full run writes.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let spec = serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let a = serde_json::from_str(a_text).map_err(|e| format!("run A: {e}"))?;
    let b = serde_json::from_str(b_text).map_err(|e| format!("run B: {e}"))?;
    let metrics = spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = a["workloads"].as_object().ok_or("run A has no workloads")?;
    let mut ok = true;
    println!(
        "{:<20} {:<14} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change"
    );
    for workload in workloads.keys() {
        for m in metrics {
            let name = m["name"].as_str().ok_or("metric without a name")?;
            let higher = m["better"].as_str() == Some("higher");
            let bound = m["bound"].as_f64().ok_or("metric without a bound")?;
            let (Some(va), Some(vb)) = (samples(&a, workload, name), samples(&b, workload, name))
            else {
                println!("{workload:<20} {name:<14} missing in A or B");
                ok = false;
                continue;
            };
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let v = verdict(&va, &vb, higher, bound);
            ok &= v != Verdict::Worse;
            let cell = |s: Summary| format!("{:.6} [{:.6}, {:.6}] {}", s.median, s.q1, s.q3, s.n);
            println!(
                "{workload:<20} {name:<14} {:>36} {:>36} {:>+7.2}%  {}",
                cell(sa),
                cell(sb),
                100.0 * (sb.median / sa.median - 1.0),
                v.name()
            );
        }
    }
    for workload in workloads.keys() {
        let (Some(la), Some(lb)) = (
            a["workloads"][workload.as_str()]["per_layer"].as_object(),
            b["workloads"][workload.as_str()]["per_layer"].as_object(),
        ) else {
            continue;
        };
        println!("\n{workload}: per-layer metrics (A, B)");
        for (name, va) in la.iter() {
            let (Some(x), Some(y)) = (
                va["value"].as_f64(),
                lb.get(name).and_then(|v| v["value"].as_f64()),
            ) else {
                continue;
            };
            let note = match (is_exact(name), x == y) {
                (true, true) => "identical",
                (true, false) => "DIFFERS",
                (false, _) => "",
            };
            println!("  {name:<34} {x:>16.6} {y:>16.6}  {note}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_separation() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: unchanged.
        assert_eq!(verdict(&a, &a, true, 0.1), Verdict::Unchanged);
        // 20% lower throughput, tight runs: worse.
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Worse);
        // 20% higher throughput: improved.
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Improved);
        // Lower is better flips the reading.
        assert_eq!(verdict(&a, &b, false, 0.1), Verdict::Worse);
        // Spread beyond the bound without separation: unresolved.
        let wide = [50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(verdict(&a, &wide, true, 0.1), Verdict::Unresolved);
        // An exact metric that did not move.
        assert_eq!(verdict(&[7.0], &[7.0], false, 0.01), Verdict::Unchanged);
    }
}
