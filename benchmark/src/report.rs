//! JSON and text output.

use crate::layers::Metric;
use crate::measure::{Rep, Series, END_TO_END};
use crate::stats::Summary;
use serde_json::{Map, Number, Value};

/// A JSON number.
pub fn num(x: f64) -> Value {
    Value::Number(Number::from_f64(x))
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in pairs {
        map.insert(k.to_owned(), v);
    }
    Value::Object(map)
}

fn count(n: usize) -> Value {
    Value::Number(Number::from_u64(n as u64))
}

/// One end-to-end metric of a series.
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Summary of the samples.
    pub summary: Summary,
    /// The samples, in run order.
    pub values: Vec<f64>,
}

impl EndToEnd {
    /// The value a single-workload run reports: the median of its
    /// samples.
    pub fn reported(&self) -> Metric {
        Metric {
            name: self.name,
            unit: self.unit,
            value: self.summary.median,
        }
    }
}

/// The series' end-to-end metrics that have samples.
pub fn end_to_end(s: &Series) -> Vec<EndToEnd> {
    END_TO_END
        .iter()
        .zip(s.end_to_end())
        .filter(|(_, values)| !values.is_empty())
        .map(|(&(name, unit), values)| EndToEnd {
            name,
            unit,
            summary: Summary::of(&values),
            values,
        })
        .collect()
}

/// One workload of the full run: counts, fingerprints, every end-to-end
/// sample with its median and quartiles, and the per-layer metrics when
/// the run was traced.
pub fn series_json(s: &Series, layers: Option<&[Metric]>) -> Value {
    let e2e = end_to_end(s).into_iter().map(|m| {
        let sum = m.summary;
        let summary = object([
            ("unit", Value::String(m.unit.to_owned())),
            ("median", num(sum.median)),
            ("q1", num(sum.q1)),
            ("q3", num(sum.q3)),
            ("n", count(sum.n)),
            (
                "values",
                Value::Array(m.values.into_iter().map(num).collect()),
            ),
        ]);
        (m.name, summary)
    });
    let hex = |x: Option<u64>| x.map_or(Value::Null, |x| Value::String(format!("{x:016x}")));
    let first = s.reps.first();
    let mut fields = vec![
        ("attempted", count(s.attempted())),
        ("failed", count(s.failures.len())),
        (
            "failures",
            Value::Array(s.failures.iter().cloned().map(Value::String).collect()),
        ),
        (
            "requests",
            first.map_or(Value::Null, |r| count(r.requests as usize)),
        ),
        ("record_hash", hex(first.map(|r| r.record_hash))),
        ("digest", hex(s.digest())),
        ("end_to_end", object(e2e)),
    ];
    if let Some(layers) = layers {
        let per_layer = layers.iter().map(|m| {
            let v = object([
                ("unit", Value::String(m.unit.to_owned())),
                ("value", num(m.value)),
            ]);
            (m.name, v)
        });
        fields.push(("per_layer", object(per_layer)));
    }
    object(fields)
}

/// Prints one line per end-to-end metric of `s`.
pub fn print_end_to_end(s: &Series) {
    for m in end_to_end(s) {
        let sum = m.summary;
        println!(
            "{:<20} {:<14} median {:>14.6} {:<4} q1 {:.6} q3 {:.6} n={}",
            s.workload.name(),
            m.name,
            sum.median,
            m.unit,
            sum.q1,
            sum.q3,
            sum.n
        );
    }
    println!(
        "{:<20} {:<14} {} failed of {} attempted",
        s.workload.name(),
        "reps",
        s.failures.len(),
        s.attempted()
    );
    for f in &s.failures {
        println!("  FAILED {f}");
    }
}

/// Prints one repetition's numbers to stderr, as progress.
pub fn print_rep(workload: &str, n: usize, rep: &Rep) {
    eprintln!(
        "{workload} rep {n}: {:.0} req/s ({:.0} by the clock, probe {:.1} us), setup {:.4} s, heap {:.3} MB",
        rep.req_per_s(),
        rep.host_req_per_s(),
        rep.probe_s * 1e6,
        rep.setup_s,
        rep.heap.peak_mb()
    );
}

/// Prints one line per per-layer metric.
pub fn print_layers(workload: &str, layers: &[Metric]) {
    for m in layers {
        println!(
            "{:<20} {:<34} {:>16.6} {}",
            workload, m.name, m.value, m.unit
        );
    }
}

/// The result line of a single-workload run.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics.iter().map(|m| {
        let v = object([
            ("value", num(m.value)),
            ("unit", Value::String(m.unit.to_owned())),
        ]);
        (m.name, v)
    });
    object([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", count(attempted)),
        ("failed", count(failed)),
        ("metrics", object(metrics)),
    ])
    .to_string()
}
