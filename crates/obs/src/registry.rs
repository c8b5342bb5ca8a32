//! Named counters, gauges and histograms published by the driver and
//! controllers, with periodic snapshots into [`Timeline`]s.
//!
//! The registry is deterministic by construction: it touches no wall
//! clock and its export sorts metrics by name, so two runs with the same
//! seed and config export byte-identical reports regardless of tracing.

use crate::sketch::QuantileSketch;
use crate::timeline::Timeline;
use rolo_sim::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Handle to a registered metric; cheap to copy and index with.
pub type MetricId = usize;

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically increasing count (events, bytes, ...).
    Counter,
    /// Point-in-time level (outstanding requests, watts, ...).
    Gauge,
    /// Distribution of observed values in a mergeable log-bucketed
    /// quantile sketch ([`QuantileSketch`], ≤ 1 % relative error).
    Histogram,
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    kind: MetricKind,
    /// Counter running total, or latest gauge level.
    value: f64,
    /// Histogram observations (count/sum/extremes/quantiles).
    sketch: QuantileSketch,
    timeline: Timeline,
}

impl Metric {
    fn current(&self) -> f64 {
        match self.kind {
            MetricKind::Counter | MetricKind::Gauge => self.value,
            MetricKind::Histogram => self.sketch.count() as f64,
        }
    }
}

/// Registry of named metrics, snapshotted periodically into timelines.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
    index: BTreeMap<String, MetricId>,
    snapshot_interval: Duration,
}

impl MetricsRegistry {
    /// Creates an empty registry whose timelines coalesce samples closer
    /// together than `snapshot_interval`.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot_interval` is zero (timelines reject it).
    pub fn new(snapshot_interval: Duration) -> Self {
        MetricsRegistry {
            metrics: Vec::new(),
            index: BTreeMap::new(),
            snapshot_interval,
        }
    }

    /// Registers (or looks up) a counter named `name`.
    pub fn counter(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Counter)
    }

    /// Registers (or looks up) a gauge named `name`.
    pub fn gauge(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Gauge)
    }

    /// Registers (or looks up) a histogram named `name`.
    pub fn histogram(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Histogram)
    }

    fn register(&mut self, name: &str, kind: MetricKind) -> MetricId {
        if let Some(&id) = self.index.get(name) {
            assert_eq!(
                self.metrics[id].kind, kind,
                "metric `{name}` re-registered with a different kind"
            );
            return id;
        }
        let id = self.metrics.len();
        self.metrics.push(Metric {
            name: name.to_string(),
            kind,
            value: 0.0,
            sketch: QuantileSketch::new(),
            timeline: Timeline::new(self.snapshot_interval),
        });
        self.index.insert(name.to_string(), id);
        id
    }

    /// Increments a counter by `delta`.
    pub fn inc(&mut self, id: MetricId, delta: u64) {
        debug_assert_eq!(self.metrics[id].kind, MetricKind::Counter);
        self.metrics[id].value += delta as f64;
    }

    /// Sets a gauge to `value`.
    pub fn set(&mut self, id: MetricId, value: f64) {
        debug_assert_eq!(self.metrics[id].kind, MetricKind::Gauge);
        self.metrics[id].value = value;
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: MetricId, value: f64) {
        let m = &mut self.metrics[id];
        debug_assert_eq!(m.kind, MetricKind::Histogram);
        m.sketch.record(value);
    }

    /// Read-only view of a histogram metric's sketch (e.g. for fleet
    /// merges across shards).
    pub fn sketch(&self, id: MetricId) -> &QuantileSketch {
        debug_assert_eq!(self.metrics[id].kind, MetricKind::Histogram);
        &self.metrics[id].sketch
    }

    /// Current value of a counter/gauge (histograms report their count).
    pub fn value(&self, id: MetricId) -> f64 {
        self.metrics[id].current()
    }

    /// Pushes every metric's current level into its timeline at `now`.
    ///
    /// The driver calls this at its power-sampling cadence; the
    /// [`Timeline`] coalesces pushes closer than the registry interval.
    pub fn snapshot(&mut self, now: SimTime) {
        for m in &mut self.metrics {
            let v = m.current();
            m.timeline.push(now, v);
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Exports a deterministic, name-sorted summary of every metric.
    pub fn export(&self) -> MetricsReport {
        let metrics = self
            .index
            .values()
            .map(|&id| {
                let m = &self.metrics[id];
                MetricSummary {
                    name: m.name.clone(),
                    kind: m.kind,
                    value: m.current(),
                    count: m.sketch.count(),
                    sum: m.sketch.sum(),
                    min: m.sketch.min(),
                    max: m.sketch.max(),
                    mean: m.sketch.mean(),
                    p50: m.sketch.percentile(50.0),
                    p95: m.sketch.percentile(95.0),
                    p99: m.sketch.percentile(99.0),
                    samples: m.timeline.samples().to_vec(),
                }
            })
            .collect();
        MetricsReport { metrics }
    }
}

/// One metric's exported state: identity, aggregates and its sampled
/// timeline (`(time, value)` pairs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Dotted metric name, e.g. `sim.user_completions`.
    pub name: String,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Counter total / latest gauge level / histogram count.
    pub value: f64,
    /// Histogram observation count (0 for counters and gauges).
    pub count: u64,
    /// Sum of histogram observations.
    pub sum: f64,
    /// Smallest histogram observation (0 when none).
    pub min: f64,
    /// Largest histogram observation (0 when none).
    pub max: f64,
    /// Mean histogram observation (0 when none).
    pub mean: f64,
    /// Median histogram observation (`None` for counters/gauges or
    /// when no observation landed).
    pub p50: Option<f64>,
    /// 95th-percentile histogram observation.
    pub p95: Option<f64>,
    /// 99th-percentile histogram observation.
    pub p99: Option<f64>,
    /// Periodic snapshots of the metric level.
    pub samples: Vec<(SimTime, f64)>,
}

/// Deterministic, name-sorted export of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Every registered metric, sorted by name.
    pub metrics: Vec<MetricSummary>,
}

impl MetricsReport {
    /// Looks up an exported metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricSummary> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut reg = MetricsRegistry::new(Duration::from_secs(1));
        let c = reg.counter("io.dispatched");
        let g = reg.gauge("sim.power_w");
        let h = reg.histogram("sim.response_us");
        assert_eq!(reg.counter("io.dispatched"), c, "idempotent registration");

        reg.inc(c, 2);
        reg.inc(c, 3);
        reg.set(g, 41.5);
        reg.observe(h, 100.0);
        reg.observe(h, 300.0);
        reg.snapshot(SimTime::from_secs(1));
        reg.snapshot(SimTime::from_secs(3));

        let report = reg.export();
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["io.dispatched", "sim.power_w", "sim.response_us"],
            "export is name-sorted"
        );
        let c = report.get("io.dispatched").unwrap();
        assert_eq!(c.value, 5.0);
        assert_eq!(c.samples.len(), 2);
        let h = report.get("sim.response_us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 100.0);
        assert_eq!(h.max, 300.0);
        assert_eq!(h.mean, 200.0);
        // Sketch-backed quantiles: within 1 % of the exact samples.
        assert!((h.p50.unwrap() / 100.0 - 1.0).abs() < 0.01);
        assert!((h.p99.unwrap() / 300.0 - 1.0).abs() < 0.01);
        assert_eq!(report.get("io.dispatched").unwrap().p95, None);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut reg = MetricsRegistry::new(Duration::from_secs(1));
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_sketches_merge_across_registries() {
        let mut a = MetricsRegistry::new(Duration::from_secs(1));
        let mut b = MetricsRegistry::new(Duration::from_secs(1));
        let ha = a.histogram("sim.response_us");
        let hb = b.histogram("sim.response_us");
        a.observe(ha, 10.0);
        b.observe(hb, 1000.0);
        let mut fleet = a.sketch(ha).clone();
        fleet.merge(b.sketch(hb));
        assert_eq!(fleet.count(), 2);
        assert_eq!(fleet.max(), 1000.0);
    }
}
