//! The RoLo simulator's benchmark: four fixed replay workloads measured
//! end to end (simulated requests per host second, set-up time, peak
//! heap) and, in a separate traced replay, layer by layer.
//!
//! Everything runs in one process on one thread. See `README.md` for the
//! workloads, the metrics and how to run it.

pub mod alloc;
pub mod compare;
pub mod layers;
pub mod measure;
pub mod probe;
pub mod report;
pub mod stats;
pub mod workload;

pub use layers::Metric;
pub use measure::{Series, END_TO_END};
pub use stats::Summary;
pub use workload::{PolicySource, PolicyUser, SchemePolicy, Workload, DEFAULT_SEED};

/// `BENCHMARK.json`, which fixes the workloads, the metric names and the
/// end-to-end bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
