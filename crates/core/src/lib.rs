#![warn(missing_docs)]
//! RoLo: rotated logging storage controllers for RAID10 arrays.
//!
//! This crate implements the paper's contribution — the RoLo-P, RoLo-R
//! and RoLo-E controllers (§III) — together with the two comparison
//! points of its evaluation: a plain RAID10 array and GRAID's
//! centralized-logging architecture. All five run over the same
//! event-driven disk substrate (`rolo-disk`) and are driven by the same
//! [`driver`], so any difference in the reports is attributable to the
//! controller alone.
//!
//! # Quick start
//!
//! ```
//! use rolo_core::{driver, SimConfig, Scheme};
//! use rolo_trace::SyntheticConfig;
//! use rolo_sim::Duration;
//!
//! let mut cfg = SimConfig::paper_default(Scheme::RoloP, 4);
//! cfg.logger_region = 64 << 20; // small logger for a fast demo
//! let dur = Duration::from_secs(60);
//! let workload = SyntheticConfig::motivation_write_only(50.0);
//! let report = driver::run_scheme(&cfg, workload.generator(dur, 1), dur);
//! assert!(report.consistency.is_ok());
//! assert!(report.user_requests > 0);
//! ```

pub mod cache;
pub mod config;
pub mod ctx;
pub mod dirty;
pub mod driver;
pub mod faults;
pub mod graid;
pub mod journal;
pub mod logspace;
pub mod paraid;
pub mod policy;
pub mod raid10;
pub mod rebuild;
pub mod recovery;
pub mod report;
pub mod rolo;
pub mod roloe;
pub mod segment;
pub mod slot;

pub use config::{ConfigError, Scheme, SimConfig};
pub use ctx::{RunObservations, SimCtx};
pub use driver::{run_scheme, run_scheme_observed, run_trace, run_trace_observed};
pub use faults::{surviving_partner, FaultMetrics, FaultPlan, FaultPlanError};
pub use graid::GraidPolicy;
pub use paraid::ParaidPolicy;
pub use policy::{Policy, PolicyStats};
pub use raid10::Raid10Policy;
pub use rebuild::{
    rebuild_primary_failure, simulate_rebuild, simulate_rebuild_traced, RebuildReport,
};
pub use recovery::{recovery_plan, RecoveryPlan};
pub use report::SimReport;
pub use rolo::{RoloFlavor, RoloPolicy};
pub use roloe::RoloEPolicy;
pub use segment::{
    replay_journals, AppendOutcome, AppendRecord, ArchiveFrame, LogManifest, ReplayOutcome,
    Segment, SegmentState, SegmentStats, SegmentStore,
};
pub use slot::{IoSlab, IoSlot};
