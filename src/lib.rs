#![warn(missing_docs)]
//! RoLo — a complete reproduction of *"RoLo: A Rotated Logging Storage
//! Architecture for Enterprise Data Centers"* (ICDCS 2010).
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! * [`sim`] — discrete-event engine (time, event queue, seeded RNG);
//! * [`disk`] — disk service-time and five-state power model;
//! * [`raid`] — RAID10 striping/mirroring geometry;
//! * [`trace`] — MSR trace parsing + calibrated synthetic workloads;
//! * [`core`] — the controllers (RAID10, GRAID, RoLo-P/R/E, PARAID-style
//!   gear shifting), the simulation driver, recovery and rebuild, and
//!   the run report with its response-time and phase statistics;
//! * [`parity`] — RoLo on RAID5 (the paper's §VII future work);
//! * [`reliability`] — MTTDL models (CTMC solver + closed forms);
//! * [`obs`] — structured trace events, sinks, spans, windowed
//!   telemetry, the quantile sketch, timelines and run profiling (see
//!   `DESIGN.md` §9).
//!
//! # Example
//!
//! Run the paper's default 40-disk array under a calibrated src2_2
//! workload for a day:
//!
//! ```
//! use rolo::core::{Scheme, SimConfig};
//! use rolo::sim::Duration;
//!
//! let mut cfg = SimConfig::paper_default(Scheme::RoloP, 4); // 8 disks for the doctest
//! cfg.logger_region = 64 << 20;
//! let profile = rolo::trace::profiles::src2_2();
//! let dur = Duration::from_secs(600);
//! let report = rolo::core::run_scheme(&cfg, profile.generator(dur, 7), dur);
//! assert!(report.consistency.is_ok());
//! ```
//!
//! See `README.md` for the tour, `DESIGN.md` for the architecture and
//! modelling decisions, and `EXPERIMENTS.md` for paper-vs-measured
//! results of every table and figure.

pub use rolo_core as core;
pub use rolo_disk as disk;
pub use rolo_obs as obs;
pub use rolo_parity as parity;
pub use rolo_raid as raid;
pub use rolo_reliability as reliability;
pub use rolo_sim as sim;
pub use rolo_trace as trace;
