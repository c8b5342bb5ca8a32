#![warn(missing_docs)]
//! Block I/O trace infrastructure: records, the MSR Cambridge trace
//! parser, calibrated synthetic workload generators, and trace statistics.
//!
//! The paper evaluates RoLo with seven MSR Cambridge block traces
//! (src2_2, proj_0, mds_0, wdev_0, web_1, rsrch_2, hm_1). Those traces are
//! not redistributable, so this crate provides two interchangeable
//! sources:
//!
//! * [`msr`] — a parser for the genuine MSR trace CSV format, so real
//!   traces drop in unchanged when available;
//! * [`synth`] + [`profiles`] — synthetic generators calibrated to each
//!   trace's *published* characteristics (Tables III and VI: write ratio,
//!   IOPS, mean request size, write footprint) plus the burstiness class
//!   and read-locality the authors report in Table V. DESIGN.md §1
//!   documents why this substitution preserves the paper's behaviour.
//!
//! # Example
//!
//! ```
//! use rolo_trace::{profiles, TraceStats};
//! use rolo_sim::Duration;
//!
//! let profile = profiles::src2_2();
//! let records: Vec<_> = profile
//!     .generator(Duration::from_secs(600), 42)
//!     .collect();
//! let stats = TraceStats::from_records(&records, Duration::from_secs(600));
//! assert!((stats.write_ratio - 0.9962).abs() < 0.02);
//! ```

pub mod burstiness;
pub mod msr;
pub mod profiles;
pub mod record;
pub mod stats;
pub mod synth;

pub use msr::{parse_msr_csv, MsrParseError};
pub use profiles::TraceProfile;
pub use record::{ReqKind, TraceRecord};
pub use stats::TraceStats;
pub use synth::{Burstiness, SizeDist, SyntheticConfig, SyntheticTrace};
