//! The paper's experiments, one module each, behind the `paper` binary
//! (`paper --help` prints the grammar, [`crate::cli::PAPER_USAGE`]).
//!
//! Every experiment prints the rows/series the paper reports. The 20
//! studies of [`STUDIES`] also return those rows, which `paper <name>`
//! writes to `results/<name>.json`. Trace-driven studies take the
//! replay window as an argument (the full [`crate::WEEK`] by default),
//! and `fig2` and `fig3` cap their own fixed windows at it; the rest
//! replay fixed windows of their own. The other experiments
//! are CI gates and tools: [`fault_study`], [`scrub_study`],
//! [`log_recovery`], [`export_csv`] and [`run`].

pub mod ablation;
pub mod diskmodel_study;
pub mod disksize_sensitivity;
pub mod export_csv;
pub mod fault_study;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig3;
pub mod fig9;
pub mod idle_slots;
pub mod log_recovery;
pub mod parity_study;
pub mod recovery_study;
pub mod related_work_study;
pub mod run;
pub mod scrub_study;
pub mod seed_variance;
pub mod stripe_sensitivity;
pub mod table1;
pub mod table_traces;
pub mod threshold_sensitivity;

use rolo_sim::Duration;
use serde::Serialize;
use serde_json::Value;

/// A study: its name and its experiment over a replay window, with the
/// returned rows as the JSON tree `results/<name>.json` holds.
pub type Study = (&'static str, fn(Duration) -> Value);

/// The 20 studies behind the paper's tables and figures, in the order
/// of DESIGN.md §4's index (`paper all` runs them in this order).
pub const STUDIES: [Study; 20] = [
    ("fig2", |w| rows(fig2::run(w))),
    ("fig3", |w| rows(fig3::run(w))),
    ("table1", |w| rows(table1::run(w))),
    ("fig9", |_| rows(fig9::run())),
    ("fig10", |w| rows(fig10::run(w))),
    ("fig11", |w| rows(fig11::run(w))),
    ("fig12", |w| rows(fig12::run(w))),
    ("fig13", |w| rows(fig13::run(w))),
    ("stripe_sensitivity", |w| rows(stripe_sensitivity::run(w))),
    ("disksize_sensitivity", |w| {
        rows(disksize_sensitivity::run(w))
    }),
    ("recovery_study", |_| rows(recovery_study::run())),
    ("ablation", |w| rows(ablation::run(w))),
    ("parity_study", |_| rows(parity_study::run())),
    ("related_work_study", |w| rows(related_work_study::run(w))),
    ("idle_slots", |_| rows(idle_slots::run())),
    ("diskmodel_study", |w| rows(diskmodel_study::run(w))),
    ("seed_variance", |w| rows(seed_variance::run(w))),
    ("threshold_sensitivity", |w| {
        rows(threshold_sensitivity::run(w))
    }),
    ("fig14", |w| rows(fig14::run(w))),
    ("table_traces", |w| rows(table_traces::run(w))),
];

fn rows(value: impl Serialize) -> Value {
    serde_json::to_value(&value).expect("study rows serialize")
}
