//! Simulation configuration: array shape, scheme selection, tunables.

use crate::faults::{FaultPlan, FaultPlanError};
use crate::journal;
use rolo_disk::{DiskParams, SchedulerKind};
use rolo_raid::{ArrayGeometry, GeometryError};
use rolo_sim::Duration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which controller runs the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Plain RAID10: every disk active, writes mirrored synchronously.
    Raid10,
    /// GRAID (Mao et al., MASCOTS'08): dedicated log disk, mirrors
    /// standby, centralized destaging at a log-occupancy threshold.
    Graid,
    /// RoLo-P: rotated logging on one mirrored disk at a time,
    /// decentralized destaging; primaries always on (§III-B1).
    RoloP,
    /// RoLo-R: like RoLo-P but the logger is a mirrored pair, giving
    /// three copies of every write (§III-B2).
    RoloR,
    /// RoLo-E: only one mirrored pair active (log + read cache); every
    /// other disk spun down; centralized destaging when the log fills
    /// (§III-B3).
    RoloE,
}

impl Scheme {
    /// All schemes in the paper's presentation order.
    pub fn all() -> [Scheme; 5] {
        [
            Scheme::Raid10,
            Scheme::Graid,
            Scheme::RoloP,
            Scheme::RoloR,
            Scheme::RoloE,
        ]
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scheme::Raid10 => "RAID10",
            Scheme::Graid => "GRAID",
            Scheme::RoloP => "RoLo-P",
            Scheme::RoloR => "RoLo-R",
            Scheme::RoloE => "RoLo-E",
        };
        f.write_str(s)
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Controller scheme.
    pub scheme: Scheme,
    /// Number of mirrored pairs (the paper uses 10–20, i.e. 20–40 disks).
    pub pairs: usize,
    /// Stripe unit in bytes (Table II: 16/32/64 KB; default 64 KB).
    pub stripe_unit: u64,
    /// Per-disk logger region ("free space"; Table II: 8/6/4 GB).
    pub logger_region: u64,
    /// Dedicated log-disk capacity for GRAID (Table II: 16 GB).
    pub graid_log_capacity: u64,
    /// Log occupancy fraction that triggers centralized destaging
    /// (the paper's example: 80 %).
    pub destage_threshold: f64,
    /// RoLo rotates its logger when the on-duty logger's free space falls
    /// below this fraction of the region.
    pub rotate_free_threshold: f64,
    /// Maximum bytes per destage I/O (spatial-locality bundling).
    pub destage_chunk: u64,
    /// Idle time a disk must observe (no foreground activity) before it
    /// dispatches background destage I/O — the "short idle time slot"
    /// detector of §III-A.
    pub bg_idle_guard: Duration,
    /// RoLo: proactively spin up the next on-duty logger before rotation
    /// is due (rate-based look-ahead). Disable only for ablation studies —
    /// without it every rotation stalls writes behind a 10.9 s spin-up.
    pub eager_spinup: bool,
    /// RoLo-P/R: number of simultaneously on-duty logger mirrors, and
    /// RoLo-E: number of on-duty logger *pairs* (§III-B "one or a few" /
    /// "one or several"; §III-D's bottleneck-alleviation knob). Each
    /// extra logger trades idle power for append bandwidth.
    pub rolo_on_duty: usize,
    /// RoLo-E: idle time after which a read-miss-awakened pair is spun
    /// back down.
    pub roloe_idle_spindown: Duration,
    /// RoLo-E: fraction of the logger region reserved for the popular
    /// read-block cache (the rest takes log appends).
    pub roloe_cache_fraction: f64,
    /// Foreground queue-scheduling discipline of every disk.
    pub scheduler: SchedulerKind,
    /// Disk model parameters.
    pub disk: DiskParams,
    /// RNG seed for the disk service models.
    pub seed: u64,
    /// Faults to inject during the run (none by default).
    pub faults: FaultPlan,
    /// Size of one log segment in the segment store (DESIGN.md §10).
    pub log_segment: u64,
    /// Sealed segments whose live fraction falls below this threshold
    /// become background-compaction candidates.
    pub compact_live_frac: f64,
    /// Age after which an archived log frame is retired (deleted).
    pub archive_ttl: Duration,
    /// Run the background integrity scrub (DESIGN.md §11). Off by
    /// default: with scrubbing disabled the simulation is event-for-
    /// event identical to a build without the scrub engine.
    pub scrub_enabled: bool,
    /// Bytes verified per scrub chunk read (the scrub bandwidth knob:
    /// chunk size over the 500 ms tick interval bounds the per-disk
    /// scrub rate).
    pub scrub_chunk: u64,
    /// Run the online telemetry hub (DESIGN.md §12): 60 s windowed
    /// rollups of response quantiles, power and per-disk activity, plus
    /// burn-rate monitoring of the default SLOs. On by default — the hub
    /// is observational only, so the simulation outcome is identical
    /// either way.
    pub telemetry_enabled: bool,
    /// Tail exemplars retained per telemetry window: the k of the
    /// bounded top-k slowest-request recorder (DESIGN.md §14). Zero
    /// disables capture. The recorder only observes anything when
    /// telemetry *and* span recording are both on — it needs finished
    /// spans to decompose — and is observational either way.
    pub exemplars_per_window: usize,
    /// Run root-cause attribution over every SLO alert window at end
    /// of run (DESIGN.md §14). Forces span recording on so exemplar
    /// critical paths and `delayed_by` causality exist; the pass is
    /// observational only, so the report stays byte-identical with it
    /// on or off.
    pub rca_enabled: bool,
}

impl SimConfig {
    /// The paper's default configuration (Table II) for `scheme` on
    /// `pairs` mirrored pairs: 64 KB stripe unit, 8 GB free space per
    /// disk, 16 GB GRAID log disk, 80 % destage threshold, IBM Ultrastar
    /// 36Z15 disks.
    pub fn paper_default(scheme: Scheme, pairs: usize) -> Self {
        SimConfig {
            scheme,
            pairs,
            stripe_unit: 64 * 1024,
            logger_region: 8 << 30,
            graid_log_capacity: 16 << 30,
            destage_threshold: 0.8,
            rotate_free_threshold: 0.01,
            destage_chunk: 64 * 1024,
            bg_idle_guard: Duration::from_millis(10),
            eager_spinup: true,
            rolo_on_duty: 1,
            roloe_idle_spindown: Duration::from_secs(30),
            roloe_cache_fraction: 0.5,
            scheduler: SchedulerKind::Fifo,
            disk: DiskParams::ultrastar_36z15(),
            seed: 0x5eed,
            faults: FaultPlan::none(),
            log_segment: journal::DEFAULT_SEG_BYTES,
            compact_live_frac: journal::DEFAULT_COMPACT_FRAC,
            archive_ttl: journal::DEFAULT_ARCHIVE_TTL,
            scrub_enabled: false,
            scrub_chunk: 1 << 20,
            telemetry_enabled: true,
            exemplars_per_window: 8,
            rca_enabled: false,
        }
    }

    /// Per-disk data-region size: the capacity not set aside for logging,
    /// rounded down to a whole stripe unit.
    pub fn data_region(&self) -> u64 {
        let data = self.disk.capacity_bytes.saturating_sub(self.logger_region);
        (data / self.stripe_unit) * self.stripe_unit
    }

    /// Builds the RAID10 geometry implied by this configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`GeometryError`] for degenerate shapes (zero pairs,
    /// logger region exceeding the disk, …).
    pub fn geometry(&self) -> Result<ArrayGeometry, GeometryError> {
        if self.data_region() == 0 {
            return Err(GeometryError::InvalidConfig(format!(
                "logger region {} leaves no data region on a {}-byte disk",
                self.logger_region, self.disk.capacity_bytes
            )));
        }
        ArrayGeometry::new(
            self.pairs,
            self.stripe_unit,
            self.data_region(),
            self.logger_region,
        )
    }

    /// Total number of physical disks, including GRAID's dedicated log
    /// disk when applicable.
    pub fn disk_count(&self) -> usize {
        self.pairs * 2 + usize::from(self.scheme == Scheme::Graid)
    }

    /// Disk id of GRAID's dedicated log disk.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is not [`Scheme::Graid`].
    pub fn graid_log_disk(&self) -> usize {
        assert_eq!(self.scheme, Scheme::Graid, "no log disk in {}", self.scheme);
        self.pairs * 2
    }

    /// Validates tunables that the geometry check does not cover.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for out-of-range thresholds, a zero
    /// destage chunk, a GRAID log sizing problem, or an invalid fault
    /// plan — any of which would otherwise cause silent misbehaviour
    /// mid-run.
    pub fn check(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.destage_threshold) || self.destage_threshold <= 0.0 {
            return Err(ConfigError::Tunable("destage threshold out of range"));
        }
        if !(0.0..1.0).contains(&self.rotate_free_threshold) {
            return Err(ConfigError::Tunable("rotate threshold out of range"));
        }
        if self.destage_chunk == 0 {
            return Err(ConfigError::Tunable("zero destage chunk"));
        }
        if self.rolo_on_duty < 1 || self.rolo_on_duty >= self.pairs.max(2) {
            return Err(ConfigError::Tunable("rolo_on_duty out of range"));
        }
        if !(0.0..1.0).contains(&self.roloe_cache_fraction) {
            return Err(ConfigError::Tunable("cache fraction out of range"));
        }
        if self.graid_log_capacity == 0 && self.scheme == Scheme::Graid {
            return Err(ConfigError::Tunable("GRAID requires a log disk capacity"));
        }
        if self.graid_log_capacity > self.disk.capacity_bytes {
            return Err(ConfigError::Tunable("GRAID log capacity exceeds the disk"));
        }
        if self.log_segment < 4096 || self.log_segment > self.logger_region {
            return Err(ConfigError::Tunable("log segment size out of range"));
        }
        if !(0.0..1.0).contains(&self.compact_live_frac) {
            return Err(ConfigError::Tunable(
                "compaction live fraction out of range",
            ));
        }
        if self.scrub_enabled && self.scrub_chunk == 0 {
            return Err(ConfigError::Tunable("zero scrub chunk"));
        }
        // The exemplar recorder's memory bound is retain · k spans; cap
        // k so a typo cannot turn "bounded" into "everything".
        if self.telemetry_enabled && self.exemplars_per_window > 4096 {
            return Err(ConfigError::Tunable("exemplars_per_window out of range"));
        }
        if self.rca_enabled {
            if !self.telemetry_enabled {
                return Err(ConfigError::Tunable("RCA requires telemetry"));
            }
            if self.exemplars_per_window == 0 {
                return Err(ConfigError::Tunable("RCA requires exemplar capture"));
            }
        }
        self.faults
            .check(self.disk_count())
            .map_err(ConfigError::Faults)?;
        Ok(())
    }

    /// Panicking form of [`SimConfig::check`], for callers that treat a
    /// bad configuration as a programming error.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message when validation fails.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// A [`SimConfig`] that failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A tunable is out of range.
    Tunable(&'static str),
    /// The fault plan is inconsistent with the array.
    Faults(FaultPlanError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Tunable(msg) => f.write_str(msg),
            ConfigError::Faults(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Tunable(_) => None,
            ConfigError::Faults(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_ii() {
        let c = SimConfig::paper_default(Scheme::RoloP, 20);
        assert_eq!(c.stripe_unit, 64 * 1024);
        assert_eq!(c.logger_region, 8 << 30);
        assert_eq!(c.graid_log_capacity, 16 << 30);
        assert_eq!(c.disk_count(), 40);
        c.validate();
        let geo = c.geometry().unwrap();
        assert_eq!(geo.pairs(), 20);
        // 18.4 GB disk minus 8 GiB logger ≈ 10 GB data region.
        assert!(geo.data_region() > 9 << 30);
        assert!(geo.data_region().is_multiple_of(c.stripe_unit));
    }

    #[test]
    fn graid_gets_extra_disk() {
        let c = SimConfig::paper_default(Scheme::Graid, 10);
        assert_eq!(c.disk_count(), 21);
        assert_eq!(c.graid_log_disk(), 20);
    }

    #[test]
    #[should_panic(expected = "no log disk")]
    fn log_disk_only_for_graid() {
        SimConfig::paper_default(Scheme::Raid10, 10).graid_log_disk();
    }

    #[test]
    fn oversized_logger_region_rejected() {
        let mut c = SimConfig::paper_default(Scheme::RoloP, 4);
        c.logger_region = c.disk.capacity_bytes + 1;
        assert!(c.geometry().is_err());
    }

    #[test]
    fn check_flags_bad_tunables() {
        let mut c = SimConfig::paper_default(Scheme::RoloP, 4);
        assert!(c.check().is_ok());
        c.destage_chunk = 0;
        assert_eq!(c.check(), Err(ConfigError::Tunable("zero destage chunk")));
    }

    #[test]
    fn check_flags_bad_scrub_knobs() {
        let mut c = SimConfig::paper_default(Scheme::RoloE, 4);
        c.scrub_enabled = true;
        assert!(c.check().is_ok());
        c.scrub_chunk = 0;
        assert_eq!(c.check(), Err(ConfigError::Tunable("zero scrub chunk")));
        // With scrubbing disabled the knobs are inert and unchecked.
        c.scrub_enabled = false;
        c.scrub_chunk = 0;
        assert!(c.check().is_ok());
    }

    #[test]
    fn check_flags_bad_forensics_knobs() {
        let mut c = SimConfig::paper_default(Scheme::RoloE, 4);
        c.rca_enabled = true;
        assert!(c.check().is_ok(), "RCA on top of defaults validates");
        c.exemplars_per_window = 0;
        assert_eq!(
            c.check(),
            Err(ConfigError::Tunable("RCA requires exemplar capture"))
        );
        c.exemplars_per_window = 8;
        c.telemetry_enabled = false;
        assert_eq!(
            c.check(),
            Err(ConfigError::Tunable("RCA requires telemetry"))
        );
        c.telemetry_enabled = true;
        c.exemplars_per_window = 1 << 20;
        assert_eq!(
            c.check(),
            Err(ConfigError::Tunable("exemplars_per_window out of range"))
        );
        // With RCA off, zero exemplars simply disables capture.
        c.rca_enabled = false;
        c.exemplars_per_window = 0;
        assert!(c.check().is_ok());
    }

    #[test]
    fn check_flags_bad_corruption_knobs() {
        let mut c = SimConfig::paper_default(Scheme::RoloP, 4);
        c.faults.lse_rate_active = -0.5;
        assert!(matches!(c.check(), Err(ConfigError::Faults(_))));
        let mut c = SimConfig::paper_default(Scheme::RoloP, 4);
        c.faults.shock_rate = 0.1;
        c.faults.shock_enclosure = 0;
        assert!(matches!(c.check(), Err(ConfigError::Faults(_))));
    }

    #[test]
    fn check_flags_bad_fault_plan() {
        let mut c = SimConfig::paper_default(Scheme::Raid10, 4);
        c.faults.disk_failures.push((77, Duration::from_secs(1)));
        assert!(matches!(c.check(), Err(ConfigError::Faults(_))));
    }

    #[test]
    fn scheme_display_names() {
        let names: Vec<String> = Scheme::all().iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["RAID10", "GRAID", "RoLo-P", "RoLo-R", "RoLo-E"]);
    }
}
