//! The four replay workloads and the controller construction they share.
//!
//! Every workload runs `SimConfig::paper_default(scheme, 20)` (40 disks)
//! over records generated from the seed before the timed call. The
//! simulated array sees an open-loop arrival schedule fixed by the
//! records; on the host the replay is a batch job.

use rolo_core::{Policy, Raid10Policy, RoloEPolicy, RoloFlavor, RoloPolicy, Scheme, SimConfig};
use rolo_obs::{NullSink, RingSink, TraceSink};
use rolo_sim::Duration;
use rolo_trace::{profiles, Burstiness, SizeDist, SyntheticConfig, TraceRecord};

/// Seed used when none is given (`0x5eed`).
pub const DEFAULT_SEED: u64 = 24301;

const DAY: u64 = 24 * 3600;

/// One fixed set of inputs the benchmark replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// RoLo-P over two days of `proj_0`: the paper's headline scheme on
    /// its heaviest write trace, dominated by journal, destage and
    /// rotation.
    Proj0RoloP,
    /// RoLo-E over a week of `hm_1`: reads, cache lookups and spin-ups
    /// through the same controller, ctx and disk layers.
    Hm1RoloE,
    /// RAID10 under dense 2000 IOPS Poisson arrivals: no journal and no
    /// spin-up, so the event queue, slab and response recording dominate.
    DenseRaid10,
    /// `Hm1RoloE`'s records and config with a ring sink, spans and RCA
    /// on: the observability tax on inputs identical to `Hm1RoloE`.
    Hm1RoloEObserved,
}

/// Everything a replay needs, built by [`Workload::setup`].
#[derive(Debug)]
pub struct Input {
    /// Checked configuration.
    pub cfg: SimConfig,
    /// Generated records, in arrival order.
    pub records: Vec<TraceRecord>,
    /// Simulated trace length.
    pub duration: Duration,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Proj0RoloP,
        Workload::Hm1RoloE,
        Workload::DenseRaid10,
        Workload::Hm1RoloEObserved,
    ];

    /// The workload's name in `BENCHMARK.json` and every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Proj0RoloP => "proj0_rolop",
            Workload::Hm1RoloE => "hm1_roloe",
            Workload::DenseRaid10 => "dense_raid10",
            Workload::Hm1RoloEObserved => "hm1_roloe_observed",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workload that runs every observability layer.
    pub fn observed(self) -> bool {
        self == Workload::Hm1RoloEObserved
    }

    fn scheme(self) -> Scheme {
        match self {
            Workload::Proj0RoloP => Scheme::RoloP,
            Workload::Hm1RoloE | Workload::Hm1RoloEObserved => Scheme::RoloE,
            Workload::DenseRaid10 => Scheme::Raid10,
        }
    }

    /// Simulated trace length; `quick` divides it by 100, for tests.
    /// `proj0_rolop` replays two days rather than the trace's week so that
    /// a run of the benchmark holds enough repetitions for a steady
    /// median; two days still write 29 GB through three logger rotations.
    fn duration(self, quick: bool) -> Duration {
        let full = match self {
            Workload::Proj0RoloP => Duration::from_secs(2 * DAY),
            Workload::DenseRaid10 => Duration::from_secs(1800),
            Workload::Hm1RoloE | Workload::Hm1RoloEObserved => Duration::from_secs(7 * DAY),
        };
        if quick {
            Duration::from_micros(full.as_micros() / 100)
        } else {
            full
        }
    }

    /// Generates the records from `seed` and builds and checks the
    /// configuration: the work `setup_s` times.
    pub fn setup(self, seed: u64, quick: bool) -> Input {
        let duration = self.duration(quick);
        let records = match self {
            Workload::Proj0RoloP => profiles::proj_0().generator(duration, seed).collect(),
            Workload::Hm1RoloE | Workload::Hm1RoloEObserved => {
                profiles::hm_1().generator(duration, seed).collect()
            }
            Workload::DenseRaid10 => dense().generator(duration, seed).collect(),
        };
        let mut cfg = SimConfig::paper_default(self.scheme(), 20);
        cfg.seed = seed;
        cfg.rca_enabled = self.observed();
        cfg.validate();
        Input {
            cfg,
            records,
            duration,
        }
    }

    /// The trace sink and span switch the replay runs with.
    pub fn observers(self) -> (Box<dyn TraceSink>, bool) {
        if self.observed() {
            (Box::new(RingSink::new(1 << 20)), true)
        } else {
            (Box::new(NullSink), false)
        }
    }
}

/// The dense cell: smooth Poisson at 2000 IOPS, 70% writes of 8 KB
/// (p = 0.8) or 128 KB (p = 0.2), 16 KB reads. About half the RAID10
/// array's service capacity, so queues stay short and the run measures
/// the simulator's per-event cost rather than a backlog.
fn dense() -> SyntheticConfig {
    SyntheticConfig {
        iops: 2000.0,
        write_ratio: 0.7,
        read_size: SizeDist::Fixed(16 << 10),
        write_size: SizeDist::TwoPoint {
            small: 8 << 10,
            large: 128 << 10,
            p_large: 0.2,
        },
        sequential_fraction: 0.3,
        write_footprint: 64 << 30,
        read_footprint: 64 << 30,
        read_hot_fraction: 0.0,
        hot_set_bytes: 1 << 20,
        burstiness: Burstiness::Smooth,
        batch_mean: 1.0,
        align: 4096,
    }
}

/// Receives a freshly built controller; see [`PolicySource`].
pub trait PolicyUser {
    /// What the user returns.
    type Out;
    /// Runs with `policy`.
    fn using<P: Policy>(self, policy: P) -> Self::Out;
}

/// Builds the controller for a configuration and hands it, statically
/// typed, to a [`PolicyUser`]. Tests substitute a source that wraps the
/// controller, for instance to slow one callback down.
pub trait PolicySource {
    /// Builds the controller for `cfg` and runs `user` with it.
    fn build<U: PolicyUser>(&self, cfg: &SimConfig, user: U) -> U::Out;
}

/// Builds each scheme's controller exactly as
/// `rolo_core::run_scheme_observed` does, so a replay through
/// `run_trace_observed` is the same computation (the contract test
/// compares the digests).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemePolicy;

impl PolicySource for SchemePolicy {
    fn build<U: PolicyUser>(&self, cfg: &SimConfig, user: U) -> U::Out {
        let geo = cfg.geometry().expect("setup checked the configuration");
        match cfg.scheme {
            Scheme::Raid10 => user.using(Raid10Policy::new()),
            Scheme::RoloP => {
                let mut policy = RoloPolicy::new(
                    RoloFlavor::Performance,
                    cfg.pairs,
                    geo.logger_base(),
                    geo.logger_region(),
                    cfg.rotate_free_threshold,
                    cfg.destage_chunk,
                );
                policy.set_eager_spinup(cfg.eager_spinup);
                policy.set_segment_tuning(cfg.log_segment, cfg.compact_live_frac, cfg.archive_ttl);
                if cfg.rolo_on_duty > 1 {
                    policy.set_on_duty_loggers(cfg.rolo_on_duty);
                }
                user.using(policy)
            }
            Scheme::RoloE => {
                let mut policy = RoloEPolicy::new(
                    cfg.pairs,
                    geo.logger_base(),
                    geo.logger_region(),
                    cfg.stripe_unit,
                    cfg.destage_threshold,
                    cfg.destage_chunk,
                    cfg.roloe_idle_spindown,
                    cfg.roloe_cache_fraction,
                );
                policy.set_segment_tuning(cfg.log_segment, cfg.archive_ttl);
                if cfg.rolo_on_duty > 1 {
                    policy.set_on_duty_pairs(cfg.rolo_on_duty);
                }
                user.using(policy)
            }
            other => panic!("no benchmark workload runs {other}"),
        }
    }
}
