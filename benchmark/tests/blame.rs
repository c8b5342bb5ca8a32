//! Layer-blame self-test: slowing one controller callback must raise
//! that layer's share of the traced wall time more than any other share,
//! and must lower end-to-end throughput.

use rolo_benchmark::{Metric, PolicySource, PolicyUser, SchemePolicy, Series, Summary, Workload};
use rolo_core::{Policy, PolicyStats, Raid10Policy, SimConfig, SimCtx};
use rolo_disk::{DiskId, DiskRequest};
use rolo_trace::TraceRecord;
use std::time::{Duration, Instant};

/// RAID10 whose `on_io_complete` busy-waits 2 µs first.
struct Slow(Raid10Policy);

impl Policy for Slow {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn initial_standby(&self, disk: DiskId) -> bool {
        self.0.initial_standby(disk)
    }
    fn attach(&mut self, ctx: &mut SimCtx) {
        self.0.attach(ctx);
    }
    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        self.0.on_user_request(ctx, user_id, rec);
    }
    fn on_io_complete(&mut self, ctx: &mut SimCtx, disk: DiskId, req: DiskRequest) {
        let t = Instant::now();
        while t.elapsed() < Duration::from_micros(2) {
            std::hint::spin_loop();
        }
        self.0.on_io_complete(ctx, disk, req);
    }
    fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        self.0.on_spin_up(ctx, disk);
    }
    fn on_spin_down(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        self.0.on_spin_down(ctx, disk);
    }
    fn on_timer(&mut self, ctx: &mut SimCtx, token: u64) {
        self.0.on_timer(ctx, token);
    }
    fn begin_drain(&mut self, ctx: &mut SimCtx) {
        self.0.begin_drain(ctx);
    }
    fn is_drained(&self, ctx: &SimCtx) -> bool {
        self.0.is_drained(ctx)
    }
    fn stats(&self) -> PolicyStats {
        self.0.stats()
    }
    fn check_consistency(&self, ctx: &SimCtx) -> Result<(), String> {
        self.0.check_consistency(ctx)
    }
}

struct SlowRaid10;

impl PolicySource for SlowRaid10 {
    fn build<U: PolicyUser>(&self, _cfg: &SimConfig, user: U) -> U::Out {
        user.using(Slow(Raid10Policy::new()))
    }
}

/// Median throughput of three quick untraced replays of `dense_raid10`,
/// and the metrics of a traced one.
fn measure<S: PolicySource>(source: &S) -> (f64, Vec<Metric>) {
    let mut s = Series::new(Workload::DenseRaid10);
    for _ in 0..3 {
        s.rep(7, true, source, None);
    }
    let layers = s.trace(7, true, source, None);
    assert!(s.failures.is_empty(), "{:?}", s.failures);
    let rate = Summary::of(&s.end_to_end()[0]).median;
    (rate, layers.expect("the traced replay succeeded"))
}

/// The shares that partition the traced wall time.
fn shares(metrics: &[Metric]) -> Vec<(&'static str, f64)> {
    metrics
        .iter()
        .filter(|m| m.unit == "%" && m.name != "driver.drain_share")
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn a_slowed_callback_is_blamed_on_its_layer() {
    let (base_rate, base) = measure(&SchemePolicy);
    let (slow_rate, slow) = measure(&SlowRaid10);
    assert!(
        slow_rate < base_rate,
        "throughput did not drop: {slow_rate} vs {base_rate}"
    );
    let (base, slow) = (shares(&base), shares(&slow));
    for s in [&base, &slow] {
        let total: f64 = s.iter().map(|(_, v)| v).sum();
        assert!((total - 100.0).abs() < 0.5, "shares sum to {total}: {s:?}");
    }
    let (blamed, rise) = base
        .iter()
        .zip(&slow)
        .map(|((name, b), (_, s))| (*name, s - b))
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .expect("shares exist");
    assert_eq!(
        blamed, "policy.io_complete.share",
        "rise {rise}: {base:?} -> {slow:?}"
    );
}
