//! Criterion microbenchmarks of the simulator's hot paths, plus a
//! small end-to-end run per scheme. These guard the substrate's
//! throughput (a simulated week must stay in the seconds range).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rolo_core::logspace::LoggerSpace;
use rolo_core::{dirty::DirtyMap, Scheme, SimConfig, SimCtx};
use rolo_disk::{DiskParams, IoKind, Priority, ServiceModel};
use rolo_sim::{CalendarQueue, Duration, EventQueue, SimRng, SimTime};
use rolo_trace::SyntheticConfig;

fn bench_service_model(c: &mut Criterion) {
    c.bench_function("service_model_random_64k", |b| {
        let mut m = ServiceModel::new(DiskParams::ultrastar_36z15(), SimRng::seed_from(1));
        let mut rng = SimRng::seed_from(2);
        let cap = m.params().capacity_bytes - 64 * 1024;
        b.iter(|| {
            let off = rng.below(cap / 4096) * 4096;
            std::hint::black_box(m.service_time(off, 64 * 1024));
        });
    });
    c.bench_function("service_model_sequential_64k", |b| {
        let mut m = ServiceModel::new(DiskParams::ultrastar_36z15(), SimRng::seed_from(3));
        let mut off = 0u64;
        let cap = m.params().capacity_bytes;
        b.iter(|| {
            if off + 64 * 1024 > cap {
                off = 0;
            }
            std::hint::black_box(m.service_time(off, 64 * 1024));
            off += 64 * 1024;
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_1k", |b| {
        let mut rng = SimRng::seed_from(4);
        b.iter_batched(
            EventQueue::<u32>::new,
            |mut q| {
                for i in 0..1000u32 {
                    q.schedule(SimTime::from_micros(rng.below(1_000_000)), i);
                }
                while q.pop().is_some() {}
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("calendar_queue_schedule_pop_1k", |b| {
        let mut rng = SimRng::seed_from(4);
        b.iter_batched(
            CalendarQueue::<u32>::new,
            |mut q| {
                for i in 0..1000u32 {
                    q.schedule(SimTime::from_micros(rng.below(1_000_000)), i);
                }
                while q.pop().is_some() {}
            },
            BatchSize::SmallInput,
        );
    });
    // Steady-state churn: the event-loop shape — pop one, schedule a
    // near-future follow-up — where the calendar's O(1) bucket insert
    // pays off over the heap's log n.
    c.bench_function("calendar_queue_churn_16k", |b| {
        let mut rng = SimRng::seed_from(14);
        b.iter_batched(
            || {
                let mut warm = SimRng::seed_from(15);
                let mut q = CalendarQueue::<u32>::new();
                for i in 0..64u32 {
                    q.schedule(SimTime::from_micros(warm.below(10_000)), i);
                }
                q
            },
            |mut q| {
                for i in 0..16_384u32 {
                    let ev = q.pop().expect("queue stays warm");
                    q.schedule(ev.time + Duration::from_micros(1 + rng.below(8_000)), i);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

/// The submit → wake → `complete_io` dispatch cycle through `SimCtx`, the
/// per-I/O path under every controller: slab registration, service-time
/// sampling, wake scheduling, and completion classification.
fn bench_dispatch(c: &mut Criterion) {
    c.bench_function("ctx_dispatch_cycle_1k", |b| {
        let cfg = SimConfig::paper_default(Scheme::Raid10, 4);
        let geo = cfg.geometry().expect("valid paper default");
        let standby = vec![false; cfg.disk_count()];
        b.iter_batched(
            || SimCtx::new(&cfg, geo.clone(), &standby),
            |mut ctx| {
                let disks = ctx.disk_count();
                let mut wakes = Vec::new();
                for i in 0..1000u64 {
                    let d = (i as usize) % disks;
                    ctx.submit(
                        d,
                        IoKind::Write,
                        (i % 512) * 4096,
                        4096,
                        Priority::Foreground,
                    );
                    ctx.drain_wakes_into(&mut wakes);
                    for (disk, wake) in wakes.drain(..) {
                        ctx.now = wake.due();
                        std::hint::black_box(ctx.complete_io(disk));
                    }
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_logspace(c: &mut Criterion) {
    c.bench_function("logspace_alloc_reclaim_cycle", |b| {
        b.iter_batched(
            || LoggerSpace::new(0, 64 << 20),
            |mut ls| {
                for i in 0..512 {
                    ls.alloc(64 * 1024, i % 8, (i / 64) as u64).unwrap();
                }
                for p in 0..8 {
                    ls.reclaim(|s| s.pair == p);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_dirty_map(c: &mut Criterion) {
    c.bench_function("dirty_map_mark_take", |b| {
        let mut rng = SimRng::seed_from(5);
        b.iter_batched(
            DirtyMap::new,
            |mut d| {
                for _ in 0..1000 {
                    d.mark(rng.below(1 << 30), 64 * 1024);
                }
                while d.take_next(512 * 1024).is_some() {}
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end_10min_4pairs");
    g.sample_size(10);
    for scheme in Scheme::all() {
        g.bench_function(scheme.to_string(), |b| {
            b.iter(|| {
                let mut cfg = SimConfig::paper_default(scheme, 4);
                cfg.logger_region = 64 << 20;
                cfg.graid_log_capacity = 128 << 20;
                let dur = Duration::from_secs(600);
                let wl = SyntheticConfig::motivation_write_only(50.0);
                let r = rolo_core::run_scheme(&cfg, wl.generator(dur, 6), dur);
                assert!(r.consistency.is_ok());
                std::hint::black_box(r.total_energy_j)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_service_model,
    bench_event_queue,
    bench_dispatch,
    bench_logspace,
    bench_dirty_map,
    bench_end_to_end
);
criterion_main!(benches);
