//! Criterion microbenchmarks of the simulator's hot paths, plus a
//! small end-to-end run per scheme. These guard the substrate's
//! throughput (a simulated week must stay in the seconds range).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rolo_core::logspace::LoggerSpace;
use rolo_core::segment::{SegmentStore, RECORD_HEADER_BYTES};
use rolo_core::{dirty::DirtyMap, Scheme, SimConfig, SimCtx};
use rolo_disk::{DiskParams, IoKind, PowerState, Priority, ServiceBreakdown, ServiceModel};
use rolo_obs::{ExemplarRecorder, LegFlavor, SpanCollector};
use rolo_sim::{CalendarQueue, Duration, EventQueue, ExtentMap, IoSlot, SimRng, SimTime};
use rolo_trace::{ReqKind, SyntheticConfig};

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
    // follow-up 1–8000 µs out. Most follow-ups land in the 8 ms bucket
    // being drained, by binary search into its sorted remainder; the
    // rest are an O(1) push onto the next bucket, sorted once when the
    // clock enters it.
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
                    let (off, tag) = ((i % 512) * 4096, IoSlot::DANGLING);
                    ctx.submit(d, IoKind::Write, off, 4096, Priority::Foreground, tag);
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
                    let allocated = ls.alloc(64 * 1024, i % 8, (i / 64) as u64, |seg| {
                        std::hint::black_box(seg);
                    });
                    assert!(allocated);
                }
                for p in 0..8 {
                    ls.reclaim(|s| s.pair() == p);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

/// A logged write's journal work: append a record, commit it at a
/// fresh LSN (checksum stamp and live-index claim), and seal the
/// segment every 64 records, which trims its record buffer.
fn bench_segment(c: &mut Criterion) {
    c.bench_function("segment_append_commit_1k", |b| {
        b.iter_batched(
            || SegmentStore::new(64 * (RECORD_HEADER_BYTES + 4096)),
            |mut s| {
                for i in 0..1000u64 {
                    let out = s.append((i % 8) as usize, 1, (i % 512) * 4096, 4096);
                    s.commit(out.rid, i + 1);
                }
                s
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

/// `ExtentMap` updates at the sizes and shapes the journal sees: random
/// marks into a dirty map as large as `proj0_rolop`'s, and the
/// append-only growth of a live index.
fn bench_extent_map(c: &mut Criterion) {
    c.bench_function("extent_map_random_assign_16k", |b| {
        // 16,384 disjoint 4 KB extents, one per MiB.
        let mut full = DirtyMap::new();
        for i in 0..16_384u64 {
            full.mark(i << 20, 4096);
        }
        let mut rng = SimRng::seed_from(16);
        b.iter_batched(
            || full.clone(),
            |mut d| {
                for _ in 0..1000 {
                    d.mark(rng.below(16 << 30), 54 * 1024);
                }
                std::hint::black_box(d.extent_count())
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("extent_map_sequential_append", |b| {
        b.iter_batched(
            ExtentMap::<usize>::new,
            |mut m| {
                // Each extent leaves a gap, so every append adds one.
                for i in 0..16_384u64 {
                    m.assign(i * 128 * 1024, 64 * 1024, (i / 64) as usize, |_, _| {});
                }
                std::hint::black_box(m.len())
            },
            BatchSize::SmallInput,
        );
    });
}

/// The observed completion path: each request opens a span in a
/// recycled legs buffer, tags and records one or two legs, and closes,
/// which folds its critical path into the run's attribution; the same
/// path then feeds an exemplar recorder that stays warm across
/// iterations, as the context's completion hook does. Requests arrive
/// 0.6 s apart, so a 60 s window sees 100 of them and, with four windows
/// retained, evicted windows' slots are reused.
fn bench_span_exemplar(c: &mut Criterion) {
    c.bench_function("span_exemplar_cycle_1k", |b| {
        let mut rng = SimRng::seed_from(17);
        let mut rec = ExemplarRecorder::new(8, Duration::from_secs(60), 4);
        let power = [PowerState::Idle; 8];
        let mut next_id = 0u64;
        b.iter(|| {
            let mut spans = SpanCollector::new();
            for _ in 0..1000 {
                let id = next_id;
                next_id += 1;
                let submit = SimTime::from_micros(id * 600_000);
                spans.open_request(id, ReqKind::Read, submit);
                let legs = 1 + id % 2;
                for io in 2 * id..2 * id + legs {
                    spans.tag_io(io, id, LegFlavor::Transfer);
                }
                let mut end = submit;
                for io in 2 * id..2 * id + legs {
                    let seek = Duration::from_micros(rng.below(8_000));
                    let transfer = Duration::from_micros(1 + rng.below(4_000));
                    let start = submit + Duration::from_micros(rng.below(50_000));
                    let leg = ServiceBreakdown {
                        id: io,
                        background: false,
                        submit,
                        start,
                        end: start + seek + transfer,
                        seek,
                        rotation: Duration::ZERO,
                        transfer,
                        spinup_stall: Duration::ZERO,
                        bg_interference: Duration::ZERO,
                    };
                    end = end.max(leg.end);
                    spans.record_leg(io, (io % 8) as usize, &leg);
                }
                let (span, path) = spans.close_request(id, end).expect("span is open");
                rec.observe(end, span, &path, &power);
            }
            spans
        });
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
    bench_segment,
    bench_dirty_map,
    bench_extent_map,
    bench_span_exemplar,
    bench_end_to_end
);
criterion_main!(benches);
