//! Criterion benchmark: the SAN performance engine (response-time evaluation and
//! metric recording over the Figure-1 topology).

use diads_bench::microbench::Criterion;
use diads_bench::{criterion_group, criterion_main};
use diads_monitor::noise::NoiseModel;
use diads_monitor::{Duration, IntervalSampler, MetricStore, TimeRange, Timestamp};
use diads_san::topology::paper_testbed;
use diads_san::workload::{ExternalWorkload, IoProfile};
use diads_san::{SanSimulator, VolumeLoad};
use std::hint::black_box;

fn bench_san(c: &mut Criterion) {
    let mut sim = SanSimulator::new(paper_testbed());
    sim.add_workload(ExternalWorkload::steady(
        "app-load",
        "app-server",
        "V3",
        IoProfile::oltp(120.0, 60.0),
        TimeRange::new(Timestamp::ZERO, Timestamp::new(1_000_000)),
    ))
    .expect("volume exists");

    let mut group = c.benchmark_group("san");
    group.sample_size(30);
    group.bench_function("volume_response", |b| {
        b.iter(|| black_box(sim.volume_response(black_box("V1"), Timestamp::new(5_000), &[])))
    });
    group.bench_function("record_metrics_1h", |b| {
        b.iter(|| {
            let mut sampler = IntervalSampler::new(Duration::from_mins(5), NoiseModel::None, 1);
            let mut store = MetricStore::new();
            sim.record_metrics(
                TimeRange::new(Timestamp::ZERO, Timestamp::new(3_600)),
                &[],
                &mut sampler,
                &mut store,
            );
            sampler.flush(&mut store);
            black_box(store.point_count())
        })
    });
    // What a scenario passes: one load per query run and volume. Twelve runs of
    // two minutes, one every five minutes, each reading V1 and V2.
    let query_loads: Vec<VolumeLoad> = (0..12u64)
        .flat_map(|run| {
            let window = TimeRange::with_duration(Timestamp::new(run * 300), Duration::from_secs(120));
            [
                VolumeLoad::new("V1", IoProfile::oltp(180.0, 9.0), window),
                VolumeLoad::new("V2", IoProfile::oltp(60.0, 3.0), window),
            ]
        })
        .collect();
    group.bench_function("record_metrics_1h_query_loads", |b| {
        b.iter(|| {
            let mut sampler = IntervalSampler::new(Duration::from_mins(5), NoiseModel::None, 1);
            let mut store = MetricStore::new();
            sim.record_metrics(
                TimeRange::new(Timestamp::ZERO, Timestamp::new(3_600)),
                &query_loads,
                &mut sampler,
                &mut store,
            );
            sampler.flush(&mut store);
            black_box(store.point_count())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_san);
criterion_main!(benches);
