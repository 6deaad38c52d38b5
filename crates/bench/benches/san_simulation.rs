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

/// One load per query run and volume, as a scenario passes them: `runs` runs of
/// two minutes, one every `every_secs` from `first_secs`, each reading V1 and V2.
fn query_loads(runs: u64, first_secs: u64, every_secs: u64) -> Vec<VolumeLoad> {
    (0..runs)
        .flat_map(|run| {
            let start = Timestamp::new(first_secs + run * every_secs);
            let window = TimeRange::with_duration(start, Duration::from_secs(120));
            [
                VolumeLoad::new("V1", IoProfile::oltp(180.0, 9.0), window),
                VolumeLoad::new("V2", IoProfile::oltp(60.0, 3.0), window),
            ]
        })
        .collect()
}

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
    let record = |end_secs: u64, loads: &[VolumeLoad]| {
        let mut sampler = IntervalSampler::new(Duration::from_mins(5), NoiseModel::None, 1);
        let mut store = MetricStore::new();
        sim.record_metrics(
            TimeRange::new(Timestamp::ZERO, Timestamp::new(end_secs)),
            loads,
            &mut sampler,
            &mut store,
        );
        sampler.flush(&mut store);
        store.point_count()
    };

    let mut group = c.benchmark_group("san");
    group.sample_size(30);
    group.bench_function("volume_response", |b| {
        b.iter(|| black_box(sim.volume_response(black_box("V1"), Timestamp::new(5_000), &[])))
    });
    group.bench_function("record_metrics_1h", |b| b.iter(|| black_box(record(3_600, &[]))));
    // Twelve runs in one hour, one every five minutes.
    let hour_loads = query_loads(12, 0, 300);
    group.bench_function("record_metrics_1h_query_loads", |b| {
        b.iter(|| black_box(record(3_600, &hour_loads)))
    });
    // What `Testbed::run_scenario` records: the paper timeline's 30 + 10 hourly
    // runs from the first hour, 42 hours in all, with their 80 loads.
    let paper_loads = query_loads(40, 3_600, 3_600);
    group.sample_size(10);
    group.bench_function("record_metrics_paper_timeline", |b| {
        b.iter(|| black_box(record(42 * 3_600, &paper_loads)))
    });
    group.finish();
}

criterion_group!(benches, bench_san);
criterion_main!(benches);
