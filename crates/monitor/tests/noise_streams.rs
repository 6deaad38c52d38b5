//! Property tests for the per-series noise streams: a recorded value depends only on
//! (series identity, interval index) — never on how observation streams of different
//! series interleave, how the observed time range is chunked across collectors, or
//! how many collectors split the series between them.
//!
//! Like `store_properties.rs`, the cases are driven by a deterministic splitmix64
//! generator (`proptest` is not vendored), so failures are reproducible.

use diads_monitor::noise::NoiseModel;
use diads_monitor::rng::SplitMix64;
use diads_monitor::{ComponentId, Duration, IntervalSampler, MetricKey, MetricName, MetricStore, Timestamp};

const INTERVAL_SECS: u64 = 300;

/// Deterministic case generator over the workspace's shared splitmix64 PRNG.
struct Gen {
    rng: SplitMix64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen { rng: SplitMix64::new(seed) }
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.rng.next_u64() as usize) % (hi - lo)
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }
}

/// One generated workload: per-series time-ordered observation streams plus the
/// collector's noise model and seed.
struct Case {
    /// `streams[s]` is series `s`'s observations in time order.
    streams: Vec<Vec<(Timestamp, f64)>>,
    noise: NoiseModel,
    seed: u64,
    end: u64,
}

fn generate_case(g: &mut Gen) -> Case {
    let series = g.usize_in(2, 16);
    let end = (g.usize_in(4, 12) as u64) * INTERVAL_SECS;
    let streams = (0..series)
        .map(|_| {
            let step = g.usize_in(5, 90) as u64;
            let base = g.f64_in(1.0, 500.0);
            let mut stream = Vec::new();
            let mut t = g.usize_in(0, 120) as u64;
            while t < end {
                stream.push((Timestamp::new(t), base + g.f64_in(-1.0, 1.0)));
                t += step;
            }
            stream
        })
        .collect();
    let noise = match g.usize_in(0, 3) {
        0 => NoiseModel::None,
        1 => NoiseModel::Gaussian { sigma: g.f64_in(0.01, 0.2) },
        _ => NoiseModel::GaussianWithSpikes {
            sigma: g.f64_in(0.01, 0.1),
            spike_prob: g.f64_in(0.01, 0.1),
            spike_factor: g.f64_in(2.0, 8.0),
        },
    };
    Case { streams, noise, seed: g.rng.next_u64(), end }
}

fn intern_keys(store: &mut MetricStore, case: &Case) -> Vec<MetricKey> {
    (0..case.streams.len())
        .map(|s| store.intern(&ComponentId::volume(format!("NS{s:03}")), &MetricName::WriteIo))
        .collect()
}

fn sampler(case: &Case) -> IntervalSampler {
    IntervalSampler::new(Duration::from_secs(INTERVAL_SECS), case.noise.clone(), case.seed)
}

/// Reference recording: one collector, observations fed series-by-series.
fn record_series_by_series(case: &Case) -> MetricStore {
    let mut store = MetricStore::new();
    let keys = intern_keys(&mut store, case);
    let mut s = sampler(case);
    for (key, stream) in keys.iter().zip(&case.streams) {
        for &(t, v) in stream {
            s.observe(&mut store, *key, t, v);
        }
    }
    s.flush(&mut store);
    store
}

/// Same observations, interleaved round-robin across series (a completely different
/// flush order inside the collector).
fn record_round_robin(case: &Case) -> MetricStore {
    let mut store = MetricStore::new();
    let keys = intern_keys(&mut store, case);
    let mut s = sampler(case);
    let mut cursors = vec![0usize; case.streams.len()];
    loop {
        let mut progressed = false;
        for (i, stream) in case.streams.iter().enumerate() {
            if cursors[i] < stream.len() {
                let (t, v) = stream[cursors[i]];
                cursors[i] += 1;
                s.observe(&mut store, keys[i], t, v);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    s.flush(&mut store);
    store
}

/// Recording split by series: each of `parts` fresh samplers observes its own
/// series subset, and all of them write into one store.
fn record_partitioned_by_series(case: &Case, parts: usize) -> MetricStore {
    let mut store = MetricStore::new();
    let keys = intern_keys(&mut store, case);
    for part in 0..parts {
        let mut s = sampler(case);
        for (i, stream) in case.streams.iter().enumerate().filter(|(i, _)| i % parts == part) {
            for &(t, v) in stream {
                s.observe(&mut store, keys[i], t, v);
            }
        }
        s.flush(&mut store);
    }
    store
}

/// Recording split by interval-aligned time chunks: each of `parts` fresh samplers
/// observes *all* series over its own chunk, and all of them write into one store.
fn record_partitioned_by_time(case: &Case, parts: usize) -> MetricStore {
    let mut store = MetricStore::new();
    let keys = intern_keys(&mut store, case);
    let chunk_len = (case.end / parts as u64).div_ceil(INTERVAL_SECS).max(1) * INTERVAL_SECS;
    for part in 0..parts as u64 {
        let mut s = sampler(case);
        let chunk = chunk_len * part..chunk_len * (part + 1);
        for (key, stream) in keys.iter().zip(&case.streams) {
            for &(t, v) in stream.iter().filter(|(t, _)| chunk.contains(&t.as_secs())) {
                s.observe(&mut store, *key, t, v);
            }
        }
        s.flush(&mut store);
    }
    store
}

fn assert_stores_identical(a: &MetricStore, b: &MetricStore, what: &str) {
    assert_eq!(a.series_count(), b.series_count(), "{what}: series count");
    assert_eq!(a.point_count(), b.point_count(), "{what}: point count");
    for (key, series) in a.iter() {
        let other = b.series_by_key(key).unwrap_or_else(|| panic!("{what}: {} missing", a.display_key(key)));
        assert_eq!(series.len(), other.len(), "{what}: {} length", a.display_key(key));
        for (x, y) in series.points().iter().zip(other.points()) {
            assert_eq!(x.time, y.time, "{what}: {} timestamps", a.display_key(key));
            assert_eq!(
                x.value.to_bits(),
                y.value.to_bits(),
                "{what}: {} values must be bit-identical",
                a.display_key(key)
            );
        }
    }
}

const CASES: usize = 25;

#[test]
fn recorded_values_are_independent_of_interleaving_and_thread_count() {
    let mut g = Gen::new(0x5EED5);
    for case_no in 0..CASES {
        let case = generate_case(&mut g);
        let reference = record_series_by_series(&case);
        assert_stores_identical(
            &reference,
            &record_round_robin(&case),
            &format!("case {case_no}, round-robin interleaving"),
        );
        for parts in [2, 3, 5] {
            assert_stores_identical(
                &reference,
                &record_partitioned_by_series(&case, parts),
                &format!("case {case_no}, {parts} samplers by series"),
            );
            assert_stores_identical(
                &reference,
                &record_partitioned_by_time(&case, parts),
                &format!("case {case_no}, {parts} samplers by time chunk"),
            );
        }
    }
}

#[test]
fn different_collector_seeds_change_the_noise() {
    let mut g = Gen::new(0xFACE);
    let mut case = generate_case(&mut g);
    case.noise = NoiseModel::Gaussian { sigma: 0.1 };
    let a = record_series_by_series(&case);
    case.seed ^= 1;
    let b = record_series_by_series(&case);
    let drifted = a.iter().any(|(key, series)| {
        series
            .points()
            .iter()
            .zip(b.series_by_key(key).unwrap().points())
            .any(|(x, y)| x.value.to_bits() != y.value.to_bits())
    });
    assert!(drifted, "noise must depend on the collector seed");
}
