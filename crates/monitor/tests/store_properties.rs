//! Property tests for the sharded metric store. The store splits its series across
//! shards by component; these properties check that the split never shows:
//! recording the same streams in any global interleaving gives the same store,
//! range reads agree, enumeration is sorted, and epoch snapshots and deltas stay
//! exact where a seal or a delta skips the shards that did not change.
//!
//! `proptest` is not vendored in this environment, so — like
//! `stats/tests/properties.rs` — the properties are driven by a deterministic
//! splitmix64 case generator: each property is checked over many pseudo-random
//! record streams with a fixed seed, keeping failures reproducible.

use std::collections::BTreeMap;
use std::ops::Range;

use diads_monitor::rng::SplitMix64;
use diads_monitor::{
    ComponentId, DataPoint, EpochId, MetricKey, MetricName, MetricStore, TimeRange, Timestamp,
};

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

/// One generated workload: per-component observation streams over a shared metric
/// vocabulary, plus a random global interleaving of those streams.
struct Case {
    /// `streams[c]` is component `c`'s observations in its own stream order:
    /// (metric index, time, value).
    streams: Vec<Vec<(usize, Timestamp, f64)>>,
    /// The interleaved order: a sequence of component indices; each occurrence
    /// consumes that component's next observation.
    interleaving: Vec<usize>,
    metrics: Vec<MetricName>,
}

fn metric_vocabulary() -> Vec<MetricName> {
    vec![
        MetricName::WriteIo,
        MetricName::ReadIo,
        MetricName::WriteTime,
        MetricName::Utilization,
        MetricName::Custom("queue_depth".into()),
    ]
}

/// A case over a component count drawn from `components`. With `late_points`,
/// streams occasionally jump backwards in time (late flushes), exercising the
/// sorted insert; without, every key's observations arrive in time order.
fn generate_case(g: &mut Gen, components: Range<usize>, late_points: bool) -> Case {
    let metrics = metric_vocabulary();
    let components = g.usize_in(components.start, components.end);
    let mut streams = Vec::with_capacity(components);
    let mut interleaving = Vec::new();
    for c in 0..components {
        let len = g.usize_in(1, 80);
        let mut stream = Vec::with_capacity(len);
        let mut time = g.usize_in(0, 600) as u64;
        for _ in 0..len {
            let metric = g.usize_in(0, metrics.len());
            // Occasionally repeat a timestamp (interval-aligned flushes do).
            time = match g.usize_in(0, 10) {
                0 => time,
                1 if late_points => time.saturating_sub(g.usize_in(1, 120) as u64),
                _ => time + g.usize_in(1, 90) as u64,
            };
            stream.push((metric, Timestamp::new(time), g.f64_in(-1.0e6, 1.0e6)));
        }
        interleaving.extend(std::iter::repeat_n(c, stream.len()));
        streams.push(stream);
    }
    // Fisher-Yates over the interleaving: a random global arrival order that still
    // preserves each component's stream order.
    for i in (1..interleaving.len()).rev() {
        interleaving.swap(i, g.usize_in(0, i + 1));
    }
    Case { streams, interleaving, metrics }
}

/// Interns the case's full key matrix in one deterministic order, so every store
/// built from the case issues identical symbols.
fn intern_keys(store: &mut MetricStore, case: &Case) -> Vec<Vec<MetricKey>> {
    (0..case.streams.len())
        .map(|c| {
            let component = ComponentId::volume(format!("V{c:03}"));
            case.metrics.iter().map(|m| store.intern(&component, m)).collect()
        })
        .collect()
}

/// The case's observations in its random global interleaving:
/// (component, metric index, time, value).
fn interleaved(case: &Case) -> impl Iterator<Item = (usize, usize, Timestamp, f64)> + '_ {
    let mut cursors = vec![0usize; case.streams.len()];
    case.interleaving.iter().map(move |&c| {
        let (metric, time, value) = case.streams[c][cursors[c]];
        cursors[c] += 1;
        (c, metric, time, value)
    })
}

/// Records the streams in the case's random global interleaving.
fn record_interleaved(case: &Case) -> MetricStore {
    let mut store = MetricStore::new();
    let keys = intern_keys(&mut store, case);
    for (c, metric, time, value) in interleaved(case) {
        store.record_key(keys[c][metric], time, value);
    }
    store
}

/// Records the same streams one whole stream after another.
fn record_stream_by_stream(case: &Case) -> MetricStore {
    let mut store = MetricStore::new();
    let keys = intern_keys(&mut store, case);
    for (c, stream) in case.streams.iter().enumerate() {
        for &(metric, time, value) in stream {
            store.record_key(keys[c][metric], time, value);
        }
    }
    store
}

/// Byte-level equality of two stores: same content fingerprint, same merged key
/// sequence, and per key the same points with bit-identical values.
fn assert_stores_identical(a: &MetricStore, b: &MetricStore, what: &str) {
    assert_eq!(a.series_count(), b.series_count(), "{what}: series count");
    assert_eq!(a.point_count(), b.point_count(), "{what}: point count");
    assert_eq!(a.content_fingerprint(), b.content_fingerprint(), "{what}: content fingerprint");
    let ka: Vec<MetricKey> = a.iter().map(|(k, _)| k).collect();
    let kb: Vec<MetricKey> = b.iter().map(|(k, _)| k).collect();
    assert_eq!(ka, kb, "{what}: merged key order");
    for key in ka {
        let pa = a.series_by_key(key).expect("key listed").points();
        let pb = b.series_by_key(key).expect("key listed").points();
        assert_eq!(pa.len(), pb.len(), "{what}: {} length", a.display_key(key));
        for (x, y) in pa.iter().zip(pb) {
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

const CASES: usize = 40;

#[test]
fn interleaved_recording_is_bit_identical_to_stream_by_stream() {
    let mut g = Gen::new(0xD1AD5);
    for case_no in 0..CASES {
        let case = generate_case(&mut g, 2..24, true);
        assert_stores_identical(
            &record_stream_by_stream(&case),
            &record_interleaved(&case),
            &format!("case {case_no}"),
        );
    }
}

#[test]
fn range_reads_agree_between_interleaved_and_stream_by_stream_stores() {
    let mut g = Gen::new(0xBEEF);
    for _ in 0..CASES {
        let case = generate_case(&mut g, 2..24, true);
        let by_stream = record_stream_by_stream(&case);
        let interleaved = record_interleaved(&case);
        // Random range probes over random (component, metric) pairs, including
        // pairs that were never recorded.
        for _ in 0..50 {
            let c = g.usize_in(0, case.streams.len() + 2);
            let m = g.usize_in(0, case.metrics.len());
            let component = ComponentId::volume(format!("V{c:03}"));
            let metric = &case.metrics[m];
            let lo = g.usize_in(0, 4_000) as u64;
            let range = TimeRange::new(Timestamp::new(lo), Timestamp::new(lo + g.usize_in(1, 4_000) as u64));
            let pa = by_stream.points_in(&component, metric, range);
            let pb = interleaved.points_in(&component, metric, range);
            assert_eq!(pa.len(), pb.len());
            assert!(pa
                .iter()
                .zip(pb)
                .all(|(x, y)| x.time == y.time && x.value.to_bits() == y.value.to_bits()));
            // The allocation-free iterator path agrees with the borrowed slices.
            let values: Vec<f64> = by_stream.iter_in(&component, metric, range).collect();
            assert_eq!(values, pb.iter().map(|p| p.value).collect::<Vec<_>>());
            assert_eq!(
                by_stream.mean_in(&component, metric, range),
                interleaved.mean_in(&component, metric, range)
            );
        }
    }
}

#[test]
fn merged_enumeration_is_deterministic_and_sorted() {
    let mut g = Gen::new(0xCAFE);
    for _ in 0..CASES {
        let case = generate_case(&mut g, 2..24, true);
        let store = record_interleaved(&case);
        let keys: Vec<MetricKey> = store.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merged iteration must be ascending key order");
        let syms: Vec<_> = store.component_syms().collect();
        let mut expect = syms.clone();
        expect.sort();
        expect.dedup();
        assert_eq!(syms, expect, "component_syms must be ascending and distinct");
        // keys_of covers exactly the keys iter() attributes to the component.
        for &sym in &syms {
            let from_scan: Vec<MetricKey> = store.keys_of(sym).collect();
            let from_iter: Vec<MetricKey> = keys.iter().copied().filter(|k| k.component == sym).collect();
            assert_eq!(from_scan, from_iter);
        }
    }
}

/// One seal as the reference model saw it.
struct Seal {
    epoch: EpochId,
    /// How many observations had been recorded when the epoch sealed.
    recorded: usize,
    /// `content_fingerprint()` read just before sealing.
    fingerprint: u64,
}

#[test]
fn epoch_snapshots_and_deltas_are_exact_across_shards() {
    // More components than shards, and seals every few observations: most shards
    // do not change between two seals, so seals share watermark snapshots and
    // deltas skip shards. Some seals follow each other with nothing recorded
    // between them (an empty epoch).
    let mut g = Gen::new(0xE90C5);
    for case_no in 0..CASES {
        let case = generate_case(&mut g, 17..48, false);
        let mut store = MetricStore::new();
        let keys = intern_keys(&mut store, &case);
        let gap = g.usize_in(1, 40);
        let mut log: Vec<(MetricKey, DataPoint)> = Vec::new();
        let mut seals: Vec<Seal> = Vec::new();
        let seal = |store: &mut MetricStore, recorded: usize, seals: &mut Vec<Seal>| {
            let since_last = recorded - seals.last().map_or(0, |s| s.recorded);
            assert_eq!(store.open_point_count(), since_last, "case {case_no}: open points before a seal");
            let fingerprint = store.content_fingerprint();
            let epoch = store.seal_epoch();
            assert_eq!(store.open_point_count(), 0, "case {case_no}: open points after a seal");
            seals.push(Seal { epoch, recorded, fingerprint });
        };
        if g.usize_in(0, 2) == 0 {
            seal(&mut store, 0, &mut seals);
        }
        for (c, metric, time, value) in interleaved(&case) {
            let key = keys[c][metric];
            store.record_key(key, time, value);
            log.push((key, DataPoint::new(time, value)));
            if g.usize_in(0, gap) == 0 {
                for _ in 0..1 + usize::from(g.usize_in(0, 4) == 0) {
                    seal(&mut store, log.len(), &mut seals);
                }
            }
        }
        assert_eq!(store.epoch_count(), seals.len(), "case {case_no}: epoch count");
        let since_last = log.len() - seals.last().map_or(0, |s| s.recorded);
        assert_eq!(store.open_point_count(), since_last, "case {case_no}: open points at the end");

        for s in &seals {
            let what = format!("case {case_no}, epoch {}", s.epoch.index());
            assert_eq!(
                store.epoch_cumulative_fingerprint(s.epoch),
                Some(s.fingerprint),
                "{what}: fingerprint"
            );
            // Each key's observations after the seal, in recording order, keys in
            // key order.
            let mut expect: BTreeMap<MetricKey, Vec<DataPoint>> = BTreeMap::new();
            for &(key, point) in &log[s.recorded..] {
                expect.entry(key).or_default().push(point);
            }
            let delta = store.delta_since(s.epoch).expect("in-order streams keep deltas exact");
            let got: Vec<(MetricKey, Vec<DataPoint>)> =
                delta.entries().iter().map(|(key, points)| (*key, points.to_vec())).collect();
            assert_eq!(got, expect.into_iter().collect::<Vec<_>>(), "{what}: delta");
            assert_eq!(delta.point_count(), log.len() - s.recorded, "{what}: delta point count");
        }
    }
}
