//! The interval collector.
//!
//! Production monitoring samples at coarse intervals ("5 minutes or higher" per §1.1):
//! raw per-second observations produced by the simulators are accumulated per interval,
//! averaged, optionally perturbed by a noise model, and only the averaged value lands in
//! the metric store. This is precisely the mechanism that makes bursty behaviour hard to
//! see in the stored data.
//!
//! # Per-series noise streams
//!
//! Noise is drawn from a **deterministic per-sample stream**: each flushed sample's
//! generator is seeded by `mix(mix(collector seed, series identity hash), interval
//! start)`. A recorded value therefore depends only on *(series, sample index)* —
//! never on how flushes of different series interleave, how the observed time range
//! is chunked, or how many threads record. A scenario records its SAN metrics
//! through one sampler straight into its [`MetricStore`](crate::MetricStore); samplers
//! with the same seed over disjoint sub-ranges or component subsets, recording from
//! several threads through [`MetricStore::sharded_writer`](crate::MetricStore::sharded_writer),
//! fill a store bit-identical to that one sequential collector. The identity hash
//! comes from the shared [`crate::intern::Interner`], so the stream survives symbol
//! renumbering across stores and processes.

use crate::metric::MetricKey;
use crate::noise::NoiseModel;
use crate::rng::SplitMix64;
use crate::store::MetricSink;
use crate::time::{Duration, Timestamp};

/// The currently open interval of one key.
#[derive(Debug, Clone, Copy)]
struct OpenInterval {
    /// Start of the interval (bucket-aligned seconds).
    start: u64,
    /// Sum of the raw observations accumulated so far.
    sum: f64,
    /// Number of raw observations accumulated so far.
    count: usize,
}

/// Per-series collector state: the series' noise-stream seed (cached at first
/// observation) and its currently open interval, if any.
#[derive(Debug, Clone, Copy)]
struct SeriesSlot {
    /// `mix(collector seed, series identity hash)` — the root of the series' noise
    /// stream, independent of symbol numbering.
    series_seed: u64,
    open: Option<OpenInterval>,
}

/// Accumulates raw observations and flushes interval averages into a [`MetricSink`]
/// (a [`MetricStore`](crate::MetricStore), or any other sink).
#[derive(Debug)]
pub struct IntervalSampler {
    interval: Duration,
    model: NoiseModel,
    seed: u64,
    /// Per-series state in a dense table indexed `[component symbol][metric symbol]`.
    ///
    /// Interned symbols are dense intern-order indices, so the per-observation lookup
    /// is two array indexings. Rows and slots grow on demand.
    open: Vec<Vec<Option<SeriesSlot>>>,
}

impl IntervalSampler {
    /// Creates a sampler with the given interval and noise model. The seed makes the
    /// injected noise deterministic: two samplers with the same seed produce the same
    /// value for the same (series, interval) no matter which subset of series or
    /// sub-range of time each one observes.
    pub fn new(interval: Duration, noise: NoiseModel, seed: u64) -> Self {
        IntervalSampler { interval, model: noise, seed, open: Vec::new() }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Feeds one raw observation; if the observation falls into a new interval for this
    /// key, the previous interval is flushed into `sink` first.
    ///
    /// Keys are interned symbols (`Copy`), so steady-state observation performs no
    /// allocation at all.
    pub fn observe<S: MetricSink>(&mut self, sink: &mut S, key: MetricKey, time: Timestamp, value: f64) {
        let bucket = self.bucket_start(time);
        let (ci, mi) = (key.component.index(), key.metric.index());
        if ci >= self.open.len() {
            self.open.resize_with(ci + 1, Vec::new);
        }
        let row = &mut self.open[ci];
        if mi >= row.len() {
            row.resize(mi + 1, None);
        }
        let slot = match &mut row[mi] {
            Some(slot) => slot,
            empty => empty.insert(SeriesSlot {
                series_seed: SplitMix64::mix(self.seed, sink.key_hash(key)),
                open: None,
            }),
        };
        match &mut slot.open {
            Some(open) if open.start == bucket => {
                open.sum += value;
                open.count += 1;
            }
            Some(open) => {
                let flushed = *open;
                let series_seed = slot.series_seed;
                *open = OpenInterval { start: bucket, sum: value, count: 1 };
                let avg =
                    perturb(&self.model, series_seed, flushed.start, flushed.sum / flushed.count as f64);
                sink.record_key(key, Timestamp::new(flushed.start), avg);
            }
            open => *open = Some(OpenInterval { start: bucket, sum: value, count: 1 }),
        }
    }

    /// Flushes every open interval into the sink (call at the end of a simulation, or
    /// at the end of a worker's recording chunk).
    ///
    /// Flush order is (component, metric) symbol order, but each flushed value is a
    /// pure function of its (series, interval) — the order affects only the
    /// insertion sequence, which keyed, time-sorted series absorb.
    pub fn flush<S: MetricSink>(&mut self, sink: &mut S) {
        let open = std::mem::take(&mut self.open);
        for (ci, row) in open.into_iter().enumerate() {
            for (mi, slot) in row.into_iter().enumerate() {
                let Some(SeriesSlot { series_seed, open: Some(interval) }) = slot else { continue };
                let key = MetricKey::from_indices(ci, mi);
                let avg =
                    perturb(&self.model, series_seed, interval.start, interval.sum / interval.count as f64);
                sink.record_key(key, Timestamp::new(interval.start), avg);
            }
        }
    }

    fn bucket_start(&self, time: Timestamp) -> u64 {
        let secs = self.interval.as_secs().max(1);
        time.as_secs() / secs * secs
    }
}

/// The noise a series receives for the interval starting at `bucket`: a fresh
/// generator seeded from the series seed and the (absolute) interval start, so the
/// drawn noise is a pure function of (series identity, sample index).
fn perturb(model: &NoiseModel, series_seed: u64, bucket: u64, value: f64) -> f64 {
    let mut rng = SplitMix64::new(SplitMix64::mix(series_seed, bucket));
    model.apply(&mut rng, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ComponentId;
    use crate::metric::MetricName;
    use crate::store::MetricStore;
    use crate::time::TimeRange;

    fn key(store: &mut MetricStore) -> MetricKey {
        store.intern(&ComponentId::volume("V1"), &MetricName::WriteIo)
    }

    #[test]
    fn averages_within_interval() {
        let mut sampler = IntervalSampler::new(Duration::from_mins(5), NoiseModel::None, 1);
        let mut store = MetricStore::new();
        let key = key(&mut store);
        // 300 one-second observations of value 10, then one observation in the next interval.
        for t in 0..300 {
            sampler.observe(&mut store, key, Timestamp::new(t), 10.0);
        }
        sampler.observe(&mut store, key, Timestamp::new(300), 50.0);
        // The first interval has been flushed with its average.
        let series = store.series(&ComponentId::volume("V1"), &MetricName::WriteIo).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series.points()[0].time, Timestamp::new(0));
        assert!((series.points()[0].value - 10.0).abs() < 1e-9);
        // Final flush writes the second interval too.
        sampler.flush(&mut store);
        let series = store.series(&ComponentId::volume("V1"), &MetricName::WriteIo).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series.points()[1].value, 50.0);
    }

    #[test]
    fn bursts_are_averaged_away() {
        let mut sampler = IntervalSampler::new(Duration::from_mins(5), NoiseModel::None, 1);
        let mut store = MetricStore::new();
        let key = key(&mut store);
        // Idle interval with a single 30-second burst of 100 IOPS.
        for t in 0..300 {
            let v = if (100..130).contains(&t) { 100.0 } else { 1.0 };
            sampler.observe(&mut store, key, Timestamp::new(t), v);
        }
        sampler.flush(&mut store);
        let avg = store
            .mean_in(
                &ComponentId::volume("V1"),
                &MetricName::WriteIo,
                TimeRange::new(Timestamp::new(0), Timestamp::new(600)),
            )
            .unwrap();
        // 30s of 100 + 270s of 1 averaged over 300s ≈ 10.9 — the burst is no longer visible
        // as a 100-IOPS event.
        assert!(avg < 15.0, "avg = {avg}");
        assert!(avg > 5.0, "avg = {avg}");
    }

    #[test]
    fn separate_keys_do_not_interfere() {
        let mut sampler = IntervalSampler::new(Duration::from_secs(60), NoiseModel::None, 1);
        let mut store = MetricStore::new();
        let key = key(&mut store);
        let other = store.intern(&ComponentId::volume("V2"), &MetricName::WriteIo);
        sampler.observe(&mut store, key, Timestamp::new(0), 5.0);
        sampler.observe(&mut store, other, Timestamp::new(0), 50.0);
        sampler.flush(&mut store);
        assert_eq!(
            store.series(&ComponentId::volume("V1"), &MetricName::WriteIo).unwrap().points()[0].value,
            5.0
        );
        assert_eq!(
            store.series(&ComponentId::volume("V2"), &MetricName::WriteIo).unwrap().points()[0].value,
            50.0
        );
    }

    #[test]
    fn noise_perturbs_flushed_values_deterministically() {
        let run = |seed: u64| {
            let mut sampler =
                IntervalSampler::new(Duration::from_secs(60), NoiseModel::Gaussian { sigma: 0.1 }, seed);
            let mut store = MetricStore::new();
            let key = key(&mut store);
            for t in 0..60 {
                sampler.observe(&mut store, key, Timestamp::new(t), 100.0);
            }
            sampler.flush(&mut store);
            store.series(&ComponentId::volume("V1"), &MetricName::WriteIo).unwrap().points()[0].value
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((a - 100.0).abs() < 50.0);
    }

    #[test]
    fn noise_stream_is_independent_of_cross_series_interleaving() {
        // Two collectors observe the same two series, but in opposite per-observation
        // interleavings (and flush in different relative orders). Per-series streams
        // make the recorded values identical anyway.
        let volume_keys = |store: &mut MetricStore| {
            [
                store.intern(&ComponentId::volume("V1"), &MetricName::WriteIo),
                store.intern(&ComponentId::volume("V2"), &MetricName::WriteIo),
            ]
        };
        let mut a_store = MetricStore::new();
        let mut b_store = MetricStore::new();
        let a_keys = volume_keys(&mut a_store);
        let b_keys = volume_keys(&mut b_store);
        let mut a = IntervalSampler::new(Duration::from_secs(60), NoiseModel::Gaussian { sigma: 0.1 }, 7);
        let mut b = IntervalSampler::new(Duration::from_secs(60), NoiseModel::Gaussian { sigma: 0.1 }, 7);
        for t in 0..240 {
            a.observe(&mut a_store, a_keys[0], Timestamp::new(t), 100.0);
            a.observe(&mut a_store, a_keys[1], Timestamp::new(t), 20.0);
            // Opposite interleaving: V2 first, and V1 lags a whole interval behind.
            b.observe(&mut b_store, b_keys[1], Timestamp::new(t), 20.0);
        }
        for t in 0..240 {
            b.observe(&mut b_store, b_keys[0], Timestamp::new(t), 100.0);
        }
        a.flush(&mut a_store);
        b.flush(&mut b_store);
        for (ka, kb) in a_keys.iter().zip(b_keys) {
            let pa = a_store.series_by_key(*ka).unwrap().points();
            let pb = b_store.series_by_key(kb).unwrap().points();
            assert_eq!(pa.len(), pb.len());
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "per-series stream drifted");
            }
        }
    }
}
