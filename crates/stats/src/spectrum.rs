//! Latency-spectrum accounting: exact percentiles over recorded samples.
//!
//! The service loop reports latency *distributions*, not means — a mean hides
//! exactly the tail (lock convoys, cold engine slots, eviction refits).
//! [`LatencySpectrum`] collects raw samples and answers nearest-rank percentile
//! queries (p50/p99/p999) exactly: no binning, no approximation, no external
//! dependencies.
//!
//! Samples are kept unsorted on insert and sorted lazily on the first query after
//! a mutation, so recording stays O(1) in the measurement loop and the O(n log n)
//! sort is paid once, off the timed path.

/// An exact latency (or any scalar) distribution: records samples, answers
/// nearest-rank percentile queries.
///
/// Percentiles use the **nearest-rank** definition: `percentile(p)` is the
/// smallest recorded sample `v` such that at least `ceil(p * n)` of the `n`
/// samples are `<= v`. This is exact (always an actually-observed sample), agrees
/// with the common p50/p99/p999 reporting convention, and is what the unit tests
/// pin against an exhaustively-computed reference.
#[derive(Debug, Clone, Default)]
pub struct LatencySpectrum {
    samples: Vec<f64>,
    /// Number of leading samples known to be sorted; the suffix past it is the
    /// unsorted insert buffer.
    sorted_len: usize,
}

impl LatencySpectrum {
    /// Creates an empty spectrum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Non-finite samples are rejected (a NaN would poison
    /// every order-based query) — callers measuring real durations never produce
    /// them, so dropping is the right degradation.
    pub fn record(&mut self, sample: f64) {
        if sample.is_finite() {
            self.samples.push(sample);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if self.sorted_len < self.samples.len() {
            // Finite-only samples: total_cmp == partial order, no NaN to place.
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted_len = self.samples.len();
        }
    }

    /// The nearest-rank percentile for `p` in `[0, 1]`: the smallest sample with
    /// at least `ceil(p * n)` samples at or below it (`p = 0` returns the
    /// minimum). `None` when empty or `p` is outside `[0, 1]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&p) {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// The median (nearest-rank p50).
    pub fn p50(&mut self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// The 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.percentile(0.99)
    }

    /// The 99.9th percentile.
    pub fn p999(&mut self) -> Option<f64> {
        self.percentile(0.999)
    }

    /// The smallest recorded sample.
    pub fn min(&mut self) -> Option<f64> {
        self.percentile(0.0)
    }

    /// The largest recorded sample.
    pub fn max(&mut self) -> Option<f64> {
        self.percentile(1.0)
    }

    /// The arithmetic mean of the recorded samples.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Definition-faithful reference: scan every recorded sample and return the
    /// smallest one with at least `ceil(p * n)` samples `<=` it. O(n²), used only
    /// to pin the fast path on small inputs.
    fn exhaustive_percentile(samples: &[f64], p: f64) -> Option<f64> {
        if samples.is_empty() || !(0.0..=1.0).contains(&p) {
            return None;
        }
        let n = samples.len();
        let need = ((p * n as f64).ceil() as usize).clamp(1, n);
        samples
            .iter()
            .copied()
            .filter(|&v| samples.iter().filter(|&&w| w <= v).count() >= need)
            .min_by(f64::total_cmp)
    }

    fn spectrum_of(samples: &[f64]) -> LatencySpectrum {
        let mut s = LatencySpectrum::new();
        for &v in samples {
            s.record(v);
        }
        s
    }

    #[test]
    fn known_distribution_pins_p50_p99_p999() {
        // 1..=1000 in shuffled order: every percentile is computable by hand.
        let mut values: Vec<f64> = (1..=1000).map(|v| v as f64).collect();
        // Deterministic shuffle (LCG index swap) so sortedness is actually exercised.
        let mut state = 88172645463325252u64;
        for i in (1..values.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            values.swap(i, (state as usize) % (i + 1));
        }
        let mut s = spectrum_of(&values);
        assert_eq!(s.len(), 1000);
        assert_eq!(s.p50(), Some(500.0));
        assert_eq!(s.p99(), Some(990.0));
        assert_eq!(s.p999(), Some(999.0));
        assert_eq!(s.percentile(1.0), Some(1000.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(1000.0));
        assert_eq!(s.mean(), Some(500.5));
    }

    #[test]
    fn matches_exhaustive_reference_on_varied_distributions() {
        let distributions: Vec<Vec<f64>> = vec![
            vec![42.0],
            vec![1.0, 2.0],
            vec![5.0, 5.0, 5.0, 5.0],
            vec![-3.5, 0.0, 0.0, 2.25, 7.0, 7.0, 100.0],
            (0..97).map(|i| ((i * 37) % 11) as f64 * 0.5 - 2.0).collect(),
            (0..50).map(|i| (i as f64).powi(2)).rev().collect(),
        ];
        let ps = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
        for (d, samples) in distributions.iter().enumerate() {
            let mut s = spectrum_of(samples);
            for &p in &ps {
                assert_eq!(s.percentile(p), exhaustive_percentile(samples, p), "distribution {d}, p={p}");
            }
        }
    }

    #[test]
    fn empty_and_out_of_range_queries_are_none() {
        let mut s = LatencySpectrum::new();
        assert!(s.is_empty());
        assert_eq!(s.p50(), None);
        assert_eq!(s.mean(), None);
        s.record(1.0);
        assert_eq!(s.percentile(-0.1), None);
        assert_eq!(s.percentile(1.1), None);
        assert_eq!(s.percentile(f64::NAN), None);
        assert_eq!(s.p50(), Some(1.0));
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut s = spectrum_of(&[1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.max(), Some(3.0));
    }

    #[test]
    fn recording_interleaves_with_queries() {
        let mut a = spectrum_of(&[1.0, 3.0, 5.0]);
        assert_eq!(a.p50(), Some(3.0)); // force a sort before recording more
        a.record(2.0);
        a.record(4.0);
        assert_eq!(a.len(), 5);
        assert_eq!(a.p50(), Some(3.0));
        assert_eq!(a.max(), Some(5.0));
        // Recording after a query re-sorts lazily and stays exact: with
        // [0.5, 1, 2, 3, 4, 5] the nearest-rank p50 is the 3rd of 6 samples.
        a.record(0.5);
        assert_eq!(a.min(), Some(0.5));
        assert_eq!(a.p50(), Some(2.0));
    }
}
