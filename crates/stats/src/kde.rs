//! Gaussian Kernel Density Estimation and the DIADS anomaly score.
//!
//! Module CO of the paper fits a KDE to the running times of each operator over the
//! *satisfactory* runs of a plan, and scores an observation `u` taken from an
//! *unsatisfactory* run with `prob(S <= u)`; operators whose score exceeds a threshold
//! (0.8 in the paper's evaluation) form the correlated-operator set. Modules DA and CR
//! apply exactly the same machinery to component performance metrics and operator
//! record counts.

use crate::dist::normal_cdf;
use crate::summary::{quantile_of_sorted, Summary};
use crate::{ensure_finite, Result, StatsError};

/// Bandwidth-selection strategy for the Gaussian kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Bandwidth {
    /// Silverman's rule of thumb: `0.9 * min(sd, IQR/1.34) * n^(-1/5)`.
    ///
    /// This is the default; it is robust for the small (few tens of samples)
    /// unimodal samples the diagnosis workflow works with.
    #[default]
    Silverman,
    /// Scott's rule: `1.06 * sd * n^(-1/5)`.
    Scott,
    /// A fixed, caller-supplied bandwidth (must be positive).
    Fixed(f64),
}

/// A one-dimensional Gaussian kernel density estimate.
///
/// The sample is kept **sorted** after fitting: evaluation exploits the ordering to
/// skip kernels that are many bandwidths away from the query point, so CDF queries in
/// the tails are O(log n) instead of O(n). This matters because the diagnosis
/// workflow's anomaly scores are mostly tail queries (that is what makes them
/// anomalies).
#[derive(Debug, Clone)]
pub struct Kde {
    /// Sorted ascending.
    samples: Vec<f64>,
    bandwidth: f64,
}

/// Number of bandwidths beyond which a Gaussian kernel's contribution is treated as
/// fully converged (Φ(±9) differs from 1/0 by ~1e-19, far below f64 summation noise).
const KERNEL_CUTOFF_BANDWIDTHS: f64 = 9.0;

/// Minimum bandwidth used when the sample is (nearly) degenerate.
///
/// Production monitoring data is frequently quantised (e.g. an idle metric that is
/// exactly 0 for every satisfactory run); a zero bandwidth would turn the CDF into a
/// step function and make every later observation maximally anomalous. The floor is
/// relative to the sample magnitude so the score stays well-behaved.
fn bandwidth_floor(samples: &[f64]) -> f64 {
    let scale = samples.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()));
    (scale * 1e-3).max(1e-9)
}

impl Kde {
    /// Fits a KDE with the default (Silverman) bandwidth.
    ///
    /// # Errors
    /// Returns an error if the sample is empty or contains non-finite values.
    pub fn fit(samples: &[f64]) -> Result<Self> {
        Self::fit_with(samples, Bandwidth::Silverman)
    }

    /// Fits a KDE with an explicit bandwidth strategy.
    ///
    /// # Errors
    /// Returns an error if the sample is empty, contains non-finite values, or a
    /// non-positive fixed bandwidth is supplied.
    pub(crate) fn fit_with(samples: &[f64], bandwidth: Bandwidth) -> Result<Self> {
        if samples.is_empty() {
            return Err(StatsError::EmptySample);
        }
        ensure_finite(samples)?;
        // Canonicalise *before* bandwidth selection: the data-driven rules run a
        // Welford pass whose floating-point result is sensitive to input order in
        // the last ULPs. Deriving them from the sorted sample makes a fit a pure
        // function of the sample multiset — the property that lets an incremental
        // merge-extension ([`Kde::extended`]) reproduce a cold fit bit for bit.
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let h = resolve_bandwidth(&sorted, bandwidth)?;
        Ok(Kde { samples: sorted, bandwidth: h })
    }

    /// Rebuilds an estimate from a previously fitted (sorted ascending) sample and
    /// bandwidth — the deserialisation counterpart of [`Kde::samples`] and
    /// [`Kde::bandwidth`], used to restore persisted scoring caches.
    ///
    /// # Errors
    /// Rejects empty or non-finite samples, unsorted input, and a non-positive or
    /// non-finite bandwidth.
    pub fn from_parts(samples: Vec<f64>, bandwidth: f64) -> Result<Self> {
        if samples.is_empty() {
            return Err(StatsError::EmptySample);
        }
        ensure_finite(&samples)?;
        if samples.windows(2).any(|w| w[0].total_cmp(&w[1]).is_gt()) {
            return Err(StatsError::InvalidParameter("samples must be sorted ascending"));
        }
        if bandwidth <= 0.0 || !bandwidth.is_finite() {
            return Err(StatsError::InvalidParameter("bandwidth must be positive"));
        }
        Ok(Kde { samples, bandwidth })
    }

    /// Grows the estimate with `delta` under the default (Silverman) rule — the
    /// incremental counterpart of [`Kde::fit`].
    ///
    /// # Errors
    /// Returns an error if `delta` contains non-finite values.
    pub fn extended(&self, delta: &[f64]) -> Result<Self> {
        self.extended_with(delta, Bandwidth::Silverman)
    }

    /// Grows the estimate by merge-inserting `delta` into the sorted sample and
    /// re-deriving the bandwidth over the merged sample: O(new log new + n) instead
    /// of the O((n+new) log (n+new)) full re-sort.
    ///
    /// **Bit-identical to `Kde::fit_with(&concat, rule)`** over the concatenated
    /// sample: a `total_cmp` merge of two `total_cmp`-sorted halves yields the same
    /// vector as sorting the concatenation (equal keys have equal bit patterns),
    /// and the bandwidth is re-derived exactly over that vector — when the
    /// bandwidth would change, it is recomputed, never approximated, so there is no
    /// drift for a fallback to correct.
    ///
    /// # Errors
    /// Returns an error if `delta` contains non-finite values (or `rule` carries an
    /// invalid fixed bandwidth).
    pub(crate) fn extended_with(&self, delta: &[f64], rule: Bandwidth) -> Result<Self> {
        ensure_finite(delta)?;
        if delta.is_empty() {
            return Ok(self.clone());
        }
        let mut sorted_delta = delta.to_vec();
        sorted_delta.sort_unstable_by(f64::total_cmp);
        let mut merged = Vec::with_capacity(self.samples.len() + sorted_delta.len());
        let (mut i, mut j) = (0, 0);
        while i < self.samples.len() && j < sorted_delta.len() {
            if self.samples[i].total_cmp(&sorted_delta[j]).is_gt() {
                merged.push(sorted_delta[j]);
                j += 1;
            } else {
                merged.push(self.samples[i]);
                i += 1;
            }
        }
        merged.extend_from_slice(&self.samples[i..]);
        merged.extend_from_slice(&sorted_delta[j..]);
        let h = resolve_bandwidth(&merged, rule)?;
        Ok(Kde { samples: merged, bandwidth: h })
    }

    /// The bandwidth actually used by this estimate.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of observations the estimate is built from.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the estimate is built from an empty sample (never true for a
    /// successfully constructed [`Kde`]).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The underlying sample, sorted ascending.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Indices of the samples whose kernels contribute non-negligibly at `x`.
    ///
    /// Samples below the window contribute a converged CDF term of 1 and a PDF term
    /// of 0; samples above it contribute 0 to both.
    fn active_window(&self, x: f64) -> (usize, usize) {
        let cut = KERNEL_CUTOFF_BANDWIDTHS * self.bandwidth;
        let lo = self.samples.partition_point(|&s| s < x - cut);
        let hi = self.samples.partition_point(|&s| s <= x + cut);
        (lo, hi)
    }

    /// Estimated cumulative distribution `P(S <= x)`.
    ///
    /// For a Gaussian kernel this has the closed form
    /// `(1/n) Σ Φ((x − s_i) / h)`, so no numerical integration is needed. Because the
    /// sample is sorted, kernels that have fully converged at `x` (everything more
    /// than `KERNEL_CUTOFF_BANDWIDTHS` (9) bandwidths away) are counted without
    /// evaluating `Φ`: tail queries cost O(log n).
    pub fn cdf(&self, x: f64) -> f64 {
        let n = self.samples.len() as f64;
        let (lo, hi) = self.active_window(x);
        let converged = lo as f64; // samples far below x: Φ ≈ 1
        let active: f64 = self.samples[lo..hi].iter().map(|&s| normal_cdf(x, s, self.bandwidth)).sum();
        ((converged + active) / n).clamp(0.0, 1.0)
    }

    /// Batch evaluation of the anomaly score for many observations.
    ///
    /// Scoring `k` observations against one fit is the workflow's common case (every
    /// unsatisfactory run is scored against the same satisfactory history); this
    /// amortises the fit and keeps the per-observation cost at one sorted-window scan.
    pub fn score_many(&self, observations: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(observations.len());
        self.score_many_into(observations, &mut out);
        out
    }

    /// Like [`Kde::score_many`], but reuses a caller-owned output buffer so repeated
    /// batch scoring performs zero allocations.
    pub fn score_many_into(&self, observations: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(observations.iter().map(|&u| self.cdf(u)));
    }

    /// The DIADS anomaly score of an observation `u`: `prob(S <= u)`.
    ///
    /// Values close to 1 mean `u` is significantly above the satisfactory range of the
    /// variable; the paper flags scores above 0.8.
    pub fn anomaly_score(&self, u: f64) -> f64 {
        self.cdf(u)
    }

    /// Anomaly score of a *set* of observations, scored by their mean.
    ///
    /// The workflow frequently has several unsatisfactory runs; the paper scores the
    /// observed value of each unsatisfactory run and DIADS aggregates them. Scoring the
    /// mean observation is robust when only a handful of unsatisfactory runs exist.
    ///
    /// # Errors
    /// Returns an error if `observations` is empty or non-finite.
    pub fn anomaly_score_mean(&self, observations: &[f64]) -> Result<f64> {
        Ok(self.anomaly_score(crate::summary::mean(observations)?))
    }

    /// Two-sided score of a *set* of observations, scored by their mean — the
    /// symmetric counterpart of [`Kde::anomaly_score_mean`], sharing its empty-sample
    /// policy.
    ///
    /// # Errors
    /// Returns an error if `observations` is empty or non-finite.
    pub fn two_sided_score_mean(&self, observations: &[f64]) -> Result<f64> {
        Ok(self.two_sided_score(crate::summary::mean(observations)?))
    }

    /// Two-sided "unusualness" score: `2 * |prob(S <= u) - 0.5|`.
    ///
    /// Useful for metrics where a drop is as suspicious as a rise (e.g. cache hit
    /// ratios); 0 means perfectly typical, 1 means extreme in either direction.
    pub(crate) fn two_sided_score(&self, u: f64) -> f64 {
        (2.0 * (self.cdf(u) - 0.5)).abs()
    }
}

/// Resolves a [`Bandwidth`] strategy over an already-canonicalised (sorted) sample,
/// applying the degenerate-sample floor. The single bandwidth path shared by cold
/// fits and incremental extensions — both must agree bit for bit.
fn resolve_bandwidth(sorted: &[f64], bandwidth: Bandwidth) -> Result<f64> {
    let h = match bandwidth {
        Bandwidth::Fixed(h) => {
            if h <= 0.0 || !h.is_finite() {
                return Err(StatsError::InvalidParameter("bandwidth must be positive"));
            }
            h
        }
        Bandwidth::Silverman => silverman_bandwidth_of_sorted(sorted),
        Bandwidth::Scott => scott_bandwidth(sorted),
    };
    Ok(h.max(bandwidth_floor(sorted)))
}

/// Silverman's rule-of-thumb bandwidth of a non-empty, finite, ascending sample.
///
/// Uses the robust spread `min(sd, IQR / 1.34)`; falls back to the non-zero one when
/// either is zero, and to a relative floor when the sample is degenerate. The
/// quartiles are read straight off the sorted sample instead of from two sorted
/// copies.
fn silverman_bandwidth_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len() as f64;
    let sd = Summary::from_sample(sorted).ok().and_then(|s| s.std_dev()).unwrap_or(0.0);
    let iqr = (quantile_of_sorted(sorted, 0.75) - quantile_of_sorted(sorted, 0.25)) / 1.34;
    let spread = match (sd > 0.0, iqr > 0.0) {
        (true, true) => sd.min(iqr),
        (true, false) => sd,
        (false, true) => iqr,
        (false, false) => 0.0,
    };
    if spread <= 0.0 {
        bandwidth_floor(sorted)
    } else {
        0.9 * spread * n.powf(-0.2)
    }
}

/// Scott's rule bandwidth: `1.06 * sd * n^(-1/5)`.
pub(crate) fn scott_bandwidth(samples: &[f64]) -> f64 {
    let n = samples.len() as f64;
    let sd = Summary::from_sample(samples).ok().and_then(|s| s.std_dev()).unwrap_or(0.0);
    if sd <= 0.0 {
        bandwidth_floor(samples)
    } else {
        1.06 * sd * n.powf(-0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_normal_like() -> Vec<f64> {
        // A deterministic, roughly bell-shaped sample centred on 100.
        vec![
            92.0, 95.0, 96.5, 98.0, 99.0, 99.5, 100.0, 100.2, 100.8, 101.5, 102.0, 103.0, 104.5, 106.0, 108.0,
        ]
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(Kde::fit(&[]).is_err());
        assert!(Kde::fit(&[1.0, f64::NAN]).is_err());
        assert!(Kde::fit_with(&[1.0, 2.0], Bandwidth::Fixed(0.0)).is_err());
        assert!(Kde::fit_with(&[1.0, 2.0], Bandwidth::Fixed(-1.0)).is_err());
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let kde = Kde::fit(&sample_normal_like()).unwrap();
        let mut prev = 0.0;
        for i in 0..200 {
            let x = 80.0 + i as f64 * 0.25;
            let c = kde.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c + 1e-12 >= prev, "cdf must be non-decreasing");
            prev = c;
        }
        assert!(kde.cdf(50.0) < 0.01);
        assert!(kde.cdf(150.0) > 0.99);
    }

    #[test]
    fn anomaly_score_flags_large_observations() {
        let kde = Kde::fit(&sample_normal_like()).unwrap();
        // A value far above the satisfactory range must be ≈ 1.
        assert!(kde.anomaly_score(160.0) > 0.95);
        // A typical value must be mid-range.
        let mid = kde.anomaly_score(100.0);
        assert!(mid > 0.3 && mid < 0.7, "mid = {mid}");
        // A value far below must be ≈ 0.
        assert!(kde.anomaly_score(40.0) < 0.05);
    }

    #[test]
    fn anomaly_score_mean_aggregates() {
        let kde = Kde::fit(&sample_normal_like()).unwrap();
        let score = kde.anomaly_score_mean(&[150.0, 155.0, 160.0]).unwrap();
        assert!(score > 0.95);
        assert!(kde.anomaly_score_mean(&[]).is_err());
    }

    #[test]
    fn two_sided_score_detects_drops() {
        let kde = Kde::fit(&sample_normal_like()).unwrap();
        assert!(kde.two_sided_score(40.0) > 0.9);
        assert!(kde.two_sided_score(160.0) > 0.9);
        assert!(kde.two_sided_score(100.0) < 0.4);
    }

    #[test]
    fn degenerate_sample_does_not_panic() {
        // All-equal sample: bandwidth floor keeps the CDF smooth enough to score.
        let kde = Kde::fit(&[5.0; 20]).unwrap();
        assert!(kde.bandwidth() > 0.0);
        assert!(kde.anomaly_score(5.0) > 0.4 && kde.anomaly_score(5.0) < 0.6);
        assert!(kde.anomaly_score(500.0) > 0.99);
        // All-zero sample (idle metric).
        let kde = Kde::fit(&[0.0; 10]).unwrap();
        assert!(kde.anomaly_score(1.0) > 0.99);
        assert!(kde.anomaly_score(0.0) < 0.6);
    }

    #[test]
    fn bandwidth_rules_are_positive_and_ordered() {
        let s = sample_normal_like();
        let h_silverman = Kde::fit_with(&s, Bandwidth::Silverman).unwrap().bandwidth();
        let h_scott = Kde::fit_with(&s, Bandwidth::Scott).unwrap().bandwidth();
        assert!(h_silverman > 0.0 && h_scott > 0.0);
        // Scott uses sd with a larger constant; Silverman uses min(sd, iqr/1.34) * 0.9.
        assert!(h_scott >= h_silverman);
    }

    #[test]
    fn fit_is_order_independent() {
        let a = Kde::fit(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        let b = Kde::fit(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.bandwidth().to_bits(), b.bandwidth().to_bits());
    }

    #[test]
    fn extended_matches_cold_fit_bit_for_bit() {
        let old = [3.0, 1.0, 2.0, 5.0, 4.0, 4.0];
        let delta = [2.5, 0.5, 9.0, 4.0];
        let kde = Kde::fit(&old).unwrap();
        let ext = kde.extended(&delta).unwrap();
        let mut concat = old.to_vec();
        concat.extend_from_slice(&delta);
        let cold = Kde::fit(&concat).unwrap();
        assert_eq!(ext.samples(), cold.samples());
        assert_eq!(ext.bandwidth().to_bits(), cold.bandwidth().to_bits());
        // Empty delta is the identity extension.
        let same = kde.extended(&[]).unwrap();
        assert_eq!(same.samples(), kde.samples());
        assert_eq!(same.bandwidth().to_bits(), kde.bandwidth().to_bits());
        // Non-finite deltas are rejected.
        assert!(kde.extended(&[f64::NAN]).is_err());
    }

    /// The reference the sorted-input quartiles must match: Silverman's rule with
    /// moments over the sorted copy and quartiles through the public (copying,
    /// re-sorting) `iqr`.
    fn silverman_via_public_iqr(samples: &[f64]) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let sd = Summary::from_sample(&sorted).ok().and_then(|s| s.std_dev()).unwrap_or(0.0);
        let iqr = crate::summary::iqr(&sorted).unwrap_or(0.0) / 1.34;
        let spread = match (sd > 0.0, iqr > 0.0) {
            (true, true) => sd.min(iqr),
            (true, false) => sd,
            (false, true) => iqr,
            (false, false) => 0.0,
        };
        if spread <= 0.0 {
            bandwidth_floor(&sorted)
        } else {
            0.9 * spread * (sorted.len() as f64).powf(-0.2)
        }
    }

    #[test]
    fn fitted_bandwidth_is_silverman_of_the_unsorted_sample() {
        let thirty: Vec<f64> = (0..30).map(|i| ((i * 17) % 30) as f64 * 0.37 - 4.0).collect();
        let samples: Vec<Vec<f64>> = vec![
            vec![4.2],
            vec![-0.0],
            vec![3.0, 1.0],
            vec![0.0, -0.0],
            vec![2.0, -1.5, 0.25],
            vec![-0.0, 0.0, 0.0],
            vec![5.0, 5.0, 5.0],
            vec![7.0, 1.0, 7.0, 7.0, 2.0, 1.0],
            vec![0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0],
            thirty.clone(),
            thirty.iter().map(|v| v.round()).collect(),
        ];
        for unsorted in &samples {
            let floor = |h: f64| h.max(bandwidth_floor(unsorted));
            let expected = floor(silverman_via_public_iqr(unsorted)).to_bits();
            assert_eq!(Kde::fit(unsorted).unwrap().bandwidth().to_bits(), expected, "fit {unsorted:?}");
            for split in 1..unsorted.len() {
                let (head, tail) = unsorted.split_at(split);
                let extended = Kde::fit(head).unwrap().extended(tail).unwrap();
                assert_eq!(extended.bandwidth().to_bits(), expected, "extended at {split}: {unsorted:?}");
            }
        }
    }

    #[test]
    fn from_parts_round_trips_a_fit() {
        let kde = Kde::fit(&sample_normal_like()).unwrap();
        let rebuilt = Kde::from_parts(kde.samples().to_vec(), kde.bandwidth()).unwrap();
        assert_eq!(rebuilt.samples(), kde.samples());
        assert_eq!(rebuilt.bandwidth().to_bits(), kde.bandwidth().to_bits());
        assert_eq!(rebuilt.cdf(101.0).to_bits(), kde.cdf(101.0).to_bits());
        assert!(Kde::from_parts(vec![], 1.0).is_err());
        assert!(Kde::from_parts(vec![2.0, 1.0], 1.0).is_err(), "unsorted rejected");
        assert!(Kde::from_parts(vec![1.0, 2.0], 0.0).is_err());
        assert!(Kde::from_parts(vec![1.0, f64::INFINITY], 1.0).is_err());
    }

    #[test]
    fn fixed_bandwidth_is_respected() {
        let kde = Kde::fit_with(&sample_normal_like(), Bandwidth::Fixed(2.5)).unwrap();
        assert!((kde.bandwidth() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn more_samples_sharpen_the_estimate() {
        // With more satisfactory samples tightly clustered, a moderately high value
        // becomes more clearly anomalous.
        let tight: Vec<f64> = (0..50).map(|i| 100.0 + (i % 5) as f64 * 0.5).collect();
        let loose: Vec<f64> = (0..5).map(|i| 100.0 + i as f64 * 0.5).collect();
        let k_tight = Kde::fit(&tight).unwrap();
        let k_loose = Kde::fit(&loose).unwrap();
        assert!(k_tight.anomaly_score(106.0) >= k_loose.anomaly_score(106.0) - 1e-9);
    }
}
