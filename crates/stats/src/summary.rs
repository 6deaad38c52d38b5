//! Descriptive statistics over a sample of `f64` observations.

use crate::{ensure_finite, Result, StatsError};

/// A one-pass descriptive summary of a sample.
///
/// Built with Welford's online algorithm so it can also be updated incrementally
/// (used by the monitoring collector when averaging within a sampling interval).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 }
    }

    /// Builds a summary from a full sample.
    ///
    /// # Errors
    /// Returns [`StatsError::NonFiniteValue`] if the sample contains NaN/inf.
    pub fn from_sample(sample: &[f64]) -> Result<Self> {
        ensure_finite(sample)?;
        let mut s = Summary::new();
        for &v in sample {
            s.push(v);
        }
        Ok(s)
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of observations (0 for an empty summary).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `None` for an empty summary.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Sample variance (n-1 denominator); `None` with fewer than two observations.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Population variance (n denominator); `None` for an empty summary.
    pub fn population_variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Minimum observation; `None` for an empty summary.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation; `None` for an empty summary.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Arithmetic mean of a sample.
///
/// # Errors
/// Returns [`StatsError::EmptySample`] on an empty slice.
pub fn mean(sample: &[f64]) -> Result<f64> {
    if sample.is_empty() {
        return Err(StatsError::EmptySample);
    }
    ensure_finite(sample)?;
    Ok(sample.iter().sum::<f64>() / sample.len() as f64)
}

/// Sample standard deviation (n-1 denominator).
///
/// # Errors
/// Returns [`StatsError::NotEnoughSamples`] if fewer than 2 observations are given.
pub fn std_dev(sample: &[f64]) -> Result<f64> {
    if sample.len() < 2 {
        return Err(StatsError::NotEnoughSamples { required: 2, got: sample.len() });
    }
    let s = Summary::from_sample(sample)?;
    Ok(s.std_dev().expect("at least two samples"))
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of a sample.
///
/// # Errors
/// Returns [`StatsError::EmptySample`] on an empty slice and
/// [`StatsError::InvalidParameter`] if `q` is outside `[0, 1]`.
pub fn quantile(sample: &[f64], q: f64) -> Result<f64> {
    if sample.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter("quantile must be in [0, 1]"));
    }
    ensure_finite(sample)?;
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    Ok(quantile_of_sorted(&sorted, q))
}

/// [`quantile`] of a non-empty, finite, ascending sample with `q` in `[0, 1]`,
/// without the copy and sort.
pub(crate) fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median of a sample (50th percentile).
pub fn median(sample: &[f64]) -> Result<f64> {
    quantile(sample, 0.5)
}

/// Interquartile range (Q3 - Q1).
pub fn iqr(sample: &[f64]) -> Result<f64> {
    Ok(quantile(sample, 0.75)? - quantile(sample, 0.25)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::from_sample(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((s.population_variance().unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(s.min().unwrap(), 2.0);
        assert_eq!(s.max().unwrap(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn empty_summary_returns_none() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_matches_single_pass() {
        let all = [1.0, 2.0, 3.5, 7.25, -1.0, 0.0, 10.0];
        let mut left = Summary::from_sample(&all[..3]).unwrap();
        let right = Summary::from_sample(&all[3..]).unwrap();
        left.merge(&right);
        let whole = Summary::from_sample(&all).unwrap();
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_sample(&[1.0, 2.0]).unwrap();
        let before = s.clone();
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e.mean(), before.mean());
        assert_eq!(e.count(), before.count());
    }

    #[test]
    fn mean_and_std_dev_functions() {
        assert!((mean(&[1.0, 2.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((sd - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(std_dev(&[1.0]).is_err());
    }

    #[test]
    fn quantiles_and_median() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&data, 1.0).unwrap(), 5.0);
        assert_eq!(median(&data).unwrap(), 3.0);
        assert_eq!(quantile(&data, 0.25).unwrap(), 2.0);
        // Interpolated quantile on even-sized sample.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5);
        assert!((iqr(&data).unwrap() - 2.0).abs() < 1e-12);
        assert!(quantile(&data, 1.5).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn rejects_non_finite() {
        assert!(Summary::from_sample(&[1.0, f64::NAN]).is_err());
        assert!(mean(&[f64::INFINITY]).is_err());
    }
}
