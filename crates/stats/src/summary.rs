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
        assert!((s.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
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
    fn mean_and_std_dev_functions() {
        assert!((mean(&[1.0, 2.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        let s = Summary::from_sample(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.std_dev().unwrap() - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(Summary::from_sample(&[1.0]).unwrap().std_dev(), None);
    }

    #[test]
    fn quantiles_and_median() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&data, 1.0).unwrap(), 5.0);
        assert_eq!(quantile(&data, 0.25).unwrap(), 2.0);
        assert_eq!(quantile(&data, 0.5).unwrap(), 3.0);
        // Interpolated quantile on even-sized sample.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap(), 2.5);
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
