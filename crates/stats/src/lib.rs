//! # diads-stats
//!
//! Statistical machine-learning primitives used by the DIADS diagnosis workflow
//! (reproduction of *"Why Did My Query Slow Down?"*, CIDR 2009).
//!
//! The paper's workflow relies on **Kernel Density Estimation** to turn the running
//! times of plan operators (and the performance metrics of SAN components, and
//! operator record counts) into *anomaly scores*: for a random variable `S` observed
//! under satisfactory runs and an observation `u` taken during an unsatisfactory run,
//! the anomaly score is `prob(S <= u)` — close to 1 when `u` is far above the typical
//! range of `S`.
//!
//! This crate provides:
//!
//! * [`kde::Kde`] — Gaussian kernel density estimation with Silverman/Scott bandwidth
//!   selection, closed-form CDF evaluation and the paper's anomaly score.
//! * [`anomaly`] — a common [`anomaly::AnomalyDetector`] trait with KDE, z-score,
//!   percentile-threshold and MAD implementations (the non-KDE detectors are the
//!   ablation baselines used by the `kde_vs_baseline` experiment).
//! * [`bayes::GaussianNaiveBayes`] — the simple parametric "advanced model" comparator
//!   for the paper's observation that KDE needs only a few tens of samples.
//! * [`summary`], [`robust`] — descriptive statistics shared by the detectors and
//!   the KDE bandwidth selectors.
//! * [`spectrum::LatencySpectrum`] — exact nearest-rank percentile reporting
//!   (p50/p99/p999) for the service loop's latency and staleness statistics.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod anomaly;
pub mod bayes;
pub mod cache;
pub mod dist;
pub mod kde;
pub mod robust;
pub mod spectrum;
pub mod summary;

pub use anomaly::{AnomalyDetector, KdeDetector, MadDetector, PercentileDetector, ZScoreDetector};
pub use bayes::GaussianNaiveBayes;
pub use cache::ScoringCache;
pub use kde::{Bandwidth, Kde};
pub use spectrum::LatencySpectrum;
pub use summary::Summary;

/// Errors produced by the statistics layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample was empty but the operation requires at least one observation.
    EmptySample,
    /// The input sample had fewer observations than the operation requires.
    NotEnoughSamples {
        /// Number of observations required.
        required: usize,
        /// Number of observations provided.
        got: usize,
    },
    /// The input contained a NaN or infinite value.
    NonFiniteValue,
    /// Two paired samples had different lengths.
    LengthMismatch {
        /// Length of the first sample.
        left: usize,
        /// Length of the second sample.
        right: usize,
    },
    /// A provided parameter was outside its valid domain (e.g. non-positive bandwidth).
    InvalidParameter(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "sample is empty"),
            StatsError::NotEnoughSamples { required, got } => {
                write!(f, "need at least {required} samples, got {got}")
            }
            StatsError::NonFiniteValue => write!(f, "sample contains NaN or infinite values"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired samples have different lengths ({left} vs {right})")
            }
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience result alias for the statistics layer.
pub type Result<T> = std::result::Result<T, StatsError>;

pub(crate) fn ensure_finite(sample: &[f64]) -> Result<()> {
    if sample.iter().any(|v| !v.is_finite()) {
        Err(StatsError::NonFiniteValue)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_readable() {
        assert_eq!(StatsError::EmptySample.to_string(), "sample is empty");
        assert_eq!(
            StatsError::NotEnoughSamples { required: 3, got: 1 }.to_string(),
            "need at least 3 samples, got 1"
        );
        assert_eq!(
            StatsError::LengthMismatch { left: 2, right: 5 }.to_string(),
            "paired samples have different lengths (2 vs 5)"
        );
        assert!(StatsError::InvalidParameter("bandwidth").to_string().contains("bandwidth"));
    }

    #[test]
    fn ensure_finite_rejects_nan_and_inf() {
        assert!(ensure_finite(&[1.0, 2.0]).is_ok());
        assert_eq!(ensure_finite(&[1.0, f64::NAN]), Err(StatsError::NonFiniteValue));
        assert_eq!(ensure_finite(&[f64::INFINITY]), Err(StatsError::NonFiniteValue));
    }
}
