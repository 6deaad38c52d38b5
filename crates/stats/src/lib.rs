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
//! * [`cache::ScoringCache`] — memoised KDE fits keyed by the caller's variable, so
//!   re-executions over one context fit each satisfactory sample once.
//! * [`summary`], [`dist`] — descriptive statistics (Welford summaries, quantiles) for
//!   the bandwidth selectors, and the normal-distribution functions behind the CDF.
//! * [`spectrum::LatencySpectrum`] — exact nearest-rank percentile reporting
//!   (p50/p99/p999) for the service loop's latency and staleness statistics.
//!
//! The KDE anomaly score is the only scorer: operators, record counts and SAN metrics
//! are all scored by it. The z-score, percentile and naive-Bayes comparators of the
//! paper's §5 observation are local to the `kde_vs_baseline` experiment in `diads-bench`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod dist;
pub mod kde;
pub mod spectrum;
pub mod summary;

pub use cache::ScoringCache;
pub use kde::{Bandwidth, Kde};
pub use spectrum::LatencySpectrum;
pub use summary::Summary;

/// Errors produced by the statistics layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample was empty but the operation requires at least one observation.
    EmptySample,
    /// The input contained a NaN or infinite value.
    NonFiniteValue,
    /// A provided parameter was outside its valid domain (e.g. non-positive bandwidth).
    InvalidParameter(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptySample => write!(f, "sample is empty"),
            StatsError::NonFiniteValue => write!(f, "sample contains NaN or infinite values"),
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
        assert_eq!(StatsError::NonFiniteValue.to_string(), "sample contains NaN or infinite values");
        assert!(StatsError::InvalidParameter("bandwidth").to_string().contains("bandwidth"));
    }

    #[test]
    fn ensure_finite_rejects_nan_and_inf() {
        assert!(ensure_finite(&[1.0, 2.0]).is_ok());
        assert_eq!(ensure_finite(&[1.0, f64::NAN]), Err(StatsError::NonFiniteValue));
        assert_eq!(ensure_finite(&[f64::INFINITY]), Err(StatsError::NonFiniteValue));
    }
}
