//! Anomaly detectors: a common interface over KDE scoring and the baseline detectors
//! used for the paper's "KDE vs. advanced/simple models" observation.
//!
//! Every detector is *fit on satisfactory observations only* and then asked to score an
//! observation from an unsatisfactory run; the score is calibrated to `[0, 1]` where
//! values near 1 mean "significantly higher than the satisfactory range". This mirrors
//! the semantics of the paper's `prob(S <= u)` anomaly score so the detectors are
//! interchangeable inside the workflow (which is exactly what the ablation benchmarks
//! exercise).

use crate::dist::std_normal_cdf;
use crate::kde::Kde;
use crate::robust::mad;
use crate::summary::{median, quantile, Summary};
use crate::Result;
use crate::StatsError;

/// A detector that learns the satisfactory behaviour of a scalar signal and scores how
/// anomalous (how much *higher* than normal) a later observation is.
pub trait AnomalyDetector {
    /// Fits the detector to observations gathered during satisfactory runs.
    ///
    /// # Errors
    /// Implementations reject empty or non-finite samples.
    fn fit(&mut self, satisfactory: &[f64]) -> Result<()>;

    /// Scores one observation; 0 = typical or below range, 1 = far above range.
    fn score(&self, observation: f64) -> f64;

    /// Human-readable detector name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Convenience: whether the observation exceeds the given anomaly threshold.
    fn is_anomalous(&self, observation: f64, threshold: f64) -> bool {
        self.score(observation) >= threshold
    }
}

/// The paper's detector: Gaussian KDE over satisfactory observations, score = CDF.
#[derive(Debug, Clone, Default)]
pub struct KdeDetector {
    kde: Option<Kde>,
}

impl KdeDetector {
    /// Creates an unfitted detector with the default (Silverman) bandwidth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access to the fitted KDE, if any.
    pub fn kde(&self) -> Option<&Kde> {
        self.kde.as_ref()
    }
}

impl AnomalyDetector for KdeDetector {
    fn fit(&mut self, satisfactory: &[f64]) -> Result<()> {
        self.kde = Some(Kde::fit(satisfactory)?);
        Ok(())
    }

    fn score(&self, observation: f64) -> f64 {
        match &self.kde {
            Some(kde) => kde.anomaly_score(observation),
            None => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "kde"
    }
}

/// Parametric Gaussian (z-score) detector: assumes satisfactory observations are
/// normal and scores with the normal CDF. Sensitive to non-normality and to outliers
/// in the training data — one of the baselines DIADS improves upon.
#[derive(Debug, Clone, Default)]
pub struct ZScoreDetector {
    mean: f64,
    std_dev: f64,
    fitted: bool,
}

impl ZScoreDetector {
    /// Creates an unfitted detector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnomalyDetector for ZScoreDetector {
    fn fit(&mut self, satisfactory: &[f64]) -> Result<()> {
        if satisfactory.is_empty() {
            return Err(StatsError::EmptySample);
        }
        let s = Summary::from_sample(satisfactory)?;
        self.mean = s.mean().expect("non-empty");
        self.std_dev = s.std_dev().unwrap_or(0.0).max(self.mean.abs() * 1e-3).max(1e-9);
        self.fitted = true;
        Ok(())
    }

    fn score(&self, observation: f64) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        std_normal_cdf((observation - self.mean) / self.std_dev)
    }

    fn name(&self) -> &'static str {
        "zscore"
    }
}

/// Robust MAD-based detector: like the z-score detector but centred on the median and
/// scaled by the median absolute deviation, so training-set outliers barely move it.
#[derive(Debug, Clone, Default)]
pub struct MadDetector {
    median: f64,
    mad: f64,
    fitted: bool,
}

impl MadDetector {
    /// Creates an unfitted detector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnomalyDetector for MadDetector {
    fn fit(&mut self, satisfactory: &[f64]) -> Result<()> {
        self.median = median(satisfactory)?;
        self.mad = mad(satisfactory)?.max(self.median.abs() * 1e-3).max(1e-9);
        self.fitted = true;
        Ok(())
    }

    fn score(&self, observation: f64) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        std_normal_cdf((observation - self.median) / self.mad)
    }

    fn name(&self) -> &'static str {
        "mad"
    }
}

/// Naïve rule-of-thumb detector: anything above the `percentile`-th percentile of the
/// satisfactory sample scores 1, everything else scores 0. This models the fixed
/// thresholds an administrator might configure by hand; it has no notion of "how far
/// above" and is brittle with few samples.
#[derive(Debug, Clone)]
pub struct PercentileDetector {
    percentile: f64,
    cutoff: f64,
    fitted: bool,
}

impl PercentileDetector {
    /// Creates an unfitted detector with a cut at the given percentile (in `[0, 1]`).
    pub fn new(percentile: f64) -> Self {
        PercentileDetector { percentile, cutoff: f64::INFINITY, fitted: false }
    }

    /// The learned cutoff value (infinite before fitting).
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }
}

impl Default for PercentileDetector {
    fn default() -> Self {
        Self::new(0.95)
    }
}

impl AnomalyDetector for PercentileDetector {
    fn fit(&mut self, satisfactory: &[f64]) -> Result<()> {
        if !(0.0..=1.0).contains(&self.percentile) {
            return Err(StatsError::InvalidParameter("percentile must be in [0, 1]"));
        }
        self.cutoff = quantile(satisfactory, self.percentile)?;
        self.fitted = true;
        Ok(())
    }

    fn score(&self, observation: f64) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        if observation > self.cutoff {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "percentile"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn satisfactory() -> Vec<f64> {
        vec![10.0, 10.5, 9.8, 10.2, 9.9, 10.1, 10.4, 9.7, 10.3, 10.0, 9.6, 10.6, 10.05, 9.95, 10.15]
    }

    #[test]
    fn kde_detector_scores_extremes() {
        let mut d = KdeDetector::new();
        d.fit(&satisfactory()).unwrap();
        assert!(d.score(25.0) > 0.95);
        assert!(d.score(10.0) < 0.7);
        assert!(d.is_anomalous(25.0, 0.8));
        assert!(!d.is_anomalous(10.0, 0.8));
        assert_eq!(d.name(), "kde");
        assert!(d.kde().is_some());
    }

    #[test]
    fn unfitted_detectors_score_zero() {
        assert_eq!(KdeDetector::new().score(100.0), 0.0);
        assert_eq!(ZScoreDetector::new().score(100.0), 0.0);
        assert_eq!(MadDetector::new().score(100.0), 0.0);
        assert_eq!(PercentileDetector::default().score(100.0), 0.0);
    }

    #[test]
    fn zscore_detector_basic() {
        let mut d = ZScoreDetector::new();
        d.fit(&satisfactory()).unwrap();
        assert!(d.score(11.5) > 0.9);
        assert!(d.score(10.0) > 0.3 && d.score(10.0) < 0.7);
        assert!(d.fit(&[]).is_err());
    }

    #[test]
    fn zscore_is_distorted_by_training_outliers_but_mad_is_not() {
        // The "noisy data" case: a single large spike contaminates the satisfactory data.
        let mut contaminated = satisfactory();
        contaminated.push(100.0);
        let mut z = ZScoreDetector::new();
        z.fit(&contaminated).unwrap();
        let mut m = MadDetector::new();
        m.fit(&contaminated).unwrap();
        // A genuinely anomalous value (16.0, well above the ~10 baseline):
        let z_score = z.score(16.0);
        let m_score = m.score(16.0);
        assert!(m_score > 0.99, "MAD should still flag it: {m_score}");
        assert!(z_score < m_score, "z-score is diluted by the contaminating spike");
    }

    #[test]
    fn percentile_detector_is_binary() {
        let mut d = PercentileDetector::new(0.9);
        d.fit(&satisfactory()).unwrap();
        assert_eq!(d.score(100.0), 1.0);
        assert_eq!(d.score(9.0), 0.0);
        assert!(d.cutoff().is_finite());
        let mut bad = PercentileDetector::new(1.5);
        assert!(bad.fit(&satisfactory()).is_err());
    }

    #[test]
    fn detectors_agree_on_obvious_cases() {
        let train = satisfactory();
        let mut kde = KdeDetector::new();
        let mut z = ZScoreDetector::new();
        let mut m = MadDetector::new();
        let mut p = PercentileDetector::default();
        kde.fit(&train).unwrap();
        z.fit(&train).unwrap();
        m.fit(&train).unwrap();
        p.fit(&train).unwrap();
        for d in [&kde as &dyn AnomalyDetector, &z, &m, &p] {
            assert!(d.score(50.0) >= 0.95, "{} failed on obvious anomaly", d.name());
            assert!(d.score(5.0) <= 0.2, "{} failed on obvious non-anomaly", d.name());
        }
    }
}
