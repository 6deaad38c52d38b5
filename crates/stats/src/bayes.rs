//! Gaussian naïve Bayes classifier — the "advanced model" comparator.
//!
//! Section 5 of the paper observes that *"compared to correlation analysis using
//! advanced models (e.g., Bayesian networks), KDE can produce accurate results with few
//! tens of samples, and is more robust to noise in the data."* To make that observation
//! reproducible we need a parametric, model-based comparator that (a) is trained on
//! labelled satisfactory/unsatisfactory runs, (b) needs to estimate per-class
//! parameters, and therefore (c) degrades when the unsatisfactory class has only a
//! handful of noisy samples. A Gaussian naïve Bayes classifier over the operator/metric
//! features is the simplest member of the Bayesian-network family and exposes exactly
//! that trade-off; the `kde_vs_baseline` experiment sweeps sample size and noise to
//! compare it against the KDE detector.

use crate::dist::normal_log_pdf;
use crate::summary::Summary;
use crate::{Result, StatsError};

/// Binary class label for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunLabel {
    /// The run met its performance expectation.
    Satisfactory,
    /// The run violated its performance expectation.
    Unsatisfactory,
}

#[derive(Debug, Clone)]
struct ClassModel {
    prior: f64,
    means: Vec<f64>,
    std_devs: Vec<f64>,
}

impl ClassModel {
    fn log_likelihood(&self, features: &[f64]) -> f64 {
        let mut ll = self.prior.ln();
        for (i, &x) in features.iter().enumerate() {
            ll += normal_log_pdf(x, self.means[i], self.std_devs[i]);
        }
        ll
    }
}

/// A two-class Gaussian naïve Bayes model over fixed-length feature vectors
/// (e.g. one feature per plan operator's running time).
#[derive(Debug, Clone)]
pub struct GaussianNaiveBayes {
    n_features: usize,
    satisfactory: ClassModel,
    unsatisfactory: ClassModel,
}

impl GaussianNaiveBayes {
    /// Fits the model from labelled feature vectors.
    ///
    /// # Errors
    /// Returns an error if the training set is empty, rows have inconsistent lengths,
    /// values are non-finite, or either class has no examples.
    pub fn fit(rows: &[(Vec<f64>, RunLabel)]) -> Result<Self> {
        let Some((first, _)) = rows.first() else {
            return Err(StatsError::EmptySample);
        };
        let n_features = first.len();
        if n_features == 0 {
            return Err(StatsError::InvalidParameter("feature vectors must be non-empty"));
        }
        for (features, _) in rows {
            if features.len() != n_features {
                return Err(StatsError::LengthMismatch { left: n_features, right: features.len() });
            }
            crate::ensure_finite(features)?;
        }
        let build = |label: RunLabel| -> Result<ClassModel> {
            let class_rows: Vec<&Vec<f64>> =
                rows.iter().filter(|(_, l)| *l == label).map(|(f, _)| f).collect();
            if class_rows.is_empty() {
                return Err(StatsError::NotEnoughSamples { required: 1, got: 0 });
            }
            let mut means = Vec::with_capacity(n_features);
            let mut std_devs = Vec::with_capacity(n_features);
            for j in 0..n_features {
                let col: Vec<f64> = class_rows.iter().map(|r| r[j]).collect();
                let s = Summary::from_sample(&col)?;
                let mean = s.mean().expect("non-empty class");
                // Variance smoothing keeps degenerate single-sample classes usable.
                let sd = s.std_dev().unwrap_or(0.0).max(mean.abs() * 1e-2).max(1e-6);
                means.push(mean);
                std_devs.push(sd);
            }
            Ok(ClassModel { prior: class_rows.len() as f64 / rows.len() as f64, means, std_devs })
        };
        Ok(GaussianNaiveBayes {
            n_features,
            satisfactory: build(RunLabel::Satisfactory)?,
            unsatisfactory: build(RunLabel::Unsatisfactory)?,
        })
    }

    /// Posterior probability that the feature vector belongs to an unsatisfactory run.
    ///
    /// # Errors
    /// Returns an error if the feature vector has the wrong length or non-finite values.
    pub fn prob_unsatisfactory(&self, features: &[f64]) -> Result<f64> {
        if features.len() != self.n_features {
            return Err(StatsError::LengthMismatch { left: self.n_features, right: features.len() });
        }
        crate::ensure_finite(features)?;
        let ls = self.satisfactory.log_likelihood(features);
        let lu = self.unsatisfactory.log_likelihood(features);
        // Stable softmax over two log-likelihoods.
        let m = ls.max(lu);
        let es = (ls - m).exp();
        let eu = (lu - m).exp();
        Ok(eu / (es + eu))
    }

    /// Classifies a feature vector (threshold 0.5 on the unsatisfactory posterior).
    ///
    /// # Errors
    /// Same conditions as [`Self::prob_unsatisfactory`].
    pub fn classify(&self, features: &[f64]) -> Result<RunLabel> {
        Ok(if self.prob_unsatisfactory(features)? >= 0.5 {
            RunLabel::Unsatisfactory
        } else {
            RunLabel::Satisfactory
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_data() -> Vec<(Vec<f64>, RunLabel)> {
        let mut rows = Vec::new();
        // Satisfactory: feature0 ~ 10, feature1 ~ 5.
        for i in 0..20 {
            let jitter = (i % 5) as f64 * 0.1;
            rows.push((vec![10.0 + jitter, 5.0 - jitter], RunLabel::Satisfactory));
        }
        // Unsatisfactory: feature0 elevated to ~20, feature1 unchanged.
        for i in 0..8 {
            let jitter = (i % 4) as f64 * 0.2;
            rows.push((vec![20.0 + jitter, 5.0 + jitter], RunLabel::Unsatisfactory));
        }
        rows
    }

    #[test]
    fn fit_and_classify() {
        let model = GaussianNaiveBayes::fit(&training_data()).unwrap();
        assert_eq!(model.n_features, 2);
        assert_eq!(model.classify(&[10.1, 5.0]).unwrap(), RunLabel::Satisfactory);
        assert_eq!(model.classify(&[20.5, 5.1]).unwrap(), RunLabel::Unsatisfactory);
        let p = model.prob_unsatisfactory(&[19.0, 5.0]).unwrap();
        assert!(p > 0.9, "p = {p}");
    }

    #[test]
    fn fit_rejects_bad_input() {
        assert!(GaussianNaiveBayes::fit(&[]).is_err());
        // Missing a class entirely.
        let one_class = vec![(vec![1.0], RunLabel::Satisfactory)];
        assert!(GaussianNaiveBayes::fit(&one_class).is_err());
        // Inconsistent row lengths.
        let ragged = vec![(vec![1.0, 2.0], RunLabel::Satisfactory), (vec![1.0], RunLabel::Unsatisfactory)];
        assert!(GaussianNaiveBayes::fit(&ragged).is_err());
        // Empty feature vectors.
        let empty_features = vec![(vec![], RunLabel::Satisfactory)];
        assert!(GaussianNaiveBayes::fit(&empty_features).is_err());
    }

    #[test]
    fn classify_rejects_wrong_arity() {
        let model = GaussianNaiveBayes::fit(&training_data()).unwrap();
        assert!(model.classify(&[1.0]).is_err());
        assert!(model.prob_unsatisfactory(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn small_unsatisfactory_class_is_usable_but_weak() {
        // Only two unsatisfactory examples: the model still fits (variance smoothing),
        // illustrating the data-hunger the paper's observation is about.
        let mut rows =
            training_data().into_iter().filter(|(_, l)| *l == RunLabel::Satisfactory).collect::<Vec<_>>();
        rows.push((vec![20.0, 5.0], RunLabel::Unsatisfactory));
        rows.push((vec![20.4, 5.1], RunLabel::Unsatisfactory));
        let model = GaussianNaiveBayes::fit(&rows).unwrap();
        assert_eq!(model.classify(&[20.2, 5.0]).unwrap(), RunLabel::Unsatisfactory);
    }
}
