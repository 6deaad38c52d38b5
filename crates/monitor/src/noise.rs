//! Measurement-noise models.
//!
//! Production monitoring is configured for low overhead: coarse intervals, sampled
//! counters, occasionally dropped or duplicated reports. Section 1.1 of the paper calls
//! out these "inaccuracies in monitoring data" as a core challenge, and scenario 5 of
//! Table 1 relies on noise producing *spurious symptoms*. The noise models here are
//! applied by the collector when it flushes interval averages into the metric store.

use crate::rng::SplitMix64;

/// A measurement-noise model applied to each flushed sample.
#[derive(Debug, Clone)]
pub enum NoiseModel {
    /// No noise at all (useful for unit tests that need exact values).
    None,
    /// Multiplicative Gaussian noise: `value * (1 + N(0, sigma))`, clamped at zero.
    ///
    /// `sigma` around 0.02–0.10 matches the jitter of five-minute averaged counters.
    Gaussian {
        /// Relative standard deviation of the noise.
        sigma: f64,
    },
    /// Gaussian jitter plus occasional spikes: with probability `spike_prob` a sample is
    /// multiplied by `spike_factor`. This is what creates the paper's "spurious
    /// symptoms caused by noise".
    GaussianWithSpikes {
        /// Relative standard deviation of the background jitter.
        sigma: f64,
        /// Probability that any given sample is a spike.
        spike_prob: f64,
        /// Multiplier applied to spiked samples.
        spike_factor: f64,
    },
}

impl NoiseModel {
    /// Applies the model to one value, drawing randomness from `rng`. Never returns
    /// a negative number, since every metric in the Figure-4 catalog is a
    /// non-negative counter, time or percentage.
    ///
    /// The caller owns the stream discipline: the per-series collector hands in a
    /// fresh generator seeded by (series identity, sample index), which is what
    /// makes recorded values independent of cross-series flush interleaving.
    pub fn apply(&self, rng: &mut SplitMix64, value: f64) -> f64 {
        match *self {
            NoiseModel::None => value,
            NoiseModel::Gaussian { sigma } => {
                let z = rng.next_normal(0.0, 1.0);
                (value * (1.0 + sigma * z)).max(0.0)
            }
            NoiseModel::GaussianWithSpikes { sigma, spike_prob, spike_factor } => {
                let z = rng.next_normal(0.0, 1.0);
                let mut v = value * (1.0 + sigma * z);
                if rng.next_f64() < spike_prob {
                    v *= spike_factor;
                }
                v.max(0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-seed draw stream for exercising the model (the collector itself
    /// seeds one fresh generator per sample — see `sampler`).
    fn stream(seed: u64) -> SplitMix64 {
        SplitMix64::new(seed)
    }

    #[test]
    fn no_noise_is_identity() {
        let mut rng = stream(1);
        assert_eq!(NoiseModel::None.apply(&mut rng, 42.0), 42.0);
        assert_eq!(NoiseModel::None.apply(&mut rng, 0.0), 0.0);
    }

    #[test]
    fn gaussian_noise_is_small_and_unbiased() {
        let model = NoiseModel::Gaussian { sigma: 0.05 };
        let mut rng = stream(7);
        let n = 2000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = model.apply(&mut rng, 100.0);
            assert!(v >= 0.0);
            assert!((v - 100.0).abs() < 40.0, "5-sigma-ish bound: {v}");
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean = {mean}");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let model = NoiseModel::Gaussian { sigma: 0.1 };
        let (mut a, mut b, mut c) = (stream(99), stream(99), stream(100));
        let va: Vec<f64> = (0..20).map(|_| model.apply(&mut a, 10.0)).collect();
        let vb: Vec<f64> = (0..20).map(|_| model.apply(&mut b, 10.0)).collect();
        let vc: Vec<f64> = (0..20).map(|_| model.apply(&mut c, 10.0)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn spikes_occur_at_roughly_the_configured_rate() {
        let model = NoiseModel::GaussianWithSpikes { sigma: 0.01, spike_prob: 0.1, spike_factor: 10.0 };
        let mut rng = stream(5);
        let n = 5000;
        let spikes = (0..n).filter(|_| model.apply(&mut rng, 10.0) > 50.0).count();
        let rate = spikes as f64 / n as f64;
        assert!(rate > 0.05 && rate < 0.15, "spike rate = {rate}");
    }

    #[test]
    fn negative_results_are_clamped() {
        // Large sigma would otherwise produce negative counters.
        let model = NoiseModel::Gaussian { sigma: 5.0 };
        let mut rng = stream(3);
        for _ in 0..500 {
            assert!(model.apply(&mut rng, 1.0) >= 0.0);
        }
    }
}
