//! Property-based tests for the statistics layer invariants the diagnosis workflow
//! relies on: anomaly scores are probabilities, CDFs (and so anomaly scores) are
//! monotone, batch scoring matches per-call scoring, summary means stay within the
//! sample's range and quantiles are monotone in `q`.
//!
//! `proptest` is not vendored in this environment, so the properties are driven by a
//! deterministic splitmix64 case generator: every property is checked over a few
//! hundred pseudo-random cases with a fixed seed, which keeps failures reproducible.

use diads_monitor::rng::SplitMix64;
use diads_stats::kde::Kde;
use diads_stats::summary::{quantile, Summary};

/// Deterministic case generator over the workspace's shared splitmix64 PRNG.
struct Gen {
    rng: SplitMix64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen { rng: SplitMix64::new(seed) }
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.rng.next_u64() as usize) % (hi - lo)
    }

    fn sample(&mut self, min_len: usize, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
        let n = self.usize_in(min_len, max_len);
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }
}

const CASES: usize = 200;

fn finite_sample(g: &mut Gen, min_len: usize) -> Vec<f64> {
    g.sample(min_len, 60, -1.0e6, 1.0e6)
}

#[test]
fn kde_anomaly_score_is_a_probability() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let sample = finite_sample(&mut g, 1);
        let u = g.f64_in(-2.0e6, 2.0e6);
        let kde = Kde::fit(&sample).unwrap();
        let score = kde.anomaly_score(u);
        assert!((0.0..=1.0).contains(&score), "score = {score}");
    }
}

#[test]
fn kde_cdf_is_monotone() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let sample = finite_sample(&mut g, 2);
        let a = g.f64_in(-2.0e6, 2.0e6);
        let b = g.f64_in(-2.0e6, 2.0e6);
        let kde = Kde::fit(&sample).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(kde.cdf(lo) <= kde.cdf(hi) + 1e-9);
    }
}

#[test]
fn kde_extremes_score_extreme() {
    let mut g = Gen::new(3);
    for _ in 0..CASES {
        let sample = finite_sample(&mut g, 3);
        let kde = Kde::fit(&sample).unwrap();
        let max = sample.iter().cloned().fold(f64::MIN, f64::max);
        let min = sample.iter().cloned().fold(f64::MAX, f64::min);
        let spread = (max - min).max(max.abs()).max(1.0);
        assert!(kde.anomaly_score(max + 10.0 * spread) > 0.9);
        assert!(kde.anomaly_score(min - 10.0 * spread) < 0.1);
    }
}

#[test]
fn kde_score_many_matches_per_call_scores() {
    let mut g = Gen::new(17);
    for _ in 0..CASES {
        let sample = finite_sample(&mut g, 1);
        let xs: Vec<f64> = (0..8).map(|_| g.f64_in(-2.0e6, 2.0e6)).collect();
        let kde = Kde::fit(&sample).unwrap();
        let batch = kde.score_many(&xs);
        for (x, s) in xs.iter().zip(&batch) {
            assert!((kde.anomaly_score(*x) - s).abs() < 1e-12);
        }
    }
}

#[test]
fn summary_mean_is_within_min_max() {
    let mut g = Gen::new(8);
    for _ in 0..CASES {
        let sample = finite_sample(&mut g, 1);
        let s = Summary::from_sample(&sample).unwrap();
        let mean = s.mean().unwrap();
        assert!(mean >= s.min().unwrap() - 1e-9);
        assert!(mean <= s.max().unwrap() + 1e-9);
        if let Some(var) = s.variance() {
            assert!(var >= -1e-9);
        }
    }
}

#[test]
fn quantiles_are_monotone_in_q() {
    let mut g = Gen::new(9);
    for _ in 0..CASES {
        let sample = finite_sample(&mut g, 1);
        let q1 = g.f64_in(0.0, 1.0);
        let q2 = g.f64_in(0.0, 1.0);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        assert!(quantile(&sample, lo).unwrap() <= quantile(&sample, hi).unwrap() + 1e-9);
    }
}
