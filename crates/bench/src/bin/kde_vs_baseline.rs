//! Regenerates the **Section-5 observation** about the statistical engine: "compared to
//! correlation analysis using advanced models (e.g., Bayesian networks), KDE can
//! produce accurate results with few tens of samples, and is more robust to noise in
//! the data."
//!
//! A synthetic anomaly-labelling task sweeps the number of satisfactory samples and the
//! noise level: each method must separate genuinely slowed-down observations (+60 %
//! shift) from normal ones. KDE scores with the library's `Kde::anomaly_score`, the one
//! scorer the diagnosis uses. The three comparators are local to this experiment and
//! built from the library's summary and normal-distribution helpers: a one-feature
//! Gaussian naive-Bayes classifier plays the parametric "advanced model"; a z-score and
//! a fixed 95th-percentile cut are the simpler alternatives.
//!
//! Run with `cargo run --release -p diads-bench --bin kde_vs_baseline`.

use diads_bench::harness::heading;
use diads_monitor::rng::SplitMix64;
use diads_stats::dist::{normal_log_pdf, std_normal_cdf};
use diads_stats::summary::quantile;
use diads_stats::{Kde, Summary};

fn normal(rng: &mut SplitMix64, mean: f64, sd: f64) -> f64 {
    rng.next_normal(mean, sd)
}

/// Mean and standard deviation of a non-empty sample, the deviation floored at
/// `|mean| · rel_floor` and then at `abs_floor` so that a tight or one-value sample
/// still gives a usable Gaussian.
fn smoothed_gaussian(sample: &[f64], rel_floor: f64, abs_floor: f64) -> (f64, f64) {
    let s = Summary::from_sample(sample).expect("finite sample");
    let mean = s.mean().expect("non-empty sample");
    (mean, s.std_dev().unwrap_or(0.0).max(mean.abs() * rel_floor).max(abs_floor))
}

/// One trial: accuracy of each method at separating shifted from unshifted
/// observations given `n` satisfactory samples and a noise-spike probability.
fn trial(rng: &mut SplitMix64, n: usize, spike_prob: f64) -> (f64, f64, f64, f64) {
    let base = 100.0;
    let sd = 8.0;
    let gen_sample = |rng: &mut SplitMix64| {
        let v = normal(rng, base, sd).max(0.0);
        if rng.next_f64() < spike_prob {
            v * 4.0
        } else {
            v
        }
    };
    let satisfactory: Vec<f64> = (0..n).map(|_| gen_sample(rng)).collect();

    let kde = Kde::fit(&satisfactory).expect("non-empty");
    let (z_mean, z_sd) = smoothed_gaussian(&satisfactory, 1e-3, 1e-9);
    let cutoff = quantile(&satisfactory, 0.95).expect("non-empty");

    // The "advanced model" additionally needs labelled unsatisfactory examples; give it
    // a handful, as a real deployment would have.
    let unsatisfactory: Vec<f64> = (0..4).map(|_| gen_sample(rng) * 1.6).collect();
    let runs = (satisfactory.len() + unsatisfactory.len()) as f64;
    let class = |sample: &[f64]| {
        let (mean, sd) = smoothed_gaussian(sample, 1e-2, 1e-6);
        (sample.len() as f64 / runs, mean, sd)
    };
    let (sat, unsat) = (class(&satisfactory), class(&unsatisfactory));
    let log_likelihood =
        |(prior, mean, sd): (f64, f64, f64), x: f64| prior.ln() + normal_log_pdf(x, mean, sd);
    let prob_unsatisfactory = |x: f64| {
        // Stable softmax over the two class log-likelihoods.
        let (ls, lu) = (log_likelihood(sat, x), log_likelihood(unsat, x));
        let m = ls.max(lu);
        let (es, eu) = ((ls - m).exp(), (lu - m).exp());
        eu / (es + eu)
    };

    let trials = 200;
    let mut correct = [0usize; 4];
    for i in 0..trials {
        let anomalous = i % 2 == 0;
        let value = if anomalous { normal(rng, base * 1.6, sd) } else { gen_sample(rng) };
        let verdicts = [
            kde.anomaly_score(value) >= 0.8,
            std_normal_cdf((value - z_mean) / z_sd) >= 0.8,
            value > cutoff,
            prob_unsatisfactory(value) >= 0.5,
        ];
        for (j, v) in verdicts.iter().enumerate() {
            if *v == anomalous {
                correct[j] += 1;
            }
        }
    }
    let acc = |c: usize| c as f64 / trials as f64;
    (acc(correct[0]), acc(correct[1]), acc(correct[2]), acc(correct[3]))
}

fn sweep(label: &str, spike_prob: f64) {
    heading(&format!("Detection accuracy vs. sample count ({label})"));
    println!("{:>8} {:>8} {:>8} {:>12} {:>14}", "samples", "KDE", "z-score", "95th-pctile", "naive Bayes");
    for &n in &[10usize, 20, 30, 50, 80] {
        let mut sums = (0.0, 0.0, 0.0, 0.0);
        let reps = 20;
        for rep in 0..reps {
            let mut rng = SplitMix64::new(1000 + rep as u64 * 7 + n as u64);
            let (a, b, c, d) = trial(&mut rng, n, spike_prob);
            sums = (sums.0 + a, sums.1 + b, sums.2 + c, sums.3 + d);
        }
        let r = reps as f64;
        println!(
            "{:>8} {:>8.3} {:>8.3} {:>12.3} {:>14.3}",
            n,
            sums.0 / r,
            sums.1 / r,
            sums.2 / r,
            sums.3 / r
        );
    }
}

fn main() {
    sweep("clean monitoring data", 0.0);
    sweep("noisy monitoring data: 10% spurious spikes", 0.10);
    println!("\nExpected shape (paper, §5): KDE is accurate with a few tens of samples and degrades");
    println!("less than the parametric alternatives when the training data contains noise spikes.");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(kde, z-score, 95th-percentile, naive Bayes)` accuracies of one trial. Each is a
    /// count out of 200, so exact. A one-sample trial has no sample deviation, so there
    /// the smoothing floors are the whole spread. Raising the z-score floor, moving the
    /// naive-Bayes floor, equal class priors, another percentile or another threshold
    /// each moves at least one of these values.
    #[test]
    fn trial_accuracies_are_pinned() {
        assert_eq!(trial(&mut SplitMix64::new(1020), 20, 0.0), (0.965, 0.975, 0.985, 1.0));
        assert_eq!(trial(&mut SplitMix64::new(1020), 20, 0.10), (0.935, 0.465, 0.965, 0.465));
        assert_eq!(trial(&mut SplitMix64::new(1020), 1, 0.0), (0.72, 0.72, 0.72, 0.715));
    }
}
