//! Elementary distribution functions (normal PDF, CDF and log-PDF, error function).
//!
//! The Gaussian-kernel KDE used by DIADS needs the standard normal CDF `Φ` to
//! evaluate `prob(S <= u)` in closed form: the CDF of a Gaussian mixture is the
//! mean of the per-kernel normal CDFs. We implement `erf` with the
//! Abramowitz–Stegun 7.1.26 rational approximation (max absolute error ≈ 1.5e-7),
//! which is far below the 0.8 anomaly-score threshold resolution the workflow needs.

/// Error function `erf(x)` via the Abramowitz–Stegun 7.1.26 approximation.
///
/// Maximum absolute error is about `1.5e-7`, which is more than sufficient for
/// anomaly scores compared against a 0.8 threshold.
pub(crate) fn erf(x: f64) -> f64 {
    // Constants of the A&S 7.1.26 approximation.
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// CDF of a normal distribution with the given mean and standard deviation.
///
/// A degenerate distribution (`std_dev == 0`) behaves as a step function at the mean.
pub fn normal_cdf(x: f64, mean: f64, std_dev: f64) -> f64 {
    if std_dev <= 0.0 {
        return if x >= mean { 1.0 } else { 0.0 };
    }
    std_normal_cdf((x - mean) / std_dev)
}

/// Natural logarithm of the normal PDF, numerically stable for small densities.
pub fn normal_log_pdf(x: f64, mean: f64, std_dev: f64) -> f64 {
    if std_dev <= 0.0 {
        return if (x - mean).abs() < f64::EPSILON { f64::INFINITY } else { f64::NEG_INFINITY };
    }
    let z = (x - mean) / std_dev;
    -0.5 * z * z - std_dev.ln() - 0.918_938_533_204_672_7 // ln(sqrt(2*pi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} within {tol}");
    }

    #[test]
    fn erf_matches_reference_values() {
        // Reference values from standard tables.
        assert_close(erf(0.0), 0.0, 1e-7);
        assert_close(erf(0.5), 0.520_499_877_8, 2e-7);
        assert_close(erf(1.0), 0.842_700_792_9, 2e-7);
        assert_close(erf(2.0), 0.995_322_265_0, 2e-7);
        assert_close(erf(-1.0), -0.842_700_792_9, 2e-7);
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for i in 0..100 {
            let x = i as f64 * 0.1;
            assert_close(erf(-x), -erf(x), 1e-8);
            assert!(erf(x) <= 1.0 && erf(x) >= -1.0);
        }
    }

    #[test]
    fn std_normal_cdf_reference_points() {
        assert_close(std_normal_cdf(0.0), 0.5, 1e-7);
        assert_close(std_normal_cdf(1.0), 0.841_344_746, 1e-6);
        assert_close(std_normal_cdf(-1.0), 0.158_655_254, 1e-6);
        assert_close(std_normal_cdf(1.959_964), 0.975, 1e-5);
        assert_close(std_normal_cdf(6.0), 1.0, 1e-6);
        assert_close(std_normal_cdf(-6.0), 0.0, 1e-6);
    }

    #[test]
    fn scaled_normal_cdf_and_pdf() {
        assert_close(normal_cdf(10.0, 10.0, 2.0), 0.5, 1e-7);
        assert_close(normal_cdf(12.0, 10.0, 2.0), 0.841_344_746, 1e-6);
        assert_close(normal_log_pdf(10.0, 10.0, 2.0).exp(), 0.398_942_280_4 / 2.0, 1e-9);
    }

    #[test]
    fn degenerate_normal_behaves_as_step() {
        assert_eq!(normal_cdf(0.9, 1.0, 0.0), 0.0);
        assert_eq!(normal_cdf(1.0, 1.0, 0.0), 1.0);
        assert_eq!(normal_cdf(1.1, 1.0, 0.0), 1.0);
        assert_eq!(normal_log_pdf(0.9, 1.0, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn log_pdf_matches_pdf() {
        let cases = [(0.3_f64, 0.0, 1.0), (2.5, 1.0, 0.7), (-4.0, -2.0, 3.0)];
        for (x, m, s) in cases {
            let z = (x - m) / s;
            let pdf = (-0.5 * z * z).exp() / (s * (2.0 * std::f64::consts::PI).sqrt());
            assert_close(normal_log_pdf(x, m, s).exp(), pdf, 1e-9);
        }
    }
}
