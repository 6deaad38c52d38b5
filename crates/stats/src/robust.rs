//! Robust statistics: the median absolute deviation.
//!
//! The monitoring data DIADS consumes is noisy (coarse sampling intervals average away
//! bursts, and collection glitches inject spikes). The MAD-based baseline detector
//! scales its scores by this spread estimate, which a few spikes barely move.

use crate::summary::median;
use crate::Result;

/// Median absolute deviation (MAD) of a sample, scaled by 1.4826 so that it is a
/// consistent estimator of the standard deviation for normal data.
///
/// # Errors
/// Returns [`crate::StatsError::EmptySample`] for an empty sample.
pub fn mad(sample: &[f64]) -> Result<f64> {
    let m = median(sample)?;
    let deviations: Vec<f64> = sample.iter().map(|v| (v - m).abs()).collect();
    Ok(1.4826 * median(&deviations)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mad_of_symmetric_sample() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        // median = 3, abs deviations = [2,1,0,1,2], median = 1 -> 1.4826
        assert!((mad(&data).unwrap() - 1.4826).abs() < 1e-12);
        assert!(mad(&[]).is_err());
    }

    #[test]
    fn mad_resists_outliers() {
        let clean = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8];
        let mut dirty = clean.to_vec();
        dirty.push(1000.0);
        let m_clean = mad(&clean).unwrap();
        let m_dirty = mad(&dirty).unwrap();
        assert!((m_clean - m_dirty).abs() < 1.0, "MAD should barely move: {m_clean} vs {m_dirty}");
    }
}
