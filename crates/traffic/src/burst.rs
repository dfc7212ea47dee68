//! Bursty arrival-batch sizing with a configurable coefficient of
//! variation.
//!
//! The paper's admission test is exercised by churn drivers that issue
//! flow requests in per-tick batches. A constant batch size produces
//! smooth offered load; real sources are bursty. [`BurstModel`] turns a
//! target `(mean, cv)` into a two-point ("on/off") batch-size
//! distribution: most ticks carry the quiet size `1`, and occasionally
//! a slug of `1 + spike` arrives, sized and weighted so the mean and
//! the coefficient of variation come out exactly as requested. This is
//! the discrete analogue of an on/off MMPP source and is what drives
//! the high-CV workloads the AIMD stage's overuse detector
//! (`uba-admission`'s `arrival` module) is meant to flag.
//!
//! This crate has no dependencies, so the model is RNG-agnostic: each
//! draw consumes one caller-supplied uniform variate in `[0, 1)` (the
//! workspace callers pass `uba_obs::SplitMix64` output), keeping every
//! workload deterministic and replayable.

/// Two-point batch-size distribution with exact mean and CV.
///
/// With probability `p` a tick carries `1 + spike` arrivals, otherwise
/// `1`. Given a target mean `m > 1` and coefficient of variation `c`,
/// the solution of the two moment equations is
/// `spike = c²m²/(m−1) + (m−1)` and `p = (m−1)/spike`. `cv = 0`
/// degenerates to the constant batch `round(m)`.
#[derive(Clone, Copy, Debug)]
pub struct BurstModel {
    /// Probability of a spike tick.
    p: f64,
    /// Arrivals added on top of the quiet size on a spike tick.
    spike: u64,
    /// Quiet-tick batch size (1, or `round(m)` when `cv = 0`).
    quiet: u64,
}

impl BurstModel {
    /// Builds a model with the given batch-size mean (`> 1`) and
    /// coefficient of variation (`≥ 0`).
    ///
    /// The spike size is rounded to an integer and the spike
    /// probability re-solved against the rounded size, so the *mean*
    /// stays exact and only the CV absorbs sub-unit rounding error.
    pub fn with_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(
            mean > 1.0 && mean.is_finite(),
            "mean batch size must exceed 1"
        );
        assert!(cv >= 0.0 && cv.is_finite(), "cv must be non-negative");
        let s = mean - 1.0;
        if cv == 0.0 {
            return Self {
                p: 0.0,
                spike: 0,
                quiet: mean.round().max(1.0) as u64,
            };
        }
        let var = (cv * mean) * (cv * mean);
        let spike = ((var + s * s) / s).round().max(s.ceil()) as u64;
        Self {
            p: (s / spike as f64).min(1.0),
            spike,
            quiet: 1,
        }
    }

    /// Batch size for one tick, from a uniform draw `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> u64 {
        if u < self.p {
            self.quiet + self.spike
        } else {
            self.quiet
        }
    }

    /// The exact mean batch size of the (rounded) distribution.
    pub fn mean(&self) -> f64 {
        self.quiet as f64 + self.p * self.spike as f64
    }

    /// The exact coefficient of variation of the (rounded)
    /// distribution.
    pub fn cv(&self) -> f64 {
        let s = self.spike as f64;
        let var = (self.p * s * s - (self.p * s) * (self.p * s)).max(0.0);
        var.sqrt() / self.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cheap deterministic uniform sequence for tests (Weyl on the
    /// golden ratio); the real callers use SplitMix64.
    fn uniforms(n: usize) -> impl Iterator<Item = f64> {
        (1..=n).map(|i| (i as f64 * 0.618_033_988_749_894_9).fract())
    }

    #[test]
    fn moments_match_the_request() {
        for &(m, c) in &[(8.0, 2.0), (16.0, 3.0), (50.0, 1.5), (4.0, 4.0)] {
            let model = BurstModel::with_mean_cv(m, c);
            assert!(
                (model.mean() - m).abs() < 1e-9,
                "mean {} for ({m},{c})",
                model.mean()
            );
            // CV absorbs the integer rounding of the spike size.
            assert!(
                (model.cv() - c).abs() / c < 0.05,
                "cv {} for ({m},{c})",
                model.cv()
            );
        }
    }

    #[test]
    fn zero_cv_degenerates_to_a_constant_batch() {
        let model = BurstModel::with_mean_cv(8.0, 0.0);
        assert!(uniforms(1000).all(|u| model.sample(u) == 8));
        assert_eq!(model.mean(), 8.0);
        assert_eq!(model.cv(), 0.0);
    }

    #[test]
    fn empirical_mean_tracks_the_analytic_mean() {
        let model = BurstModel::with_mean_cv(8.0, 2.0);
        let n = 200_000;
        let total: u64 = uniforms(n).map(|u| model.sample(u)).sum();
        let empirical = total as f64 / n as f64;
        assert!(
            (empirical - model.mean()).abs() / model.mean() < 0.02,
            "empirical {empirical} vs {}",
            model.mean()
        );
    }

    #[test]
    fn high_cv_means_rare_large_spikes() {
        let model = BurstModel::with_mean_cv(8.0, 3.0);
        // A spike is more than 50 arrivals, and fewer than one tick in
        // ten carries one.
        assert!(model.sample(0.0) > 50, "{}", model.sample(0.0));
        assert_eq!(model.sample(0.1), 1);
        // Quiet ticks are the common case.
        assert_eq!(model.sample(0.99), 1);
    }

    #[test]
    #[should_panic(expected = "mean batch size must exceed 1")]
    fn sub_unit_mean_is_rejected() {
        let _ = BurstModel::with_mean_cv(1.0, 2.0);
    }
}
