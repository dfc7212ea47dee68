//! On/off source model and Monte Carlo validation.

use uba_obs::SplitMix64;

/// An on/off traffic class: peak rate while talking, probability of
/// being in the talking state at a random instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnOffClass {
    /// Peak rate `h` in bits/s (what deterministic admission budgets).
    pub peak_rate: f64,
    /// Activity factor `p ∈ (0, 1)` (speech is classically ~0.35–0.45).
    pub activity: f64,
}

impl OnOffClass {
    /// Creates the class, validating parameters.
    pub fn new(peak_rate: f64, activity: f64) -> Self {
        assert!(peak_rate > 0.0 && peak_rate.is_finite(), "peak rate");
        assert!(
            (0.0..1.0).contains(&activity) && activity > 0.0,
            "activity in (0,1)"
        );
        Self {
            peak_rate,
            activity,
        }
    }

    /// The paper's VoIP flow as an on/off source with 40% voice activity.
    pub fn voip() -> Self {
        Self::new(32_000.0, 0.4)
    }
}

/// Monte Carlo estimate of the instantaneous overflow probability
/// `P(h · Bin(n, p) > c)`: samples activity states for `n` flows per
/// trial. Deterministic for a given seed.
pub fn monte_carlo_violation(
    class: OnOffClass,
    n: usize,
    budget: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let mut rng = SplitMix64::new(seed);
    let threshold = budget / class.peak_rate;
    let mut violations = 0usize;
    for _ in 0..trials {
        let mut active = 0usize;
        for _ in 0..n {
            if rng.next_f64() < class.activity {
                active += 1;
            }
        }
        if active as f64 > threshold {
            violations += 1;
        }
    }
    violations as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::binomial_tail;

    #[test]
    fn monte_carlo_tracks_exact_tail() {
        let class = OnOffClass::new(1000.0, 0.3);
        let n = 100;
        let budget = 40.0 * 1000.0; // allow 40 simultaneous talkers
        let exact = binomial_tail(n, 0.3, 40);
        let mc = monte_carlo_violation(class, n, budget, 200_000, 42);
        assert!((mc - exact).abs() < 0.01, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn monte_carlo_deterministic() {
        let class = OnOffClass::voip();
        let a = monte_carlo_violation(class, 50, 20.0 * 32_000.0, 10_000, 7);
        let b = monte_carlo_violation(class, 50, 20.0 * 32_000.0, 10_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_when_budget_covers_everything() {
        let class = OnOffClass::voip();
        let n = 30;
        let budget = n as f64 * class.peak_rate;
        assert_eq!(monte_carlo_violation(class, n, budget, 1000, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "activity")]
    fn activity_one_rejected() {
        OnOffClass::new(1000.0, 1.0);
    }
}
