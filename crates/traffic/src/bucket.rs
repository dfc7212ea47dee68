//! Leaky-bucket source characterization.

/// A leaky-bucket policer `(T, ρ)`: burst size `T` in bits, sustained rate
/// `ρ` in bits/second.
///
/// The paper assumes every flow of a class is policed by the same bucket at
/// the network entrance (Section 3): the traffic a source may emit in any
/// interval of length `I` is at most `min(C·I, T + ρ·I)` on a link of
/// capacity `C`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeakyBucket {
    /// Burst size `T` in bits.
    pub burst: f64,
    /// Average (token) rate `ρ` in bits/second.
    pub rate: f64,
}

impl LeakyBucket {
    /// Creates a bucket, validating that both parameters are positive and
    /// finite.
    ///
    /// # Panics
    /// Panics on non-finite or non-positive parameters; a zero-rate or
    /// zero-burst class would make the paper's delay formulas degenerate.
    pub fn new(burst: f64, rate: f64) -> Self {
        assert!(
            burst.is_finite() && burst > 0.0,
            "burst must be positive and finite"
        );
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be positive and finite"
        );
        Self { burst, rate }
    }

    /// Upper bound on traffic emitted during an interval of length `I`
    /// seconds, ignoring any link-rate cap: `T + ρ·I`.
    pub fn bound(&self, interval: f64) -> f64 {
        self.burst + self.rate * interval
    }

    /// A bucket with the burst inflated by accumulated upstream jitter
    /// delay `y` (Theorem 1's `H_k`): `(T + ρ·y, ρ)`.
    pub fn jittered(&self, y: f64) -> Self {
        assert!(y >= 0.0 && y.is_finite(), "jitter delay must be >= 0");
        Self {
            burst: self.burst + self.rate * y,
            rate: self.rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voip() -> LeakyBucket {
        LeakyBucket::new(640.0, 32_000.0)
    }

    #[test]
    fn bound_is_affine() {
        let b = voip();
        assert_eq!(b.bound(0.0), 640.0);
        assert_eq!(b.bound(1.0), 32_640.0);
    }

    #[test]
    fn jittered_increases_burst_only() {
        let b = voip();
        let j = b.jittered(0.01);
        assert_eq!(j.rate, b.rate);
        assert!((j.burst - (640.0 + 320.0)).abs() < 1e-12);
    }

    #[test]
    fn jittered_zero_identity() {
        let b = voip();
        assert_eq!(b.jittered(0.0), b);
    }

    #[test]
    #[should_panic(expected = "burst must be positive")]
    fn zero_burst_rejected() {
        LeakyBucket::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn negative_rate_rejected() {
        LeakyBucket::new(1.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "jitter delay")]
    fn negative_jitter_rejected() {
        voip().jittered(-0.1);
    }
}
