//! Timed-token (FDDI) synchronous-traffic utilization bound.
//!
//! Agrawal, Chen & Zhao showed that with the *normalized proportional*
//! synchronous-capacity allocation scheme, synchronous message sets over
//! a timed-token network are guaranteed their deadlines as long as the
//! synchronous utilization does not exceed
//!
//! ```text
//! U* = (1 − Λ) / 3,      Λ = τ / TTRT
//! ```
//!
//! where `τ` is the ring's total latency (token walk time) and `TTRT` the
//! target token rotation time — the "33% bandwidth utilization for
//! scheduling synchronous traffic over FDDI networks" the paper cites as
//! prior WCAU art (reference \[3\]).

/// The timed-token WCAU for synchronous traffic under normalized
/// proportional allocation.
///
/// `ring_latency` (τ) and `ttrt` in the same time unit, `0 ≤ τ < TTRT`.
pub fn timed_token_wcau(ring_latency: f64, ttrt: f64) -> f64 {
    assert!(ttrt > 0.0 && ttrt.is_finite(), "TTRT must be positive");
    assert!(
        (0.0..ttrt).contains(&ring_latency),
        "ring latency must be in [0, TTRT)"
    );
    (1.0 - ring_latency / ttrt) / 3.0
}

/// Utilization-based admission test for a synchronous message set: total
/// synchronous utilization against [`timed_token_wcau`] — the same
/// compare-against-a-precomputed-level pattern the paper lifts to
/// networks of link servers.
pub fn timed_token_schedulable(utilization: f64, ring_latency: f64, ttrt: f64) -> bool {
    utilization <= timed_token_wcau(ring_latency, ttrt) + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_33_percent_at_zero_overhead() {
        assert!((timed_token_wcau(0.0, 8.0) - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn overhead_reduces_the_bound() {
        let b0 = timed_token_wcau(0.0, 8.0);
        let b1 = timed_token_wcau(1.0, 8.0);
        assert!(b1 < b0);
        assert!((b1 - (1.0 - 0.125) / 3.0).abs() < 1e-15);
    }

    #[test]
    fn admission_test() {
        assert!(timed_token_schedulable(0.30, 0.0, 8.0));
        assert!(!timed_token_schedulable(0.35, 0.0, 8.0));
    }

    #[test]
    #[should_panic(expected = "ring latency")]
    fn latency_beyond_ttrt_rejected() {
        timed_token_wcau(9.0, 8.0);
    }
}
