//! Flow-independent per-server delay bounds (Theorems 1–3).
//!
//! The chain of reasoning, following Section 5.1.1:
//!
//! 1. **Theorem 1** replaces every individual flow's constraint function by
//!    the common upper bound `H_k(I) = min(C·I, T + ρ·Y_k + ρ·I)` — the
//!    envelope of the flow that suffered the most upstream delay.
//! 2. **Lemma 1/2 + Theorem 2** show the worst split of the admissible
//!    flow population `M ≤ α·C/ρ` over the `N` input links is the even
//!    one, with per-link saturation instant
//!    `τ = α·(T + ρ·Y_k) / (ρ·(N − α))`.
//! 3. **Theorem 3** yields the closed form
//!    `d_k ≤ (T + ρY_k)·α/ρ + (α − 1)·τ`, which simplifies to
//!    `d_k ≤ α·(T + ρY_k)/ρ · (N − 1)/(N − α)`.
//!
//! The simplified and the paper-literal forms are both implemented and
//! tested to agree.

use uba_traffic::LeakyBucket;

/// Lemma 1/2's per-input-link saturation instant `τ_{k,j}` for `n` flows
/// of profile `(T, ρ)` with upstream delay `y` on a link of capacity `c`:
/// `τ = n(T + ρy) / (C − nρ)`.
///
/// Returns `None` when `n·ρ ≥ C` (the link itself is saturated and the
/// instant never comes).
pub fn tau(n: f64, bucket: LeakyBucket, y: f64, c: f64) -> Option<f64> {
    let num = n * (bucket.burst + bucket.rate * y);
    let den = c - n * bucket.rate;
    if den <= 0.0 {
        None
    } else {
        Some(num / den)
    }
}

/// Theorem 3 (Eq. 10): configuration-time worst-case queueing delay of a
/// class-based static-priority server for the single real-time class.
///
/// * `alpha` — utilization fraction reserved for the class, `0 < α < 1`.
/// * `bucket` — the class's per-flow leaky bucket `(T, ρ)`.
/// * `fan_in` — the server's number of input links `N ≥ 1`.
/// * `y` — the class's worst upstream delay `Y_k ≥ 0`.
///
/// Returns `None` for parameters outside the theorem's domain (`α ∉ (0,1)`
/// or `α ≥ N`), which callers treat as "unsafe".
///
/// Note the bound is *independent of the link capacity `C`*: the paper's
/// footnote argues `α·C/ρ` is large in practice so the ceiling in
/// Theorem 2 can be dropped, and `C` then cancels.
///
/// # Examples
/// ```
/// use uba_delay::bound::theorem3_delay;
/// use uba_traffic::LeakyBucket;
/// let voip = LeakyBucket::new(640.0, 32_000.0);
/// // Jitter-free VoIP at 30% on a 6-input server: ~5.3 ms.
/// let d = theorem3_delay(0.3, voip, 6, 0.0).unwrap();
/// assert!((d - 0.3 * 0.02 * 5.0 / 5.7).abs() < 1e-12);
/// // Outside the theorem's domain:
/// assert!(theorem3_delay(1.2, voip, 6, 0.0).is_none());
/// ```
pub fn theorem3_delay(alpha: f64, bucket: LeakyBucket, fan_in: usize, y: f64) -> Option<f64> {
    if !(alpha > 0.0 && alpha < 1.0 && alpha.is_finite()) {
        return None;
    }
    debug_assert!(y >= 0.0 && y.is_finite(), "upstream delay must be >= 0");
    let n = fan_in as f64;
    if n <= alpha {
        return None;
    }
    let sigma_over_rho = (bucket.burst + bucket.rate * y) / bucket.rate;
    Some(alpha * sigma_over_rho * (n - 1.0) / (n - alpha))
}

/// The paper-literal form of Eq. (10):
/// `(T + ρY)·α/ρ + (α − 1)·α(T + ρY)/(ρ(N − α))`.
///
/// Kept for cross-checking against [`theorem3_delay`]; both must agree to
/// floating-point accuracy.
pub fn theorem3_delay_literal(
    alpha: f64,
    bucket: LeakyBucket,
    fan_in: usize,
    y: f64,
) -> Option<f64> {
    if !(alpha > 0.0 && alpha < 1.0 && alpha.is_finite()) {
        return None;
    }
    let n = fan_in as f64;
    if n <= alpha {
        return None;
    }
    let sigma = bucket.burst + bucket.rate * y;
    let term1 = sigma * alpha / bucket.rate;
    let term2 = (alpha - 1.0) * alpha * sigma / (bucket.rate * (n - alpha));
    Some(term1 + term2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voip() -> LeakyBucket {
        LeakyBucket::new(640.0, 32_000.0)
    }

    #[test]
    fn simplified_matches_literal() {
        for &alpha in &[0.05, 0.3, 0.45, 0.61, 0.9] {
            for &y in &[0.0, 0.001, 0.05] {
                for &n in &[2usize, 6, 16] {
                    let a = theorem3_delay(alpha, voip(), n, y).unwrap();
                    let b = theorem3_delay_literal(alpha, voip(), n, y).unwrap();
                    assert!(
                        (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                        "mismatch at alpha={alpha}, y={y}, n={n}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_jitter_voip_value() {
        // d = α·(T/ρ)·(N−1)/(N−α) with α=0.3, T/ρ=0.02, N=6:
        // 0.3·0.02·5/5.7 = 0.005263157...
        let d = theorem3_delay(0.3, voip(), 6, 0.0).unwrap();
        assert!((d - 0.3 * 0.02 * 5.0 / 5.7).abs() < 1e-15);
    }

    #[test]
    fn monotone_in_alpha_and_y() {
        let d1 = theorem3_delay(0.2, voip(), 6, 0.0).unwrap();
        let d2 = theorem3_delay(0.4, voip(), 6, 0.0).unwrap();
        assert!(d2 > d1);
        let d3 = theorem3_delay(0.2, voip(), 6, 0.01).unwrap();
        assert!(d3 > d1);
    }

    #[test]
    fn single_input_link_no_queueing() {
        // N = 1: one input link of the same rate as the output cannot
        // overload the server in the fluid model.
        let d = theorem3_delay(0.5, voip(), 1, 0.0).unwrap();
        assert_eq!(d, 0.0);
    }

    #[test]
    fn domain_guards() {
        assert!(theorem3_delay(0.0, voip(), 6, 0.0).is_none());
        assert!(theorem3_delay(1.0, voip(), 6, 0.0).is_none());
        assert!(theorem3_delay(1.5, voip(), 6, 0.0).is_none());
        assert!(theorem3_delay(f64::NAN, voip(), 6, 0.0).is_none());
    }

    #[test]
    fn tau_matches_closed_form_at_even_split() {
        // With n = αC/(ρN) flows per link, τ = α(T+ρY)/(ρ(N−α)).
        let (alpha, c, n_links) = (0.3, 100e6, 6.0);
        let b = voip();
        let per_link = alpha * c / (b.rate * n_links);
        let t = tau(per_link, b, 0.0, c).unwrap();
        let expect = alpha * b.burst / (b.rate * (n_links - alpha));
        assert!((t - expect).abs() < 1e-12 * expect);
    }

    #[test]
    fn tau_none_when_link_saturated() {
        let b = voip();
        assert!(tau(4000.0, b, 0.0, 4000.0 * b.rate).is_none());
    }

    #[test]
    fn theorem3_increases_with_fan_in() {
        let d2 = theorem3_delay(0.3, voip(), 2, 0.0).unwrap();
        let d6 = theorem3_delay(0.3, voip(), 6, 0.0).unwrap();
        let d16 = theorem3_delay(0.3, voip(), 16, 0.0).unwrap();
        assert!(d2 < d6 && d6 < d16);
        // And saturates toward α·σ/ρ as N → ∞.
        let limit = 0.3 * 0.02;
        assert!(d16 < limit);
    }
}
