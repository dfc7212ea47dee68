//! A continuous-time arrival generator with configurable burstiness.
//!
//! [`BurstModel`](crate::BurstModel) shapes *batch sizes* on a discrete
//! tick clock; the policy-pipeline benchmark also needs arrivals on a
//! continuous clock, where burstiness lives in the *timing*. [`Mmpp`] is
//! a two-state Markov-modulated Poisson process: the canonical
//! quiet/burst source, with exponentially distributed dwell times per
//! state and a Poisson arrival stream whose rate switches with the
//! state.
//!
//! Like the rest of this crate, it is RNG-agnostic: every draw consumes
//! caller-supplied uniform variates in `[0, 1)` (workspace callers pass
//! `uba_obs::SplitMix64` output), so workloads stay deterministic and
//! replayable for a fixed seed.

/// Keeps a uniform variate strictly inside `(0, 1)` so logs stay
/// finite.
fn interior(u: f64) -> f64 {
    u.clamp(1e-12, 1.0 - 1e-12)
}

/// Poisson count for mean `lam` via Knuth's product method, chunked so
/// `e^{-λ}` never underflows.
fn poisson(lam: f64, uniform: &mut impl FnMut() -> f64) -> u64 {
    let mut remaining = lam;
    let mut count = 0u64;
    while remaining > 0.0 {
        let step = remaining.min(30.0);
        remaining -= step;
        let bound = (-step).exp();
        let mut prod = 1.0;
        loop {
            prod *= interior(uniform());
            if prod <= bound {
                break;
            }
            count += 1;
        }
    }
    count
}

/// Two-state Markov-modulated Poisson process.
///
/// The source alternates between state 0 (conventionally quiet) and
/// state 1 (burst). Dwell time in state `s` is exponential with mean
/// `dwell[s]`; while in state `s`, arrivals form a Poisson stream of
/// rate `rates[s]` per second. The long-run mean rate is the
/// dwell-weighted average of the two state rates.
#[derive(Clone, Copy, Debug)]
pub struct Mmpp {
    rates: [f64; 2],
    dwell: [f64; 2],
    state: usize,
    /// Time left in the current state, seconds.
    remaining: f64,
}

impl Mmpp {
    /// Builds a process starting in state 0 with a full mean dwell
    /// ahead of it (so the first draw of the dwell clock is
    /// deterministic and replays align).
    pub fn new(rates: [f64; 2], dwell: [f64; 2]) -> Self {
        assert!(
            rates.iter().all(|r| *r >= 0.0 && r.is_finite()),
            "rates must be non-negative"
        );
        assert!(
            dwell.iter().all(|d| *d > 0.0 && d.is_finite()),
            "dwell times must be positive"
        );
        Self {
            rates,
            dwell,
            state: 0,
            remaining: dwell[0],
        }
    }

    /// Advances the process by `dt` seconds and returns the number of
    /// arrivals in the interval. State flips mid-interval are handled
    /// exactly: the interval is split at each dwell expiry and each
    /// segment draws a Poisson count at its own state's rate.
    pub fn step(&mut self, dt: f64, uniform: &mut impl FnMut() -> f64) -> u64 {
        assert!(dt >= 0.0 && dt.is_finite(), "dt must be non-negative");
        let mut left = dt;
        let mut arrivals = 0u64;
        while left > 0.0 {
            let span = left.min(self.remaining);
            arrivals += poisson(self.rates[self.state] * span, uniform);
            left -= span;
            self.remaining -= span;
            if self.remaining <= 0.0 {
                self.state ^= 1;
                // Exponential dwell via inverse transform.
                self.remaining = -self.dwell[self.state] * interior(uniform()).ln();
            }
        }
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inline SplitMix64 uniform stream (this crate has no deps; the
    /// real callers pass `uba_obs::SplitMix64`). A Weyl sequence is not
    /// enough here: Knuth products need pair-wise-independent draws.
    fn uniform_stream() -> impl FnMut() -> f64 {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn mmpp_long_run_rate_matches_the_dwell_weighted_mean() {
        let mut p = Mmpp::new([2.0, 40.0], [3.0, 1.0]);
        let mut u = uniform_stream();
        let mut total = 0u64;
        let horizon = 4000;
        for _ in 0..horizon {
            total += p.step(1.0, &mut u);
        }
        let empirical = total as f64 / horizon as f64;
        // (2·3 + 40·1) / (3 + 1).
        let analytic = 11.5;
        assert!(
            (empirical - analytic).abs() / analytic < 0.1,
            "empirical {empirical} vs {analytic}"
        );
    }

    #[test]
    fn mmpp_burst_state_yields_more_arrivals() {
        let mut p = Mmpp::new([1.0, 50.0], [5.0, 5.0]);
        let mut u = uniform_stream();
        // Still inside the deterministic first dwell: quiet rate.
        let quiet = p.step(2.0, &mut u);
        assert_eq!(p.state, 0);
        // Force the flip and sample the burst state.
        let _ = p.step(3.0, &mut u);
        assert_eq!(p.state, 1);
        let burst = p.step(1.0_f64.min(p.remaining), &mut u);
        assert!(
            burst > quiet,
            "burst window {burst} should out-arrive quiet window {quiet}"
        );
    }

    #[test]
    fn mmpp_is_deterministic_for_the_same_stream() {
        let mut a = Mmpp::new([2.0, 40.0], [3.0, 1.0]);
        let mut b = Mmpp::new([2.0, 40.0], [3.0, 1.0]);
        let mut u1 = uniform_stream();
        let mut u2 = uniform_stream();
        for _ in 0..500 {
            assert_eq!(a.step(0.1, &mut u1), b.step(0.1, &mut u2));
        }
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn poisson_chunking_survives_large_means() {
        // λ·span = 5000 would underflow e^{-λ} without chunking.
        let mut u = uniform_stream();
        let n = poisson(5000.0, &mut u);
        assert!((4000..6000).contains(&n), "{n}");
    }
}
