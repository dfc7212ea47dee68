//! Property-based tests for the envelope algebra.
//!
//! These pin down the semantic contracts the delay analysis relies on:
//! closure under the operations, pointwise correctness, concavity, and the
//! busy-period maximum matching a brute-force grid search
//! (`uba_obs::check`: 256 seeded cases per property, the same every run).

use uba_obs::{check, ensure, SplitMix64};
use uba_traffic::Envelope;

const CASES: u64 = 256;

/// A modest leaky-bucket-ish envelope: random burst sigma (bits), rate
/// rho (bits/s) and cap c (bits/s).
fn arb_bucket(rng: &mut SplitMix64) -> (f64, f64, f64) {
    (
        rng.range_f64(1.0, 1e6),
        rng.range_f64(1.0, 1e6),
        rng.range_f64(1e3, 1e8),
    )
}

/// Zero, a sub-second interval or a long one, equally likely.
fn arb_interval(rng: &mut SplitMix64) -> f64 {
    match rng.index(3) {
        0 => 0.0,
        1 => rng.range_f64(1e-9, 1.0),
        _ => rng.range_f64(1.0, 100.0),
    }
}

#[test]
fn min_with_line_is_pointwise_min() {
    check("min_with_line_is_pointwise_min", CASES, |rng| {
        let (sigma, rho, c) = arb_bucket(rng);
        let i = arb_interval(rng);
        let tb = Envelope::token_bucket(sigma, rho);
        let capped = tb.min_with_line(c);
        let expect = tb.eval(i).min(c * i);
        let got = capped.eval(i);
        ensure!(
            (got - expect).abs() <= 1e-6 * (1.0 + expect.abs()),
            "at {i}: got {got}, expect {expect}"
        );
        Ok(())
    });
}

#[test]
fn sum_is_pointwise_sum() {
    check("sum_is_pointwise_sum", CASES, |rng| {
        let (s1, r1, c1) = arb_bucket(rng);
        let (s2, r2, c2) = arb_bucket(rng);
        let i = arb_interval(rng);
        let a = Envelope::leaky_bucket(s1, r1, c1);
        let b = Envelope::leaky_bucket(s2, r2, c2);
        let s = a.sum(&b);
        let expect = a.eval(i) + b.eval(i);
        ensure!((s.eval(i) - expect).abs() <= 1e-6 * (1.0 + expect.abs()));
        Ok(())
    });
}

#[test]
fn shift_is_pointwise_shift() {
    check("shift_is_pointwise_shift", CASES, |rng| {
        let (sigma, rho, c) = arb_bucket(rng);
        let y = rng.range_f64(0.0, 10.0);
        let i = arb_interval(rng);
        let e = Envelope::leaky_bucket(sigma, rho, c);
        let shifted = e.shift(y);
        let expect = e.eval(i + y);
        ensure!((shifted.eval(i) - expect).abs() <= 1e-6 * (1.0 + expect.abs()));
        Ok(())
    });
}

#[test]
fn operations_preserve_concavity() {
    check("operations_preserve_concavity", CASES, |rng| {
        let (s1, r1, c1) = arb_bucket(rng);
        let (s2, r2, c2) = arb_bucket(rng);
        let y = rng.range_f64(0.0, 10.0);
        let a = Envelope::leaky_bucket(s1, r1, c1);
        let b = Envelope::leaky_bucket(s2, r2, c2);
        ensure!(a.sum(&b).is_concave());
        ensure!(a.shift(y).is_concave());
        ensure!(a.scale(7.0).is_concave());
        ensure!(a.sum(&b).min_with_line(c1.min(c2)).is_concave());
        Ok(())
    });
}

#[test]
fn operations_preserve_monotonicity() {
    check("operations_preserve_monotonicity", CASES, |rng| {
        let (s1, r1, c1) = arb_bucket(rng);
        let i = arb_interval(rng);
        let di = rng.range_f64(1e-6, 10.0);
        let e = Envelope::leaky_bucket(s1, r1, c1).shift(0.5).scale(3.0);
        ensure!(e.eval(i + di) + 1e-9 * (1.0 + e.eval(i).abs()) >= e.eval(i));
        Ok(())
    });
}

#[test]
fn busy_max_matches_grid_search() {
    check("busy_max_matches_grid_search", CASES, |rng| {
        let (s1, r1) = (rng.range_f64(1.0, 1e5), rng.range_f64(1.0, 1e5));
        let (s2, r2) = (rng.range_f64(1.0, 1e5), rng.range_f64(1.0, 1e5));
        // Aggregate of two capped buckets against a server of capacity c.
        let c = 2e5f64;
        let link = 1.5e5f64;
        let a = Envelope::leaky_bucket(s1, r1, link);
        let b = Envelope::leaky_bucket(s2, r2, link);
        let agg = a.sum(&b);
        if agg.final_slope() > c {
            ensure!(agg.busy_max(c).is_none());
        } else {
            let (h, at) = agg.busy_max(c).unwrap();
            // The reported max is attained where claimed.
            ensure!((agg.eval(at) - c * at - h).abs() <= 1e-6 * (1.0 + h.abs()));
            // Grid search never beats it.
            let horizon = (s1 + s2) / (c - agg.final_slope()).max(1.0) + 1.0;
            for k in 0..=2000 {
                let x = horizon * k as f64 / 2000.0;
                let hx = agg.eval(x) - c * x;
                ensure!(
                    hx <= h + 1e-6 * (1.0 + h.abs()),
                    "grid beats busy_max at {x}: {hx} > {h}"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn delay_nonnegative_and_bounded_by_burst() {
    check("delay_nonnegative_and_bounded_by_burst", CASES, |rng| {
        let (s1, r1, c) = arb_bucket(rng);
        // Keep the aggregate stable: rate strictly below capacity.
        let rho = r1.min(0.9 * c);
        let agg = Envelope::token_bucket(s1, rho);
        let d = agg.delay(c).unwrap();
        ensure!(d >= 0.0);
        ensure!(d <= s1 / c + 1e-9);
        Ok(())
    });
}

#[test]
fn scale_matches_sum_loop() {
    check("scale_matches_sum_loop", CASES, |rng| {
        let (sigma, rho, c) = arb_bucket(rng);
        let n = 1 + rng.index(5);
        let i = arb_interval(rng);
        let e = Envelope::leaky_bucket(sigma, rho, c);
        let scaled = e.scale(n as f64);
        let mut summed = Envelope::zero();
        for _ in 0..n {
            summed = summed.sum(&e);
        }
        let (a, b) = (scaled.eval(i), summed.eval(i));
        ensure!((a - b).abs() <= 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
        Ok(())
    });
}
