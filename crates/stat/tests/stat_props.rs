//! Property tests for the statistical-admission mathematics
//! (`uba_obs::check`: 256 seeded cases per property, the same every run).

use uba_obs::{check, ensure};
use uba_stat::{binomial_tail, chernoff_tail, kl_bernoulli, max_flows, OnOffClass};

const CASES: u64 = 256;

/// The Chernoff bound dominates the exact binomial tail everywhere in
/// its valid region.
#[test]
fn chernoff_always_dominates() {
    check("chernoff_always_dominates", CASES, |rng| {
        let n = 1 + rng.index(499);
        let p = rng.range_f64(0.05, 0.95);
        let frac = rng.range_f64(0.05, 0.999);
        let h = 1000.0;
        let c = frac * n as f64 * h;
        let k = (c / h).floor() as usize;
        let exact = binomial_tail(n, p, k);
        let bound = chernoff_tail(n, p, h, c);
        ensure!(
            bound + 1e-12 >= exact,
            "n={n} p={p} frac={frac}: {bound} < {exact}"
        );
        Ok(())
    });
}

/// The exact tail is monotone: more flows => larger overflow
/// probability; higher allowance => smaller.
#[test]
fn tail_monotonicity() {
    let mut reached = 0;
    check("tail_monotonicity", CASES, |rng| {
        let n = 1 + rng.index(299);
        let p = rng.range_f64(0.05, 0.95);
        let k = rng.index(300);
        if k > n {
            return Ok(());
        }
        reached += 1;
        let t = binomial_tail(n, p, k);
        ensure!(binomial_tail(n + 1, p, k) + 1e-12 >= t);
        ensure!(binomial_tail(n, p, k + 1) <= t + 1e-12);
        ensure!((0.0..=1.0).contains(&t));
        Ok(())
    });
    // `k <= n` holds for half of the uniform (n, k) square.
    assert!(reached >= CASES / 3, "only {reached} of {CASES} cases ran");
}

/// KL divergence is non-negative and zero only at equality.
#[test]
fn kl_nonnegative() {
    check("kl_nonnegative", CASES, |rng| {
        let a = rng.range_f64(0.01, 0.99);
        let p = rng.range_f64(0.01, 0.99);
        let d = kl_bernoulli(a, p);
        ensure!(d >= -1e-15);
        if (a - p).abs() > 1e-6 {
            ensure!(d > 0.0);
        }
        Ok(())
    });
}

/// The configured threshold really meets its epsilon, and one more
/// flow would not.
#[test]
fn threshold_tight() {
    check("threshold_tight", CASES, |rng| {
        let budget_flows = 1 + rng.index(199);
        let eps_exp = 2 + rng.index(7) as i32;
        let activity = rng.range_f64(0.1, 0.8);
        let class = OnOffClass::new(32_000.0, activity);
        let budget = budget_flows as f64 * class.peak_rate;
        let eps = 10f64.powi(-eps_exp);
        let t = max_flows(class, budget, eps);
        ensure!(t.violation <= eps);
        if t.max_flows > 0 {
            let k = budget_flows; // talkers that fit
            let next = binomial_tail(t.max_flows + 1, activity, k);
            ensure!(next > eps, "not maximal: {next} vs {eps}");
        }
        Ok(())
    });
}

/// Statistical admission never admits less than deterministic.
#[test]
fn gain_at_least_one() {
    check("gain_at_least_one", CASES, |rng| {
        let budget_flows = 1 + rng.index(299);
        let activity = rng.range_f64(0.1, 0.9);
        let class = OnOffClass::new(32_000.0, activity);
        let budget = budget_flows as f64 * class.peak_rate;
        let t = max_flows(class, budget, 1e-6);
        ensure!(t.max_flows >= budget_flows);
        Ok(())
    });
}
