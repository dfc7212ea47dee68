//! Property tests pinning the delay theory to its reference formulas.
//!
//! The central claim of Section 5.1.1 (Theorems 1–3) is that the
//! configuration-time bound dominates the flow-aware general formula for
//! *every* admissible flow placement. We fuzz placements and parameters
//! (`uba_obs::check`: 256 seeded cases per property, the same every run).

use uba_delay::bound::{theorem3_delay, theorem3_delay_literal};
use uba_delay::general::server_delay_general;
use uba_obs::{check, ensure, SplitMix64};
use uba_traffic::LeakyBucket;

const CASES: u64 = 256;

fn arb_class(rng: &mut SplitMix64) -> LeakyBucket {
    LeakyBucket::new(rng.range_f64(64.0, 1e5), rng.range_f64(1e3, 1e6))
}

/// Theorem 3 >= general formula for any flow split over the N links
/// respecting the class budget (Theorem 2's content).
#[test]
fn theorem3_dominates_any_admissible_split() {
    let mut reached = 0;
    check("theorem3_dominates_any_admissible_split", CASES, |rng| {
        let bucket = arb_class(rng);
        let alpha = rng.range_f64(0.05, 0.85);
        let n_links = 2 + rng.index(6);
        let y = rng.range_f64(0.0, 0.05);
        let seed = rng.next_u64();
        let c = 100e6;
        let m_max = (alpha * c / bucket.rate).floor() as usize;
        if m_max < 1 {
            return Ok(());
        }
        reached += 1;
        // Keep the test fast; fewer flows only helps.
        let m = m_max.min(2000);
        // Pseudo-random split of m flows over n_links.
        let mut counts = vec![0usize; n_links];
        let mut state = seed;
        for _ in 0..m {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            counts[(state >> 33) as usize % n_links] += 1;
        }
        let jittered = bucket.jittered(y);
        let inputs: Vec<Vec<LeakyBucket>> = counts.iter().map(|&k| vec![jittered; k]).collect();
        let general = server_delay_general(c, &inputs).expect("admissible load must be stable");
        let t3 = theorem3_delay(alpha, bucket, n_links, y).expect("alpha in domain");
        ensure!(
            general <= t3 + 1e-9,
            "general {general} exceeds Theorem 3 bound {t3} (split {counts:?})"
        );
        Ok(())
    });
    // A 100 Mb/s link at alpha >= 0.05 carries at least five of the
    // fastest class: no case is discarded.
    assert_eq!(reached, CASES);
}

/// The simplified closed form and the paper-literal Eq. (10) agree.
#[test]
fn simplified_equals_literal() {
    check("simplified_equals_literal", CASES, |rng| {
        let bucket = arb_class(rng);
        let alpha = rng.range_f64(0.01, 0.99);
        let n = 1 + rng.index(31);
        let y = rng.range_f64(0.0, 1.0);
        let a = theorem3_delay(alpha, bucket, n, y);
        let b = theorem3_delay_literal(alpha, bucket, n, y);
        match (a, b) {
            (Some(a), Some(b)) => ensure!((a - b).abs() <= 1e-10 * (1.0 + a.abs()), "{a} vs {b}"),
            (None, None) => {}
            _ => ensure!(false, "domain disagreement: {a:?} vs {b:?}"),
        }
        Ok(())
    });
}

/// Theorem 3 is monotone in alpha, jitter, and fan-in.
#[test]
fn theorem3_monotonicity() {
    check("theorem3_monotonicity", CASES, |rng| {
        let bucket = arb_class(rng);
        let alpha = rng.range_f64(0.05, 0.8);
        let n = 2 + rng.index(14);
        let y = rng.range_f64(0.0, 0.1);
        let base = theorem3_delay(alpha, bucket, n, y).unwrap();
        let da = theorem3_delay(alpha + 0.1, bucket, n, y).unwrap();
        let dy = theorem3_delay(alpha, bucket, n, y + 0.01).unwrap();
        let dn = theorem3_delay(alpha, bucket, n + 1, y).unwrap();
        ensure!(da >= base);
        ensure!(dy >= base);
        ensure!(dn >= base);
        Ok(())
    });
}

/// Scale invariance: the bound depends on the bucket only through T/ρ.
#[test]
fn theorem3_scale_invariance() {
    check("theorem3_scale_invariance", CASES, |rng| {
        let bucket = arb_class(rng);
        let alpha = rng.range_f64(0.05, 0.9);
        let n = 2 + rng.index(10);
        let y = rng.range_f64(0.0, 0.1);
        let k = rng.range_f64(1.0, 100.0);
        let scaled = LeakyBucket::new(bucket.burst * k, bucket.rate * k);
        let a = theorem3_delay(alpha, bucket, n, y).unwrap();
        let b = theorem3_delay(alpha, scaled, n, y).unwrap();
        ensure!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        Ok(())
    });
}
