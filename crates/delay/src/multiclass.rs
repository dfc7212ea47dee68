//! Multi-class delay bounds (Section 5.4, Theorem 5).
//!
//! Under class-based static priority, a class-`i` packet waits for (a) the
//! backlog of classes `1..=i` and (b) the higher-priority traffic that
//! keeps arriving while it waits. Re-deriving the closed form in the style
//! of Theorem 3 (the printed Theorem 5 has OCR-corrupted index ranges —
//! see `DESIGN.md` §2):
//!
//! ```text
//!            Σ_{l≤i} α_l·(T_l/ρ_l + Y_{l,k})  +  (Σ_{l≤i} α_l − 1)·τ_i
//! d_{i,k} = ───────────────────────────────────────────────────────────
//!                             1 − Σ_{l<i} α_l
//!
//! τ_i = α_i·(T_i + ρ_i·Y_{i,k}) / (ρ_i·(N − α_i))
//! ```
//!
//! With a single class this degenerates *exactly* to Theorem 3, which the
//! tests enforce. This module holds the formula, as [`crate::bound`] holds
//! Theorem 3's; a Theorem 5 solve is the one solver loop under
//! [`crate::rule::Theorem5`]: `solve_rule(servers, &Theorem5::new(classes,
//! alphas), routes, cfg, warm)`, delays in the rule's cell layout.

use uba_traffic::LeakyBucket;

/// Per-class configuration handed to the Theorem 5 formula: utilization
/// share and bucket, in priority order.
#[derive(Clone, Copy, Debug)]
pub struct ClassSpec {
    /// Bandwidth fraction `α_l` reserved for the class.
    pub alpha: f64,
    /// The class's per-flow leaky bucket.
    pub bucket: LeakyBucket,
}

/// Theorem 5: worst-case queueing delay of class `i` (0-based, 0 =
/// highest priority) at a server with `fan_in` input links, given each
/// class's current upstream delay `y[l]`.
///
/// Returns `None` outside the domain: any `α_l ∉ (0,1)`,
/// `Σ_{l≤i} α_l > 1`, or `α_i ≥ N`.
pub fn theorem5_delay(specs: &[ClassSpec], i: usize, fan_in: usize, y: &[f64]) -> Option<f64> {
    assert!(i < specs.len(), "class index out of range");
    assert!(y.len() >= specs.len(), "need one upstream delay per class");
    let n = fan_in as f64;
    let mut sum_le = 0.0; // Σ_{l≤i} α_l
    let mut num = 0.0;
    for (l, spec) in specs.iter().enumerate().take(i + 1) {
        if !(spec.alpha > 0.0 && spec.alpha < 1.0 && spec.alpha.is_finite()) {
            return None;
        }
        sum_le += spec.alpha;
        num += spec.alpha * (spec.bucket.burst / spec.bucket.rate + y[l]);
    }
    let sum_lt = sum_le - specs[i].alpha; // Σ_{l<i} α_l
    if sum_le > 1.0 + 1e-12 || sum_lt >= 1.0 {
        return None;
    }
    let si = specs[i];
    if n <= si.alpha {
        return None;
    }
    let tau_i =
        si.alpha * (si.bucket.burst + si.bucket.rate * y[i]) / (si.bucket.rate * (n - si.alpha));
    let d = (num + (sum_le - 1.0) * tau_i) / (1.0 - sum_lt);
    Some(d.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::theorem3_delay;
    use crate::fixed_point::{solve_rule, solve_two_class, Outcome, SolveConfig, SolveResult};
    use crate::routeset::{Route, RouteSet};
    use crate::rule::Theorem5;
    use crate::servers::Servers;
    use uba_graph::{Digraph, NodeId};
    use uba_traffic::{ClassId, ClassSet, TrafficClass};

    fn voip_spec(alpha: f64) -> ClassSpec {
        ClassSpec {
            alpha,
            bucket: LeakyBucket::new(640.0, 32_000.0),
        }
    }

    #[test]
    fn single_class_degenerates_to_theorem3() {
        let specs = [voip_spec(0.3)];
        for &y in &[0.0, 0.005, 0.02] {
            for &n in &[2usize, 6, 12] {
                let t5 = theorem5_delay(&specs, 0, n, &[y]).unwrap();
                let t3 = theorem3_delay(0.3, specs[0].bucket, n, y).unwrap();
                assert!(
                    (t5 - t3).abs() <= 1e-12 * (1.0 + t3.abs()),
                    "n={n}, y={y}: t5={t5} t3={t3}"
                );
            }
        }
    }

    #[test]
    fn lower_priority_sees_larger_delay() {
        let specs = [voip_spec(0.2), voip_spec(0.2)];
        let y = [0.0, 0.0];
        let d0 = theorem5_delay(&specs, 0, 6, &y).unwrap();
        let d1 = theorem5_delay(&specs, 1, 6, &y).unwrap();
        assert!(d1 > d0, "d1={d1} should exceed d0={d0}");
    }

    #[test]
    fn domain_guards() {
        let specs = [voip_spec(0.6), voip_spec(0.6)];
        // Σ α = 1.2 > 1 for class 1.
        assert!(theorem5_delay(&specs, 1, 6, &[0.0, 0.0]).is_none());
        // Class 0 alone is fine.
        assert!(theorem5_delay(&specs, 0, 6, &[0.0, 0.0]).is_some());
        let bad = [voip_spec(1.5)];
        assert!(theorem5_delay(&bad, 0, 6, &[0.0]).is_none());
    }

    #[test]
    fn delay_grows_with_higher_priority_jitter() {
        let specs = [voip_spec(0.2), voip_spec(0.2)];
        let base = theorem5_delay(&specs, 1, 6, &[0.0, 0.0]).unwrap();
        let jittered = theorem5_delay(&specs, 1, 6, &[0.05, 0.0]).unwrap();
        assert!(jittered > base);
    }

    /// Bidirectional 3-hop line with both-direction routes per class.
    fn line_routes(nc: usize) -> (Servers, RouteSet) {
        let hops = 3;
        let mut g = Digraph::with_nodes(hops + 1);
        for i in 0..hops {
            g.add_link(NodeId(i as u32), NodeId(i as u32 + 1), 1.0);
        }
        let servers = Servers::uniform(&g, 100e6, 6);
        let mut routes = RouteSet::new(g.edge_count());
        let fwd: Vec<u32> = (0..hops as u32).map(|i| 2 * i).collect();
        let back: Vec<u32> = (0..hops as u32).rev().map(|i| 2 * i + 1).collect();
        for c in 0..nc {
            routes.push(Route {
                class: ClassId(c),
                servers: fwd.clone(),
            });
            routes.push(Route {
                class: ClassId(c),
                servers: back.clone(),
            });
        }
        (servers, routes)
    }

    /// A cold Theorem 5 solve; `delays` in the cell layout.
    fn solve(
        servers: &Servers,
        classes: &ClassSet,
        alphas: &[f64],
        routes: &RouteSet,
    ) -> SolveResult {
        let rule = Theorem5::new(classes, alphas);
        solve_rule(servers, &rule, routes, &SolveConfig::default(), None)
    }

    #[test]
    fn theorem5_solve_matches_two_class_for_a_single_class() {
        let (servers, routes) = line_routes(1);
        let classes = ClassSet::single(TrafficClass::voip());
        let multi = solve(&servers, &classes, &[0.3], &routes);
        let cfg = SolveConfig::default();
        let two = solve_two_class(&servers, &TrafficClass::voip(), 0.3, &routes, &cfg, None);
        assert_eq!(multi.outcome, two.outcome);
        // One class: a cell is a server.
        assert_eq!(multi.delays.len(), two.delays.len());
        for (a, b) in multi.delays.iter().zip(&two.delays) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn three_class_system_converges() {
        let (servers, routes) = line_routes(3);
        let mut classes = ClassSet::new();
        classes.push(TrafficClass::voip());
        classes.push(TrafficClass::new(
            "video",
            LeakyBucket::new(16_000.0, 1_000_000.0),
            0.4,
        ));
        classes.push(TrafficClass::new(
            "bulk-rt",
            LeakyBucket::new(64_000.0, 2_000_000.0),
            1.5,
        ));
        let r = solve(&servers, &classes, &[0.1, 0.2, 0.2], &routes);
        assert_eq!(r.outcome, Outcome::Safe, "delays: {:?}", r.route_delays);
        // Priority ordering visible per server on used servers: a
        // server's cells are its classes, highest priority first.
        for cell in r.delays.chunks(3) {
            if cell[0] > 0.0 && cell[2] > 0.0 {
                assert!(cell[0] < cell[2]);
            }
        }
    }

    #[test]
    fn oversubscribed_alphas_invalid() {
        let (servers, routes) = line_routes(2);
        let mut classes = ClassSet::new();
        classes.push(TrafficClass::voip());
        classes.push(TrafficClass::voip());
        let r = solve(&servers, &classes, &[0.7, 0.7], &routes);
        assert_eq!(r.outcome, Outcome::InvalidParams);
    }

    #[test]
    fn tight_deadline_caught() {
        let (servers, routes) = line_routes(2);
        let mut classes = ClassSet::new();
        classes.push(TrafficClass::voip());
        // Second class with an impossible deadline.
        classes.push(TrafficClass::new(
            "impossible",
            LeakyBucket::new(640.0, 32_000.0),
            1e-9,
        ));
        let r = solve(&servers, &classes, &[0.2, 0.2], &routes);
        assert!(matches!(r.outcome, Outcome::DeadlineExceeded { .. }));
    }
}
