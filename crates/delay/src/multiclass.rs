//! Multi-class delay bounds (Section 5.4, Theorem 5) — the one closed
//! form every solve evaluates.
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
//! Folding `(S + α_i − 1)·τ_i` into the own term, with `S = Σ_{l<i} α_l`,
//! removes the subtraction:
//!
//! ```text
//! d_{i,k} = (Σ_{l<i} α_l·σ_l/ρ_l + α_i·σ_i/ρ_i·(N − 1 + S)/(N − α_i)) / (1 − S)
//! σ_l/ρ_l = (T_l + ρ_l·Y_{l,k})/ρ_l
//! ```
//!
//! which is what [`theorem5_delay`] evaluates. Every operation adds
//! non-negative terms, multiplies by a non-negative constant or divides by
//! a positive one, so under round-to-nearest the result is non-decreasing
//! in every `Y` bit for bit; and with one class (`i = 0`, `S = 0`) it is
//! Theorem 3's `α·σ/ρ·(N−1)/(N−α)` ([`crate::bound::theorem3_delay`])
//! bit for bit. A solve is the one solver loop under
//! [`crate::rule::Theorem5`], delays in the rule's cell layout.

use uba_traffic::LeakyBucket;

/// Theorem 5: worst-case queueing delay of class `i` (0-based, 0 =
/// highest priority) at a server with `fan_in` input links, given the
/// server's utilization share `alphas[l]`, each class's bucket
/// `buckets[l]` and current upstream delay `y[l]`.
///
/// Returns `None` outside the domain: any `α_l ∉ (0,1)` for `l ≤ i`,
/// `Σ_{l≤i} α_l > 1`, or `α_i ≥ N`.
#[inline]
pub fn theorem5_delay(
    alphas: &[f64],
    buckets: &[LeakyBucket],
    i: usize,
    fan_in: usize,
    y: &[f64],
) -> Option<f64> {
    let valid = |a: f64| a > 0.0 && a < 1.0 && a.is_finite();
    let sigma_over_rho = |l: usize| {
        let b = buckets[l];
        (b.burst + b.rate * y[l]) / b.rate
    };
    let (alpha, n) = (alphas[i], fan_in as f64);
    if !valid(alpha) || n <= alpha {
        return None;
    }
    if i == 0 {
        return Some(alpha * sigma_over_rho(0) * (n - 1.0) / (n - alpha));
    }
    let (mut s, mut higher) = (0.0, 0.0);
    for (l, &a) in alphas[..i].iter().enumerate() {
        if !valid(a) {
            return None;
        }
        s += a;
        higher += a * sigma_over_rho(l);
    }
    if s + alpha > 1.0 + 1e-12 || s >= 1.0 {
        return None;
    }
    let own = alpha * sigma_over_rho(i) * (n - 1.0 + s) / (n - alpha);
    Some((higher + own) / (1.0 - s))
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
    use uba_obs::{check, ensure, SplitMix64};
    use uba_traffic::{ClassId, ClassSet, TrafficClass};

    const VOIP: LeakyBucket = LeakyBucket {
        burst: 640.0,
        rate: 32_000.0,
    };

    /// The quotient as DESIGN.md §2 prints it, subtraction and all: the
    /// reference [`theorem5_delay`]'s folded form is held to.
    fn theorem5_delay_literal(
        alphas: &[f64],
        buckets: &[LeakyBucket],
        i: usize,
        fan_in: usize,
        y: &[f64],
    ) -> f64 {
        let n = fan_in as f64;
        let (mut sum_le, mut num) = (0.0, 0.0);
        for l in 0..=i {
            sum_le += alphas[l];
            num += alphas[l] * (buckets[l].burst / buckets[l].rate + y[l]);
        }
        let b = buckets[i];
        let tau = alphas[i] * (b.burst + b.rate * y[i]) / (b.rate * (n - alphas[i]));
        (num + (sum_le - 1.0) * tau) / (1.0 - (sum_le - alphas[i]))
    }

    /// A random server: one to three classes with shares summing below 1,
    /// buckets from VoIP to bulk, a fan-in and upstream delays.
    fn server(rng: &mut SplitMix64) -> (Vec<f64>, Vec<LeakyBucket>, usize, Vec<f64>) {
        let nc = 1 + rng.index(3);
        let alphas: Vec<f64> = (0..nc)
            .map(|_| rng.range_f64(1e-4, 0.99 / nc as f64))
            .collect();
        let buckets = (0..nc)
            .map(|_| LeakyBucket::new(rng.range_f64(64.0, 4e5), rng.range_f64(8e3, 5e6)))
            .collect();
        let y = (0..nc).map(|_| rng.range_f64(0.0, 0.2)).collect();
        (alphas, buckets, 1 + rng.index(16), y)
    }

    #[test]
    fn single_class_degenerates_to_theorem3() {
        check("single_class_degenerates_to_theorem3", 2000, |rng| {
            let (alphas, buckets, n, y) = server(rng);
            let y0 = if rng.index(4) == 0 { 0.0 } else { y[0] };
            let t5 = theorem5_delay(&alphas[..1], &buckets[..1], 0, n, &[y0]);
            let t3 = theorem3_delay(alphas[0], buckets[0], n, y0);
            ensure!(
                t5.map(f64::to_bits) == t3.map(f64::to_bits),
                "alpha {}, {:?}, n {n}, y {y0}: t5 {t5:?} t3 {t3:?}",
                alphas[0],
                buckets[0]
            );
            Ok(())
        });
    }

    #[test]
    fn non_decreasing_in_every_upstream_delay_bit_for_bit() {
        check("theorem5_non_decreasing_in_y", 2000, |rng| {
            let (alphas, buckets, n, y) = server(rng);
            let nc = alphas.len();
            let l = rng.index(nc);
            let mut raised = y.clone();
            raised[l] = match rng.index(3) {
                0 => y[l].next_up(),
                1 => y[l] * (1.0 + 1e-15),
                _ => y[l] + rng.range_f64(0.0, 0.01),
            };
            for i in 0..nc {
                let before = theorem5_delay(&alphas, &buckets, i, n, &y).unwrap();
                let after = theorem5_delay(&alphas, &buckets, i, n, &raised).unwrap();
                ensure!(
                    after >= before,
                    "class {i} fell from {before} to {after} as y[{l}] rose to {}",
                    raised[l]
                );
            }
            Ok(())
        });
    }

    #[test]
    fn subtraction_free_matches_the_literal_quotient() {
        check("theorem5_matches_the_literal_quotient", 2000, |rng| {
            let (alphas, buckets, n, y) = server(rng);
            for i in 0..alphas.len() {
                let a = theorem5_delay(&alphas, &buckets, i, n, &y).unwrap();
                let b = theorem5_delay_literal(&alphas, &buckets, i, n, &y);
                ensure!(
                    (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                    "class {i}: {a} vs literal {b} ({alphas:?}, n {n}, y {y:?})"
                );
            }
            Ok(())
        });
    }

    #[test]
    fn lower_priority_sees_larger_delay() {
        let (alphas, buckets, y) = ([0.2, 0.2], [VOIP; 2], [0.0, 0.0]);
        let d0 = theorem5_delay(&alphas, &buckets, 0, 6, &y).unwrap();
        let d1 = theorem5_delay(&alphas, &buckets, 1, 6, &y).unwrap();
        assert!(d1 > d0, "d1={d1} should exceed d0={d0}");
    }

    #[test]
    fn domain_guards() {
        let (alphas, buckets, y) = ([0.6, 0.6], [VOIP; 2], [0.0, 0.0]);
        // Σ α = 1.2 > 1 for class 1.
        assert!(theorem5_delay(&alphas, &buckets, 1, 6, &y).is_none());
        // Class 0 alone is fine.
        assert!(theorem5_delay(&alphas, &buckets, 0, 6, &y).is_some());
        assert!(theorem5_delay(&[1.5], &[VOIP], 0, 6, &[0.0]).is_none());
        assert!(theorem5_delay(&[f64::NAN, 0.2], &buckets, 1, 6, &y).is_none());
    }

    #[test]
    fn delay_grows_with_higher_priority_jitter() {
        let (alphas, buckets) = ([0.2, 0.2], [VOIP; 2]);
        let base = theorem5_delay(&alphas, &buckets, 1, 6, &[0.0, 0.0]).unwrap();
        let jittered = theorem5_delay(&alphas, &buckets, 1, 6, &[0.05, 0.0]).unwrap();
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

    /// A cold Theorem 5 solve at `alphas` per class on every server;
    /// `delays` in the cell layout.
    fn solve(
        servers: &Servers,
        classes: &ClassSet,
        alphas: &[f64],
        routes: &RouteSet,
    ) -> SolveResult {
        let classes = classes.iter().map(|(_, c)| c);
        let rule = Theorem5::new(classes, alphas.repeat(servers.len()));
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
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&multi.delays), bits(&two.delays));
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
