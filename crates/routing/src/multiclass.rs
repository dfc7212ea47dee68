//! Multi-class route selection and utilization trade-off (Section 5.4's
//! closing paragraph: "Variations of the algorithms derived in Sections
//! 5.2 and 5.3 can then be used to select safe routes and to either
//! maximize utilization assignments or trade-off utilization assignments
//! of classes against each other").
//!
//! * [`select_routes_multiclass`] — the Section 5.2 greedy, the body
//!   [`crate::heuristic::select_routes`] runs, under Theorem 5 at a share
//!   per class instead of one class's `α`.
//! * [`max_utilization_ray`] — the Section 5.3 binary search, the body
//!   [`crate::search::max_utilization`]'s heuristic arm runs, along a
//!   *ray* in utilization space: `α = t·w` for a weight vector `w`;
//!   maximizing `t` traces one point of the Pareto trade-off between
//!   classes per ray. Sweeping rays yields the trade-off curve the paper
//!   alludes to.
//!
//! Both return the one-class steps' [`Selection`], its delays in
//! Theorem 5's cells (`server · classes + class`); Figure 2's
//! [`uba_delay::verify()`] is where they become per-class rows.

use crate::heuristic::{select_under_rule, HeuristicConfig, Selection, SelectionError};
pub use crate::pairs::Demand;
use crate::search::{bisect_greedy, Bracket};
use uba_delay::rule::Theorem5;
use uba_delay::servers::Servers;
use uba_graph::Digraph;
use uba_traffic::ClassSet;

/// Runs greedy safe route selection for a multi-class system.
///
/// Demands are ordered by decreasing pair distance (when configured),
/// with class priority as tie-break (higher-priority classes route
/// first — their routes constrain everyone below them).
pub fn select_routes_multiclass(
    g: &Digraph,
    servers: &Servers,
    classes: &ClassSet,
    alphas: &[f64],
    demands: &[Demand],
    cfg: &HeuristicConfig,
) -> Result<Selection, SelectionError> {
    let rule = Theorem5::new(classes.iter().map(|(_, c)| c), alphas.repeat(servers.len()));
    select_under_rule(g, servers, rule, demands, cfg)
}

/// Result of a ray search in utilization space.
#[derive(Clone, Debug)]
pub struct RaySearchResult {
    /// Largest safe scale factor `t` (utilizations are `t·w`).
    pub t: f64,
    /// The per-class utilizations at `t` as a probe there verifies them:
    /// `t·w`, each raised to at least `1e-9` (Theorem 5 takes no zero
    /// share, so a zero weight's class is verified at `1e-9`).
    pub alphas: Vec<f64>,
    /// The selection achieving them (`None` iff `t == 0`).
    pub selection: Option<Selection>,
    /// Probes as `(t, feasible)`.
    pub probes: Vec<(f64, bool)>,
}

/// Binary-searches the largest `t` such that utilizations `α = t·w` admit
/// a safe multi-class route selection. `w` is any non-negative weight
/// vector with at least one positive entry; `t_max` caps the search so
/// every `α_i` stays below 1.
pub fn max_utilization_ray(
    g: &Digraph,
    servers: &Servers,
    classes: &ClassSet,
    weights: &[f64],
    demands: &[Demand],
    cfg: &HeuristicConfig,
    tol: f64,
) -> RaySearchResult {
    assert_eq!(weights.len(), classes.len(), "one weight per class");
    assert!(weights.iter().all(|&w| w >= 0.0), "weights must be >= 0");
    let wmax = weights.iter().cloned().fold(0.0, f64::max);
    assert!(wmax > 0.0, "need a positive weight");
    let wsum: f64 = weights.iter().sum();
    // Keep every alpha in (0,1) and the sum <= 1.
    let t_cap = (1.0 - 1e-9) / wmax.max(wsum);

    let alphas_at = |t: f64| -> Vec<f64> { weights.iter().map(|&w| (w * t).max(1e-9)).collect() };
    let rule_at = |t| {
        let cells = alphas_at(t).repeat(servers.len());
        Theorem5::new(classes.iter().map(|(_, c)| c), cells)
    };
    let found = bisect_greedy(
        g,
        servers,
        demands,
        cfg,
        Bracket::new(None, t_cap, tol),
        rule_at,
    );
    RaySearchResult {
        alphas: alphas_at(found.best),
        t: found.best,
        selection: found.selection,
        probes: found.probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::{all_ordered_pairs, Pair};
    use uba_topology::{mci, ring};
    use uba_traffic::{ClassId, LeakyBucket, TrafficClass};

    fn two_classes() -> ClassSet {
        let mut cs = ClassSet::new();
        cs.push(TrafficClass::voip());
        cs.push(TrafficClass::new(
            "video",
            LeakyBucket::new(64_000.0, 2_000_000.0),
            0.3,
        ));
        cs
    }

    fn demands_for(g: &Digraph, classes: usize, step: usize) -> Vec<Demand> {
        let mut out = Vec::new();
        for (i, p) in all_ordered_pairs(g).into_iter().step_by(step).enumerate() {
            out.push(Demand {
                class: ClassId(i % classes),
                pair: p,
            });
        }
        out
    }

    #[test]
    fn routes_all_demands_at_low_alpha() {
        let g = mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        let classes = two_classes();
        let demands = demands_for(&g, 2, 10);
        let sel = select_routes_multiclass(
            &g,
            &servers,
            &classes,
            &[0.05, 0.10],
            &demands,
            &HeuristicConfig::default(),
        )
        .expect("low alphas must route");
        assert_eq!(sel.paths.len(), demands.len());
        // Every route meets its class deadline.
        for (rt, &rd) in sel.routes.routes().iter().zip(&sel.route_delays) {
            assert!(rd <= classes.get(rt.class).deadline + 1e-9);
        }
    }

    #[test]
    fn fails_when_oversubscribed() {
        let g = ring(5);
        let servers = Servers::uniform(&g, 100e6, 4);
        let classes = two_classes();
        let demands = demands_for(&g, 2, 1);
        let r = select_routes_multiclass(
            &g,
            &servers,
            &classes,
            &[0.6, 0.6],
            &demands,
            &HeuristicConfig::default(),
        );
        assert!(matches!(r, Err(SelectionError::NoSafeRoute(_))));
    }

    #[test]
    fn single_class_matches_two_class_heuristic() {
        let g = mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        let classes = ClassSet::single(TrafficClass::voip());
        let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(15).collect();
        let demands: Vec<Demand> = pairs
            .iter()
            .map(|&pair| Demand {
                class: ClassId(0),
                pair,
            })
            .collect();
        let cfg = HeuristicConfig::default();
        let multi =
            select_routes_multiclass(&g, &servers, &classes, &[0.3], &demands, &cfg).unwrap();
        let single =
            crate::heuristic::select_routes(&g, &servers, &TrafficClass::voip(), 0.3, &pairs, &cfg)
                .unwrap();
        // Same pairs, same oracle => same committed paths.
        assert_eq!(multi.paths, single.paths);
    }

    #[test]
    fn ray_search_finds_positive_t() {
        let g = ring(6);
        let servers = Servers::uniform(&g, 100e6, 4);
        let classes = two_classes();
        let demands = demands_for(&g, 2, 2);
        let r = max_utilization_ray(
            &g,
            &servers,
            &classes,
            &[1.0, 2.0],
            &demands,
            &HeuristicConfig::default(),
            0.01,
        );
        assert!(r.t > 0.0);
        let sel = r.selection.unwrap();
        assert_eq!(sel.paths.len(), demands.len());
        // Ratio preserved.
        assert!((r.alphas[1] / r.alphas[0] - 2.0).abs() < 1e-9);
        // And the sum stays admissible.
        assert!(r.alphas.iter().sum::<f64>() <= 1.0);
    }

    #[test]
    fn ray_search_terminates_on_a_tolerance_below_float_spacing() {
        let g = ring(6);
        let servers = Servers::uniform(&g, 100e6, 4);
        let classes = two_classes();
        let demands = demands_for(&g, 2, 2);
        let cfg = HeuristicConfig::default();
        let search =
            |tol| max_utilization_ray(&g, &servers, &classes, &[1.0, 2.0], &demands, &cfg, tol);
        let (coarse, exact) = (search(0.01), search(f64::MIN_POSITIVE));
        assert!(exact.probes.len() <= 64, "{} probes", exact.probes.len());
        assert!((exact.t - coarse.t).abs() <= 0.01);
    }

    #[test]
    fn ray_search_reports_the_alphas_it_verified() {
        // A zero weight gives video no share of its own: its probes verify
        // it at the 1e-9 floor, and that is what must be reported.
        let g = ring(6);
        let servers = Servers::uniform(&g, 100e6, 4);
        let classes = two_classes();
        let demands = demands_for(&g, 2, 2);
        let cfg = HeuristicConfig::default();
        let r = max_utilization_ray(&g, &servers, &classes, &[1.0, 0.0], &demands, &cfg, 0.01);
        let sel = r.selection.expect("a feasible scale");
        assert_eq!(r.alphas, [r.t, 1e-9]);
        let report = uba_delay::verify(
            &servers,
            &classes,
            &r.alphas,
            &sel.routes,
            &uba_delay::SolveConfig::default(),
        );
        assert!(report.safe, "{:?}", report.outcome);
    }

    #[test]
    fn ray_weights_trade_off() {
        // Shifting weight toward video lowers the achievable voice alpha.
        let g = ring(6);
        let servers = Servers::uniform(&g, 100e6, 4);
        let classes = two_classes();
        let demands = demands_for(&g, 2, 2);
        let cfg = HeuristicConfig::default();
        let voice_heavy =
            max_utilization_ray(&g, &servers, &classes, &[3.0, 1.0], &demands, &cfg, 0.01);
        let video_heavy =
            max_utilization_ray(&g, &servers, &classes, &[1.0, 3.0], &demands, &cfg, 0.01);
        assert!(voice_heavy.alphas[0] > video_heavy.alphas[0]);
        assert!(video_heavy.alphas[1] > voice_heavy.alphas[1]);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weights_rejected() {
        let g = ring(4);
        let servers = Servers::uniform(&g, 100e6, 4);
        let classes = two_classes();
        max_utilization_ray(
            &g,
            &servers,
            &classes,
            &[0.0, 0.0],
            &[],
            &HeuristicConfig::default(),
            0.01,
        );
    }
}
