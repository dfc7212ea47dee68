//! Multi-class route selection and utilization trade-off (Section 5.4's
//! closing paragraph: "Variations of the algorithms derived in Sections
//! 5.2 and 5.3 can then be used to select safe routes and to either
//! maximize utilization assignments or trade-off utilization assignments
//! of classes against each other").
//!
//! * [`select_routes_multiclass`] — the Section 5.2 greedy, with the
//!   Theorem 5 multi-class fixed point as the safety oracle.
//! * [`max_utilization_ray`] — the Section 5.3 binary search generalized
//!   to a *ray* in utilization space: `α = t·w` for a weight vector `w`;
//!   maximizing `t` traces one point of the Pareto trade-off between
//!   classes per ray. Sweeping rays yields the trade-off curve the paper
//!   alludes to.

use crate::heuristic::{HeuristicConfig, SelectionError};
use crate::pairs::{order_pairs_by_distance, Pair};
use uba_delay::multiclass::solve_multiclass;
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::servers::Servers;
use uba_graph::{k_shortest_paths, Digraph, DynDigraph, Path};
use uba_traffic::{ClassId, ClassSet};

/// A verified candidate outcome: (own route delay, per-class per-server
/// delays, per-route delays).
type MultiCandidateFit = (f64, Vec<Vec<f64>>, Vec<f64>);

/// One routed demand: a class and a router pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Demand {
    /// Traffic class of the demand.
    pub class: ClassId,
    /// Source/destination pair.
    pub pair: Pair,
}

/// A successful multi-class selection.
#[derive(Clone, Debug)]
pub struct MultiSelection {
    /// Demands in the order they were routed.
    pub demands: Vec<Demand>,
    /// Chosen route per demand.
    pub paths: Vec<Path>,
    /// The committed route set.
    pub routes: RouteSet,
    /// `delays[class][server]` at the final fixed point.
    pub delays: Vec<Vec<f64>>,
    /// Per-route end-to-end delays at the final fixed point.
    pub route_delays: Vec<f64>,
}

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
) -> Result<MultiSelection, SelectionError> {
    assert_eq!(alphas.len(), classes.len(), "one alpha per class");
    let ordered: Vec<Demand> = if cfg.order_by_distance {
        let pairs: Vec<Pair> = demands.iter().map(|d| d.pair).collect();
        let by_distance = order_pairs_by_distance(g, &pairs);
        // Stable expansion: for each pair in distance order, emit its
        // demands in class-priority order.
        let mut out = Vec::with_capacity(demands.len());
        let mut used = vec![false; demands.len()];
        for p in by_distance {
            let mut here: Vec<usize> = (0..demands.len())
                .filter(|&i| !used[i] && demands[i].pair == p)
                .collect();
            here.sort_by_key(|&i| demands[i].class);
            for i in here.drain(..) {
                used[i] = true;
                out.push(demands[i]);
            }
        }
        out
    } else {
        demands.to_vec()
    };

    let nc = classes.len();
    let mut routes = RouteSet::new(g.edge_count());
    let mut overlay = DynDigraph::new(g.edge_count());
    let mut base_delays: Vec<Vec<f64>> = vec![vec![0.0; g.edge_count()]; nc];
    let mut out_demands = Vec::with_capacity(ordered.len());
    let mut out_paths = Vec::with_capacity(ordered.len());
    let mut final_route_delays: Vec<f64> = Vec::new();

    for demand in ordered {
        let candidates = k_shortest_paths(g, demand.pair.src, demand.pair.dst, cfg.k_candidates);
        if candidates.is_empty() {
            return Err(SelectionError::NoRoute(demand.pair));
        }
        let pooled: Vec<Route> = candidates
            .iter()
            .map(|p| Route::from_path(demand.class, p))
            .collect();
        let pool: Vec<usize> = if cfg.prefer_acyclic {
            let acyclic: Vec<usize> = (0..candidates.len())
                .filter(|&i| !overlay.chain_would_create_cycle(&pooled[i].servers))
                .collect();
            if acyclic.is_empty() {
                (0..candidates.len()).collect()
            } else {
                acyclic
            }
        } else {
            (0..candidates.len()).collect()
        };

        let evaluate = |pi: usize| -> Option<MultiCandidateFit> {
            let ci = pool[pi];
            let mut trial = routes.clone();
            trial.push(pooled[ci].clone());
            let r = solve_multiclass(
                servers,
                classes,
                alphas,
                &trial,
                &cfg.solver,
                Some(&base_delays),
            );
            if r.outcome.is_safe() {
                let own = *r.route_delays.last().unwrap();
                Some((own, r.delays, r.route_delays))
            } else {
                None
            }
        };
        let results: Vec<Option<MultiCandidateFit>> = (0..pool.len()).map(evaluate).collect();

        let chosen = if cfg.min_delay_choice {
            results
                .iter()
                .enumerate()
                .filter_map(|(pi, r)| r.as_ref().map(|r| (pi, r.0)))
                .min_by(|(ia, da), (ib, db)| da.total_cmp(db).then_with(|| ia.cmp(ib)))
                .map(|(pi, _)| pi)
        } else {
            results.iter().position(Option::is_some)
        };
        let Some(pi) = chosen else {
            return Err(SelectionError::NoSafeRoute(demand.pair));
        };
        let ci = pool[pi];
        let (_, delays, route_delays) = results[pi].clone().unwrap();
        overlay.add_chain(&pooled[ci].servers);
        routes.push(pooled[ci].clone());
        base_delays = delays;
        final_route_delays = route_delays;
        out_demands.push(demand);
        out_paths.push(candidates[ci].clone());
    }

    Ok(MultiSelection {
        demands: out_demands,
        paths: out_paths,
        routes,
        delays: base_delays,
        route_delays: final_route_delays,
    })
}

/// Result of a ray search in utilization space.
#[derive(Clone, Debug)]
pub struct RaySearchResult {
    /// Largest safe scale factor `t` (utilizations are `t·w`).
    pub t: f64,
    /// The per-class utilizations at `t`.
    pub alphas: Vec<f64>,
    /// The selection achieving them (`None` iff `t == 0`).
    pub selection: Option<MultiSelection>,
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

    let mut probes = Vec::new();
    let mut probe = |t: f64| -> Option<MultiSelection> {
        let alphas: Vec<f64> = weights.iter().map(|&w| (w * t).max(1e-9)).collect();
        let r = select_routes_multiclass(g, servers, classes, &alphas, demands, cfg).ok();
        probes.push((t, r.is_some()));
        r
    };

    let mut lo = 0.0;
    let mut hi = t_cap;
    let mut best: Option<(f64, MultiSelection)> = None;
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        // As in `max_utilization`: no float left between the two.
        if !(lo < mid && mid < hi) {
            break;
        }
        match probe(mid) {
            Some(sel) => {
                lo = mid;
                best = Some((mid, sel));
            }
            None => hi = mid,
        }
    }
    match best {
        Some((t, selection)) => RaySearchResult {
            alphas: weights.iter().map(|&w| w * t).collect(),
            t,
            selection: Some(selection),
            probes,
        },
        None => RaySearchResult {
            t: 0.0,
            alphas: vec![0.0; weights.len()],
            selection: None,
            probes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::all_ordered_pairs;
    use uba_topology::{mci, ring};
    use uba_traffic::{LeakyBucket, TrafficClass};

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
