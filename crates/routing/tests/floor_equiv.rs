//! `select_routes` vs the §5.2 greedy without the delay floor.
//!
//! `choose_route` skips a pooled candidate whose delay at the committed
//! delays (`CommittedState::delay_floor`) already matches or exceeds the
//! incumbent's: it could not win. The reference below is the same greedy
//! with no such cut — every pooled candidate goes through `try_route` —
//! so any pair chosen differently, any `NoSafeRoute` moved, any delay off
//! by one ulp shows here: same paths, `delays` and `route_delays`, bit
//! for bit, on random pair subsets and utilizations either side of the
//! feasible edge — for one class under Theorem 3, and for two and three
//! under Theorem 5, whose floor holds only to the formula's last place.

use uba_delay::committed::CommittedState;
use uba_delay::routeset::Route;
use uba_delay::rule::{DelayRule, Theorem5};
use uba_delay::servers::Servers;
use uba_graph::{k_shortest_paths, Digraph, DynDigraph, Path};
use uba_obs::{ensure, SplitMix64};
use uba_routing::{
    all_ordered_pairs, order_pairs_by_distance, select_routes, select_routes_multiclass, Demand,
    HeuristicConfig, Pair, SelectionError,
};
use uba_topology::{mci, nsfnet, ring, torus};
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

type Chosen = (Vec<Path>, Vec<f64>, Vec<f64>);

/// The default heuristic onto an empty committed state under `rule`,
/// every pooled candidate solved; `Err` carries the pair no candidate was
/// safe for. `pairs` are routed in distance order, each in every class of
/// the rule.
fn unpruned_greedy<R: DelayRule>(
    g: &Digraph,
    servers: &Servers,
    rule: R,
    pairs: &[Pair],
) -> Result<Chosen, Pair> {
    let cfg = HeuristicConfig::default();
    let mut overlay = DynDigraph::new(g.edge_count());
    let mut paths = Vec::new();
    let classes = rule.classes();
    let mut state = CommittedState::empty(servers, rule);
    let demands = order_pairs_by_distance(g, pairs)
        .into_iter()
        .flat_map(|pair| (0..classes).map(move |c| (ClassId(c), pair)));
    for (class, pair) in demands {
        let candidates = k_shortest_paths(g, pair.src, pair.dst, cfg.k_candidates);
        let routes: Vec<Route> = candidates
            .iter()
            .map(|p| Route::from_path(class, p))
            .collect();
        let mut pool: Vec<usize> = (0..routes.len())
            .filter(|&i| !overlay.chain_would_create_cycle(&routes[i].servers))
            .collect();
        if pool.is_empty() {
            pool.extend(0..routes.len());
        }
        let mut best: Option<(usize, f64)> = None;
        for ci in pool {
            let Some(own) = state.try_route(&routes[ci]) else {
                continue;
            };
            match best {
                Some((_, least)) if own.total_cmp(&least).is_ge() => {}
                _ => best = Some((ci, own)),
            }
        }
        let (ci, _) = best.ok_or(pair)?;
        assert!(state.commit(&routes[ci]));
        overlay.add_chain(&routes[ci].servers);
        paths.push(candidates[ci].clone());
    }
    let (delays, route_delays) = state.into_parts();
    Ok((paths, delays, route_delays))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn the_floor_changes_no_selection() {
    let topologies = [
        ("mci", mci(), 6),
        ("torus5x5", torus(5, 5), 4),
        ("ring8", ring(8), 2),
    ];
    let voip = TrafficClass::voip();
    let cfg = HeuristicConfig::default();
    let pruned = &uba_routing::metrics::select().pruned;
    let pruned_before = pruned.get();
    let (mut feasible, mut infeasible) = (0, 0);
    uba_obs::check("floor_equiv", 24, |rng: &mut SplitMix64| {
        let (name, g, fan_in) = &topologies[rng.index(topologies.len())];
        let servers = Servers::uniform(g, 100e6, *fan_in);
        let pairs: Vec<Pair> = all_ordered_pairs(g)
            .into_iter()
            .skip(rng.index(4))
            .step_by(2 + rng.index(4))
            .collect();
        let alpha = rng.range_f64(0.15, 0.65);
        let ctx = format!("{name}, {} pairs @ {alpha}", pairs.len());
        let rule = Theorem5::new([&voip], vec![alpha; servers.len()]);
        let want = unpruned_greedy(g, &servers, rule, &pairs);
        let got = select_routes(g, &servers, &voip, alpha, &pairs, &cfg);
        match (want, got) {
            (Ok((paths, delays, route_delays)), Ok(sel)) => {
                feasible += 1;
                ensure!(sel.paths == paths, "{ctx}: paths differ");
                ensure!(bits(&sel.delays) == bits(&delays), "{ctx}: delays");
                ensure!(
                    bits(&sel.route_delays) == bits(&route_delays),
                    "{ctx}: route delays"
                );
            }
            (Err(pair), Err(err)) => {
                infeasible += 1;
                ensure!(
                    err == SelectionError::NoSafeRoute(pair),
                    "{ctx}: gave up at {err:?}, reference at {pair:?}"
                );
            }
            (want, got) => {
                return Err(format!(
                    "{ctx}: reference {:?}, select_routes {:?}",
                    want.map(|_| ()),
                    got.map(|_| ())
                ))
            }
        }
        Ok(())
    });
    // Both outcomes, and the cut itself, must have been exercised.
    assert!(feasible >= 8, "{feasible} feasible cases");
    assert!(infeasible >= 8, "{infeasible} infeasible cases");
    assert!(pruned.get() > pruned_before, "nothing was pruned");
}

#[test]
fn the_floor_changes_no_multiclass_selection() {
    let topologies = [
        ("mci", mci(), 6),
        ("nsfnet", nsfnet(), 4),
        ("ring8", ring(8), 2),
    ];
    let all = [
        TrafficClass::voip(),
        TrafficClass::new("video", LeakyBucket::new(64_000.0, 2_000_000.0), 0.3),
        TrafficClass::new("bulk-rt", LeakyBucket::new(256_000.0, 5_000_000.0), 1.0),
    ];
    let cfg = HeuristicConfig::default();
    let (mut feasible, mut infeasible) = (0, 0);
    uba_obs::check("floor_equiv_multiclass", 24, |rng: &mut SplitMix64| {
        let (name, g, fan_in) = &topologies[rng.index(topologies.len())];
        let servers = Servers::uniform(g, 100e6, *fan_in);
        let nc = 2 + rng.index(2);
        let mut classes = ClassSet::new();
        for class in &all[..nc] {
            classes.push(class.clone());
        }
        let pairs: Vec<Pair> = all_ordered_pairs(g)
            .into_iter()
            .skip(rng.index(4))
            .step_by(4 + rng.index(4))
            .collect();
        // Shares on a random ray, scaled to Σα between 0.2 and 0.95.
        let weights: Vec<f64> = (0..nc).map(|_| rng.range_f64(0.2, 1.0)).collect();
        let scale = rng.range_f64(0.2, 0.95) / weights.iter().sum::<f64>();
        let alphas: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let ctx = format!("{name}, {} pairs x {nc} classes @ {alphas:?}", pairs.len());
        let cells = alphas.repeat(servers.len());
        let rule = Theorem5::new(classes.iter().map(|(_, c)| c), cells);
        let want = unpruned_greedy(g, &servers, rule, &pairs);
        let demands: Vec<Demand> = (0..nc)
            .flat_map(|c| {
                let class = ClassId(c);
                pairs.iter().map(move |&pair| Demand { class, pair })
            })
            .collect();
        let got = select_routes_multiclass(g, &servers, &classes, &alphas, &demands, &cfg);
        match (want, got) {
            (Ok((paths, delays, route_delays)), Ok(sel)) => {
                feasible += 1;
                ensure!(sel.paths == paths, "{ctx}: paths differ");
                ensure!(bits(&sel.delays) == bits(&delays), "{ctx}: delays");
                ensure!(
                    bits(&sel.route_delays) == bits(&route_delays),
                    "{ctx}: route delays"
                );
            }
            (Err(pair), Err(err)) => {
                infeasible += 1;
                ensure!(
                    err == SelectionError::NoSafeRoute(pair),
                    "{ctx}: gave up at {err:?}, reference at {pair:?}"
                );
            }
            (want, got) => {
                return Err(format!(
                    "{ctx}: reference {:?}, select_routes_multiclass {:?}",
                    want.map(|_| ()),
                    got.map(|_| ())
                ))
            }
        }
        Ok(())
    });
    assert!(feasible >= 6, "{feasible} feasible cases");
    assert!(infeasible >= 6, "{infeasible} infeasible cases");
}
