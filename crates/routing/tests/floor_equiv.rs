//! `select_routes`, `select_routes_multiclass` and a re-route vs the §5.2
//! greedy without its cuts.
//!
//! `choose_route` walks a demand's candidates once, in index order. While
//! there is an incumbent it skips a candidate whose delay at the committed
//! delays (`CommittedState::delay_floor`) already matches or exceeds the
//! incumbent's, before asking the overlay whether it is acyclic: it could
//! not win either way. The candidates it solves it hands to `try_route`
//! with the incumbent's delay as a bound, past which the solve stops. The
//! reference below is the greedy as §5.2 states it — every candidate
//! cycle-checked before any is weighed, every pooled candidate solved to
//! the end — so any pair chosen differently, any `NoSafeRoute` moved, any
//! delay off by one ulp shows here: same paths, `delays` and
//! `route_delays`, bit for bit, on random pair subsets and utilizations
//! either side of the feasible edge — for one class under Theorem 3, with
//! Heuristic (2) or (3) switched off, for two and three classes under
//! Theorem 5, whose floor holds only to the formula's last place, and for
//! `Configuration::fail_link`'s re-route onto a state adopted from a cold
//! solve of the surviving routes.

use uba_delay::committed::CommittedState;
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::rule::{DelayRule, Theorem5};
use uba_delay::servers::Servers;
use uba_graph::{k_shortest_paths_filtered, Digraph, DynDigraph, EdgeId, Path};
use uba_obs::{ensure, SplitMix64};
use uba_routing::{
    all_ordered_pairs, order_pairs_by_distance, select_routes, select_routes_multiclass,
    Configuration, Demand, HeuristicConfig, Pair, SelectionError,
};
use uba_topology::{mci, nsfnet, ring, torus};
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

type Chosen = (Vec<Path>, Vec<f64>, Vec<f64>);

/// The greedy under `cfg` from `state` and `overlay`, over the edges
/// `edge_ok` admits: each demand's candidates all cycle-checked before
/// any is weighed, and every pooled candidate solved with nothing to
/// beat. Returns the chosen paths, or the first demand's error.
fn reference_greedy<R: DelayRule>(
    g: &Digraph,
    edge_ok: impl Fn(EdgeId) -> bool + Copy,
    state: &mut CommittedState<'_, R>,
    overlay: &mut DynDigraph,
    demands: impl IntoIterator<Item = (ClassId, Pair)>,
    cfg: &HeuristicConfig,
) -> Result<Vec<Path>, SelectionError> {
    let mut paths = Vec::new();
    for (class, pair) in demands {
        let candidates =
            k_shortest_paths_filtered(g, pair.src, pair.dst, cfg.k_candidates, edge_ok);
        if candidates.is_empty() {
            return Err(SelectionError::NoRoute(pair));
        }
        let routes: Vec<Route> = candidates
            .iter()
            .map(|p| Route::from_path(class, p))
            .collect();
        let mut pool: Vec<usize> = (0..routes.len())
            .filter(|&i| {
                cfg.prefer_acyclic && !overlay.chain_would_create_cycle(&routes[i].servers)
            })
            .collect();
        if pool.is_empty() {
            pool.extend(0..routes.len());
        }
        let mut best: Option<(usize, f64)> = None;
        for ci in pool {
            let Some(own) = state.try_route(&routes[ci], f64::INFINITY) else {
                continue;
            };
            match best {
                Some((_, least)) if own.total_cmp(&least).is_ge() => {}
                _ => best = Some((ci, own)),
            }
            if !cfg.min_delay_choice {
                break;
            }
        }
        let (ci, _) = best.ok_or(SelectionError::NoSafeRoute(pair))?;
        assert!(state.commit(&routes[ci]));
        overlay.add_chain(&routes[ci].servers);
        paths.push(candidates[ci].clone());
    }
    Ok(paths)
}

/// [`reference_greedy`] onto an empty committed state under `rule`, on
/// every edge. `pairs` are routed in distance order, each in every class
/// of the rule.
fn unpruned_greedy<R: DelayRule>(
    g: &Digraph,
    servers: &Servers,
    rule: R,
    pairs: &[Pair],
    cfg: &HeuristicConfig,
) -> Result<Chosen, SelectionError> {
    let mut overlay = DynDigraph::new(g.edge_count());
    let classes = rule.classes();
    let mut state = CommittedState::empty(servers, rule);
    let demands = order_pairs_by_distance(g, pairs)
        .into_iter()
        .flat_map(|pair| (0..classes).map(move |c| (ClassId(c), pair)));
    let paths = reference_greedy(g, |_| true, &mut state, &mut overlay, demands, cfg)?;
    let (delays, route_delays) = state.into_parts();
    Ok((paths, delays, route_delays))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The reference's answer against the shipped greedy's: `Ok(true)` for
/// one feasible selection on both sides, `Ok(false)` for one error.
fn agree(
    want: Result<Chosen, SelectionError>,
    got: Result<uba_routing::Selection, SelectionError>,
    ctx: &str,
) -> Result<bool, String> {
    match (want, got) {
        (Ok((paths, delays, route_delays)), Ok(sel)) => {
            ensure!(sel.paths == paths, "{ctx}: paths differ");
            ensure!(bits(&sel.delays) == bits(&delays), "{ctx}: delays");
            ensure!(
                bits(&sel.route_delays) == bits(&route_delays),
                "{ctx}: route delays"
            );
            Ok(true)
        }
        (Err(want), Err(got)) => {
            ensure!(
                got == want,
                "{ctx}: gave up at {got:?}, reference at {want:?}"
            );
            Ok(false)
        }
        (want, got) => Err(format!(
            "{ctx}: reference {:?}, greedy {:?}",
            want.map(|_| ()),
            got.map(|_| ())
        )),
    }
}

/// `cases` random one-class selections under `cfg` against the
/// reference; returns how many were feasible and how many not.
fn one_class_cases(name: &str, cfg: &HeuristicConfig, cases: u64) -> (usize, usize) {
    let topologies = [
        ("mci", mci(), 6),
        ("torus5x5", torus(5, 5), 4),
        ("ring8", ring(8), 2),
    ];
    let voip = TrafficClass::voip();
    let (mut feasible, mut infeasible) = (0, 0);
    uba_obs::check(name, cases, |rng: &mut SplitMix64| {
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
        let want = unpruned_greedy(g, &servers, rule, &pairs, cfg);
        let got = select_routes(g, &servers, &voip, alpha, &pairs, cfg);
        if agree(want, got, &ctx)? {
            feasible += 1;
        } else {
            infeasible += 1;
        }
        Ok(())
    });
    (feasible, infeasible)
}

#[test]
fn the_cuts_change_no_selection() {
    let pruned = &uba_routing::metrics::select().pruned;
    let pruned_before = pruned.get();
    let (feasible, infeasible) = one_class_cases("floor_equiv", &HeuristicConfig::default(), 24);
    // Both outcomes, and the cut itself, must have been exercised.
    assert!(feasible >= 8, "{feasible} feasible cases");
    assert!(infeasible >= 8, "{infeasible} infeasible cases");
    assert!(pruned.get() > pruned_before, "nothing was pruned");
}

#[test]
fn the_cuts_change_no_selection_with_a_sub_heuristic_off() {
    let no_acyclic = HeuristicConfig {
        prefer_acyclic: false,
        ..HeuristicConfig::default()
    };
    let first_safe = HeuristicConfig {
        min_delay_choice: false,
        ..HeuristicConfig::default()
    };
    for (name, cfg) in [
        ("floor_equiv_no_acyclic", no_acyclic),
        ("floor_equiv_first_safe", first_safe),
    ] {
        let (feasible, infeasible) = one_class_cases(name, &cfg, 24);
        assert!(feasible >= 4, "{name}: {feasible} feasible cases");
        assert!(infeasible >= 4, "{name}: {infeasible} infeasible cases");
    }
}

#[test]
fn the_cuts_change_no_multiclass_selection() {
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
        let want = unpruned_greedy(g, &servers, rule, &pairs, &cfg);
        let demands: Vec<Demand> = (0..nc)
            .flat_map(|c| {
                let class = ClassId(c);
                pairs.iter().map(move |&pair| Demand { class, pair })
            })
            .collect();
        let got = select_routes_multiclass(g, &servers, &classes, &alphas, &demands, &cfg);
        if agree(want, got, &ctx)? {
            feasible += 1;
        } else {
            infeasible += 1;
        }
        Ok(())
    });
    assert!(feasible >= 6, "{feasible} feasible cases");
    assert!(infeasible >= 6, "{infeasible} infeasible cases");
}

#[test]
fn the_cuts_change_no_reroute_after_a_link_failure() {
    let topologies = [("mci", mci(), 6), ("torus5x5", torus(5, 5), 4)];
    let voip = TrafficClass::voip();
    let cfg = HeuristicConfig::default();
    let (mut rerouted, mut refused) = (0, 0);
    uba_obs::check("floor_equiv_reroute", 24, |rng: &mut SplitMix64| {
        let (name, g, fan_in) = &topologies[rng.index(topologies.len())];
        let servers = Servers::uniform(g, 100e6, *fan_in);
        let pairs: Vec<Pair> = all_ordered_pairs(g)
            .into_iter()
            .skip(rng.index(4))
            .step_by(2 + rng.index(3))
            .collect();
        let alpha = rng.range_f64(0.2, 0.45);
        let ctx = format!("{name}, {} pairs @ {alpha}", pairs.len());
        let Ok(sel) = select_routes(g, &servers, &voip, alpha, &pairs, &cfg) else {
            return Ok(());
        };
        // Fail the link under a random committed hop, both directions.
        let hops: Vec<EdgeId> = sel.paths.iter().flat_map(|p| p.edges.clone()).collect();
        let hop = hops[rng.index(hops.len())];
        let (a, b) = (g.src(hop), g.dst(hop));
        let failed: Vec<EdgeId> = g
            .edges()
            .filter(|&e| [(a, b), (b, a)].contains(&(g.src(e), g.dst(e))))
            .collect();
        let ctx = format!("{ctx}, link {a:?}-{b:?} failed");

        // The reference: the surviving routes solved cold and adopted,
        // the stranded pairs in distance order over the surviving edges.
        // Every cell of an adopted state is stale until the first
        // evaluation, so the floor here rests on the shared step's
        // verdict, not on a history of rising delays.
        let mut survivors = RouteSet::new(g.edge_count());
        let mut paths = Vec::new();
        let mut overlay = DynDigraph::new(g.edge_count());
        let mut stranded = Vec::new();
        for ((demand, path), route) in sel.demands.iter().zip(&sel.paths).zip(sel.routes.routes()) {
            if path.edges.iter().any(|e| failed.contains(e)) {
                stranded.push(demand.pair);
            } else {
                survivors.push(route.clone());
                paths.push(path.clone());
                overlay.add_chain(&route.servers);
            }
        }
        let cold = solve_two_class(
            &servers,
            &voip,
            alpha,
            &survivors,
            &SolveConfig::default(),
            None,
        );
        let rule = Theorem5::new([&voip], vec![alpha; servers.len()]);
        let mut state = CommittedState::from_fixed_point(&servers, rule, &survivors, cold.delays);
        let ordered = order_pairs_by_distance(g, &stranded);
        let demands = ordered.iter().map(|&pair| (ClassId(0), pair));
        let edge_ok = |e| !failed.contains(&e);
        let want = reference_greedy(g, edge_ok, &mut state, &mut overlay, demands, &cfg);

        let mut live = Configuration::from_selection(
            g.clone(),
            servers.clone(),
            voip.clone(),
            alpha,
            cfg.clone(),
            sel.clone(),
        );
        match (want, live.fail_link(a, b)) {
            (Ok(new_paths), Ok(report)) => {
                rerouted += 1;
                ensure!(report.rerouted == ordered, "{ctx}: re-routed pairs");
                paths.extend(new_paths);
                ensure!(live.paths() == paths, "{ctx}: paths differ");
                ensure!(
                    bits(live.route_delays()) == bits(state.route_delays()),
                    "{ctx}: route delays"
                );
            }
            (Err(want), Err(got)) => {
                refused += 1;
                ensure!(
                    got == want,
                    "{ctx}: gave up at {got:?}, reference at {want:?}"
                );
                ensure!(
                    live.paths() == sel.paths,
                    "{ctx}: a refusal changed the paths"
                );
            }
            (want, got) => {
                return Err(format!(
                    "{ctx}: reference {:?}, fail_link {:?}",
                    want.map(|_| ()),
                    got.map(|_| ())
                ))
            }
        }
        Ok(())
    });
    assert!(rerouted >= 8, "{rerouted} re-routes");
    assert!(refused >= 1, "{refused} refusals");
}
