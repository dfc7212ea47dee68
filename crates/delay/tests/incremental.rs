//! Incremental-vs-dense solver equivalence.
//!
//! The worklist solver (`solve_two_class`) must be indistinguishable from
//! the dense reference (`solve_two_class_dense`) across topologies,
//! utilizations, warm starts (valid *and* invalid) and push/pop sequences;
//! the tentative-route evaluator (`CommittedState`) must be
//! indistinguishable from pushing the route and solving warm. The
//! contract asserted here is the strong one the implementation
//! guarantees: identical `Outcome`, identical iteration count, and
//! bitwise-identical delay vectors.
//!
//! A broader seeded sweep runs behind the `prop-tests` feature:
//! `cargo test -p uba-delay --features prop-tests`.

use uba_delay::committed::CommittedState;
use uba_delay::fixed_point::{solve_two_class, solve_two_class_dense, Outcome, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::servers::Servers;
use uba_graph::{k_shortest_paths, Digraph, NodeId};
use uba_obs::SplitMix64;
use uba_topology::{line, mci, ring};
use uba_traffic::{ClassId, TrafficClass};

/// Solves with both sweep strategies and asserts they are identical.
fn assert_equiv(
    servers: &Servers,
    class: &TrafficClass,
    alpha: f64,
    routes: &RouteSet,
    warm: Option<&[f64]>,
    ctx: &str,
) -> (Outcome, Vec<f64>) {
    let inc = solve_two_class(servers, class, alpha, routes, &SolveConfig::default(), warm);
    let den = solve_two_class_dense(servers, class, alpha, routes, &SolveConfig::default(), warm);
    assert_eq!(inc.outcome, den.outcome, "{ctx}: outcome");
    assert_eq!(inc.iterations, den.iterations, "{ctx}: iterations");
    assert_eq!(inc.delays, den.delays, "{ctx}: delays (bitwise)");
    assert_eq!(inc.route_delays, den.route_delays, "{ctx}: route delays");
    (inc.outcome, inc.delays)
}

/// Builds `n_routes` shortest-path routes between seeded random distinct
/// pairs (taking a random choice among each pair's k shortest paths, so
/// route shapes vary).
fn random_routes(g: &Digraph, n_routes: usize, rng: &mut SplitMix64) -> RouteSet {
    let mut routes = RouteSet::new(g.edge_count());
    let n = g.node_count();
    while routes.len() < n_routes {
        let src = NodeId(rng.index(n) as u32);
        let dst = NodeId(rng.index(n) as u32);
        if src == dst {
            continue;
        }
        let paths = k_shortest_paths(g, src, dst, 3);
        if paths.is_empty() {
            continue;
        }
        let p = &paths[rng.index(paths.len())];
        routes.push(Route::from_path(ClassId(0), p));
    }
    routes
}

fn topologies() -> Vec<(&'static str, Digraph, usize)> {
    vec![
        ("line8", line(8), 10),
        ("ring9", ring(9), 14),
        ("mci", mci(), 40),
    ]
}

#[test]
fn equivalence_across_topologies_and_alphas() {
    let voip = TrafficClass::voip();
    for (name, g, n_routes) in topologies() {
        let servers = Servers::uniform(&g, 100e6, 6);
        let mut rng = SplitMix64::new(0xC0FFEE ^ n_routes as u64);
        let routes = random_routes(&g, n_routes, &mut rng);
        // Spans safe, deadline-violating, and divergent regimes.
        for &alpha in &[0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95] {
            assert_equiv(
                &servers,
                &voip,
                alpha,
                &routes,
                None,
                &format!("{name} alpha={alpha}"),
            );
        }
        // Out-of-domain alphas take the InvalidParams path in both modes.
        for &bad in &[0.0, 1.0, -1.0, f64::NAN] {
            let (outcome, _) = assert_equiv(
                &servers,
                &voip,
                bad,
                &routes,
                None,
                &format!("{name} bad alpha"),
            );
            assert_eq!(outcome, Outcome::InvalidParams);
        }
    }
}

#[test]
fn equivalence_under_push_pop_and_warm_starts() {
    let voip = TrafficClass::voip();
    for (name, g, n_routes) in topologies() {
        let servers = Servers::uniform(&g, 100e6, 6);
        let mut rng = SplitMix64::new(0xFEED ^ n_routes as u64);
        let full = random_routes(&g, n_routes, &mut rng);
        let alpha = 0.3;

        // Grow route-by-route, warm-starting each solve from the previous
        // (smaller) fixed point — the shrink-to-grow discipline.
        let mut routes = RouteSet::new(g.edge_count());
        let mut warm: Option<Vec<f64>> = None;
        for r in full.routes() {
            routes.push(r.clone());
            let (outcome, delays) = assert_equiv(
                &servers,
                &voip,
                alpha,
                &routes,
                warm.as_deref(),
                &format!("{name} grow to {}", routes.len()),
            );
            if outcome == Outcome::Safe {
                warm = Some(delays);
            }
        }

        // Pop half of them back off and re-solve cold: the index is
        // invalidated by pop and rebuilt lazily.
        for _ in 0..routes.len() / 2 {
            routes.pop();
        }
        assert_equiv(
            &servers,
            &voip,
            alpha,
            &routes,
            None,
            &format!("{name} after pops"),
        );
    }
}

#[test]
fn equivalence_with_invalid_warm_starts() {
    // A warm start *above* the least fixed point breaks monotonicity; the
    // incremental solver detects the decrease and falls back to dense
    // rebuilds, so the two modes still agree exactly.
    let voip = TrafficClass::voip();
    let g = mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let mut rng = SplitMix64::new(0xBAD5EED);
    let routes = random_routes(&g, 30, &mut rng);
    let base = solve_two_class(&servers, &voip, 0.3, &routes, &SolveConfig::default(), None);
    assert_eq!(base.outcome, Outcome::Safe);
    for &scale in &[1.2, 2.0, 10.0] {
        let inflated: Vec<f64> = base.delays.iter().map(|d| d * scale).collect();
        assert_equiv(
            &servers,
            &voip,
            0.3,
            &routes,
            Some(&inflated),
            &format!("inflated x{scale}"),
        );
    }
    // A warm start that also seeds *unused* servers must be zeroed by
    // both modes.
    let mut junk = base.delays.clone();
    for (k, d) in junk.iter_mut().enumerate() {
        if *d == 0.0 && k % 3 == 0 {
            *d = 1.0;
        }
    }
    let (_, delays) = assert_equiv(&servers, &voip, 0.3, &routes, Some(&junk), "junk warm");
    assert_eq!(delays, base.delays);
}

#[test]
fn tentative_matches_committed_across_seeds() {
    // The §5.2 loop's question — "with this route appended, still safe,
    // and what is its own delay?" — answered by `CommittedState` against
    // the literal reading: push the candidate, solve warm. The randomized
    // differential (cyclic route sets, interleaved rejects and commits)
    // is `tests/committed_equiv.rs`.
    let voip = TrafficClass::voip();
    let g = mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let cfg = SolveConfig::default();
    for seed in 0..5u64 {
        let mut rng = SplitMix64::new(0xABCD + seed);
        let mut routes = random_routes(&g, 25, &mut rng);
        let candidate = routes.pop().unwrap();
        let base = solve_two_class(&servers, &voip, 0.35, &routes, &cfg, None);
        let warm = if base.outcome == Outcome::Safe {
            base.delays
        } else {
            vec![0.0; servers.len()]
        };

        let mut state = CommittedState::from_fixed_point(
            &servers,
            &voip,
            0.35,
            &cfg,
            routes.clone(),
            warm.clone(),
        );
        let tentative = state.try_route(&candidate);
        routes.push(candidate.clone());
        let committed = solve_two_class(&servers, &voip, 0.35, &routes, &cfg, Some(&warm));
        assert_eq!(
            tentative.is_some(),
            committed.outcome.is_safe(),
            "seed {seed}"
        );
        if let Some(own) = tentative {
            assert_eq!(own, *committed.route_delays.last().unwrap(), "seed {seed}");
            assert!(state.commit(candidate));
            assert_eq!(state.delays(), committed.delays, "seed {seed}");
            assert_eq!(state.route_delays(), committed.route_delays, "seed {seed}");
        }
    }
}

/// Exhaustive seeded sweep — slow, so behind the `prop-tests` feature.
#[cfg(feature = "prop-tests")]
#[test]
fn exhaustive_seeded_equivalence() {
    let voip = TrafficClass::voip();
    for (name, g, n_routes) in topologies() {
        let servers = Servers::uniform(&g, 100e6, 6);
        for seed in 0..25u64 {
            let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E3779B97F4A7C15));
            let count = 1 + rng.index(n_routes);
            let routes = random_routes(&g, count, &mut rng);
            let alpha = rng.range_f64(0.02, 0.98);
            let (outcome, delays) = assert_equiv(
                &servers,
                &voip,
                alpha,
                &routes,
                None,
                &format!("{name} seed={seed} cold"),
            );
            // Re-solve warm from the fixed point itself (idempotence) and
            // from a partially decayed vector (still below the lfp, valid).
            if outcome == Outcome::Safe {
                assert_equiv(
                    &servers,
                    &voip,
                    alpha,
                    &routes,
                    Some(&delays),
                    &format!("{name} seed={seed} warm"),
                );
                let decayed: Vec<f64> =
                    delays.iter().map(|d| d * rng.range_f64(0.0, 1.0)).collect();
                assert_equiv(
                    &servers,
                    &voip,
                    alpha,
                    &routes,
                    Some(&decayed),
                    &format!("{name} seed={seed} decayed"),
                );
            }
        }
    }
}
