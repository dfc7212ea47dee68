//! Property tests of the paper's theorems at network scale: one sweep
//! over fixed seeds, and two `uba_obs::check` properties over 24 seeded
//! random topologies each (the same every run). Every safe verdict also
//! passes the independent checker (`uba_delay::certificate`), its cells
//! × (1 + 1e-9) the witness.

use uba::admission::UtilizationState;
use uba::delay::certificate::{self, CertError};
use uba::delay::fixed_point::{solve_two_class, SolveConfig};
use uba::delay::general::{analyze_flows, Flow, GeneralOutcome};
use uba::delay::routeset::{Route, RouteSet};
use uba::obs::{check, ensure};
use uba::prelude::*;

const CASES: u64 = 24;

/// The relative lift from a safe verdict's cells to a certificate witness.
const LIFT: f64 = 1e-9;

/// Whether one-class `cells` at `alpha`, lifted by [`LIFT`], certify
/// `routes` safe.
fn certified(
    servers: &Servers,
    class: &TrafficClass,
    alpha: f64,
    routes: &RouteSet,
    cells: &[f64],
) -> Result<(), CertError> {
    let d_hat: Vec<f64> = cells.iter().map(|d| d * (1.0 + LIFT)).collect();
    let (classes, alpha_cells) = (ClassSet::single(class.clone()), vec![alpha; servers.len()]);
    certificate::check(servers, &classes, &alpha_cells, routes, &d_hat)
}

/// SP routes for every ordered pair of `g`.
fn sp_routes(g: &Digraph) -> (Vec<Path>, RouteSet) {
    let pairs = all_ordered_pairs(g);
    let paths = sp_selection(g, &pairs).expect("connected");
    let mut routes = RouteSet::new(g.edge_count());
    for p in &paths {
        routes.push(Route::from_path(ClassId(0), p));
    }
    (paths, routes)
}

/// Theorem 4 lower-bound claim: for *any* (random) topology, shortest-path
/// routing at alpha slightly below the bound verifies safe.
#[test]
fn theorem4_lower_bound_safe_on_random_topologies() {
    for seed in 0..12u64 {
        let g = uba::topology::waxman(14, 0.4, 0.5, seed);
        let diameter = uba::graph::bfs::diameter(&g).expect("connected");
        if diameter == 0 {
            continue;
        }
        let n = g.max_in_degree().max(2);
        let servers = Servers::uniform(&g, 100e6, n);
        let voip = TrafficClass::voip();
        let (lb, _) = utilization_bounds(n, diameter.max(1), &voip);
        let alpha = (lb * 0.98).min(0.98);
        if alpha <= 0.0 {
            continue;
        }
        let (_, routes) = sp_routes(&g);
        let r = solve_two_class(
            &servers,
            &voip,
            alpha,
            &routes,
            &SolveConfig::default(),
            None,
        );
        assert!(
            r.outcome.is_safe(),
            "seed {seed}: SP at 0.98*LB={alpha} must verify (L={diameter}, N={n}), got {:?}",
            r.outcome
        );
        let got = certified(&servers, &voip, alpha, &routes, &r.delays);
        assert_eq!(got, Ok(()), "seed {seed}: a safe verdict refused");
    }
}

/// Network-level domination: for random admissible flow placements on
/// a random topology, the exact flow-aware analysis never exceeds the
/// configuration-time per-route bounds.
#[test]
fn general_analysis_dominated_by_config_bound() {
    let mut reached = 0;
    check("general_analysis_dominated_by_config_bound", CASES, |rng| {
        let seed = rng.index(500) as u64;
        let alpha = rng.range_f64(0.05, 0.35);
        let g = uba::topology::waxman(10, 0.4, 0.5, seed);
        let capacity = 1e6;
        let servers = Servers::from_topology(&g, capacity);
        let voip = TrafficClass::voip();
        let (paths, routes) = sp_routes(&g);
        let cfg = solve_two_class(
            &servers,
            &voip,
            alpha,
            &routes,
            &SolveConfig::default(),
            None,
        );
        if !cfg.outcome.is_safe() {
            return Ok(());
        }
        let got = certified(&servers, &voip, alpha, &routes, &cfg.delays);
        ensure!(got.is_ok(), "a safe verdict the checker refuses: {got:?}");

        // Greedy admissible fill through the admission test (respects the
        // per-link alpha budget).
        let flows: Vec<Flow> = UtilizationState::new(&vec![capacity; servers.len()], &[alpha])
            .fill_round_robin(&paths, 0, voip.bucket.rate)
            .into_iter()
            .map(|i| Flow {
                class: 0,
                bucket: voip.bucket,
                deadline: voip.deadline,
                servers: paths[i].edges.iter().map(|e| e.0).collect(),
            })
            .collect();
        if flows.is_empty() {
            return Ok(());
        }
        reached += 1;
        let exact = analyze_flows(&servers, &flows, 1, 1e-9, 5000);
        ensure!(
            exact.outcome == GeneralOutcome::Feasible,
            "{:?}",
            exact.outcome
        );
        // Per-server: exact delay <= configured bound.
        for k in 0..servers.len() {
            ensure!(
                exact.delays[0][k] <= cfg.delays[k] + 1e-9,
                "server {k}: exact {} > bound {}",
                exact.delays[0][k],
                cfg.delays[k]
            );
        }
        Ok(())
    });
    // An unsafe alpha or an empty fill is discarded, not passed.
    assert!(
        reached >= CASES * 3 / 4,
        "only {reached} of {CASES} cases compared"
    );
}

/// Monotonicity of the verified fixed point in alpha, at network
/// scale.
#[test]
fn fixed_point_monotone_in_alpha() {
    let mut reached = 0;
    check("fixed_point_monotone_in_alpha", CASES, |rng| {
        let seed = rng.index(200) as u64;
        let g = uba::topology::waxman(10, 0.4, 0.5, seed);
        let servers = Servers::uniform(&g, 100e6, g.max_in_degree().max(2));
        let voip = TrafficClass::voip();
        let (_, routes) = sp_routes(&g);
        let scfg = SolveConfig::default();
        let lo = solve_two_class(&servers, &voip, 0.10, &routes, &scfg, None);
        let hi = solve_two_class(&servers, &voip, 0.15, &routes, &scfg, None);
        if !(lo.outcome.is_safe() && hi.outcome.is_safe()) {
            return Ok(());
        }
        for (alpha, r) in [(0.10, &lo), (0.15, &hi)] {
            let got = certified(&servers, &voip, alpha, &routes, &r.delays);
            ensure!(got.is_ok(), "α {alpha}: a safe verdict refused: {got:?}");
        }
        reached += 1;
        for (a, b) in lo.delays.iter().zip(&hi.delays) {
            ensure!(a <= b, "{a} > {b}");
        }
        Ok(())
    });
    assert!(
        reached >= CASES * 3 / 4,
        "only {reached} of {CASES} cases compared"
    );
}
