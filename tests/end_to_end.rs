//! Cross-crate integration: configuration → admission → analysis → sim.

use uba::admission::{AdmissionController, ConfigGeneration, Reject, RoutingTable};
use uba::delay::fixed_point::{solve_two_class, SolveConfig};
use uba::delay::general::{analyze_flows, Flow, GeneralOutcome};
use uba::delay::routeset::{Route, RouteSet};
use uba::prelude::*;

/// Full pipeline on the paper's topology: max-utilization configuration,
/// controller stand-up, admission to the limit on one route, and the
/// invariant that the admitted flow set passes the exact flow-aware
/// delay analysis.
#[test]
fn configured_controller_admits_only_analyzable_load() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    // Modest subset of pairs for test speed.
    let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(13).collect();
    let result = max_utilization(
        &g,
        &servers,
        &voip,
        &pairs,
        &Selector::Heuristic(HeuristicConfig::default()),
        0.01,
    );
    let alpha = result.alpha;
    let sel = result.selection.expect("configurable");

    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), sel.paths.iter());
    let caps: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
    let ctrl = AdmissionController::from_generation(ConfigGeneration::new(
        table,
        &classes_of(&voip),
        &caps,
        &[alpha],
    ));

    // Admit a batch of flows over the configured pairs.
    let mut handles = Vec::new();
    for p in pairs.iter().cycle().take(500) {
        match ctrl.try_admit(ClassId(0), p.src, p.dst) {
            Ok(h) => handles.push((p, h)),
            Err(Reject::LinkFull { .. }) => {}
            Err(Reject::NoRoute) => panic!("configured pair has no route"),
            Err(Reject::Policy { .. }) => panic!("default controller has no policy stages"),
        }
    }
    assert!(!handles.is_empty());

    // The admitted set must be feasible under the exact general analysis
    // (the configuration-time bound dominates it).
    let flows: Vec<Flow> = handles
        .iter()
        .map(|(_, h)| Flow {
            class: 0,
            bucket: voip.bucket,
            deadline: voip.deadline,
            servers: h.route().to_vec(),
        })
        .collect();
    let exact = analyze_flows(&servers, &flows, 1, 1e-9, 5000);
    assert_eq!(exact.outcome, GeneralOutcome::Feasible);
    // And the exact delays are below the configuration-time bound.
    let cfg_bound = sel.route_delays.iter().cloned().fold(0.0, f64::max);
    let exact_max = exact.flow_delays.iter().cloned().fold(0.0, f64::max);
    assert!(
        exact_max <= cfg_bound + 1e-9,
        "exact {exact_max} above configured bound {cfg_bound}"
    );
}

fn classes_of(c: &TrafficClass) -> ClassSet {
    ClassSet::single(c.clone())
}

/// The run-time utilization test admits exactly the per-link budget, and
/// the analytic guarantee covers that load: general-analysis verification
/// of a saturated single link.
#[test]
fn saturated_link_still_meets_deadline() {
    let g = uba::topology::line(3);
    let capacity = 1e6;
    let servers = Servers::from_topology(&g, capacity);
    let voip = TrafficClass::voip();
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).unwrap();
    let mut routes = RouteSet::new(g.edge_count());
    for p in &paths {
        routes.push(Route::from_path(ClassId(0), p));
    }
    // Find a safe alpha by verification.
    let alpha = 0.4;
    let analysis = solve_two_class(
        &servers,
        &voip,
        alpha,
        &routes,
        &SolveConfig::default(),
        None,
    );
    assert!(analysis.outcome.is_safe());

    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), paths.iter());
    let caps: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
    let ctrl = AdmissionController::from_generation(ConfigGeneration::new(
        table,
        &classes_of(&voip),
        &caps,
        &[alpha],
    ));

    // Saturate the 0->2 route.
    let mut handles = Vec::new();
    while let Ok(h) = ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)) {
        handles.push(h);
    }
    let expected = (alpha * capacity / voip.bucket.rate) as usize;
    assert_eq!(handles.len(), expected);

    let flows: Vec<Flow> = handles
        .iter()
        .map(|h| Flow {
            class: 0,
            bucket: voip.bucket,
            deadline: voip.deadline,
            servers: h.route().to_vec(),
        })
        .collect();
    let exact = analyze_flows(&servers, &flows, 1, 1e-9, 5000);
    assert_eq!(exact.outcome, GeneralOutcome::Feasible);
}

/// Verification and selection agree: the route set produced by
/// `select_routes` at alpha passes `verify` at the same alpha.
#[test]
fn selection_and_verification_agree() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(17).collect();
    let sel = select_routes(
        &g,
        &servers,
        &voip,
        0.4,
        &pairs,
        &HeuristicConfig::default(),
    )
    .expect("routable");
    let classes = classes_of(&voip);
    let report = verify(
        &servers,
        &classes,
        &[0.4],
        &sel.routes,
        &SolveConfig::default(),
    );
    assert!(report.safe);
    // And the delays match the selection's own record.
    for (a, b) in report.route_delays.iter().zip(&sel.route_delays) {
        assert!((a - b).abs() < 1e-9);
    }
}

/// The SP baseline and the heuristic both respect the Theorem 4 window on
/// the paper's topology (subset of pairs for speed).
#[test]
fn alphas_inside_theorem4_window() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(8).collect();
    for selector in [
        Selector::ShortestPath,
        Selector::Heuristic(HeuristicConfig::default()),
    ] {
        let r = max_utilization(&g, &servers, &voip, &pairs, &selector, 0.01);
        let (lb, ub) = r.bounds;
        assert!(
            r.alpha >= lb - 1e-9,
            "{:?} alpha {} < lb {lb}",
            r.probes,
            r.alpha
        );
        assert!(r.alpha <= ub + 0.01, "alpha {} > ub {ub}", r.alpha);
    }
}
