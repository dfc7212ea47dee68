//! Experiment V-SIM (integration): simulated worst-case delays never
//! exceed the configuration-time analytic bounds.
//!
//! Pipeline under test, end to end: topology → SP routes → Figure 2
//! verification at utilization α → greedy admission fill to the per-link
//! budgets → packet-level simulation with adversarial (synchronized
//! greedy) sources → observed max delay ≤ analytic bound, zero deadline
//! misses. Every safe verdict also passes the independent checker
//! (`uba_delay::certificate`), its cells × (1 + 1e-9) the witness.

mod common;

use common::slack;
use uba_admission::UtilizationState;
use uba_delay::certificate;
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::servers::Servers;
use uba_routing::pairs::all_ordered_pairs;
use uba_routing::sp::sp_selection;
use uba_sim::{simulate, FlowSpec, SimConfig, SourceModel};
use uba_topology::{grid, ring};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

/// The relative lift from a safe verdict's cells to a certificate witness.
const LIFT: f64 = 1e-9;

/// A safe verdict's cells (`server · classes + class`), lifted by
/// [`LIFT`], pass the independent checker at `alphas` per class on every
/// server.
fn certify(
    servers: &Servers,
    classes: &ClassSet,
    alphas: &[f64],
    routes: &RouteSet,
    cells: impl Iterator<Item = f64>,
) {
    let d_hat: Vec<f64> = cells.map(|d| d * (1.0 + LIFT)).collect();
    let alpha_cells = alphas.repeat(servers.len());
    let got = certificate::check(servers, classes, &alpha_cells, routes, &d_hat);
    assert_eq!(got, Ok(()), "a safe verdict the checker refuses");
}

/// Runs the full validation on one topology; returns (sim max, bound).
fn validate(g: &uba_graph::Digraph, alpha: f64, capacity: f64, horizon: f64) -> (f64, f64) {
    let voip = TrafficClass::voip();
    // Fan-in from actual topology (+1 access link) so the analysis covers
    // exactly the feeding channels the simulator materializes.
    let servers = Servers::from_topology(g, capacity);
    let pairs = all_ordered_pairs(g);
    let paths = sp_selection(g, &pairs).expect("connected");
    let mut routes = RouteSet::new(g.edge_count());
    for p in &paths {
        routes.push(Route::from_path(ClassId(0), p));
    }
    let analysis = solve_two_class(
        &servers,
        &voip,
        alpha,
        &routes,
        &SolveConfig::default(),
        None,
    );
    assert!(
        analysis.outcome.is_safe(),
        "choose alpha so the configuration verifies; outcome {:?}",
        analysis.outcome
    );
    let classes = ClassSet::single(voip.clone());
    let cells = analysis.delays.iter().copied();
    certify(&servers, &classes, &[alpha], &routes, cells);
    let bound = analysis.route_delays.iter().cloned().fold(0.0, f64::max);

    // Fill to the admission limit through the admission test and
    // simulate adversarial sources, each route's flows together.
    let capacities: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
    let mut admitted =
        UtilizationState::new(&capacities, &[alpha]).fill_round_robin(&paths, 0, voip.bucket.rate);
    admitted.sort_unstable();
    let flows: Vec<FlowSpec> = admitted
        .into_iter()
        .map(|i| FlowSpec {
            class: 0,
            ingress: pairs[i].src.0,
            route: paths[i].edges.iter().map(|e| e.0).collect(),
            source: SourceModel::voip_greedy(0.0),
        })
        .collect();
    assert!(!flows.is_empty(), "fill admitted nothing");
    let report = simulate(
        &capacities,
        &flows,
        &SimConfig::new(horizon, vec![voip.deadline]),
    );
    assert!(report.total_packets > 0);
    assert_eq!(
        report.total_misses(),
        0,
        "verified configuration must never miss a deadline (max {} vs D=0.1)",
        report.max_delay()
    );
    (report.max_delay(), bound)
}

#[test]
fn ring_simulation_below_bound() {
    let g = ring(6);
    let c = 1e6;
    let (sim_max, bound) = validate(&g, 0.25, c, 0.3);
    assert!(sim_max > 0.0);
    assert!(
        sim_max <= bound + slack(3, 640.0, c),
        "sim {sim_max} exceeds analytic bound {bound}"
    );
}

#[test]
fn grid_simulation_below_bound() {
    let g = grid(3, 3);
    let c = 1e6;
    let (sim_max, bound) = validate(&g, 0.2, c, 0.3);
    assert!(
        sim_max <= bound + slack(4, 640.0, c),
        "sim {sim_max} exceeds analytic bound {bound}"
    );
}

#[test]
fn mci_subset_simulation_below_bound() {
    // The real experiment topology at reduced capacity so the flow count
    // stays test-sized.
    let g = uba_topology::mci();
    let c = 1e6;
    let (sim_max, bound) = validate(&g, 0.15, c, 0.25);
    assert!(
        sim_max <= bound + slack(4, 640.0, c),
        "sim {sim_max} exceeds analytic bound {bound}"
    );
}

/// V-SIM2: the Theorem 5 multi-class bounds also dominate simulation.
/// Two real-time classes (voice above video) fill a ring to their
/// per-class budgets; per-class observed maxima stay below the per-class
/// configuration-time bounds.
#[test]
fn multiclass_simulation_below_theorem5_bounds() {
    use uba_delay::verify::verify;
    use uba_traffic::LeakyBucket;

    let g = ring(6);
    let capacity = 4e6;
    let servers = Servers::from_topology(&g, capacity);
    let mut classes = ClassSet::new();
    classes.push(TrafficClass::voip());
    classes.push(TrafficClass::new(
        "video",
        LeakyBucket::new(16_000.0, 400_000.0),
        0.3,
    ));
    let alphas = [0.15, 0.25];

    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("connected");
    let mut routes = RouteSet::new(g.edge_count());
    for class in 0..2usize {
        for p in &paths {
            routes.push(Route::from_path(ClassId(class), p));
        }
    }
    let analysis = verify(
        &servers,
        &classes,
        &alphas,
        &routes,
        &SolveConfig::default(),
    );
    assert!(analysis.safe, "{:?}", analysis.outcome);
    let rows = &analysis.server_delays;
    let cells = (0..servers.len() * 2).map(|c| rows[c % 2][c / 2]);
    certify(&servers, &classes, &alphas, &routes, cells);
    // Per-class worst route bound.
    let mut bounds = [0.0f64; 2];
    for (rt, &rd) in routes.routes().iter().zip(&analysis.route_delays) {
        let c = rt.class.index();
        bounds[c] = bounds[c].max(rd);
    }

    // Greedy fill of one two-class state, class by class.
    let capacities: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
    let state = UtilizationState::new(&capacities, &alphas);
    let class_specs = [
        (32_000.0f64, SourceModel::voip_greedy(0.0)),
        (
            400_000.0,
            SourceModel::GreedyOnOff {
                burst_bits: 16_000.0,
                rate_bps: 400_000.0,
                packet_bits: 4_000,
                start: 0.0,
            },
        ),
    ];
    let mut flows = Vec::new();
    for (class, (rate, source)) in class_specs.into_iter().enumerate() {
        for i in state.fill_round_robin(&paths, class, rate) {
            flows.push(FlowSpec {
                class,
                ingress: pairs[i].src.0,
                route: paths[i].edges.iter().map(|e| e.0).collect(),
                source,
            });
        }
    }
    assert!(flows.iter().any(|f| f.class == 0));
    assert!(flows.iter().any(|f| f.class == 1));

    let report = simulate(&capacities, &flows, &SimConfig::new(0.3, vec![0.1, 0.3]));
    assert_eq!(report.total_misses(), 0);
    for (class, &bound) in bounds.iter().enumerate() {
        let sim_max = report.classes[class].max_delay;
        // Non-preemption slack: one max-size lower-priority packet per
        // hop plus own packetization.
        let s = slack(3, 4_000.0, capacity);
        assert!(
            sim_max <= bound + s,
            "class {class}: sim {sim_max} vs bound {bound}"
        );
    }
}
