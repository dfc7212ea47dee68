//! System test: the *actual run-time admission controller* decides which
//! flows exist; the packet simulator then executes exactly that flow set
//! adversarially; every admitted packet meets its deadline.
//!
//! This is the full paper pipeline with no shortcuts: configuration →
//! controller → admission decisions → forwarding → measured guarantees.

use uba::admission::{AdmissionController, RoutingTable};
use uba::delay::fixed_point::{solve_two_class, SolveConfig};
use uba::delay::routeset::{Route, RouteSet};
use uba::prelude::*;
use uba::sim::{simulate, FlowSpec, SimConfig, SourceModel};

#[test]
fn admitted_flows_meet_deadlines_in_simulation() {
    let g = uba::topology::nsfnet();
    let capacity = 2e6;
    let servers = Servers::from_topology(&g, capacity);
    let voip = TrafficClass::voip();
    let alpha = 0.2;

    // Configuration: SP routes, Figure 2 verification.
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("connected");
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
    assert!(analysis.outcome.is_safe());
    let bound = analysis.route_delays.iter().cloned().fold(0.0, f64::max);

    // Run-time: the real controller admits flows round-robin over pairs
    // until everything is full.
    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), paths.iter());
    let caps: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
    let ctrl = AdmissionController::new(table, &ClassSet::single(voip.clone()), &caps, &[alpha]);
    let mut handles = Vec::new();
    let mut full_rounds = 0;
    while full_rounds < 1 {
        let before = handles.len();
        for p in &pairs {
            if let Ok(h) = ctrl.try_admit(ClassId(0), p.src, p.dst) {
                handles.push((p.src, h));
            }
        }
        if handles.len() == before {
            full_rounds += 1;
        }
    }
    assert!(!handles.is_empty());

    // Forwarding: simulate exactly the admitted set, worst-case sources.
    let flows: Vec<FlowSpec> = handles
        .iter()
        .map(|(src, h)| FlowSpec {
            class: 0,
            ingress: src.0,
            route: h.route().to_vec(),
            source: SourceModel::voip_greedy(0.0),
        })
        .collect();
    let report = simulate(
        &caps,
        &flows,
        &SimConfig {
            policers: Some(vec![(voip.bucket.burst, voip.bucket.rate)]),
            ..SimConfig::new(0.25, vec![voip.deadline])
        },
    );
    assert!(report.total_packets > 0);
    assert_eq!(
        report.total_misses(),
        0,
        "admitted traffic missed deadlines"
    );
    assert_eq!(
        report.classes[0].policed_drops, 0,
        "conforming traffic policed"
    );
    assert!(
        report.max_delay() <= bound + 0.005,
        "sim {} exceeded analytic bound {}",
        report.max_delay(),
        bound
    );

    // Backlog bounds from the verification cover the simulated peaks
    // (in packets: bound bits / packet size, plus one in service).
    let verify_report = uba::delay::verify::verify(
        &servers,
        &ClassSet::single(voip.clone()),
        &[alpha],
        &routes,
        &SolveConfig::default(),
    );
    let backlog_bits = verify_report.backlog_bounds(&caps);
    let worst_backlog_pkts = backlog_bits
        .iter()
        .map(|b| (b / 640.0).ceil() as usize + 1)
        .max()
        .unwrap();
    assert!(
        report.peak_backlog <= worst_backlog_pkts * 2,
        "peak backlog {} vs analytic {} pkts",
        report.peak_backlog,
        worst_backlog_pkts
    );
}
