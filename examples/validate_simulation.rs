//! Validate the analytic bounds against packet-level simulation.
//!
//! Configures a ring network, fills it to the admission limit with
//! adversarial (burst-synchronized) VoIP sources, simulates, and compares
//! observed worst-case delay with the configuration-time bound.
//!
//! Run with: `cargo run --release --example validate_simulation`

use uba::admission::UtilizationState;
use uba::delay::fixed_point::{solve_two_class, SolveConfig};
use uba::delay::routeset::{Route, RouteSet};
use uba::prelude::*;
use uba::sim::{simulate, FlowSpec, SimConfig, SourceModel};

fn main() {
    let g = uba::topology::ring(8);
    let capacity = 1e6; // 1 Mb/s links keep flow counts readable
    let servers = Servers::from_topology(&g, capacity);
    let voip = TrafficClass::voip();
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("ring is connected");
    let mut routes = RouteSet::new(g.edge_count());
    for p in &paths {
        routes.push(Route::from_path(ClassId(0), p));
    }

    let alpha = 0.25;
    let analysis = solve_two_class(
        &servers,
        &voip,
        alpha,
        &routes,
        &SolveConfig::default(),
        None,
    );
    assert!(analysis.outcome.is_safe(), "pick a verifiable alpha");
    let bound = analysis.route_delays.iter().cloned().fold(0.0, f64::max);

    // Greedy fill to the per-link class budget: every route offered one
    // flow per pass through the admission test itself.
    let caps = vec![capacity; servers.len()];
    let flows: Vec<FlowSpec> = UtilizationState::new(&caps, &[alpha])
        .fill_round_robin(&paths, 0, voip.bucket.rate)
        .into_iter()
        .map(|i| FlowSpec {
            class: 0,
            ingress: pairs[i].src.0,
            route: paths[i].edges.iter().map(|e| e.0).collect(),
            source: SourceModel::voip_greedy(0.0),
        })
        .collect();

    println!(
        "ring(8) at alpha={alpha}: {} flows admitted, analytic worst route delay {:.2} ms",
        flows.len(),
        bound * 1e3
    );
    let report = simulate(&caps, &flows, &SimConfig::new(0.5, vec![voip.deadline]));
    println!(
        "simulated {} packets ({} events): max delay {:.2} ms, mean {:.3} ms, misses {}",
        report.total_packets,
        report.events,
        report.max_delay() * 1e3,
        report.classes[0].mean_delay * 1e3,
        report.total_misses(),
    );
    println!(
        "bound utilization by the adversarial run: {:.0}% of the analytic worst case",
        100.0 * report.max_delay() / bound
    );
    assert!(report.max_delay() <= bound + 0.005, "bound violated!");
    assert_eq!(report.total_misses(), 0);
    println!("analytic bound holds. ✓");
}
