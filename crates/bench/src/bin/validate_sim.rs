//! Experiment V-SIM — packet-level validation of the analytic bounds.
//!
//! For a sweep of utilizations on the MCI topology (at reduced capacity so
//! flow counts stay tractable), fill the network to the admission limit
//! with adversarial synchronized sources, simulate, and report observed
//! worst-case delay against the configuration-time bound.
//!
//! Run with: `cargo run -p uba-bench --release --bin validate_sim`

use uba::admission::UtilizationState;
use uba::delay::fixed_point::{solve_two_class, SolveConfig};
use uba::delay::routeset::{Route, RouteSet};
use uba::prelude::*;
use uba::sim::{simulate, FlowSpec, SimConfig, SourceModel};

fn main() {
    let g = uba::topology::mci();
    let capacity = 2e6; // scaled down from 100 Mb/s: same analysis, fewer flows
    let servers = Servers::from_topology(&g, capacity);
    let voip = TrafficClass::voip();
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).expect("connected");
    let mut routes = RouteSet::new(g.edge_count());
    for p in &paths {
        routes.push(Route::from_path(ClassId(0), p));
    }
    let caps = vec![capacity; servers.len()];

    println!("# V-SIM: MCI (C=2 Mb/s, per-topology fan-in), SP routes, greedy fill");
    println!("# alpha verdict flows packets bound_ms sim_max_ms sim_mean_ms misses");
    for alpha in [0.05, 0.10, 0.15, 0.20, 0.25, 0.30] {
        let analysis = solve_two_class(
            &servers,
            &voip,
            alpha,
            &routes,
            &SolveConfig::default(),
            None,
        );
        if !analysis.outcome.is_safe() {
            println!("{alpha:.2} UNVERIFIED - - - - - -");
            continue;
        }
        let bound = analysis.route_delays.iter().cloned().fold(0.0, f64::max);

        // Greedy fill to the admission limit, through the admission test.
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
        let report = simulate(&caps, &flows, &SimConfig::new(0.3, vec![voip.deadline]));
        println!(
            "{alpha:.2} SAFE {} {} {:.2} {:.2} {:.3} {}",
            flows.len(),
            report.total_packets,
            bound * 1e3,
            report.max_delay() * 1e3,
            report.classes[0].mean_delay * 1e3,
            report.total_misses(),
        );
        assert!(
            report.max_delay() <= bound + 0.005,
            "bound violated at alpha {alpha}"
        );
        assert_eq!(report.total_misses(), 0);
    }
    println!("# all simulated maxima below the analytic bounds; zero misses ✓");
}
