//! Exact-count assertions on the process-global solver metrics.
//!
//! Every solve in the process bumps these, and `cargo test` runs a
//! binary's tests on parallel threads, so inside the crate's unit-test
//! binary a sibling's solve lands between the two reads of a delta. This
//! binary holds the one test, so its deltas are exact.

use uba_delay::fixed_point::{solve_two_class, Outcome, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::servers::Servers;
use uba_topology::line;
use uba_traffic::{ClassId, TrafficClass};

#[test]
fn solves_record_iteration_and_divergence_metrics() {
    let m = uba_delay::metrics::solver();
    let (solves0, div0) = (m.iterations.count(), m.divergence.get());
    // A 5-router line with one route along it in each direction
    // (forward edges are the even indices).
    let g = line(5);
    let servers = Servers::uniform(&g, 100e6, 6);
    let mut routes = RouteSet::new(g.edge_count());
    for edges in [vec![0, 2, 4, 6], vec![7, 5, 3, 1]] {
        routes.push(Route {
            class: ClassId(0),
            servers: edges,
        });
    }
    let voip = TrafficClass::voip();
    let ok = solve_two_class(&servers, &voip, 0.3, &routes, &SolveConfig::default(), None);
    assert_eq!(ok.outcome, Outcome::Safe);
    let capped = SolveConfig {
        max_iters: 1,
        ..Default::default()
    };
    solve_two_class(&servers, &voip, 0.3, &routes, &capped, None);
    assert_eq!(m.iterations.count() - solves0, 2);
    assert_eq!(m.divergence.get() - div0, 1);
    assert!(m.seconds.count() >= 2);
    assert!(m.residual.count() >= 2);
}
