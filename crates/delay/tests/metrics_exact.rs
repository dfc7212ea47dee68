//! Exact-count assertions on the process-global solver metrics.
//!
//! Every solve in the process bumps these, and `cargo test` runs a
//! binary's tests on parallel threads, so inside the crate's unit-test
//! binary a sibling's solve lands between the two reads of a delta. This
//! binary holds the one test, so its deltas are exact.

use uba_delay::fixed_point::{solve_two_class, Outcome, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::servers::Servers;
use uba_obs::EventKind;
use uba_topology::line;
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

#[test]
fn solves_record_iteration_and_divergence_metrics() {
    let m = uba_delay::metrics::solver();
    let (solves0, div0) = (m.iterations.count(), m.divergence.get());
    let (touched0, skipped0) = (m.servers_touched.get(), m.sweeps_skipped.get());
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

    // Forward route only: 4 of the 8 servers carry it. A warm start at
    // twice the two-route fixed point is above this one's, so the first
    // iterate falls; from where that solve ends, none does.
    routes.pop();
    let tr = uba_obs::trace::global();
    tr.set_enabled(true);
    let above: Vec<f64> = ok.delays.iter().map(|d| d * 2.0).collect();
    let cfg = SolveConfig::default();
    let fell = solve_two_class(&servers, &voip, 0.3, &routes, &cfg, Some(&above));
    assert_eq!(fell.outcome, Outcome::Safe);
    let kept = solve_two_class(&servers, &voip, 0.3, &routes, &cfg, Some(&fell.delays));
    tr.set_enabled(false);
    let warm_events: Vec<EventKind> = tr
        .drain()
        .events
        .iter()
        .map(|e| e.kind)
        .filter(|k| matches!(k, EventKind::WarmStartFallback | EventKind::WarmStartAccept))
        .collect();
    assert_eq!(
        warm_events,
        [EventKind::WarmStartFallback, EventKind::WarmStartAccept]
    );

    // The general solver evaluates Theorem 3 at every *used* server once
    // per iteration and rebuilds every `Y_k`: it skips no sweep.
    assert_eq!(
        m.servers_touched.get() - touched0,
        (8 * (ok.iterations + 1) + 4 * (fell.iterations + kept.iterations)) as u64
    );
    assert_eq!(m.sweeps_skipped.get() - skipped0, 0);

    // A multi-class verification is one solve like any other: the forward
    // route in three classes, the backward one in the lowest only — 16 of
    // the 24 (class, server) cells carry a route.
    let mut classes = ClassSet::single(voip);
    for (name, burst, rate, deadline) in [("video", 16e3, 1e6, 0.4), ("bulk", 64e3, 2e6, 1.5)] {
        classes.push(TrafficClass::new(
            name,
            LeakyBucket::new(burst, rate),
            deadline,
        ));
    }
    for class in [1, 2] {
        routes.push(Route {
            class: ClassId(class),
            servers: vec![0, 2, 4, 6],
        });
    }
    routes.push(Route {
        class: ClassId(2),
        servers: vec![7, 5, 3, 1],
    });
    let (solves1, touched1) = (m.iterations.count(), m.servers_touched.get());
    let report = uba_delay::verify(&servers, &classes, &[0.1, 0.2, 0.2], &routes, &cfg);
    assert!(report.safe);
    assert_eq!(m.iterations.count() - solves1, 1);
    assert_eq!(
        m.servers_touched.get() - touched1,
        16 * report.iterations as u64
    );
    assert_eq!(m.sweeps_skipped.get() - skipped0, 0);
}
