//! Experiment POL — the isolation claim: "the flow is policed to ensure
//! that abnormal behavior of a flow does not affect other flows"
//! (Section 1.1).
//!
//! A verified MCI configuration carries conforming voice flows plus one
//! rogue source that floods at a multiple of its contract. Reported: the
//! conforming flows' worst delay with policing off vs on, against the
//! configuration-time bound.
//!
//! Run with: `cargo run -p uba-bench --release --bin policing`

use uba::admission::UtilizationState;
use uba::delay::fixed_point::{solve_two_class, SolveConfig};
use uba::delay::routeset::{Route, RouteSet};
use uba::prelude::*;
use uba::sim::{simulate, FlowSpec, SimConfig, SourceModel};

fn main() {
    let g = uba::topology::mci();
    let capacity = 2e6;
    let servers = Servers::from_topology(&g, capacity);
    let voip = TrafficClass::voip();
    let alpha = 0.2;
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

    // Conforming fill, through the admission test.
    let caps = vec![capacity; servers.len()];
    let mut flows: Vec<FlowSpec> = UtilizationState::new(&caps, &[alpha])
        .fill_round_robin(&paths, 0, voip.bucket.rate)
        .into_iter()
        .map(|i| FlowSpec {
            class: 0,
            ingress: pairs[i].src.0,
            route: paths[i].edges.iter().map(|e| e.0).collect(),
            source: SourceModel::voip_greedy(0.0),
        })
        .collect();
    let conforming = flows.len();
    // One host goes rogue on its own access line: floods at 100x its
    // contract (the access link clips it at line rate, which already
    // saturates its first-hop server on its own).
    let rogue_route = paths[0].edges.iter().map(|e| e.0).collect::<Vec<_>>();
    flows.push(FlowSpec {
        class: 0,
        ingress: 999, // dedicated access line
        route: rogue_route,
        source: SourceModel::Rogue {
            period: 0.02,
            packet_bits: 640,
            factor: 100.0,
        },
    });

    println!("# POL: MCI (C=2 Mb/s), {conforming} conforming flows + 1 rogue (100x contract)");
    println!(
        "# analytic bound for conforming traffic: {:.2} ms",
        bound * 1e3
    );
    for policed in [false, true] {
        let cfg = SimConfig {
            policers: policed.then(|| vec![(voip.bucket.burst, voip.bucket.rate)]),
            ..SimConfig::new(0.6, vec![voip.deadline])
        };
        let r = simulate(&caps, &flows, &cfg);
        println!(
            "policing {}: max delay {:.2} ms, misses {}, policer drops {}",
            if policed { "ON " } else { "OFF" },
            r.max_delay() * 1e3,
            r.total_misses(),
            r.classes[0].policed_drops,
        );
        if policed {
            assert!(
                r.max_delay() <= bound + 0.005,
                "policed network must stay within the bound"
            );
            assert_eq!(r.total_misses(), 0);
        }
    }
    println!("# with policing, the rogue is clipped to its contract and every guarantee holds.");
}
