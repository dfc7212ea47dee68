//! The guarantee under a fixed attack: Theorem 2's even-split placement.
//!
//! Theorem 2's worst case loads one server evenly from every one of its
//! inputs. The round-robin fill over shortest-path routes never builds
//! that placement, so it is a committed witness,
//! `results/witness/even_split_mci.toml`: on MCI at C = 2 Mb/s and α =
//! 0.30, the server with the largest fan-in, a route into it through each
//! of its inputs, and the 18 flows the admission test takes on them, every
//! source bursting at t = 0. The test replays the file and checks that it
//! still is that placement. The routes must verify safe, admission must
//! take every flow, and the simulation must show zero misses and hold
//! every server to its own bound d_k (and each route to its bound), plus
//! the packetization slack `uba_sim::check_bounds` allows per hop. The
//! busiest server is where the attack bites: its upstream hops are idle,
//! so a route-level check alone would lend it their slack.

use std::collections::HashSet;
use uba::prelude::*;
use uba::sim::{check_bounds, simulate, SimConfig, SourceModel};
use uba_cli::Scenario;

const WITNESS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/witness/even_split_mci.toml"
);
const HORIZON: f64 = 0.1;
/// The highest observed ÷ bound ratio of `random_differential`.
const RANDOM_BEST: f64 = 0.37;

#[test]
fn even_split_into_the_busiest_server_meets_its_bound() {
    let sc = Scenario::from_path(WITNESS).expect("the witness loads");
    let (g, alpha) = (&sc.graph, sc.alphas[0]);
    let (class, first) = &sc.routes[0];
    let (voip, tail) = (sc.classes.get(*class), first.edges[0]);
    let capacity = sc.servers.capacity_at(0);
    let servers = Servers::from_topology(g, capacity);

    // The placement: the server with the largest fan-in, and every route
    // ends there — one from the server's own router, the others each
    // through a distinct input link of it, none a u-turn.
    let busiest = (0..servers.len()).map(|k| servers.fan_in_at(k)).max();
    assert_eq!(Some(servers.fan_in_at(tail.index())), busiest);
    assert!(sc.routes.iter().all(|(_, p)| p.edges.last() == Some(&tail)));
    let inputs: HashSet<EdgeId> = (sc.routes.iter())
        .filter(|(_, p)| p.len() == 2)
        .map(|(_, p)| p.edges[0])
        .collect();
    assert!(sc.routes.iter().all(|(_, p)| p.len() <= 2));
    assert_eq!(inputs.len(), sc.routes.len() - 1, "one route per input");
    assert!(inputs.iter().all(|&e| g.src(e) != g.dst(tail)), "no u-turn");
    assert_eq!(
        sc.routes.len(),
        servers.fan_in_at(tail.index()) - 1,
        "one route per input"
    );
    // An even split of synchronized greedy sources at the class's bucket.
    let mut per_route = vec![0; sc.routes.len()];
    for f in &sc.flows {
        per_route[f.route] += f.count;
        assert!(
            matches!(f.source, SourceModel::GreedyOnOff { burst_bits, rate_bps, start, .. }
                if burst_bits == voip.bucket.burst && rate_bps == voip.bucket.rate && start == 0.0),
            "{:?}",
            f.source
        );
    }
    assert!(
        per_route.iter().all(|&n| n == per_route[0]),
        "{per_route:?}"
    );

    let mut routes = RouteSet::new(g.edge_count());
    for (class, p) in &sc.routes {
        routes.push(Route::from_path(*class, p));
    }
    let analysis = solve_two_class(
        &servers,
        voip,
        alpha,
        &routes,
        &SolveConfig::default(),
        None,
    );
    assert!(analysis.outcome.is_safe(), "{:?}", analysis.outcome);
    let bound = analysis.route_delays.iter().copied().fold(0.0, f64::max);

    let flows = sc
        .admit_flows()
        .expect("admission takes every witness flow");
    // The tail link is full: ⌊αC / ρ⌋ flows.
    let full = (alpha * capacity / voip.bucket.rate).floor() as usize;
    assert_eq!(flows.len(), full);
    let report = simulate(
        &sc.capacities(),
        &flows,
        &SimConfig::new(HORIZON, vec![voip.deadline]),
    );
    let observed = report.max_delay();
    let check = check_bounds(&report, &analysis.delays, &flows, &sc.capacities());
    let worst = check.worst_server.expect("the flows cross servers");
    let k = worst.server.expect("a per-server reading");
    let edge = EdgeId(k as u32);
    println!(
        "even split into server {} (fan-in {}), {} flows over {} routes: observed {:.3} ms, \
         bound {:.3} ms, ratio {:.3} (random_differential's best: {RANDOM_BEST}); \
         worst server {k} ({}→{}): observed {:.3} ms, d_k {:.3} ms, ratio {:.3}",
        tail.0,
        servers.fan_in_at(tail.index()),
        flows.len(),
        sc.routes.len(),
        observed * 1e3,
        bound * 1e3,
        observed / bound,
        g.src(edge).0,
        g.dst(edge).0,
        worst.observed * 1e3,
        worst.bound * 1e3,
        worst.ratio(),
    );
    assert_eq!(report.total_misses(), 0);
    assert_eq!(k, tail.index(), "the attacked server is the worst-loaded");
    assert_eq!(
        check.violation, None,
        "a server or route over its bound + slack"
    );
}
