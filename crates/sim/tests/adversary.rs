//! The guarantee under a fixed attack: Theorem 2's even-split placement.
//!
//! Theorem 2's worst case loads one server evenly from every one of its
//! inputs. The round-robin fill over shortest-path routes never builds
//! that placement, so this test builds it by hand on MCI at C = 2 Mb/s and
//! α = 0.30. It takes the server with the largest fan-in and gives each of
//! its inputs its own routes into it: a two-hop route through each input
//! link (no u-turn), and a one-hop route for the traffic entering at the
//! server's own router. The configuration is exactly those routes. It must
//! verify safe. They are filled through the admission test until the tail
//! link is full, and every source bursts at t = 0. The simulation must show
//! zero misses and stay within the analytic bound plus the packetization
//! slack `validate_bound.rs` allows per hop.

mod common;

use common::slack;
use uba_admission::UtilizationState;
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::servers::Servers;
use uba_graph::Path;
use uba_sim::{simulate, FlowSpec, SimConfig, SourceModel};
use uba_traffic::{ClassId, TrafficClass};

const CAPACITY: f64 = 2e6;
const ALPHA: f64 = 0.30;
const HORIZON: f64 = 0.1;
/// The highest observed ÷ bound ratio of `random_differential`.
const RANDOM_BEST: f64 = 0.37;

#[test]
fn even_split_into_the_busiest_server_meets_its_bound() {
    let g = uba_topology::mci();
    let voip = TrafficClass::voip();
    let servers = Servers::from_topology(&g, CAPACITY);
    let tail = g
        .edges()
        .max_by_key(|&e| servers.fan_in_at(e.index()))
        .expect("MCI has links");
    let (u, v) = (g.src(tail), g.dst(tail));
    let mut paths = vec![Path::from_edges(&g, vec![tail])];
    for &input in g.in_edges(u) {
        if g.src(input) != v {
            paths.push(Path::from_edges(&g, vec![input, tail]));
        }
    }
    assert_eq!(
        paths.len(),
        servers.fan_in_at(tail.index()) - 1,
        "one route per input"
    );

    let mut routes = RouteSet::new(g.edge_count());
    for p in &paths {
        routes.push(Route::from_path(ClassId(0), p));
    }
    let analysis = solve_two_class(
        &servers,
        &voip,
        ALPHA,
        &routes,
        &SolveConfig::default(),
        None,
    );
    assert!(analysis.outcome.is_safe(), "{:?}", analysis.outcome);
    let bound = analysis.route_delays.iter().copied().fold(0.0, f64::max);

    let capacities = vec![CAPACITY; g.edge_count()];
    let state = UtilizationState::new(&capacities, &[ALPHA]);
    let admitted = state.fill_round_robin(&paths, 0, voip.bucket.rate);
    // The tail link is full: ⌊αC / ρ⌋ flows, split evenly over the inputs.
    let full = (ALPHA * CAPACITY / voip.bucket.rate).floor() as usize;
    assert_eq!(admitted.len(), full);
    let flows: Vec<FlowSpec> = admitted
        .iter()
        .map(|&i| FlowSpec {
            class: 0,
            ingress: paths[i].nodes[0].0,
            route: paths[i].edges.iter().map(|e| e.0).collect(),
            source: SourceModel::voip_greedy(0.0),
        })
        .collect();
    let report = simulate(
        &capacities,
        &flows,
        &SimConfig::new(HORIZON, vec![voip.deadline]),
    );
    let observed = report.max_delay();
    println!(
        "even split into server {} (fan-in {}), {} flows over {} routes: observed {:.3} ms, \
         bound {:.3} ms, ratio {:.3} (random_differential's best: {RANDOM_BEST})",
        tail.0,
        servers.fan_in_at(tail.index()),
        flows.len(),
        paths.len(),
        observed * 1e3,
        bound * 1e3,
        observed / bound,
    );
    assert_eq!(report.total_misses(), 0);
    assert!(
        observed <= bound + slack(2, 640.0, CAPACITY),
        "observed {observed} s over bound {bound} s + slack"
    );
}
