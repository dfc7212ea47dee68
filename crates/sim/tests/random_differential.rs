//! Random-instance differential: the paper's promise — a configuration
//! that verifies safe never lets an admitted packet miss its deadline —
//! checked by packet-level simulation on seeded random instances.
//!
//! Each case draws a strongly connected topology (ring, line, star, grid,
//! torus or Waxman, at most 12 routers, C = 1 Mb/s, fan-in from the
//! topology), routes every ordered pair on its shortest path, picks α
//! inside Theorem 4's window and halves it until Figure 2 verification
//! says safe, greedily fills every route to the per-link budget with VoIP
//! flows, and shifts a seeded half of the sources' bursts into
//! `[0, 20 ms)`. A 0.2 s simulation must then show zero deadline misses
//! and a max delay no higher than the analytic bound plus the
//! packetization slack `validate_bound.rs` allows per hop.

mod common;

use common::{greedy_fill, slack};
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::servers::Servers;
use uba_graph::{bfs, Digraph};
use uba_obs::{check, ensure, SplitMix64};
use uba_routing::bounds::utilization_bounds;
use uba_routing::pairs::all_ordered_pairs;
use uba_routing::sp::sp_selection;
use uba_sim::{simulate, FlowSpec, SimConfig, SourceModel};
use uba_topology::{grid, line, ring, star, torus, waxman};
use uba_traffic::{ClassId, TrafficClass};

const CASES: u64 = 24;
const CAPACITY: f64 = 1e6;
const HORIZON: f64 = 0.2;
const MAX_PHASE: f64 = 0.02;

/// A random strongly connected topology of at most 12 routers, named by
/// its family and size.
fn topology(rng: &mut SplitMix64) -> (String, Digraph) {
    match rng.index(6) {
        0 => {
            let n = 3 + rng.index(10);
            (format!("ring({n})"), ring(n))
        }
        1 => {
            let n = 2 + rng.index(11);
            (format!("line({n})"), line(n))
        }
        2 => {
            let spokes = 2 + rng.index(10);
            (format!("star({spokes})"), star(spokes))
        }
        3 => {
            let w = 2 + rng.index(2);
            let h = 2 + rng.index(12 / w - 1);
            (format!("grid({w}, {h})"), grid(w, h))
        }
        4 => {
            let (w, h) = [(3, 3), (3, 4), (4, 3)][rng.index(3)];
            (format!("torus({w}, {h})"), torus(w, h))
        }
        _ => {
            let (n, seed) = (4 + rng.index(9), rng.next_u64());
            (
                format!("waxman({n}, 0.4, 0.5, {seed:#x})"),
                waxman(n, 0.4, 0.5, seed),
            )
        }
    }
}

#[test]
fn verified_random_instances_meet_their_bounds_in_simulation() {
    let voip = TrafficClass::voip();
    let cfg = SolveConfig::default();
    check(
        "verified_random_instances_meet_their_bounds",
        CASES,
        |rng| {
            let (family, g) = topology(rng);
            ensure!(
                bfs::is_strongly_connected(&g),
                "{family} is not strongly connected"
            );
            let servers = Servers::from_topology(&g, CAPACITY);
            let pairs = all_ordered_pairs(&g);
            let paths = sp_selection(&g, &pairs).expect("strongly connected");
            let mut routes = RouteSet::new(g.edge_count());
            for p in &paths {
                routes.push(Route::from_path(ClassId(0), p));
            }
            let diameter = bfs::diameter(&g).expect("non-empty");
            let fan_in = (0..servers.len())
                .map(|k| servers.fan_in_at(k))
                .max()
                .unwrap_or(2);
            let (lb, ub) = utilization_bounds(fan_in.max(2), diameter.max(1), &voip);
            let mut alpha = if ub > lb { rng.range_f64(lb, ub) } else { lb };
            let analysis = loop {
                let analysis = solve_two_class(&servers, &voip, alpha, &routes, &cfg, None);
                if analysis.outcome.is_safe() {
                    break analysis;
                }
                alpha /= 2.0;
                ensure!(alpha > 1e-6, "{family}: nothing verifies safe");
            };
            let bound = analysis.route_delays.iter().copied().fold(0.0, f64::max);

            let counts = greedy_fill(&paths, &servers, alpha, voip.bucket.rate);
            let mut flows = Vec::new();
            for ((pair, path), &n) in pairs.iter().zip(&paths).zip(&counts) {
                for _ in 0..n {
                    let start = if rng.index(2) == 0 {
                        rng.range_f64(0.0, MAX_PHASE)
                    } else {
                        0.0
                    };
                    flows.push(FlowSpec {
                        class: 0,
                        ingress: pair.src.0,
                        route: path.edges.iter().map(|e| e.0).collect(),
                        source: SourceModel::voip_greedy(start),
                    });
                }
            }
            ensure!(
                !flows.is_empty(),
                "{family} at alpha {alpha}: the fill admitted nothing"
            );
            let capacities: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
            let report = simulate(
                &capacities,
                &flows,
                &SimConfig::new(HORIZON, vec![voip.deadline]),
            );
            let allowed = bound + slack(diameter, 640.0, CAPACITY);
            ensure!(
                report.total_misses() == 0 && report.max_delay() <= allowed,
                "{family} at alpha {alpha}, {} flows: {} misses, max delay {} s against \
             bound {bound} s + slack = {allowed} s",
                flows.len(),
                report.total_misses(),
                report.max_delay(),
            );
            Ok(())
        },
    );
}
