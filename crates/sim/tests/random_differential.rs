//! Random-instance differential: the paper's promise — a configuration
//! that verifies safe never lets an admitted packet miss its deadline —
//! checked by packet-level simulation on seeded random instances.
//!
//! Each case draws a strongly connected topology (ring, line, star, grid,
//! torus or Waxman, at most 12 routers, fan-in from the topology), routes
//! every ordered pair on its shortest path, picks α inside Theorem 4's
//! window and halves it until verification says safe, fills every route
//! to the per-link budget round-robin through the admission test
//! (`UtilizationState::fill_round_robin`), and shifts a seeded half of
//! the sources' bursts into `[0, 20 ms)`. A 0.2 s simulation must then
//! show zero deadline misses and a max delay no higher than the analytic
//! bound plus the packetization slack `validate_bound.rs` allows per hop.
//!
//! One arm carries VoIP alone at C = 1 Mb/s under Figure 2 verification
//! (Theorem 3). The other puts VoIP above a 400 kb/s video class at
//! C = 4 Mb/s under Figure 2 verification (Theorem 5), halving both α
//! together, filling one two-class state class by class, and holds each
//! class to its own worst route bound.

mod common;
mod instances;

use common::slack;
use instances::{
    theorem4_alpha, topology, video, CAPACITY, CASES, ONE_CLASS, TWO_CLASS, TWO_CLASS_CAPACITY,
};
use uba_admission::UtilizationState;
use uba_delay::certificate;
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::servers::Servers;
use uba_delay::verify::verify;
use uba_graph::bfs;
use uba_obs::{check, ensure, SplitMix64};
use uba_routing::pairs::all_ordered_pairs;
use uba_routing::sp::sp_selection;
use uba_sim::{simulate, FlowSpec, SimConfig, SourceModel};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

const VIDEO_PACKET_BITS: u64 = 4_000;
const HORIZON: f64 = 0.2;
const MAX_PHASE: f64 = 0.02;

/// A seeded half of the sources start inside `[0, MAX_PHASE)`, the rest
/// at 0.
fn phase(rng: &mut SplitMix64) -> f64 {
    if rng.index(2) == 0 {
        rng.range_f64(0.0, MAX_PHASE)
    } else {
        0.0
    }
}

/// The relative lift from a solver's cells to a certificate witness.
const LIFT: f64 = 1e-9;

/// A safe verdict's lifted cells (`server · classes + class`) pass the
/// independent checker, at `alphas` per class on every server.
fn certified(
    servers: &Servers,
    classes: &ClassSet,
    alphas: &[f64],
    routes: &RouteSet,
    cells: impl Iterator<Item = f64>,
) -> Result<(), String> {
    let d_hat: Vec<f64> = cells.map(|d| d * (1.0 + LIFT)).collect();
    let alpha_cells = alphas.repeat(servers.len());
    certificate::check(servers, classes, &alpha_cells, routes, &d_hat)
        .map_err(|e| format!("a safe verdict the checker refuses: {e:?}"))
}

fn capacities(servers: &Servers) -> Vec<f64> {
    (0..servers.len()).map(|k| servers.capacity_at(k)).collect()
}

#[test]
fn verified_random_instances_meet_their_bounds_in_simulation() {
    let voip = TrafficClass::voip();
    let cfg = SolveConfig::default();
    check(ONE_CLASS, CASES, |rng| {
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
        let mut alpha = theorem4_alpha(rng, &servers, diameter, &voip);
        let analysis = loop {
            let analysis = solve_two_class(&servers, &voip, alpha, &routes, &cfg, None);
            if analysis.outcome.is_safe() {
                break analysis;
            }
            alpha /= 2.0;
            ensure!(alpha > 1e-6, "{family}: nothing verifies safe");
        };
        let voip_only = ClassSet::single(voip.clone());
        certified(
            &servers,
            &voip_only,
            &[alpha],
            &routes,
            analysis.delays.iter().copied(),
        )
        .map_err(|e| format!("{family} at alpha {alpha}: {e}"))?;
        let bound = analysis.route_delays.iter().copied().fold(0.0, f64::max);

        let capacities = capacities(&servers);
        // Each route's flows together, in route order.
        let mut admitted = UtilizationState::new(&capacities, &[alpha]).fill_round_robin(
            &paths,
            0,
            voip.bucket.rate,
        );
        admitted.sort_unstable();
        let flows: Vec<FlowSpec> = admitted
            .into_iter()
            .map(|i| FlowSpec {
                class: 0,
                ingress: pairs[i].src.0,
                route: paths[i].edges.iter().map(|e| e.0).collect(),
                source: SourceModel::voip_greedy(phase(rng)),
            })
            .collect();
        ensure!(
            !flows.is_empty(),
            "{family} at alpha {alpha}: the fill admitted nothing"
        );
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
    });
}

#[test]
fn verified_two_class_instances_meet_their_theorem5_bounds_in_simulation() {
    let voip = TrafficClass::voip();
    let video = video();
    let mut classes = ClassSet::new();
    classes.push(voip.clone());
    classes.push(video.clone());
    let cfg = SolveConfig::default();
    let mut video_cases = 0;
    check(TWO_CLASS, CASES, |rng| {
        let (family, g) = topology(rng);
        ensure!(
            bfs::is_strongly_connected(&g),
            "{family} is not strongly connected"
        );
        let servers = Servers::from_topology(&g, TWO_CLASS_CAPACITY);
        let pairs = all_ordered_pairs(&g);
        let paths = sp_selection(&g, &pairs).expect("strongly connected");
        let mut routes = RouteSet::new(g.edge_count());
        for class in 0..2 {
            for p in &paths {
                routes.push(Route::from_path(ClassId(class), p));
            }
        }
        let diameter = bfs::diameter(&g).expect("non-empty");
        let mut alphas = [&voip, &video].map(|c| theorem4_alpha(rng, &servers, diameter, c));
        let analysis = loop {
            let analysis = verify(&servers, &classes, &alphas, &routes, &cfg);
            if analysis.safe {
                break analysis;
            }
            alphas = alphas.map(|a| a / 2.0);
            ensure!(alphas[0] > 1e-6, "{family}: nothing verifies safe");
        };
        let cells = (0..2 * servers.len()).map(|c| analysis.server_delays[c % 2][c / 2]);
        certified(&servers, &classes, &alphas, &routes, cells)
            .map_err(|e| format!("{family} at alphas {alphas:?}: {e}"))?;
        // Each class's worst route bound.
        let mut bounds = [0.0f64; 2];
        for (route, &delay) in routes.routes().iter().zip(&analysis.route_delays) {
            let c = route.class.index();
            bounds[c] = bounds[c].max(delay);
        }

        let capacities = capacities(&servers);
        let state = UtilizationState::new(&capacities, &alphas);
        let mut flows = Vec::new();
        for (class, spec) in [&voip, &video].into_iter().enumerate() {
            for i in state.fill_round_robin(&paths, class, spec.bucket.rate) {
                let start = phase(rng);
                flows.push(FlowSpec {
                    class,
                    ingress: pairs[i].src.0,
                    route: paths[i].edges.iter().map(|e| e.0).collect(),
                    source: if class == 0 {
                        SourceModel::voip_greedy(start)
                    } else {
                        SourceModel::GreedyOnOff {
                            burst_bits: spec.bucket.burst,
                            rate_bps: spec.bucket.rate,
                            packet_bits: VIDEO_PACKET_BITS,
                            start,
                        }
                    },
                });
            }
        }
        ensure!(
            flows.iter().any(|f| f.class == 0),
            "{family} at alphas {alphas:?}: the fill admitted no voice"
        );
        video_cases += usize::from(flows.iter().any(|f| f.class == 1));
        let report = simulate(
            &capacities,
            &flows,
            &SimConfig::new(HORIZON, vec![voip.deadline, video.deadline]),
        );
        // Per hop, one lower-priority video packet blocks and one
        // packet quantizes.
        let allowed =
            bounds.map(|b| b + slack(diameter, VIDEO_PACKET_BITS as f64, TWO_CLASS_CAPACITY));
        let max_delays = [0, 1].map(|c| report.classes[c].max_delay);
        ensure!(
            report.total_misses() == 0 && (0..2).all(|c| max_delays[c] <= allowed[c]),
            "{family} at alphas {alphas:?}, {} flows: {} misses, max delays {max_delays:?} s \
                 against bounds + slack {allowed:?} s",
            flows.len(),
            report.total_misses(),
        );
        Ok(())
    });
    // A case whose video budget holds no flow tests only the voice class.
    assert!(
        video_cases >= CASES as usize / 2,
        "only {video_cases} of {CASES} cases carry video"
    );
}
