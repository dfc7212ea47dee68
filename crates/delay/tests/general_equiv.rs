//! Pinned digests of the flow-aware general analysis (Eq. 3 / Eq. 24).
//!
//! Captured while `uba_delay::general` still carried two bodies: the
//! single-class `analyze_flows` and the class-generic
//! `analyze_flows_multiclass`. Every one-class cell below was run through
//! both and the two answers folded to the same digest, so each one-class
//! entry is both bodies' answer and the two- and three-class entries are
//! the class-generic body's. A cell folds the outcome (with its flow or
//! server index), the iteration count, every per-class per-server delay
//! and every per-flow delay, bit for bit. An iterate moved by one ulp, an
//! iteration more or a different first offending flow changes the digest.
//! The single-class body is gone; the one `analyze_flows` left must
//! return every entry.
//!
//! Re-pinning is only legitimate for an intended behaviour change: the
//! failure message prints the freshly computed table.

use uba_delay::general::{analyze_flows, Flow, GeneralOutcome};
use uba_delay::servers::Servers;
use uba_graph::{k_shortest_paths, Digraph, NodeId};
use uba_obs::SplitMix64;
use uba_topology::{ring, torus, waxman};
use uba_traffic::{LeakyBucket, TrafficClass};

/// One placement: a topology, a link capacity, `flows` routes between
/// seeded random pairs dealt round-robin to `classes` classes, every
/// deadline scaled by `deadline_scale`, and the analysis's `tol` and
/// `max_iters`.
struct Cell {
    name: &'static str,
    topology: fn() -> Digraph,
    capacity: f64,
    flows: usize,
    classes: usize,
    deadline_scale: f64,
    tol: f64,
    max_iters: usize,
}

const fn cell(
    name: &'static str,
    topology: fn() -> Digraph,
    capacity: f64,
    flows: usize,
    classes: usize,
) -> Cell {
    Cell {
        name,
        topology,
        capacity,
        flows,
        classes,
        deadline_scale: 1.0,
        tol: 1e-12,
        max_iters: 1000,
    }
}

fn waxman14() -> Digraph {
    waxman(14, 0.4, 0.5, 7)
}

fn waxman20() -> Digraph {
    waxman(20, 0.4, 0.5, 11)
}

fn ring8() -> Digraph {
    ring(8)
}

fn torus4() -> Digraph {
    torus(4, 4)
}

const CELLS: [Cell; 18] = [
    cell("waxman14 1c", waxman14, 10e6, 80, 1),
    cell("waxman20 1c", waxman20, 10e6, 120, 1),
    cell("ring8 1c", ring8, 5e6, 60, 1),
    cell("torus4 1c", torus4, 5e6, 90, 1),
    Cell {
        deadline_scale: 1e-3,
        ..cell("waxman14 1c past a deadline", waxman14, 2e6, 80, 1)
    },
    cell("ring8 1c unstable", ring8, 1e6, 200, 1),
    Cell {
        max_iters: 2,
        ..cell("torus4 1c capped", torus4, 2e6, 90, 1)
    },
    Cell {
        tol: 1e-6,
        ..cell("waxman20 1c loose", waxman20, 10e6, 120, 1)
    },
    cell("waxman14 2c", waxman14, 50e6, 80, 2),
    cell("ring8 2c", ring8, 50e6, 40, 2),
    cell("torus4 2c", torus4, 50e6, 90, 2),
    cell("ring8 2c unstable", ring8, 10e6, 80, 2),
    cell("waxman14 3c", waxman14, 100e6, 90, 3),
    cell("waxman20 3c", waxman20, 100e6, 120, 3),
    cell("ring8 3c", ring8, 100e6, 48, 3),
    cell("torus4 3c", torus4, 100e6, 90, 3),
    Cell {
        deadline_scale: 1e-3,
        ..cell("torus4 3c past a deadline", torus4, 100e6, 90, 3)
    },
    Cell {
        max_iters: 2,
        ..cell("waxman20 3c capped", waxman20, 100e6, 120, 3)
    },
];

const DIGESTS: [u64; 18] = [
    0x3ac8_1cd0_ef1e_0bce,
    0xf1f9_4ea7_cd32_9056,
    0x525f_179e_f769_bebc,
    0x398a_661b_5e5c_9148,
    0x31a6_efdf_2656_bea3,
    0x5e2a_9964_e165_ce86,
    0x7b8f_b90d_d781_ab20,
    0xb6fd_6d09_5dd3_147f,
    0x5d8d_20ca_fc13_bb9c,
    0x7105_2010_a37e_016b,
    0x6d75_40e7_63c0_fbb6,
    0x9c63_87d7_f68d_e865,
    0x2996_9bbb_d168_1900,
    0x3b5d_fc26_7a94_0654,
    0xa26b_980a_abf5_ebd7,
    0x64f3_5923_048d_31fe,
    0x4750_fe45_19b5_04fc,
    0xe9d0_81f3_6f03_a31a,
];

fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `(outcome, iterations, delays[class][server] bits, flow delay
/// bits)`; `rows` is the number of per-class delay rows.
fn fold<'a>(
    outcome: GeneralOutcome,
    iterations: usize,
    rows: usize,
    delays: impl Iterator<Item = &'a f64>,
    flow_delays: &'a [f64],
) -> u64 {
    let (tag, index) = match outcome {
        GeneralOutcome::Feasible => (0, 0),
        GeneralOutcome::DeadlineExceeded { flow } => (1, flow as u64),
        GeneralOutcome::Unstable { server } => (2, server as u64),
        GeneralOutcome::IterationLimit => (3, 0),
    };
    let mut h = FNV_OFFSET;
    for word in [tag, index, iterations as u64, rows as u64] {
        h = fnv(h, word);
    }
    for x in delays.chain(flow_delays) {
        h = fnv(h, x.to_bits());
    }
    h
}

/// Voice, video and bulk real-time, highest priority first.
fn class_profiles() -> [TrafficClass; 3] {
    [
        TrafficClass::voip(),
        TrafficClass::new("video", LeakyBucket::new(64_000.0, 2_000_000.0), 0.3),
        TrafficClass::new("bulk-rt", LeakyBucket::new(256_000.0, 5_000_000.0), 1.0),
    ]
}

/// The cell's flows: route `i` is a seeded random choice among its pair's
/// three shortest paths, in class `i mod classes`.
fn placement(c: &Cell, g: &Digraph) -> Vec<Flow> {
    let profiles = class_profiles();
    let mut rng = SplitMix64::new(0x06E4_E4A1 ^ c.flows as u64);
    let n = g.node_count();
    let mut flows = Vec::with_capacity(c.flows);
    while flows.len() < c.flows {
        let src = NodeId(rng.index(n) as u32);
        let dst = NodeId(rng.index(n) as u32);
        if src == dst {
            continue;
        }
        let paths = k_shortest_paths(g, src, dst, 3);
        if paths.is_empty() {
            continue;
        }
        let path = &paths[rng.index(paths.len())];
        let class = flows.len() % c.classes;
        let profile = &profiles[class];
        flows.push(Flow {
            class,
            bucket: profile.bucket,
            deadline: profile.deadline * c.deadline_scale,
            servers: path.edges.iter().map(|e| e.0).collect(),
        });
    }
    flows
}

/// The cell's digest and outcome.
fn digest(c: &Cell) -> (u64, GeneralOutcome) {
    let g = (c.topology)();
    let servers = Servers::from_topology(&g, c.capacity);
    let flows = placement(c, &g);
    let r = analyze_flows(&servers, &flows, c.classes, c.tol, c.max_iters);
    let h = fold(
        r.outcome,
        r.iterations,
        r.delays.len(),
        r.delays.iter().flatten(),
        &r.flow_delays,
    );
    (h, r.outcome)
}

#[test]
fn general_analysis_matches_the_pinned_digests() {
    let (digests, outcomes): (Vec<u64>, Vec<GeneralOutcome>) = CELLS.iter().map(digest).unzip();
    // The regimes the rows are named for.
    use GeneralOutcome::{DeadlineExceeded, Feasible, IterationLimit, Unstable};
    assert!(
        matches!(
            outcomes[..],
            [
                Feasible,
                Feasible,
                Feasible,
                Feasible,
                DeadlineExceeded { .. },
                Unstable { .. },
                IterationLimit,
                Feasible,
                Feasible,
                Feasible,
                Feasible,
                Unstable { .. },
                Feasible,
                Feasible,
                Feasible,
                Feasible,
                DeadlineExceeded { .. },
                IterationLimit
            ]
        ),
        "{outcomes:?}"
    );
    let diverged: Vec<&str> = (0..CELLS.len())
        .filter(|&i| digests[i] != DIGESTS[i])
        .map(|i| CELLS[i].name)
        .collect();
    assert!(
        diverged.is_empty(),
        "diverged: {diverged:?}\noutcomes: {outcomes:?}\nDIGESTS: {digests:#018x?}"
    );
}
