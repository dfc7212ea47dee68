//! Pinned digests of the general fixed-point solver.
//!
//! Until ISSUE 17 `solve_two_class` ran a worklist sweep and the dense
//! sweep — Eq. (11)–(14) as written — was the test-only oracle beside
//! it. The tables below were captured on the last commit that carried
//! both (37ba70b), by this file with one more assertion in `solve`:
//! every cell solved by both sweeps and `Outcome`, iteration count,
//! `delays` and `route_delays` equal bit for bit. So each `GRID` and
//! `PUSH_POP` digest is both sweeps' answer; the two `PER_SERVER` ones
//! are the worklist sweep's alone (that commit had no dense entry taking
//! `alphas`), and this file passing is what shows the surviving sweep
//! equal there. The worklist sweep is gone, the tables stay. An iterate
//! moved by one ulp, an iteration more or a different first offending
//! route changes at least one digest.
//!
//! The `MULTICLASS` rows were first the Theorem 5 solver's answers from
//! when it still ran an iteration of its own, held bit for bit by the one
//! loop that replaced it. They were re-pinned once, when Theorem 5 was
//! rewritten without its subtraction (`multiclass.rs`): every outcome and
//! iteration count stayed, every delay moved by at most 6 ulps (1.0e-15
//! relative), and every safe solve certifies (`certify` below).
//!
//! Re-pinning is only legitimate for an intended behaviour change: the
//! failure message prints the freshly computed tables.

use uba_delay::certificate;
use uba_delay::fixed_point::{solve_rule, solve_two_class, Outcome, SolveConfig, SolveResult};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::rule::Theorem5;
use uba_delay::servers::Servers;
use uba_graph::{k_shortest_paths, Digraph, NodeId};
use uba_obs::SplitMix64;
use uba_topology::{line, mci, ring};
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

/// Safe, deadline-violating and divergent regimes, then the four
/// out-of-domain values (`InvalidParams`).
const ALPHAS: [f64; 11] = [
    0.05,
    0.2,
    0.35,
    0.5,
    0.65,
    0.8,
    0.95,
    0.0,
    1.0,
    -1.0,
    f64::NAN,
];

/// One row per entry of `topologies()`, one column per entry of
/// [`ALPHAS`]; a cell folds three solves: cold, warm from half the cold
/// iterate (below the fixed point), warm from twice it with junk on every
/// third unused server (above it).
const GRID: [[u64; 11]; 3] = [
    [
        0x0366_cfcf_9042_3910,
        0x7a5c_e2cd_6568_fc38,
        0x7768_299d_5e9e_21a3,
        0xb207_ddfd_a0c6_862c,
        0xb178_192a_badb_e61a,
        0x1c66_18c9_57e2_bc84,
        0x21de_5750_3db3_5dc0,
        0xbd2b_1b0c_b71e_4e86,
        0xbd2b_1b0c_b71e_4e86,
        0xbd2b_1b0c_b71e_4e86,
        0xbd2b_1b0c_b71e_4e86,
    ],
    [
        0xb848_1f07_bf71_ca24,
        0xcb05_83ba_2820_47d7,
        0x60e7_b859_6291_685f,
        0x071f_4a6a_e291_36b0,
        0xcfbc_88aa_1d07_68a1,
        0x48cc_11df_4f03_9fce,
        0x6950_265d_3833_a242,
        0xbc64_8807_41f7_9f86,
        0xbc64_8807_41f7_9f86,
        0xbc64_8807_41f7_9f86,
        0xbc64_8807_41f7_9f86,
    ],
    [
        0x0024_a291_bc5f_2736,
        0x4918_cf3d_ea9e_fbc7,
        0xd422_0b51_b9fd_70ef,
        0xef4b_f0ff_daf8_b604,
        0xcac4_7f14_dcf1_1cff,
        0x8200_0cb6_6b1f_000b,
        0x2e67_b508_e5bc_f28d,
        0x43d9_a96a_ea0a_73c6,
        0x43d9_a96a_ea0a_73c6,
        0x43d9_a96a_ea0a_73c6,
        0x43d9_a96a_ea0a_73c6,
    ],
];

/// Per topology: grow the route set one route at a time at α = 0.3, each
/// solve warm from the last safe fixed point, then pop half the routes
/// and solve cold — every solve folded.
const PUSH_POP: [u64; 3] = [
    0xaaca_aeb1_3a07_39c4,
    0x31e0_9d9e_c748_1a41,
    0x0fa5_16ee_42d2_43a6,
];

/// Per-server assignments through `solve_rule` under a one-class `Theorem5` on MCI: graded
/// `α_k` cold; the same with NaN on the unused servers, warm from the
/// fixed point under half the assignment.
const PER_SERVER: [u64; 2] = [0xecda_7b6e_49c0_7f71, 0x7284_5e17_f1a3_6f4d];

fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `(Outcome, iterations, delays bits, route_delays bits)`.
fn fold(mut h: u64, r: &SolveResult) -> u64 {
    let (tag, route) = match r.outcome {
        Outcome::Safe => (0, 0),
        Outcome::DeadlineExceeded { route } => (1, route as u64),
        Outcome::IterationLimit => (2, 0),
        Outcome::InvalidParams => (3, 0),
    };
    for word in [tag, route, r.iterations as u64] {
        h = fnv(h, word);
    }
    for x in r.delays.iter().chain(&r.route_delays) {
        h = fnv(h, x.to_bits());
    }
    h
}

/// The relative lift from a solver's cells to a certificate witness.
const LIFT: f64 = 1e-9;

/// A safe verdict's cells, lifted, pass the independent checker.
fn certify(
    servers: &Servers,
    classes: &ClassSet,
    alpha_cells: &[f64],
    routes: &RouteSet,
    r: &SolveResult,
) {
    if !r.outcome.is_safe() {
        return;
    }
    let d_hat: Vec<f64> = r.delays.iter().map(|d| d * (1.0 + LIFT)).collect();
    let got = certificate::check(servers, classes, alpha_cells, routes, &d_hat);
    assert_eq!(got, Ok(()), "a safe verdict the checker refuses");
}

fn solve(servers: &Servers, alpha: f64, routes: &RouteSet, warm: Option<&[f64]>) -> SolveResult {
    let voip = TrafficClass::voip();
    let r = solve_two_class(servers, &voip, alpha, routes, &SolveConfig::default(), warm);
    let alphas = vec![alpha; servers.len()];
    certify(servers, &ClassSet::single(voip), &alphas, routes, &r);
    r
}

fn solve_alphas(
    servers: &Servers,
    alphas: &[f64],
    routes: &RouteSet,
    warm: Option<&[f64]>,
) -> SolveResult {
    let rule = Theorem5::new([&TrafficClass::voip()], alphas.to_vec());
    let r = solve_rule(servers, &rule, routes, &SolveConfig::default(), warm);
    certify(
        servers,
        &ClassSet::single(TrafficClass::voip()),
        alphas,
        routes,
        &r,
    );
    r
}

/// Builds `n_routes` routes between seeded random distinct pairs, each a
/// random choice among the pair's 3 shortest paths, so shapes vary.
fn random_routes(g: &Digraph, n_routes: usize, rng: &mut SplitMix64) -> RouteSet {
    let mut routes = RouteSet::new(g.edge_count());
    let n = g.node_count();
    while routes.len() < n_routes {
        let src = NodeId(rng.index(n) as u32);
        let dst = NodeId(rng.index(n) as u32);
        if src == dst {
            continue;
        }
        let paths = k_shortest_paths(g, src, dst, 3);
        if paths.is_empty() {
            continue;
        }
        let p = &paths[rng.index(paths.len())];
        routes.push(Route::from_path(ClassId(0), p));
    }
    routes
}

fn topologies() -> Vec<(&'static str, Digraph, usize)> {
    vec![
        ("line8", line(8), 10),
        ("ring9", ring(9), 14),
        ("mci", mci(), 40),
    ]
}

fn grid() -> Vec<[u64; 11]> {
    let mut rows = Vec::new();
    for (_, g, n_routes) in topologies() {
        let servers = Servers::uniform(&g, 100e6, 6);
        let mut rng = SplitMix64::new(0xC0FFEE ^ n_routes as u64);
        let routes = random_routes(&g, n_routes, &mut rng);
        let used = routes.used_servers(ClassId(0));
        rows.push(ALPHAS.map(|alpha| {
            let cold = solve(&servers, alpha, &routes, None);
            let below: Vec<f64> = cold.delays.iter().map(|d| d * 0.5).collect();
            let above: Vec<f64> = (0..servers.len())
                .map(|k| match used[k] {
                    false if k % 3 == 0 => 1e-3,
                    _ => cold.delays[k] * 2.0,
                })
                .collect();
            let h = fold(FNV_OFFSET, &cold);
            let h = fold(h, &solve(&servers, alpha, &routes, Some(&below)));
            fold(h, &solve(&servers, alpha, &routes, Some(&above)))
        }));
    }
    rows
}

fn push_pop() -> Vec<u64> {
    let mut digests = Vec::new();
    for (_, g, n_routes) in topologies() {
        let servers = Servers::uniform(&g, 100e6, 6);
        let mut rng = SplitMix64::new(0xFEED ^ n_routes as u64);
        let full = random_routes(&g, n_routes, &mut rng);
        let mut routes = RouteSet::new(g.edge_count());
        let mut warm: Option<Vec<f64>> = None;
        let mut h = FNV_OFFSET;
        for r in full.routes() {
            routes.push(r.clone());
            let grown = solve(&servers, 0.3, &routes, warm.as_deref());
            h = fold(h, &grown);
            if grown.outcome == Outcome::Safe {
                warm = Some(grown.delays);
            }
        }
        for _ in 0..routes.len() / 2 {
            routes.pop();
        }
        digests.push(fold(h, &solve(&servers, 0.3, &routes, None)));
    }
    digests
}

fn per_server() -> Vec<u64> {
    let g = mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let routes = random_routes(&g, 40, &mut SplitMix64::new(0xA1FA5));
    let used = routes.used_servers(ClassId(0));
    assert!(used.contains(&false), "case 2 needs an unused server");
    let graded: Vec<f64> = (0..servers.len())
        .map(|k| 0.15 + 0.05 * (k % 6) as f64)
        .collect();
    let cold = solve_alphas(&servers, &graded, &routes, None);
    assert_eq!(cold.outcome, Outcome::Safe);

    let halved: Vec<f64> = graded.iter().map(|a| a * 0.5).collect();
    let small = solve_alphas(&servers, &halved, &routes, None);
    let holes: Vec<f64> = (0..servers.len())
        .map(|k| if used[k] { graded[k] } else { f64::NAN })
        .collect();
    let warm = solve_alphas(&servers, &holes, &routes, Some(&small.delays));
    assert_eq!(warm.outcome, Outcome::Safe);
    vec![fold(FNV_OFFSET, &cold), fold(FNV_OFFSET, &warm)]
}

#[test]
fn general_solver_matches_the_pinned_digests() {
    let (grid, push_pop, per_server) = (grid(), push_pop(), per_server());
    let mut mismatches = Vec::new();
    for (row, (name, ..)) in topologies().iter().enumerate() {
        for (col, alpha) in ALPHAS.iter().enumerate() {
            if grid[row][col] != GRID[row][col] {
                mismatches.push(format!("grid: {name} @ {alpha}"));
            }
        }
        if push_pop[row] != PUSH_POP[row] {
            mismatches.push(format!("push/pop: {name}"));
        }
    }
    for case in (0..2).filter(|&i| per_server[i] != PER_SERVER[i]) {
        mismatches.push(format!("per-server case {case}"));
    }
    assert!(
        mismatches.is_empty(),
        "{} cell(s) diverged:\n{}\nGRID: {grid:#018x?}\nPUSH_POP: {push_pop:#018x?}\n\
         PER_SERVER: {per_server:#018x?}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// Theorem 5 through `solve_rule`: 45 random routes on MCI dealt to
/// three classes, 16 on ring9 dealt to two. A cell folds four solves:
/// cold, warm from half the cold iterate, warm from 1.5 times it, and warm
/// from the cold iterate of the same routes at half the utilizations.
const MULTICLASS_CASES: [(&str, &[f64]); 8] = [
    ("mci low", &[0.02, 0.06, 0.06]),
    ("mci high", &[0.09, 0.27, 0.27]),
    ("mci past a deadline", &[0.1, 0.3, 0.3]),
    ("mci oversubscribed", &[0.3, 0.4, 0.4]),
    ("mci negative share", &[0.1, -0.1, 0.1]),
    ("ring9 low", &[0.05, 0.05]),
    ("ring9 high", &[0.15, 0.1]),
    ("ring9 past a deadline", &[0.3, 0.2]),
];

const MULTICLASS: [u64; 8] = [
    0xa5bd_3ad7_dda8_683e,
    0x7a09_f66b_f856_3f86,
    0x8e08_75a0_03f8_2dcf,
    0x45bf_33e3_6307_6225,
    0x45bf_33e3_6307_6225,
    0xf52e_5b4e_ee4a_8ca9,
    0xbfdb_cce8_a48f_1c1e,
    0x555b_bf4d_576c_6af6,
];

/// `mci high` again under `max_iters = 3`: `IterationLimit`.
const MULTICLASS_CAPPED: u64 = 0xe81d_3c92_f654_8035;

/// Outcome, iterations, the `nc` classes' delays class by class (each
/// class's cells in server order), then the route delays.
fn fold_multi(mut h: u64, r: &SolveResult, nc: usize) -> u64 {
    let (tag, route) = match r.outcome {
        Outcome::Safe => (0, 0),
        Outcome::DeadlineExceeded { route } => (1, route as u64),
        Outcome::IterationLimit => (2, 0),
        Outcome::InvalidParams => (3, 0),
    };
    for word in [tag, route, r.iterations as u64, nc as u64] {
        h = fnv(h, word);
    }
    let by_class = (0..nc).flat_map(|c| r.delays.iter().skip(c).step_by(nc));
    for x in by_class.chain(&r.route_delays) {
        h = fnv(h, x.to_bits());
    }
    h
}

fn three_classes() -> ClassSet {
    let mut set = ClassSet::new();
    set.push(TrafficClass::voip());
    set.push(TrafficClass::new(
        "video",
        LeakyBucket::new(64_000.0, 2_000_000.0),
        0.3,
    ));
    set.push(TrafficClass::new(
        "bulk-rt",
        LeakyBucket::new(256_000.0, 5_000_000.0),
        1.0,
    ));
    set
}

/// `random_routes`, class `i mod nc` on the `i`-th.
fn dealt_routes(g: &Digraph, n_routes: usize, nc: usize, seed: u64) -> RouteSet {
    let plain = random_routes(g, n_routes, &mut SplitMix64::new(seed));
    let mut routes = RouteSet::new(g.edge_count());
    for (i, r) in plain.routes().iter().enumerate() {
        routes.push(Route {
            class: ClassId(i % nc),
            servers: r.servers.clone(),
        });
    }
    routes
}

fn multiclass() -> (Vec<u64>, u64, Vec<Outcome>) {
    let (mci, ring9) = (mci(), ring(9));
    let mci_servers = Servers::uniform(&mci, 100e6, 6);
    let ring_servers = Servers::uniform(&ring9, 100e6, 6);
    let mci_routes = dealt_routes(&mci, 45, 3, 0x5C1A55);
    let ring_routes = dealt_routes(&ring9, 16, 2, 0x2C1A55);
    let three = three_classes();
    let mut two = ClassSet::new();
    for (_, class) in three.iter().take(2) {
        two.push(class.clone());
    }
    let cfg = SolveConfig::default();
    let mut outcomes = Vec::new();
    let digests = MULTICLASS_CASES
        .iter()
        .map(|(_, alphas)| {
            let (servers, classes, routes) = match alphas.len() {
                3 => (&mci_servers, &three, &mci_routes),
                _ => (&ring_servers, &two, &ring_routes),
            };
            let nc = classes.len();
            let solve = |alphas: &[f64], warm: Option<&[f64]>| {
                let cells = alphas.repeat(servers.len());
                let rule = Theorem5::new(classes.iter().map(|(_, c)| c), cells.clone());
                let r = solve_rule(servers, &rule, routes, &cfg, warm);
                certify(servers, classes, &cells, routes, &r);
                r
            };
            // Scaling each cell is scaling each class's row: the same
            // warm start, already in the layout the solver takes.
            let scaled = |d: &[f64], f: f64| -> Vec<f64> { d.iter().map(|x| x * f).collect() };
            let cold = solve(alphas, None);
            outcomes.push(cold.outcome);
            let halved: Vec<f64> = alphas.iter().map(|a| a * 0.5).collect();
            let smaller = solve(&halved, None);
            let mut h = fold_multi(FNV_OFFSET, &cold, nc);
            h = fold_multi(h, &solve(alphas, Some(&scaled(&cold.delays, 0.5))), nc);
            h = fold_multi(h, &solve(alphas, Some(&scaled(&cold.delays, 1.5))), nc);
            fold_multi(h, &solve(alphas, Some(&smaller.delays)), nc)
        })
        .collect();
    let capped = SolveConfig {
        max_iters: 3,
        ..cfg
    };
    let cells = MULTICLASS_CASES[1].1.repeat(mci_servers.len());
    let rule = Theorem5::new(three.iter().map(|(_, c)| c), cells);
    let limit = solve_rule(&mci_servers, &rule, &mci_routes, &capped, None);
    outcomes.push(limit.outcome);
    (
        digests,
        fold_multi(FNV_OFFSET, &limit, three.len()),
        outcomes,
    )
}

#[test]
fn multiclass_solver_matches_the_pinned_digests() {
    let (digests, capped, outcomes) = multiclass();
    // The regimes the rows are named for.
    use Outcome::{DeadlineExceeded, InvalidParams, IterationLimit, Safe};
    assert!(
        matches!(
            outcomes[..],
            [
                Safe,
                Safe,
                DeadlineExceeded { .. },
                InvalidParams,
                InvalidParams,
                Safe,
                Safe,
                DeadlineExceeded { .. },
                IterationLimit
            ]
        ),
        "{outcomes:?}"
    );
    let diverged: Vec<&str> = (0..MULTICLASS.len())
        .filter(|&i| digests[i] != MULTICLASS[i])
        .map(|i| MULTICLASS_CASES[i].0)
        .collect();
    assert!(
        diverged.is_empty() && capped == MULTICLASS_CAPPED,
        "diverged: {diverged:?}\nMULTICLASS: {digests:#018x?}\nMULTICLASS_CAPPED: {capped:#018x}"
    );
}
