//! Pinned-selection equivalence for the §5.2 heuristic.
//!
//! `select_routes` evaluates each Yen candidate against one persistent
//! committed fixed point (`uba_delay::committed::CommittedState`); until
//! ISSUE 16 it solved each as a borrowed tentative route over the
//! committed set. The first three digests below were captured at PR 14,
//! which still carried the literal reading of the paper (clone the
//! committed route set, push the candidate, solve it with the dense
//! sweep) behind a configuration field, and a test asserting the two
//! equal — paths, per-server delays, per-route delays, bit for bit. Run
//! on these three cases, that reference produced exactly these values,
//! so each pinned digest *is* the clone reference's answer; the arm and
//! its test are gone, this table stays. A candidate ranked differently,
//! a warm start changed or a delay moved by one ulp changes at least one
//! digest.
//!
//! Re-pinning is only legitimate for an intended behaviour change: the
//! failure message prints the freshly computed values.

use uba_delay::servers::Servers;
use uba_graph::{bfs, Digraph, NodeId};
use uba_routing::{
    all_ordered_pairs, alpha_lower_bound, max_utilization, select_routes, HeuristicConfig, Pair,
    Selection, SelectionError, Selector,
};
use uba_topology::{mci, ring, torus};
use uba_traffic::TrafficClass;

const CASES: [&str; 3] = [
    "mci/114 pairs @ Theorem-4 lower bound",
    "mci/114 pairs @ 0.45",
    "torus8x8/168 pairs @ 0.2",
];

/// FNV-1a digests of [`Selection`]'s pair order, path edge lists and
/// `route_delays` bit patterns, one per entry of [`CASES`].
const DIGESTS: [u64; 3] = [
    0x7416_9ce3_8225_5be0,
    0xa85d_36ff_d331_3e77,
    0x1cb6_adb5_4e03_7265,
];

fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(sel: &Selection) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (demand, path) in sel.demands.iter().zip(&sel.paths) {
        h = fnv(h, demand.pair.src.0 as u64);
        h = fnv(h, demand.pair.dst.0 as u64);
        h = fnv(h, path.edges.len() as u64);
        for e in &path.edges {
            h = fnv(h, e.index() as u64);
        }
    }
    for rd in &sel.route_delays {
        h = fnv(h, rd.to_bits());
    }
    h
}

fn select(g: &Digraph, fan_in: usize, pairs: &[Pair], alpha: f64) -> Selection {
    let servers = Servers::uniform(g, 100e6, fan_in);
    let sel = select_routes(
        g,
        &servers,
        &TrafficClass::voip(),
        alpha,
        pairs,
        &HeuristicConfig::default(),
    )
    .expect("every pinned case is routable");
    assert_eq!(sel.paths.len(), pairs.len());
    assert_eq!(sel.route_delays.len(), pairs.len());
    sel
}

#[test]
fn selections_match_the_pinned_digests() {
    let voip = TrafficClass::voip();
    let g = mci();
    let mci_pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(3).collect();
    assert_eq!(mci_pairs.len(), 114);
    let lower = alpha_lower_bound(6, bfs::diameter(&g).expect("connected"), &voip);
    let t = torus(8, 8);
    let torus_pairs: Vec<Pair> = all_ordered_pairs(&t).into_iter().step_by(24).collect();
    assert_eq!(torus_pairs.len(), 168);

    let computed = [
        digest(&select(&g, 6, &mci_pairs, lower)),
        digest(&select(&g, 6, &mci_pairs, 0.45)),
        digest(&select(&t, 4, &torus_pairs, 0.2)),
    ];
    let mismatches: Vec<String> = (0..CASES.len())
        .filter(|&i| computed[i] != DIGESTS[i])
        .map(|i| {
            format!(
                "{}: got {:#018x}, pinned {:#018x}",
                CASES[i], computed[i], DIGESTS[i]
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} selection(s) diverged:\n{}\ncomputed: {computed:#018x?}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The cases the three digests above do not reach, captured on the
/// commit before the committed-state evaluator replaced the per-candidate
/// general solve (same method: the values are that commit's answers).
/// Each digest also folds in the per-server `delays`.
const WIDE_CASES: [&str; 3] = [
    "torus8x8/807 pairs @ 0.1 (dependency cycles: a tol-converged committed point)",
    "mci/342 pairs @ 0.5416",
    "ring8/56 pairs @ 0.4",
];

const WIDE_DIGESTS: [u64; 3] = [
    0x51ab_8148_425e_287e,
    0xb29c_abcb_a6d8_70a9,
    0x0755_93cc_118d_0f1b,
];

/// MCI, all 342 pairs @ 0.55: the pair the greedy search gives up on.
const MCI_055_FAILS_AT: (u32, u32) = (9, 12);

/// `max_utilization(Heuristic(default), 0.005)` on MCI, all 342 pairs:
/// every probe as `(α bits, feasible)`, then α\* bits.
const MCI_SEARCH_PROBES: [(u64, bool); 7] = [
    (0x3fd3_3333_3333_3333, true),  // 0.3, Theorem 4's lower bound
    (0x3fdd_188b_ce5f_2306, true),  // 0.4546
    (0x3fe1_059c_0dfa_8d78, true),  // 0.5319
    (0x3fe2_4247_2160_0b72, false), // 0.5706
    (0x3fe1_a3f1_97ad_4c75, false), // 0.5513
    (0x3fe1_54c6_d2d3_ecf6, true),  // 0.5416
    (0x3fe1_7c5c_3540_9cb6, false), // 0.5464
];
/// 0.5415987127047674.
const MCI_SEARCH_ALPHA: u64 = 0x3fe1_54c6_d2d3_ecf6;

fn digest_with_delays(sel: &Selection) -> u64 {
    sel.delays
        .iter()
        .fold(digest(sel), |h, d| fnv(h, d.to_bits()))
}

#[test]
fn wide_selections_match_the_pinned_digests() {
    let g = mci();
    let t = torus(8, 8);
    let r = ring(8);
    let torus_pairs: Vec<Pair> = all_ordered_pairs(&t).into_iter().step_by(5).collect();
    assert_eq!(torus_pairs.len(), 807);
    let computed = [
        digest_with_delays(&select(&t, 4, &torus_pairs, 0.1)),
        digest_with_delays(&select(&g, 6, &all_ordered_pairs(&g), 0.5416)),
        digest_with_delays(&select(&r, 2, &all_ordered_pairs(&r), 0.4)),
    ];
    for i in 0..WIDE_CASES.len() {
        assert_eq!(
            computed[i], WIDE_DIGESTS[i],
            "{} diverged; computed: {computed:#018x?}",
            WIDE_CASES[i]
        );
    }
}

#[test]
fn infeasible_alpha_fails_at_the_pinned_pair() {
    let g = mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let err = select_routes(
        &g,
        &servers,
        &TrafficClass::voip(),
        0.55,
        &all_ordered_pairs(&g),
        &HeuristicConfig::default(),
    )
    .expect_err("0.55 is above MCI's heuristic maximum");
    let (src, dst) = MCI_055_FAILS_AT;
    assert_eq!(
        err,
        SelectionError::NoSafeRoute(Pair {
            src: NodeId(src),
            dst: NodeId(dst)
        })
    );
}

#[test]
fn search_probes_match_the_pinned_sequence() {
    let g = mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let found = max_utilization(
        &g,
        &servers,
        &TrafficClass::voip(),
        &all_ordered_pairs(&g),
        &Selector::Heuristic(HeuristicConfig::default()),
        0.005,
    );
    let probes: Vec<(u64, bool)> = found
        .probes
        .iter()
        .map(|&(a, ok)| (a.to_bits(), ok))
        .collect();
    assert_eq!(probes, MCI_SEARCH_PROBES, "probes: {probes:#x?}");
    assert_eq!(
        found.alpha.to_bits(),
        MCI_SEARCH_ALPHA,
        "alpha* = {} ({:#x})",
        found.alpha,
        found.alpha.to_bits()
    );
}
