//! Pinned-selection equivalence for the §5.2 heuristic.
//!
//! `select_routes` evaluates each Yen candidate as a borrowed tentative
//! route over the committed set. The digests below were captured at
//! PR 14, which still carried the literal reading of the paper (clone
//! the committed route set, push the candidate, solve it with the dense
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
use uba_graph::{bfs, Digraph};
use uba_routing::{
    all_ordered_pairs, alpha_lower_bound, select_routes, HeuristicConfig, Pair, Selection,
};
use uba_topology::{mci, torus};
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
    for (pair, path) in sel.pairs.iter().zip(&sel.paths) {
        h = fnv(h, pair.src.0 as u64);
        h = fnv(h, pair.dst.0 as u64);
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
