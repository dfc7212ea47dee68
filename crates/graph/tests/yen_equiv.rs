//! Pinned-output equivalence for Yen's k-shortest paths.
//!
//! `k_shortest_paths_filtered` skips the spur searches a
//! distance-to-target tree proves unnecessary and prunes the rest. The
//! digests below were captured when every spur search was a full
//! `dijkstra_filtered` with fresh `HashSet` bans — so they pin the
//! exact candidate lists, order and tie-breaks included, that the §5.2
//! heuristic has always been fed. A candidate that moves, is dropped or
//! changes one edge changes a digest. Each case runs through both entry
//! points: a workspace per call, and one workspace for all its pairs.

use uba_graph::yen::YenWorkspace;
use uba_graph::{k_shortest_paths, k_shortest_paths_filtered, Digraph, EdgeId, NodeId, Path};
use uba_topology::{mci, nsfnet, torus, waxman};

const CASES: [&str; 5] = [
    "mci, all ordered pairs, k = 8",
    "nsfnet, all ordered pairs, k = 8",
    "waxman20, all ordered pairs, k = 8",
    "torus8x8, every 7th ordered pair, k = 8",
    "mci, all ordered pairs, k = 8, link n0-n3 banned both ways",
];

const DIGESTS: [u64; 5] = [
    0xa9ca_7d56_78f3_c5dd,
    0x0669_de96_3715_6b84,
    0x69ba_c06d_22c6_fb3b,
    0x4d3f_2c46_e140_4cdd,
    0x0f14_3ead_ba46_58b3,
];

fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds every pair's candidate list — count, then each path's length
/// and edge ids in order — into one digest.
fn digest(g: &Digraph, step: usize, mut yen: impl FnMut(NodeId, NodeId) -> Vec<Path>) -> u64 {
    let pairs = g
        .nodes()
        .flat_map(|s| g.nodes().map(move |d| (s, d)))
        .filter(|(s, d)| s != d);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (s, d) in pairs.step_by(step) {
        let paths = yen(s, d);
        h = fnv(h, paths.len() as u64);
        for p in &paths {
            assert_eq!(p.source(), Some(s));
            assert_eq!(p.target(), Some(d));
            h = fnv(h, p.edges.len() as u64);
            for e in &p.edges {
                h = fnv(h, e.index() as u64);
            }
        }
    }
    h
}

#[test]
fn candidate_lists_match_the_pinned_digests() {
    let m = mci();
    let banned: Vec<EdgeId> = m
        .edges()
        .filter(|&e| {
            let (a, b) = (m.src(e).0, m.dst(e).0);
            (a, b) == (0, 3) || (a, b) == (3, 0)
        })
        .collect();
    assert_eq!(banned.len(), 2, "MCI has the n0-n3 diagonal");
    let n = nsfnet();
    let w = waxman(20, 0.4, 0.5, 11);
    let t = torus(8, 8);
    let computed = [
        digest(&m, 1, |s, d| k_shortest_paths(&m, s, d, 8)),
        digest(&n, 1, |s, d| k_shortest_paths(&n, s, d, 8)),
        digest(&w, 1, |s, d| k_shortest_paths(&w, s, d, 8)),
        digest(&t, 7, |s, d| k_shortest_paths(&t, s, d, 8)),
        digest(&m, 1, |s, d| {
            let paths = k_shortest_paths_filtered(&m, s, d, 8, |e| !banned.contains(&e));
            assert!(paths
                .iter()
                .all(|p| p.edges.iter().all(|e| !banned.contains(e))));
            paths
        }),
    ];
    let shared = |g: &Digraph, step: usize, edge_ok: &dyn Fn(EdgeId) -> bool| {
        let mut yen = YenWorkspace::new(g, edge_ok);
        digest(g, step, |s, d| yen.k_shortest_paths(s, d, 8))
    };
    let reused = [
        shared(&m, 1, &|_| true),
        shared(&n, 1, &|_| true),
        shared(&w, 1, &|_| true),
        shared(&t, 7, &|_| true),
        shared(&m, 1, &|e| !banned.contains(&e)),
    ];
    for i in 0..CASES.len() {
        assert_eq!(
            computed[i], DIGESTS[i],
            "{} diverged; computed: {computed:#018x?}",
            CASES[i]
        );
        assert_eq!(
            reused[i], DIGESTS[i],
            "{} diverged on a shared workspace; computed: {reused:#018x?}",
            CASES[i]
        );
    }
}
