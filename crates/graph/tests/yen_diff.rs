//! Differential test for Yen's k-shortest paths: the shipped loop against
//! the textbook one, **edge for edge**.
//!
//! [`reference_yen`] is the loop as it stood before any shortcut — every
//! spur index of every accepted path searched, each search a full
//! [`dijkstra_filtered`] over fresh ban sets. The shipped loop skips
//! searches whose result is provably a duplicate or provably never
//! extracted, reads the result off the destination tree where the tree
//! decides it, and prunes the searches it runs by distance-to-target; none
//! of that may change *which* path comes back at any position, ties included
//! (`graph_props::yen_matches_brute_force` compares weights only). The
//! families below aim at where such a proof breaks first: unit-weight ties,
//! zero-weight edges (pop order inside a plateau), sums that agree to an
//! ulp by different orders (the cuts' margins must keep these searched),
//! parallel edges (edge-wise roots) and edge filters (distances must come
//! from the filtered graph).

use std::collections::HashSet;
use uba_graph::yen::YenWorkspace;
use uba_graph::{dijkstra_filtered, k_shortest_paths_filtered, Digraph, EdgeId, NodeId, Path};
use uba_obs::{check, ensure, SplitMix64};

const CASES: u64 = 64;

/// Yen's algorithm with nothing skipped and nothing shared.
fn reference_yen(
    g: &Digraph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    edge_ok: impl Fn(EdgeId) -> bool,
) -> Vec<Path> {
    if k == 0 || src == dst {
        return Vec::new();
    }
    let Some(first) = dijkstra_filtered(g, src, |_| true, &edge_ok).path_to(g, dst) else {
        return Vec::new();
    };
    let mut accepted = vec![first];
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    while accepted.len() < k {
        let prev = accepted.last().unwrap().clone();
        for i in 0..prev.len() {
            let banned_edges: HashSet<EdgeId> = accepted
                .iter()
                .filter(|p| p.len() > i && p.edges[..i] == prev.edges[..i])
                .map(|p| p.edges[i])
                .collect();
            let banned_nodes: HashSet<NodeId> = prev.nodes[..i].iter().copied().collect();
            let spur = dijkstra_filtered(
                g,
                prev.nodes[i],
                |n| !banned_nodes.contains(&n),
                |e| !banned_edges.contains(&e) && edge_ok(e),
            );
            let Some(spur_path) = spur.path_to(g, dst) else {
                continue;
            };
            let mut edges = prev.edges[..i].to_vec();
            edges.extend_from_slice(&spur_path.edges);
            let seen = |p: &Path| p.edges == edges;
            if !accepted.iter().any(seen) && !candidates.iter().any(|(_, p)| seen(p)) {
                let total = Path::from_edges(g, edges);
                candidates.push((total.weight(g), total));
            }
        }
        let Some(best) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, (wa, pa)), (_, (wb, pb))| {
                wa.total_cmp(wb).then_with(|| pa.edges.cmp(&pb.edges))
            })
            .map(|(i, _)| i)
        else {
            break;
        };
        accepted.push(candidates.swap_remove(best).1);
    }
    accepted
}

/// A random directed multigraph on 2..=12 nodes: a chain of links so most
/// pairs connect, then one-way edges and links with weights from `weight`.
fn arb_graph(rng: &mut SplitMix64, mut weight: impl FnMut(&mut SplitMix64) -> f64) -> Digraph {
    let n = 2 + rng.index(11);
    let mut g = Digraph::with_nodes(n);
    for i in 0..n - 1 {
        if rng.index(8) > 0 {
            g.add_link(NodeId(i as u32), NodeId(i as u32 + 1), weight(rng));
        }
    }
    for _ in 0..rng.index(2 * n + 1) {
        let (a, b) = (rng.index(n) as u32, rng.index(n) as u32);
        if a == b {
            continue;
        }
        if rng.index(2) == 0 {
            g.add_link(NodeId(a), NodeId(b), weight(rng));
        } else {
            g.add_edge(NodeId(a), NodeId(b), weight(rng));
        }
    }
    g
}

fn describe(g: &Digraph) -> String {
    g.edges()
        .map(|e| format!("{}>{}:{}", g.src(e).0, g.dst(e).0, g.weight(e)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every ordered pair of `g` under `edge_ok`: the per-call wrapper, one
/// workspace reused over all pairs and destinations, and the reference
/// must return the same edge lists. Returns the reused workspace's spur
/// searches and tree answers.
fn agree_on_every_pair(
    g: &Digraph,
    k: usize,
    edge_ok: impl Fn(EdgeId) -> bool + Copy,
) -> Result<(u64, u64), String> {
    let mut shared = YenWorkspace::new(g, edge_ok);
    for s in g.nodes() {
        for d in g.nodes() {
            let want = reference_yen(g, s, d, k, edge_ok);
            let got = k_shortest_paths_filtered(g, s, d, k, edge_ok);
            ensure!(
                got == want,
                "{s:?}->{d:?} k={k}: wrapper {got:?}, reference {want:?} on {}",
                describe(g)
            );
            let reused = shared.k_shortest_paths(s, d, k);
            ensure!(
                reused == want,
                "{s:?}->{d:?} k={k}: shared workspace {reused:?}, reference {want:?} on {}",
                describe(g)
            );
        }
    }
    Ok((shared.tallies().0, shared.tree_answered()))
}

#[test]
fn unit_weights() {
    check("yen_diff_unit_weights", CASES, |rng| {
        let g = arb_graph(rng, |_| 1.0);
        agree_on_every_pair(&g, 1 + rng.index(12), |_| true).map(drop)
    });
}

#[test]
fn small_integer_weights_with_zeros() {
    check("yen_diff_small_integer_weights_with_zeros", CASES, |rng| {
        // A third of the edges weigh nothing: plateaus of equal distance
        // in which a node is discovered from one that popped after it.
        let g = arb_graph(rng, |r| {
            if r.index(3) == 0 {
                0.0
            } else {
                r.index(10) as f64
            }
        });
        agree_on_every_pair(&g, 1 + rng.index(12), |_| true).map(drop)
    });
}

#[test]
fn near_ties_in_floating_point() {
    check("yen_diff_near_ties_in_floating_point", CASES, |rng| {
        // Tenths: 0.1 + 0.2 != 0.3 and 0.1 + 0.7 != 0.7 + 0.1 + 0.0…, so
        // paths of equal real weight differ by an ulp depending on the
        // order their edges are summed in.
        let g = arb_graph(rng, |r| [0.1, 0.2, 0.3, 0.4, 0.6, 0.7][r.index(6)]);
        agree_on_every_pair(&g, 1 + rng.index(12), |_| true).map(drop)
    });
}

#[test]
fn parallel_edges() {
    check("yen_diff_parallel_edges", CASES, |rng| {
        let mut g = arb_graph(rng, |r| 1.0 + r.index(3) as f64);
        // Double a random half of the edges, same or another weight.
        for e in g.edges().collect::<Vec<_>>() {
            if rng.index(2) == 0 {
                let w = g.weight(e) + rng.index(2) as f64;
                g.add_edge(g.src(e), g.dst(e), w);
            }
        }
        agree_on_every_pair(&g, 1 + rng.index(12), |_| true).map(drop)
    });
}

#[test]
fn random_edge_filters() {
    check("yen_diff_random_edge_filters", CASES, |rng| {
        let g = arb_graph(rng, |r| r.index(4) as f64);
        let dead: Vec<bool> = g.edges().map(|_| rng.index(4) == 0).collect();
        agree_on_every_pair(&g, 1 + rng.index(12), |e| !dead[e.index()]).map(drop)
    });
}

#[test]
fn distinct_real_weights() {
    let (mut searched, mut answered) = (0, 0);
    check("yen_diff_distinct_real_weights", CASES, |rng| {
        // Ties have probability zero, so most spur paths are unique by far
        // more than the margin and the destination tree spells them out:
        // the suite takes both the tree's answer and the search.
        let g = arb_graph(rng, |r| r.range_f64(0.5, 4.0));
        let (ran, told) = agree_on_every_pair(&g, 1 + rng.index(12), |_| true)?;
        (searched, answered) = (searched + ran, answered + told);
        Ok(())
    });
    assert!(
        answered > searched && searched > 0,
        "{answered} answered, {searched} searched"
    );
}

#[test]
fn more_nodes_than_a_bitset_word() {
    check("yen_diff_more_nodes_than_a_bitset_word", 8, |rng| {
        // 65..=160 nodes: the root and tree-path bitsets span several
        // words. A ring of links with chords, unit or distinct weights.
        let n = 65 + rng.index(96);
        let distinct = rng.index(2) == 0;
        let weight = |r: &mut SplitMix64| if distinct { r.range_f64(0.5, 4.0) } else { 1.0 };
        let mut g = Digraph::with_nodes(n);
        for i in 0..n {
            g.add_link(NodeId(i as u32), NodeId(((i + 1) % n) as u32), weight(rng));
        }
        for _ in 0..n {
            let (a, b) = (rng.index(n) as u32, rng.index(n) as u32);
            if a != b {
                g.add_link(NodeId(a), NodeId(b), weight(rng));
            }
        }
        let mut shared = YenWorkspace::new(&g, |_| true);
        for _ in 0..12 {
            let (s, d) = (NodeId(rng.index(n) as u32), NodeId(rng.index(n) as u32));
            let want = reference_yen(&g, s, d, 8, |_| true);
            ensure!(
                shared.k_shortest_paths(s, d, 8) == want,
                "{s:?}->{d:?} on {n} nodes"
            );
        }
        Ok(())
    });
}

#[test]
fn weights_orders_of_magnitude_apart() {
    check("yen_diff_weights_orders_of_magnitude_apart", CASES, |rng| {
        // 2^55 + 1 + 1 == 2^55 forward, while the tree behind it keeps the
        // 1s apart: a path unique by 1 near the target ties at the spur.
        let g = arb_graph(rng, |r| [1.0, 2.0, (1u64 << 55) as f64][r.index(3)]);
        agree_on_every_pair(&g, 1 + rng.index(12), |_| true).map(drop)
    });
}

/// Sharing one workspace across pairs must not leak one pair's state into
/// the next: a reused workspace and a fresh one per call tally the same
/// searches, pair by pair.
#[test]
fn a_reused_workspace_counts_what_fresh_ones_count() {
    check("yen_diff_reused_workspace_counts", CASES, |rng| {
        let g = arb_graph(rng, |r| r.index(5) as f64);
        let k = 1 + rng.index(12);
        let mut shared = YenWorkspace::new(&g, |_| true);
        let (mut searched, mut skipped) = (0, 0);
        for s in g.nodes() {
            for d in g.nodes() {
                let mut fresh = YenWorkspace::new(&g, |_| true);
                let want = fresh.k_shortest_paths(s, d, k);
                ensure!(shared.k_shortest_paths(s, d, k) == want);
                let (ran, cut) = fresh.tallies();
                searched += ran;
                skipped += cut;
                // Searched or skipped, every spur index of every path the
                // loop deviated from is accounted for.
                let spur_indices: usize = want.iter().take(k - 1).map(Path::len).sum();
                ensure!(
                    ran + cut == spur_indices as u64,
                    "{s:?}->{d:?}: {ran} + {cut} of {spur_indices} spur indices accounted for"
                );
            }
        }
        ensure!(shared.tallies() == (searched, skipped));
        Ok(())
    });
}
