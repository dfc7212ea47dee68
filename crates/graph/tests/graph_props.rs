//! Property tests pinning the graph algorithms against brute-force
//! references on small random graphs (`uba_obs::check`: 64 seeded cases
//! per property, the same every run).

use std::collections::HashSet;
use uba_graph::{bfs, dijkstra, k_shortest_paths, Digraph, EdgeId, NodeId, Path};
use uba_obs::{check, ensure, SplitMix64};

const CASES: u64 = 64;

/// Random connected-ish undirected graph on up to 7 nodes.
fn arb_graph(rng: &mut SplitMix64) -> Digraph {
    let n = 2 + rng.index(5);
    let mut g = Digraph::with_nodes(n);
    // Spanning chain guarantees connectivity.
    for i in 0..n - 1 {
        g.add_link(NodeId(i as u32), NodeId(i as u32 + 1), 1.0);
    }
    let mut seen = HashSet::new();
    for _ in 0..4 + rng.index(12) {
        let (a, b, w) = (rng.index(7) % n, rng.index(7) % n, 1 + rng.index(9));
        if a != b && seen.insert((a.min(b), a.max(b))) {
            g.add_link(NodeId(a as u32), NodeId(b as u32), w as f64);
        }
    }
    g
}

/// All simple paths from src to dst by exhaustive DFS.
fn brute_force_paths(g: &Digraph, src: NodeId, dst: NodeId) -> Vec<Path> {
    fn dfs(
        g: &Digraph,
        cur: NodeId,
        dst: NodeId,
        visited: &mut Vec<bool>,
        stack: &mut Vec<EdgeId>,
        out: &mut Vec<Path>,
    ) {
        if cur == dst {
            out.push(Path::from_edges(g, stack.clone()));
            return;
        }
        for &e in g.out_edges(cur) {
            let v = g.dst(e);
            if !visited[v.index()] {
                visited[v.index()] = true;
                stack.push(e);
                dfs(g, v, dst, visited, stack, out);
                stack.pop();
                visited[v.index()] = false;
            }
        }
    }
    let mut visited = vec![false; g.node_count()];
    visited[src.index()] = true;
    let mut out = Vec::new();
    dfs(g, src, dst, &mut visited, &mut Vec::new(), &mut out);
    out
}

/// Floyd–Warshall reference distances.
fn floyd_warshall(g: &Digraph) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for e in g.edges() {
        let (a, b) = (g.src(e).index(), g.dst(e).index());
        d[a][b] = d[a][b].min(g.weight(e));
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if d[i][k] + d[k][j] < d[i][j] {
                    d[i][j] = d[i][k] + d[k][j];
                }
            }
        }
    }
    d
}

#[test]
fn dijkstra_matches_floyd_warshall() {
    check("dijkstra_matches_floyd_warshall", CASES, |rng| {
        let g = arb_graph(rng);
        let fw = floyd_warshall(&g);
        for s in g.nodes() {
            let sp = dijkstra::dijkstra(&g, s);
            for t in g.nodes() {
                let a = sp.dist(t);
                let b = fw[s.index()][t.index()];
                ensure!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "dist({s:?},{t:?}): dijkstra {a}, fw {b}"
                );
            }
        }
        Ok(())
    });
}

/// Yen's first `k` paths from the first to the last node against every
/// simple path, sorted by weight.
fn yen_agrees_with_brute_force(g: &Digraph, k: usize) -> Result<(), String> {
    let (src, dst) = (NodeId(0), NodeId((g.node_count() - 1) as u32));
    let yen = k_shortest_paths(g, src, dst, k);
    let mut brute = brute_force_paths(g, src, dst);
    brute.sort_by(|a, b| a.weight(g).total_cmp(&b.weight(g)));
    ensure!(yen.len() == brute.len().min(k));
    // Weights agree position by position (paths may tie arbitrarily).
    for (y, b) in yen.iter().zip(&brute) {
        ensure!(
            (y.weight(g) - b.weight(g)).abs() <= 1e-9,
            "weights diverge: {} vs {}",
            y.weight(g),
            b.weight(g)
        );
    }
    // Yen's paths are simple, distinct, and genuinely in the graph.
    let mut seen = HashSet::new();
    for p in &yen {
        ensure!(p.is_simple());
        ensure!(seen.insert(p.edges.clone()));
    }
    Ok(())
}

#[test]
fn yen_matches_brute_force() {
    check("yen_matches_brute_force", CASES, |rng| {
        let g = arb_graph(rng);
        let k = 1 + rng.index(11);
        yen_agrees_with_brute_force(&g, k)
    });
}

/// The one failure this suite's recorded-regressions file held when it
/// ran on an external property-testing crate, kept as a plain case: a
/// 3-node chain whose two links are both doubled (parallel edges in
/// both directions), `k = 4`.
#[test]
fn yen_matches_brute_force_on_doubled_links() {
    let mut g = Digraph::with_nodes(3);
    for (a, b) in [(0, 1), (1, 2), (2, 1), (0, 1)] {
        g.add_link(NodeId(a), NodeId(b), 1.0);
    }
    yen_agrees_with_brute_force(&g, 4).unwrap();
}

#[test]
fn undirected_hop_distances_symmetric() {
    check("undirected_hop_distances_symmetric", CASES, |rng| {
        let g = arb_graph(rng);
        for a in g.nodes() {
            let da = bfs::hop_distances(&g, a);
            for b in g.nodes() {
                let db = bfs::hop_distances(&g, b);
                ensure!(da[b.index()] == db[a.index()]);
            }
        }
        Ok(())
    });
}

#[test]
fn diameter_is_max_of_eccentricities() {
    check("diameter_is_max_of_eccentricities", CASES, |rng| {
        let g = arb_graph(rng);
        let diam = bfs::diameter(&g).expect("connected by construction");
        let max_ecc = g
            .nodes()
            .map(|n| bfs::eccentricity(&g, n).unwrap())
            .max()
            .unwrap();
        ensure!(diam == max_ecc, "{diam} vs {max_ecc}");
        Ok(())
    });
}
