//! Yen's algorithm for the k shortest loopless paths.
//!
//! The Section 5.2 route-selection heuristic needs, for every
//! source/destination pair, "a group of candidate routes" to choose among.
//! We generate those candidates as the k shortest simple paths by weight.

use crate::digraph::{Digraph, EdgeId, NodeId, Path};
use crate::dijkstra::HeapEntry;
use std::collections::BinaryHeap;

/// Computes up to `k` shortest loopless paths from `src` to `dst`, in
/// non-decreasing order of total weight.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// simple paths. Returns an empty vector when `dst` is unreachable or
/// `src == dst`.
///
/// # Examples
/// ```
/// use uba_graph::{Digraph, NodeId, k_shortest_paths};
/// // A triangle: direct link plus a two-hop detour.
/// let mut g = Digraph::with_nodes(3);
/// g.add_link(NodeId(0), NodeId(1), 1.0);
/// g.add_link(NodeId(1), NodeId(2), 1.0);
/// g.add_link(NodeId(0), NodeId(2), 1.0);
/// let paths = k_shortest_paths(&g, NodeId(0), NodeId(2), 5);
/// assert_eq!(paths.len(), 2);
/// assert_eq!(paths[0].len(), 1);
/// assert_eq!(paths[1].len(), 2);
/// ```
pub fn k_shortest_paths(g: &Digraph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    k_shortest_paths_filtered(g, src, dst, k, |_| true)
}

/// One call's worth of spur-search state: Dijkstra's arrays, its heap and
/// the two ban masks, allocated once and reused by every spur search.
///
/// A search is [`dijkstra_filtered`](crate::dijkstra::dijkstra_filtered)
/// step for step — same heap entries, same strict relaxation — except that it stops when the target settles: by then the
/// target's predecessor chain runs through settled nodes only and can no
/// longer change, so the path is the one the full search would return.
struct SpurSearch {
    dist: Vec<f64>,
    prev_edge: Vec<Option<EdgeId>>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    node_banned: Vec<bool>,
    edge_banned: Vec<bool>,
}

impl SpurSearch {
    fn new(g: &Digraph) -> Self {
        Self {
            dist: vec![f64::INFINITY; g.node_count()],
            prev_edge: vec![None; g.node_count()],
            settled: vec![false; g.node_count()],
            heap: BinaryHeap::new(),
            node_banned: vec![false; g.node_count()],
            edge_banned: vec![false; g.edge_count()],
        }
    }

    /// Appends the edges of the shortest `from → to` path over the
    /// unbanned subgraph to `out`; `false` (and `out` untouched) if there
    /// is none. `from` is expanded even when banned.
    fn extend_with_path(
        &mut self,
        g: &Digraph,
        from: NodeId,
        to: NodeId,
        edge_ok: &impl Fn(EdgeId) -> bool,
        out: &mut Vec<EdgeId>,
    ) -> bool {
        self.dist.fill(f64::INFINITY);
        self.prev_edge.fill(None);
        self.settled.fill(false);
        self.heap.clear();
        self.dist[from.index()] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: from,
        });
        while let Some(HeapEntry { dist: d, node: u }) = self.heap.pop() {
            if self.settled[u.index()] {
                continue;
            }
            if u == to {
                break;
            }
            self.settled[u.index()] = true;
            for &e in g.out_edges(u) {
                if self.edge_banned[e.index()] || !edge_ok(e) {
                    continue;
                }
                let v = g.dst(e);
                if self.node_banned[v.index()] || self.settled[v.index()] {
                    continue;
                }
                let nd = d + g.weight(e);
                if nd < self.dist[v.index()] {
                    self.dist[v.index()] = nd;
                    self.prev_edge[v.index()] = Some(e);
                    self.heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
        if !self.dist[to.index()].is_finite() {
            return false;
        }
        let start = out.len();
        let mut cur = to;
        while let Some(e) = self.prev_edge[cur.index()] {
            out.push(e);
            cur = g.src(e);
        }
        debug_assert_eq!(cur, from);
        out[start..].reverse();
        true
    }
}

/// [`k_shortest_paths`] restricted to edges accepted by `edge_ok` —
/// used to route around failed links without renumbering edge ids.
pub fn k_shortest_paths_filtered(
    g: &Digraph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    edge_ok: impl Fn(EdgeId) -> bool,
) -> Vec<Path> {
    if k == 0 || src == dst {
        return Vec::new();
    }
    let mut search = SpurSearch::new(g);
    let mut edges = Vec::new();
    if !search.extend_with_path(g, src, dst, &edge_ok, &mut edges) {
        return Vec::new();
    }
    let mut accepted: Vec<Path> = vec![Path::from_edges(g, edges)];
    // Candidate pool: every spur path found and not yet accepted. Small k
    // keeps it small, so membership and the minimum are linear scans.
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    let mut edges = Vec::new();

    while accepted.len() < k {
        let prev = accepted.len() - 1;
        for i in 0..accepted[prev].len() {
            let spur_node = accepted[prev].nodes[i];
            // Ban the next edge of every accepted path that shares this
            // exact root (edge-wise — node-wise comparison would over-ban
            // on multigraphs), so the spur path must deviate here; ban the
            // root's nodes (except the spur node) to keep paths simple.
            for p in &accepted {
                if p.len() > i && p.edges[..i] == accepted[prev].edges[..i] {
                    search.edge_banned[p.edges[i].index()] = true;
                }
            }
            for n in &accepted[prev].nodes[..i] {
                search.node_banned[n.index()] = true;
            }

            edges.clear();
            edges.extend_from_slice(&accepted[prev].edges[..i]);
            let found = search.extend_with_path(g, spur_node, dst, &edge_ok, &mut edges);

            for p in &accepted {
                if p.len() > i {
                    search.edge_banned[p.edges[i].index()] = false;
                }
            }
            for n in &accepted[prev].nodes[..i] {
                search.node_banned[n.index()] = false;
            }

            let seen = |p: &Path| p.edges == edges;
            if found && !accepted.iter().any(seen) && !candidates.iter().any(|(_, p)| seen(p)) {
                let total = Path::from_edges(g, edges.clone());
                debug_assert!(total.is_simple());
                let w = total.weight(g);
                candidates.push((w, total));
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Extract the cheapest candidate (stable tie-break on edge ids for
        // determinism).
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, (wa, pa)), (_, (wb, pb))| {
                wa.total_cmp(wb).then_with(|| pa.edges.cmp(&pb.edges))
            })
            .map(|(i, _)| i)
            .unwrap();
        let (_, path) = candidates.swap_remove(best);
        accepted.push(path);
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Classic Yen example-style graph:
    ///
    /// ```text
    ///      1 --1-- 3
    ///     /|       |\
    ///    1 |2     2| 1
    ///   /  |       |  \
    ///  0   +---4---+   5
    ///   \  |       |  /
    ///    2 |       | 2
    ///     \|       |/
    ///      2 --3-- 4
    /// ```
    fn mesh() -> Digraph {
        let mut g = Digraph::with_nodes(6);
        let e = |g: &mut Digraph, a: u32, b: u32, w: f64| {
            g.add_link(NodeId(a), NodeId(b), w);
        };
        e(&mut g, 0, 1, 1.0);
        e(&mut g, 0, 2, 2.0);
        e(&mut g, 1, 2, 2.0);
        e(&mut g, 1, 3, 1.0);
        e(&mut g, 2, 4, 3.0);
        e(&mut g, 3, 4, 2.0);
        e(&mut g, 3, 5, 1.0);
        e(&mut g, 4, 5, 2.0);
        g
    }

    #[test]
    fn shortest_first_and_sorted() {
        let g = mesh();
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(5), 4);
        assert!(!ps.is_empty());
        // First is the true shortest: 0-1-3-5 with weight 3.
        assert_eq!(
            ps[0].nodes,
            vec![NodeId(0), NodeId(1), NodeId(3), NodeId(5)]
        );
        let weights: Vec<f64> = ps.iter().map(|p| p.weight(&g)).collect();
        for w in weights.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "not sorted: {weights:?}");
        }
    }

    #[test]
    fn all_paths_simple_and_distinct() {
        let g = mesh();
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(5), 10);
        let mut seen = HashSet::new();
        for p in &ps {
            assert!(p.is_simple());
            assert_eq!(p.source(), Some(NodeId(0)));
            assert_eq!(p.target(), Some(NodeId(5)));
            assert!(seen.insert(p.edges.clone()), "duplicate path");
        }
        assert!(ps.len() >= 4);
    }

    #[test]
    fn k_zero_and_same_endpoints_empty() {
        let g = mesh();
        assert!(k_shortest_paths(&g, NodeId(0), NodeId(5), 0).is_empty());
        assert!(k_shortest_paths(&g, NodeId(0), NodeId(0), 3).is_empty());
    }

    #[test]
    fn unreachable_target_empty() {
        let mut g = mesh();
        let island = g.add_node("island");
        assert!(k_shortest_paths(&g, NodeId(0), island, 3).is_empty());
    }

    #[test]
    fn fewer_paths_than_requested() {
        // A line has exactly one simple path between its ends.
        let mut g = Digraph::with_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0);
        g.add_link(NodeId(1), NodeId(2), 1.0);
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(2), 5);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn counts_simple_paths_in_small_complete_graph() {
        // K4: simple paths between two fixed nodes = 1 direct + 2 length-2 +
        // 2 length-3 = 5.
        let mut g = Digraph::with_nodes(4);
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                g.add_link(NodeId(a), NodeId(b), 1.0);
            }
        }
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(3), 100);
        assert_eq!(ps.len(), 5);
    }

    #[test]
    fn filtered_avoids_banned_edges() {
        let g = mesh();
        // Ban the 1-3 link (both directions): the true shortest path
        // 0-1-3-5 becomes unavailable.
        let banned: Vec<EdgeId> = g
            .edges()
            .filter(|&e| {
                let (a, b) = (g.src(e), g.dst(e));
                (a == NodeId(1) && b == NodeId(3)) || (a == NodeId(3) && b == NodeId(1))
            })
            .collect();
        let ps = k_shortest_paths_filtered(&g, NodeId(0), NodeId(5), 5, |e| !banned.contains(&e));
        assert!(!ps.is_empty());
        for p in &ps {
            for e in &p.edges {
                assert!(!banned.contains(e), "banned edge used");
            }
        }
    }

    #[test]
    fn filter_can_disconnect() {
        let mut g = Digraph::with_nodes(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 1.0);
        let ps = k_shortest_paths_filtered(&g, NodeId(0), NodeId(1), 3, |x| x != e);
        assert!(ps.is_empty());
    }

    #[test]
    fn deterministic_output() {
        let g = mesh();
        let a = k_shortest_paths(&g, NodeId(0), NodeId(5), 6);
        let b = k_shortest_paths(&g, NodeId(0), NodeId(5), 6);
        assert_eq!(a, b);
    }
}
