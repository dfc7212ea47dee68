//! Single-source shortest paths (Dijkstra) with optional node/edge filters.
//!
//! The filtered variant is what Yen's algorithm needs to compute spur
//! paths: it runs Dijkstra on the subgraph obtained by removing a set of
//! nodes and a set of edges, without copying the graph.

use crate::digraph::{Digraph, EdgeId, NodeId, Path};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path computation.
///
/// Distances are edge-weight sums; unreachable nodes have `f64::INFINITY`.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<f64>,
    prev_edge: Vec<Option<EdgeId>>,
}

impl ShortestPaths {
    /// The source the tree was grown from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Shortest distance from the source to `n` (`INFINITY` if unreachable).
    pub fn dist(&self, n: NodeId) -> f64 {
        self.dist[n.index()]
    }

    /// True if `n` is reachable from the source.
    pub fn reachable(&self, n: NodeId) -> bool {
        self.dist[n.index()].is_finite()
    }

    /// Reconstructs the shortest path to `t`, or `None` if unreachable.
    ///
    /// The path to the source itself is the empty path.
    pub fn path_to(&self, g: &Digraph, t: NodeId) -> Option<Path> {
        if !self.reachable(t) {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = t;
        while let Some(e) = self.prev_edge[cur.index()] {
            edges.push(e);
            cur = g.src(e);
        }
        debug_assert_eq!(cur, self.source);
        edges.reverse();
        if edges.is_empty() {
            Some(Path {
                nodes: vec![self.source],
                edges,
            })
        } else {
            Some(Path::from_edges(g, edges))
        }
    }
}

/// Min-heap entry ordered by distance; ties broken by node id for
/// determinism across runs.
#[derive(PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on BinaryHeap (a max-heap).
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra over the whole graph.
///
/// # Examples
/// ```
/// use uba_graph::{Digraph, NodeId, dijkstra};
/// let mut g = Digraph::with_nodes(3);
/// g.add_link(NodeId(0), NodeId(1), 1.0);
/// g.add_link(NodeId(1), NodeId(2), 2.0);
/// let sp = dijkstra(&g, NodeId(0));
/// assert_eq!(sp.dist(NodeId(2)), 3.0);
/// assert_eq!(sp.path_to(&g, NodeId(2)).unwrap().len(), 2);
/// ```
pub fn dijkstra(g: &Digraph, source: NodeId) -> ShortestPaths {
    dijkstra_filtered(g, source, |_| true, |_| true)
}

/// Dijkstra restricted to nodes and edges accepted by the filters.
///
/// The source is always expanded even if `node_ok(source)` is false (Yen's
/// spur node is on the root path that the node filter removes).
pub fn dijkstra_filtered(
    g: &Digraph,
    source: NodeId,
    node_ok: impl Fn(NodeId) -> bool,
    edge_ok: impl Fn(EdgeId) -> bool,
) -> ShortestPaths {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev_edge = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        for &e in g.out_edges(u) {
            if !edge_ok(e) {
                continue;
            }
            let v = g.dst(e);
            if !node_ok(v) || done[v.index()] {
                continue;
            }
            let nd = d + g.weight(e);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                prev_edge[v.index()] = Some(e);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    ShortestPaths {
        source,
        dist,
        prev_edge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 --1-- 1 --1-- 2
    ///  \______3______/
    fn diamondish() -> Digraph {
        let mut g = Digraph::with_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0);
        g.add_link(NodeId(1), NodeId(2), 1.0);
        g.add_link(NodeId(0), NodeId(2), 3.0);
        g
    }

    #[test]
    fn prefers_cheaper_two_hop_path() {
        let g = diamondish();
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.dist(NodeId(2)), 2.0);
        let p = sp.path_to(&g, NodeId(2)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn direct_edge_wins_when_cheaper() {
        let mut g = Digraph::with_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0);
        g.add_link(NodeId(1), NodeId(2), 1.0);
        g.add_link(NodeId(0), NodeId(2), 1.5);
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.dist(NodeId(2)), 1.5);
        assert_eq!(sp.path_to(&g, NodeId(2)).unwrap().len(), 1);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = Digraph::with_nodes(2);
        g.add_node("isolated");
        g.add_link(NodeId(0), NodeId(1), 1.0);
        let sp = dijkstra(&g, NodeId(0));
        assert!(!sp.reachable(NodeId(2)));
        assert!(sp.path_to(&g, NodeId(2)).is_none());
    }

    #[test]
    fn path_to_source_is_empty() {
        let g = diamondish();
        let sp = dijkstra(&g, NodeId(0));
        let p = sp.path_to(&g, NodeId(0)).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.nodes, vec![NodeId(0)]);
    }

    #[test]
    fn node_filter_forces_detour() {
        let g = diamondish();
        let sp = dijkstra_filtered(&g, NodeId(0), |n| n != NodeId(1), |_| true);
        assert_eq!(sp.dist(NodeId(2)), 3.0);
        assert_eq!(sp.path_to(&g, NodeId(2)).unwrap().len(), 1);
    }

    #[test]
    fn edge_filter_forces_detour() {
        let g = diamondish();
        let banned = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let sp = dijkstra_filtered(&g, NodeId(0), |_| true, |e| e != banned);
        assert_eq!(sp.dist(NodeId(2)), 3.0);
    }

    #[test]
    fn respects_directionality() {
        let mut g = Digraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        let sp = dijkstra(&g, NodeId(1));
        assert!(!sp.reachable(NodeId(0)));
    }

    #[test]
    fn zero_weight_edges_ok() {
        let mut g = Digraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 0.0);
        g.add_edge(NodeId(1), NodeId(2), 0.0);
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.dist(NodeId(2)), 0.0);
        assert_eq!(sp.path_to(&g, NodeId(2)).unwrap().len(), 2);
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-cost paths 0->1->3 and 0->2->3; result must be stable.
        let mut g = Digraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(1), NodeId(3), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        let p1 = dijkstra(&g, NodeId(0)).path_to(&g, NodeId(3)).unwrap();
        let p2 = dijkstra(&g, NodeId(0)).path_to(&g, NodeId(3)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.weight(&g), 2.0);
    }
}
