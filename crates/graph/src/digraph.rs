//! Compact adjacency-list directed multigraph.
//!
//! Nodes model routers; directed edges model *link servers* (the paper's
//! set `S`). An undirected physical link is added as a pair of directed
//! edges via [`Digraph::add_link`].

use std::fmt;

/// Index of a node (router) in a [`Digraph`].
///
/// Stored as `u32` to keep hot structures small (routing tables hold many
/// of these); convert with [`NodeId::index`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of a directed edge (link server) in a [`Digraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node's position in the graph's node list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge's position in the graph's edge list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct EdgeData {
    src: NodeId,
    dst: NodeId,
    weight: f64,
}

/// A directed multigraph with `f64` edge weights and optional node labels.
///
/// Node and edge indices are dense and stable: nodes and edges can only be
/// added, never removed, so an [`EdgeId`] is a persistent identity for a
/// link server for the lifetime of a configuration.
#[derive(Clone, Debug, Default)]
pub struct Digraph {
    labels: Vec<String>,
    edges: Vec<EdgeData>,
    out: Vec<Vec<EdgeId>>,
    inc: Vec<Vec<EdgeId>>,
}

impl Digraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` unlabeled nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Self::new();
        for i in 0..n {
            g.add_node(format!("n{i}"));
        }
        g
    }

    /// Adds a node with a human-readable label; returns its id.
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label.into());
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        id
    }

    /// Adds a directed edge `src -> dst` with the given weight; returns its id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the weight is negative
    /// or non-finite (Dijkstra requires non-negative weights).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f64) -> EdgeId {
        assert!(src.index() < self.labels.len(), "src out of range");
        assert!(dst.index() < self.labels.len(), "dst out of range");
        assert!(
            weight.is_finite() && weight >= 0.0,
            "edge weight must be finite and non-negative"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { src, dst, weight });
        self.out[src.index()].push(id);
        self.inc[dst.index()].push(id);
        id
    }

    /// Adds an undirected link as two directed edges; returns `(a->b, b->a)`.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, weight: f64) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, weight), self.add_edge(b, a, weight))
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of directed edges (link servers).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// The label given to a node at creation.
    pub fn label(&self, n: NodeId) -> &str {
        &self.labels[n.index()]
    }

    /// Source node of an edge.
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].src
    }

    /// Destination node of an edge.
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].dst
    }

    /// Weight of an edge.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].weight
    }

    /// Outgoing edges of a node.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out[n.index()]
    }

    /// Incoming edges of a node.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.inc[n.index()]
    }

    /// In-degree of a node — the paper's per-router fan-in `N` when the
    /// topology was built with [`Digraph::add_link`].
    #[inline]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.inc[n.index()].len()
    }

    /// Maximum in-degree over all nodes (the paper's uniform `N`).
    pub fn max_in_degree(&self) -> usize {
        (0..self.labels.len())
            .map(|i| self.inc[i].len())
            .max()
            .unwrap_or(0)
    }

    /// Successor nodes of `n` (with multiplicity, in edge order).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out[n.index()].iter().map(move |&e| self.dst(e))
    }

    /// Finds a directed edge from `a` to `b`, if one exists.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.out[a.index()]
            .iter()
            .copied()
            .find(|&e| self.dst(e) == b)
    }
}

/// A directed path through a [`Digraph`], stored both as the node sequence
/// and the edge (link-server) sequence.
///
/// Invariant: `edges.len() + 1 == nodes.len()` for non-empty paths, and
/// `edges[i]` connects `nodes[i]` to `nodes[i + 1]`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Path {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Traversed edges; `edges[i]` goes from `nodes[i]` to `nodes[i+1]`.
    pub edges: Vec<EdgeId>,
}

impl Path {
    /// Builds a path from an edge sequence, recovering the node sequence.
    ///
    /// # Panics
    /// Panics if consecutive edges are not adjacent in `g`.
    pub fn from_edges(g: &Digraph, edges: Vec<EdgeId>) -> Self {
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        for (i, &e) in edges.iter().enumerate() {
            if i == 0 {
                nodes.push(g.src(e));
            } else {
                assert_eq!(g.src(e), *nodes.last().unwrap(), "edges do not form a path");
            }
            nodes.push(g.dst(e));
        }
        Path { nodes, edges }
    }

    /// Source node, if the path is non-empty.
    pub fn source(&self) -> Option<NodeId> {
        self.nodes.first().copied()
    }

    /// Destination node, if the path is non-empty.
    pub fn target(&self) -> Option<NodeId> {
        self.nodes.last().copied()
    }

    /// Number of hops (edges).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the path has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total weight of the path in `g`.
    pub fn weight(&self, g: &Digraph) -> f64 {
        self.edges.iter().map(|&e| g.weight(e)).sum()
    }

    /// True if no node repeats (loopless path).
    pub fn is_simple(&self) -> bool {
        let mut seen = vec![false; 0];
        let max = self.nodes.iter().map(|n| n.index()).max().unwrap_or(0);
        seen.resize(max + 1, false);
        for n in &self.nodes {
            if seen[n.index()] {
                return false;
            }
            seen[n.index()] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Digraph, [NodeId; 3]) {
        let mut g = Digraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_link(a, b, 1.0);
        g.add_link(b, c, 1.0);
        g.add_link(c, a, 1.0);
        (g, [a, b, c])
    }

    #[test]
    fn add_link_creates_edge_pair() {
        let (g, [a, b, _]) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 6);
        let e = g.find_edge(a, b).unwrap();
        assert_eq!(g.src(e), a);
        assert_eq!(g.dst(e), b);
        let back = g.find_edge(b, a).unwrap();
        assert_ne!(e, back);
    }

    #[test]
    fn degrees_match_links() {
        let (g, [a, _, _]) = triangle();
        assert_eq!(g.in_degree(a), 2);
        assert_eq!(g.out_edges(a).len(), 2);
        assert_eq!(g.max_in_degree(), 2);
    }

    #[test]
    fn path_from_edges_reconstructs_nodes() {
        let (g, [a, b, c]) = triangle();
        let e1 = g.find_edge(a, b).unwrap();
        let e2 = g.find_edge(b, c).unwrap();
        let p = Path::from_edges(&g, vec![e1, e2]);
        assert_eq!(p.nodes, vec![a, b, c]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), Some(a));
        assert_eq!(p.target(), Some(c));
        assert!((p.weight(&g) - 2.0).abs() < 1e-12);
        assert!(p.is_simple());
    }

    #[test]
    #[should_panic(expected = "edges do not form a path")]
    fn path_from_disconnected_edges_panics() {
        let (g, [a, b, c]) = triangle();
        let e1 = g.find_edge(a, b).unwrap();
        let e2 = g.find_edge(c, a).unwrap();
        let _ = Path::from_edges(&g, vec![e1, e2]);
    }

    #[test]
    fn non_simple_path_detected() {
        let (g, [a, b, _]) = triangle();
        let ab = g.find_edge(a, b).unwrap();
        let ba = g.find_edge(b, a).unwrap();
        let p = Path::from_edges(&g, vec![ab, ba]);
        assert!(!p.is_simple());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let mut g = Digraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), -1.0);
    }

    #[test]
    fn empty_path_accessors() {
        let p = Path::default();
        assert!(p.is_empty());
        assert_eq!(p.source(), None);
        assert_eq!(p.target(), None);
        assert!(p.is_simple());
    }

    #[test]
    fn multigraph_parallel_edges_allowed() {
        let mut g = Digraph::with_nodes(2);
        let e1 = g.add_edge(NodeId(0), NodeId(1), 1.0);
        let e2 = g.add_edge(NodeId(0), NodeId(1), 2.0);
        assert_ne!(e1, e2);
        assert_eq!(g.out_edges(NodeId(0)).len(), 2);
        assert_eq!(g.in_degree(NodeId(1)), 2);
    }
}
