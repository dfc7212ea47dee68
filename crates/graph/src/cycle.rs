//! Dynamic overlay digraph with reference-counted edges and cycle queries.
//!
//! Heuristic (2) of Section 5.2 prefers candidate routes that "form a
//! noncyclic graph with existing routes": cycles in the *route-dependency
//! graph* (link servers as vertices, consecutive servers of a route as
//! edges) create queuing feedback and inflate the delay fixed point. The
//! route set evolves one route at a time, so this structure supports
//! incremental edge insertion/removal with multiplicities and a
//! would-adding-these-edges-create-a-cycle query.
//!
//! The query runs once per candidate route — thousands of times per
//! selection — so adjacency is flat `Vec`s, the search is a depth-first
//! walk from the chain's own vertices on epoch-stamped scratch (no
//! allocation, nothing to clear), and whether the graph *is* cyclic is a
//! flag kept current by every mutation: once a cyclic route has been
//! committed every query answers `true` without looking.

/// A dynamic directed graph over `usize` vertices with edge multiplicities.
#[derive(Clone, Debug, Default)]
pub struct DynDigraph {
    n: usize,
    /// `out[u]` lists `(v, multiplicity of edge (u, v))`, multiplicity ≥ 1.
    out: Vec<Vec<(u32, u32)>>,
    /// The graph currently contains a directed cycle.
    cyclic: bool,
    // Scratch of the stamped depth-first search: a vertex is visited,
    // finished, or on the chain under test iff its entry equals `stamp`.
    stamp: u32,
    visited: Vec<u32>,
    finished: Vec<u32>,
    on_chain: Vec<u32>,
    /// `(vertex, next successor slot)`; slots past the vertex's out-list
    /// index into the chain under test.
    stack: Vec<(u32, u32)>,
}

impl DynDigraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "too many vertices");
        Self {
            n,
            out: vec![Vec::new(); n],
            cyclic: false,
            stamp: 0,
            visited: vec![0; n],
            finished: vec![0; n],
            on_chain: vec![0; n],
            stack: Vec::new(),
        }
    }

    /// Multiplicity of edge `(u, v)`.
    pub fn multiplicity(&self, u: usize, v: usize) -> usize {
        self.out[u]
            .iter()
            .find(|&&(w, _)| w as usize == v)
            .map_or(0, |&(_, m)| m as usize)
    }

    /// Adds one instance of edge `(u, v)`.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.add_chain(&[u, v]);
    }

    /// Removes one instance of edge `(u, v)`.
    ///
    /// # Panics
    /// Panics if the edge is not present.
    pub fn remove_edge(&mut self, u: usize, v: usize) {
        self.remove_chain(&[u, v]);
    }

    /// Adds the consecutive-pair edges of a vertex sequence (a route).
    pub fn add_chain(&mut self, chain: &[usize]) {
        // Latch: after this the answer to every query is known.
        self.cyclic = self.chain_would_create_cycle(chain);
        for w in chain.windows(2) {
            match self.out[w[0]].iter_mut().find(|e| e.0 as usize == w[1]) {
                Some(e) => e.1 += 1,
                None => self.out[w[0]].push((w[1] as u32, 1)),
            }
        }
    }

    /// Removes the consecutive-pair edges of a vertex sequence.
    ///
    /// # Panics
    /// Panics if one of the edges is not present.
    pub fn remove_chain(&mut self, chain: &[usize]) {
        for w in chain.windows(2) {
            let at = self.out[w[0]]
                .iter()
                .position(|e| e.0 as usize == w[1])
                .expect("removing edge that is not present");
            self.out[w[0]][at].1 -= 1;
            if self.out[w[0]][at].1 == 0 {
                self.out[w[0]].swap_remove(at);
            }
        }
        // Removal is the one mutation that can clear the latch.
        if self.cyclic {
            self.cyclic = self.search_for_cycle(&[], 0..self.n);
        }
    }

    /// True if the graph currently contains a directed cycle (self-loops
    /// included). O(1): the flag is kept current by every mutation.
    pub fn has_cycle(&self) -> bool {
        self.cyclic
    }

    /// True if the graph with the consecutive-pair edges of `chain` added
    /// would contain a directed cycle — so always `true` once the graph
    /// itself is cyclic, which a caller that has fallen back to cyclic
    /// routes keeps asking and gets answered at once. The graph is not
    /// modified (`&mut` is for the search scratch).
    pub fn chain_would_create_cycle(&mut self, chain: &[usize]) -> bool {
        for &v in chain {
            assert!(v < self.n, "vertex out of range");
        }
        self.cyclic || self.search_for_cycle(chain, chain.iter().copied())
    }

    /// Three-colour depth-first search from `roots` for a cycle in the
    /// graph plus `chain`'s edges. While the graph itself is acyclic every
    /// cycle passes through a chain vertex, so the chain's vertices are
    /// roots enough; a search of the bare graph roots at every vertex.
    fn search_for_cycle(&mut self, chain: &[usize], roots: impl Iterator<Item = usize>) -> bool {
        if self.stamp == u32::MAX {
            self.stamp = 0;
            self.visited.fill(0);
            self.finished.fill(0);
            self.on_chain.fill(0);
        }
        self.stamp += 1;
        let stamp = self.stamp;
        for &v in chain {
            self.on_chain[v] = stamp;
        }
        for root in roots {
            if self.visited[root] == stamp {
                continue;
            }
            self.visited[root] = stamp;
            self.stack.push((root as u32, 0));
            while let Some(&mut (u, ref mut slot)) = self.stack.last_mut() {
                let u = u as usize;
                let degree = self.out[u].len();
                let next = if (*slot as usize) < degree {
                    *slot += 1;
                    Some(self.out[u][*slot as usize - 1].0 as usize)
                } else if self.on_chain[u] == stamp {
                    // The chain's own successors of `u`, one per visit.
                    let from = *slot as usize - degree;
                    let hit = (from..chain.len().saturating_sub(1)).find(|&p| chain[p] == u);
                    *slot = (degree + hit.map_or(chain.len(), |p| p + 1)) as u32;
                    hit.map(|p| chain[p + 1])
                } else {
                    None
                };
                match next {
                    None => {
                        self.finished[u] = stamp;
                        self.stack.pop();
                    }
                    Some(v) if self.visited[v] != stamp => {
                        self.visited[v] = stamp;
                        self.stack.push((v as u32, 0));
                    }
                    // Visited and unfinished: `v` is on the stack.
                    Some(v) if self.finished[v] != stamp => {
                        self.stack.clear();
                        return true;
                    }
                    Some(_) => {}
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_acyclic() {
        let g = DynDigraph::new(4);
        assert!(!g.has_cycle());
    }

    #[test]
    fn chain_is_acyclic() {
        let mut g = DynDigraph::new(4);
        g.add_chain(&[0, 1, 2, 3]);
        assert!(!g.has_cycle());
    }

    #[test]
    fn back_edge_creates_cycle() {
        let mut g = DynDigraph::new(3);
        g.add_chain(&[0, 1, 2]);
        // A forward shortcut 0 -> 2 keeps the graph a DAG.
        assert!(!g.chain_would_create_cycle(&[0, 2]));
        // 2 -> 0 closes the loop through 0 -> 1 -> 2.
        assert!(g.chain_would_create_cycle(&[2, 0]));
        assert!(!g.has_cycle(), "query must not mutate");
    }

    #[test]
    fn would_create_cycle_is_side_effect_free() {
        let mut g = DynDigraph::new(3);
        g.add_chain(&[0, 1]);
        let before = g.multiplicity(0, 1);
        let _ = g.chain_would_create_cycle(&[1, 2, 0]);
        assert_eq!(g.multiplicity(0, 1), before);
        assert_eq!(g.multiplicity(1, 2), 0);
    }

    #[test]
    fn multiplicity_tracked_and_removal_exact() {
        let mut g = DynDigraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.multiplicity(0, 1), 2);
        g.remove_edge(0, 1);
        assert_eq!(g.multiplicity(0, 1), 1);
        g.remove_edge(0, 1);
        assert_eq!(g.multiplicity(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn removing_absent_edge_panics() {
        let mut g = DynDigraph::new(2);
        g.remove_edge(0, 1);
    }

    #[test]
    fn self_loop_is_cycle() {
        let mut g = DynDigraph::new(2);
        g.add_edge(1, 1);
        assert!(g.has_cycle());
    }

    #[test]
    fn two_node_cycle() {
        let mut g = DynDigraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert!(g.has_cycle());
        g.remove_edge(1, 0);
        assert!(!g.has_cycle());
    }

    #[test]
    fn parallel_edges_do_not_fake_acyclicity() {
        let mut g = DynDigraph::new(3);
        g.add_chain(&[0, 1, 2]);
        g.add_chain(&[0, 1, 2]);
        assert!(!g.has_cycle());
        g.add_chain(&[2, 0]);
        assert!(g.has_cycle());
        g.remove_chain(&[2, 0]);
        assert!(!g.has_cycle());
    }

    #[test]
    fn chain_revisiting_vertices_detected() {
        let mut g = DynDigraph::new(4);
        // The chain itself contains a cycle: 0 -> 1 -> 0.
        assert!(g.chain_would_create_cycle(&[0, 1, 0]));
    }

    #[test]
    fn cyclic_graph_answers_true_until_the_cycle_is_removed() {
        let mut g = DynDigraph::new(5);
        g.add_chain(&[0, 1, 2]);
        g.add_chain(&[2, 0]);
        assert!(g.has_cycle());
        // Latched: the graph plus anything — a chain nowhere near the
        // cycle, a chain with no edge at all — contains the cycle.
        assert!(g.chain_would_create_cycle(&[3, 4]));
        assert!(g.chain_would_create_cycle(&[4]));
        assert!(g.chain_would_create_cycle(&[]));
        g.add_chain(&[3, 4]);
        assert!(g.has_cycle());
        // Removing the closing edge is the one thing that clears it.
        g.remove_chain(&[2, 0]);
        assert!(!g.has_cycle());
        assert!(!g.chain_would_create_cycle(&[0, 3]));
        assert!(g.chain_would_create_cycle(&[4, 3]));
    }

    #[test]
    fn remove_chain_restores_acyclicity_queries() {
        let mut g = DynDigraph::new(5);
        g.add_chain(&[0, 1, 2, 3, 4]);
        g.remove_chain(&[0, 1, 2, 3, 4]);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(g.multiplicity(u, v), 0);
            }
        }
    }
}
