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
//! selection — and must cost the candidate's hops, not a walk of the
//! graph. So the graph keeps its transitive closure, one bit row per
//! vertex, and answers from it: with `G` acyclic, `G` + chain `c_0 … c_m`
//! has a cycle ⇔ some `c_i` is reachable-or-equal from a later `c_j`.
//! (⇐: the chain leads from `c_i` to `c_j` and `G` leads back. ⇒: a cycle
//! uses chain edges, `G` being acyclic; between two of them in a row it
//! runs in `G` from `c_{p+1}` to the next edge's tail `c_q`, and if no
//! later position reaches an earlier-or-equal one then `q > p` every time
//! — positions cannot increase all the way round.) Whether the graph *is*
//! cyclic is a flag kept current by every mutation: once a cyclic route
//! has been committed every query answers `true` without looking.

/// A dynamic directed graph over `u32` vertices with edge multiplicities
/// and a maintained transitive closure.
///
/// The closure is `n²` bits (`n` rows of `⌈n/64⌉` words: 58 words for
/// MCI's 58 link servers, 8 KiB for the 8×8 torus' 256). A query is one
/// row AND per chain vertex; inserting a *new* edge is one pass over the
/// rows; raising a multiplicity is free. Removal is the dear direction:
/// a closure cannot forget, so once an edge's last instance goes the rows
/// are rebuilt from the distinct edges left (`edges × n` row visits) — at
/// the next query or insertion, however many removals came between.
#[derive(Clone, Debug, Default)]
pub struct DynDigraph {
    n: usize,
    /// Words per closure row, `⌈n/64⌉`.
    words: usize,
    /// `out[u]` lists `(v, multiplicity of edge (u, v))`, multiplicity ≥ 1.
    out: Vec<Vec<(u32, u32)>>,
    /// The graph currently contains a directed cycle.
    cyclic: bool,
    /// Row `u` (`words` words from `u * words`): bit `v` set iff `v == u`
    /// or a path leads from `u` to `v`.
    reach: Vec<u64>,
    /// An edge has left the graph since `reach` was built.
    stale: bool,
    /// One row of scratch: the chain vertices a query has walked past,
    /// or the row an insertion is spreading.
    scratch: Vec<u64>,
}

impl DynDigraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "too many vertices");
        let words = n.div_ceil(64);
        let mut g = Self {
            n,
            words,
            out: vec![Vec::new(); n],
            cyclic: false,
            reach: vec![0; n * words],
            stale: false,
            scratch: vec![0; words],
        };
        g.reset_closure();
        g
    }

    /// Multiplicity of edge `(u, v)`.
    pub fn multiplicity(&self, u: u32, v: u32) -> usize {
        self.out[u as usize]
            .iter()
            .find(|&&(w, _)| w == v)
            .map_or(0, |&(_, m)| m as usize)
    }

    /// Adds the consecutive-pair edges of a vertex sequence (a route).
    pub fn add_chain(&mut self, chain: &[u32]) {
        self.assert_in_range(chain);
        self.refresh();
        for w in chain.windows(2) {
            match self.out[w[0] as usize].iter_mut().find(|e| e.0 == w[1]) {
                Some(e) => e.1 += 1,
                None => {
                    self.out[w[0] as usize].push((w[1], 1));
                    self.close_over(w[0] as usize, w[1] as usize);
                }
            }
        }
    }

    /// Removes the consecutive-pair edges of a vertex sequence.
    ///
    /// # Panics
    /// Panics if one of the edges is not present.
    pub fn remove_chain(&mut self, chain: &[u32]) {
        for w in chain.windows(2) {
            let out = &mut self.out[w[0] as usize];
            let at = out
                .iter()
                .position(|e| e.0 == w[1])
                .expect("removing edge that is not present");
            out[at].1 -= 1;
            if out[at].1 == 0 {
                out.swap_remove(at);
                self.stale = true;
            }
        }
        // Removal is the one mutation that can clear the latch, and
        // `has_cycle` reads it without `&mut`: re-derive it now.
        if self.cyclic {
            self.refresh();
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
    /// modified (`&mut` is for the scratch row and a pending rebuild).
    pub fn chain_would_create_cycle(&mut self, chain: &[u32]) -> bool {
        self.assert_in_range(chain);
        self.refresh();
        if self.cyclic {
            return true;
        }
        let seen = &mut self.scratch;
        seen.fill(0);
        for &v in chain {
            let v = v as usize;
            let row = &self.reach[v * self.words..][..self.words];
            if row.iter().zip(seen.iter()).any(|(r, s)| r & s != 0) {
                return true;
            }
            seen[v / 64] |= 1 << (v % 64);
        }
        false
    }

    fn assert_in_range(&self, chain: &[u32]) {
        for &v in chain {
            assert!((v as usize) < self.n, "vertex out of range");
        }
    }

    /// Every row back to "reaches itself", the latch down.
    fn reset_closure(&mut self) {
        self.reach.fill(0);
        for u in 0..self.n {
            self.reach[u * self.words + u / 64] |= 1 << (u % 64);
        }
        self.cyclic = false;
        self.stale = false;
    }

    /// Rebuilds the closure and the latch after removals: the distinct
    /// edges left, inserted into an empty graph.
    fn refresh(&mut self) {
        if !self.stale {
            return;
        }
        self.reset_closure();
        for a in 0..self.n {
            for i in 0..self.out[a].len() {
                self.close_over(a, self.out[a][i].0 as usize);
            }
        }
    }

    /// Accounts for a new edge `a → b`: whatever reaches `a` now reaches
    /// everything `b` does. The edge closes a cycle iff `b` reached `a`.
    fn close_over(&mut self, a: usize, b: usize) {
        let w = self.words;
        let has = |row: &[u64], v: usize| row[v / 64] >> (v % 64) & 1 != 0;
        self.cyclic |= has(&self.reach[b * w..][..w], a);
        // `a` reaching `b` already means every such row holds `b`'s.
        if has(&self.reach[a * w..][..w], b) {
            return;
        }
        // In a cyclic graph `b`'s row may be one of those updated: spread
        // a copy.
        self.scratch.copy_from_slice(&self.reach[b * w..][..w]);
        for row in self.reach.chunks_exact_mut(w) {
            if has(row, a) {
                for (r, f) in row.iter_mut().zip(&self.scratch) {
                    *r |= f;
                }
            }
        }
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
        g.add_chain(&[0, 1]);
        g.add_chain(&[0, 1]);
        assert_eq!(g.multiplicity(0, 1), 2);
        g.remove_chain(&[0, 1]);
        assert_eq!(g.multiplicity(0, 1), 1);
        g.remove_chain(&[0, 1]);
        assert_eq!(g.multiplicity(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn removing_absent_edge_panics() {
        let mut g = DynDigraph::new(2);
        g.remove_chain(&[0, 1]);
    }

    #[test]
    fn self_loop_is_cycle() {
        let mut g = DynDigraph::new(2);
        g.add_chain(&[1, 1]);
        assert!(g.has_cycle());
    }

    #[test]
    fn two_node_cycle() {
        let mut g = DynDigraph::new(2);
        g.add_chain(&[0, 1, 0]);
        assert!(g.has_cycle());
        g.remove_chain(&[1, 0]);
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
