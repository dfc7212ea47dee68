//! `DynDigraph` vs the implementation it replaced.
//!
//! The reference below is that implementation: `HashMap` adjacency, and
//! "would this chain create a cycle?" answered by inserting the chain,
//! running Kahn's algorithm over the whole graph, and removing it again.
//! The overlay answers from a stamped depth-first search rooted at the
//! chain, and from a latched flag once the graph is cyclic. Random chains
//! — repeated vertices, self-loops, parallel edges — are queried on both,
//! added, and removed again, well past the point where the graph goes
//! cyclic and back.

use std::collections::HashMap;
use uba_graph::DynDigraph;
use uba_obs::SplitMix64;

#[derive(Default)]
struct Reference {
    n: usize,
    out: Vec<HashMap<usize, usize>>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Self {
            n,
            out: vec![HashMap::new(); n],
        }
    }

    fn add_chain(&mut self, chain: &[usize]) {
        for w in chain.windows(2) {
            *self.out[w[0]].entry(w[1]).or_insert(0) += 1;
        }
    }

    fn remove_chain(&mut self, chain: &[usize]) {
        for w in chain.windows(2) {
            let m = self.out[w[0]].get_mut(&w[1]).expect("edge present");
            *m -= 1;
            if *m == 0 {
                self.out[w[0]].remove(&w[1]);
            }
        }
    }

    fn has_cycle(&self) -> bool {
        let mut indeg = vec![0usize; self.n];
        for u in 0..self.n {
            for &v in self.out[u].keys() {
                if u == v {
                    return true;
                }
                indeg[v] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..self.n).filter(|&v| indeg[v] == 0).collect();
        let mut removed = 0;
        while let Some(u) = stack.pop() {
            removed += 1;
            for &v in self.out[u].keys() {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        removed != self.n
    }

    fn chain_would_create_cycle(&mut self, chain: &[usize]) -> bool {
        self.add_chain(chain);
        let cyclic = self.has_cycle();
        self.remove_chain(chain);
        cyclic
    }
}

/// A chain of 1..=6 vertices. Mostly ascending, so the graph stays
/// acyclic for a while; sometimes free-form, with repeats and self-loops.
fn random_chain(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let len = 1 + rng.index(6);
    let mut chain: Vec<usize> = (0..len).map(|_| rng.index(n)).collect();
    if rng.index(4) != 0 {
        chain.sort_unstable();
        chain.dedup();
    }
    chain
}

#[test]
fn overlay_matches_insert_kahn_remove() {
    let (mut cyclic_queries, mut acyclic_queries, mut recoveries) = (0, 0, 0);
    for seed in 0..40u64 {
        let n = 6 + (seed as usize % 3) * 9;
        let mut rng = SplitMix64::new(0xC1C1E ^ seed);
        let mut overlay = DynDigraph::new(n);
        let mut reference = Reference::new(n);
        let mut added: Vec<Vec<usize>> = Vec::new();
        for step in 0..300 {
            let ctx = format!("seed {seed} step {step}");
            let chain = random_chain(n, &mut rng);
            let want = reference.chain_would_create_cycle(&chain);
            assert_eq!(
                overlay.chain_would_create_cycle(&chain),
                want,
                "{ctx}: {chain:?}"
            );
            if reference.has_cycle() {
                // The latched behaviour the heuristic relies on.
                assert!(want, "{ctx}");
                cyclic_queries += 1;
            } else {
                acyclic_queries += 1;
            }
            match rng.index(5) {
                // Add it — twice now and then, for multiplicities > 1.
                0 | 1 => {
                    for _ in 0..1 + rng.index(2) {
                        overlay.add_chain(&chain);
                        reference.add_chain(&chain);
                        added.push(chain.clone());
                    }
                }
                // Remove a random earlier chain; more eagerly while
                // cyclic, so the graph keeps crossing back.
                2 | 3 if !added.is_empty() => {
                    let was_cyclic = reference.has_cycle();
                    for _ in 0..if was_cyclic { 3 } else { 1 } {
                        if added.is_empty() {
                            break;
                        }
                        let gone = added.swap_remove(rng.index(added.len()));
                        overlay.remove_chain(&gone);
                        reference.remove_chain(&gone);
                    }
                    recoveries += (was_cyclic && !reference.has_cycle()) as usize;
                }
                _ => {}
            }
            assert_eq!(overlay.has_cycle(), reference.has_cycle(), "{ctx}");
            for w in chain.windows(2) {
                let m = reference.out[w[0]].get(&w[1]).copied().unwrap_or(0);
                assert_eq!(overlay.multiplicity(w[0], w[1]), m, "{ctx}");
            }
        }
    }
    // Both regimes, and the way back, must actually be exercised.
    assert!(acyclic_queries > 2_000, "{acyclic_queries} acyclic queries");
    assert!(cyclic_queries > 2_000, "{cyclic_queries} cyclic queries");
    assert!(recoveries > 20, "{recoveries} recoveries");
}
