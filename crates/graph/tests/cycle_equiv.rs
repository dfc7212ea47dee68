//! `DynDigraph` vs the implementation it replaced.
//!
//! The reference below is that implementation: `HashMap` adjacency, and
//! "would this chain create a cycle?" answered by inserting the chain,
//! running Kahn's algorithm over the whole graph, and removing it again.
//! The overlay answers from its maintained transitive closure, and from
//! a latched flag once the graph is cyclic. Random chains — repeated
//! vertices, self-loops, parallel edges — are queried on both, added, and
//! removed again (one at a time and several in a row, so the closure goes
//! stale and is rebuilt once), well past the point where the graph goes
//! cyclic and back, on vertex counts below and above one 64-bit word.

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

    fn add_chain(&mut self, chain: &[u32]) {
        for w in chain.windows(2) {
            *self.out[w[0] as usize].entry(w[1] as usize).or_insert(0) += 1;
        }
    }

    fn remove_chain(&mut self, chain: &[u32]) {
        for w in chain.windows(2) {
            let out = &mut self.out[w[0] as usize];
            let m = out.get_mut(&(w[1] as usize)).expect("edge present");
            *m -= 1;
            if *m == 0 {
                out.remove(&(w[1] as usize));
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

    fn chain_would_create_cycle(&mut self, chain: &[u32]) -> bool {
        self.add_chain(chain);
        let cyclic = self.has_cycle();
        self.remove_chain(chain);
        cyclic
    }
}

/// A chain of 1..=6 vertices. Mostly ascending, so the graph stays
/// acyclic for a while; sometimes free-form, with repeats and self-loops.
fn random_chain(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let len = 1 + rng.index(6);
    let mut chain: Vec<u32> = (0..len).map(|_| rng.index(n) as u32).collect();
    if rng.index(4) != 0 {
        chain.sort_unstable();
        chain.dedup();
    }
    chain
}

#[test]
fn overlay_matches_insert_kahn_remove() {
    let (mut cyclic_queries, mut acyclic_queries, mut recoveries) = (0, 0, 0);
    // The same three floors over the walks whose rows span several words,
    // and the queries that found the closure stale after a run of removals.
    let (mut wide_cyclic, mut wide_acyclic, mut wide_recoveries) = (0, 0, 0);
    let mut after_bursts = 0;
    for seed in 0..60u64 {
        let n = [6, 15, 24, 70, 130][seed as usize % 5];
        let mut rng = SplitMix64::new(0xC1C1E ^ seed);
        let mut overlay = DynDigraph::new(n);
        let mut reference = Reference::new(n);
        let mut added: Vec<Vec<u32>> = Vec::new();
        let mut burst_pending = false;
        for step in 0..300 {
            let ctx = format!("seed {seed} n {n} step {step}");
            let chain = random_chain(n, &mut rng);
            let want = reference.chain_would_create_cycle(&chain);
            assert_eq!(
                overlay.chain_would_create_cycle(&chain),
                want,
                "{ctx}: {chain:?}"
            );
            after_bursts += std::mem::take(&mut burst_pending) as usize;
            if reference.has_cycle() {
                // The latched behaviour the heuristic relies on.
                assert!(want, "{ctx}");
                cyclic_queries += 1;
                wide_cyclic += (n > 64) as usize;
            } else {
                acyclic_queries += 1;
                wide_acyclic += (n > 64) as usize;
            }
            let was_cyclic = reference.has_cycle();
            // Add it (twice now and then, for multiplicities > 1), or
            // remove earlier chains: one — three while cyclic, so the
            // graph keeps crossing back — or four in a row whatever the
            // regime, so the next query meets rows that went stale more
            // than once.
            let action = rng.index(6);
            if action <= 2 {
                for _ in 0..1 + rng.index(2) {
                    overlay.add_chain(&chain);
                    reference.add_chain(&chain);
                    added.push(chain.clone());
                }
            }
            let removals = match action {
                3 if was_cyclic => 3,
                3 => 1,
                4 => 4,
                _ => 0,
            };
            let mut vanished = 0;
            for _ in 0..removals.min(added.len()) {
                let gone = added.swap_remove(rng.index(added.len()));
                overlay.remove_chain(&gone);
                reference.remove_chain(&gone);
                let last = |w: &[u32]| overlay.multiplicity(w[0], w[1]) == 0;
                vanished += gone.windows(2).any(last) as usize;
            }
            burst_pending = vanished > 1 && !was_cyclic;
            let recovered = was_cyclic && !reference.has_cycle();
            recoveries += recovered as usize;
            wide_recoveries += (recovered && n > 64) as usize;
            assert_eq!(overlay.has_cycle(), reference.has_cycle(), "{ctx}");
            for w in chain.windows(2) {
                let m = reference.out[w[0] as usize]
                    .get(&(w[1] as usize))
                    .copied()
                    .unwrap_or(0);
                assert_eq!(overlay.multiplicity(w[0], w[1]), m, "{ctx}");
            }
        }
    }
    // Both regimes, and the way back, must actually be exercised.
    assert!(acyclic_queries > 2_000, "{acyclic_queries} acyclic queries");
    assert!(cyclic_queries > 2_000, "{cyclic_queries} cyclic queries");
    assert!(recoveries > 20, "{recoveries} recoveries");
    assert!(wide_acyclic > 2_000, "{wide_acyclic} acyclic, n > 64");
    assert!(wide_cyclic > 500, "{wide_cyclic} cyclic, n > 64");
    assert!(wide_recoveries > 20, "{wide_recoveries} recoveries, n > 64");
    assert!(after_bursts > 200, "{after_bursts} queries after a burst");
}
