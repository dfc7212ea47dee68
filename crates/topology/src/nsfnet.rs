//! An NSFNET-T1-style 14-router topology.
//!
//! The 1991 NSFNET T1 backbone (14 nodes, ~21 links) is the other
//! workhorse evaluation topology of 1990s QoS papers; we encode an
//! NSFNET-inspired graph with the canonical node set and a link set that
//! matches its published shape class (21 bidirectional links, diameter 3,
//! max degree 4, 2-connected). Used by the cross-topology experiment to
//! show the Table 1 pipeline is not MCI-specific.

use uba_graph::{bfs, Digraph, NodeId};

/// Number of routers.
pub const NSFNET_NODES: usize = 14;

const LABELS: [&str; NSFNET_NODES] = [
    "Seattle",     // 0
    "PaloAlto",    // 1
    "SanDiego",    // 2
    "SaltLake",    // 3
    "Boulder",     // 4
    "Houston",     // 5
    "Lincoln",     // 6
    "Champaign",   // 7
    "Pittsburgh",  // 8
    "Atlanta",     // 9
    "AnnArbor",    // 10
    "Ithaca",      // 11
    "CollegePark", // 12
    "Princeton",   // 13
];

/// Builds the NSFNET-style topology (21 bidirectional links).
pub fn nsfnet() -> Digraph {
    let mut g = Digraph::new();
    for label in LABELS {
        g.add_node(label);
    }
    let link = |g: &mut Digraph, a: usize, b: usize| {
        g.add_link(NodeId(a as u32), NodeId(b as u32), 1.0);
    };
    // West.
    link(&mut g, 0, 1);
    link(&mut g, 0, 3);
    link(&mut g, 0, 10);
    link(&mut g, 1, 2);
    link(&mut g, 1, 3);
    link(&mut g, 2, 5);
    link(&mut g, 2, 4);
    // Mountain / central.
    link(&mut g, 3, 4);
    link(&mut g, 4, 6);
    link(&mut g, 4, 5);
    link(&mut g, 5, 9);
    link(&mut g, 5, 12);
    link(&mut g, 6, 7);
    link(&mut g, 6, 10);
    // East.
    link(&mut g, 7, 8);
    link(&mut g, 7, 9);
    link(&mut g, 8, 11);
    link(&mut g, 8, 12);
    link(&mut g, 9, 12);
    link(&mut g, 10, 11);
    link(&mut g, 11, 13);
    link(&mut g, 12, 13);

    debug_assert!(bfs::is_strongly_connected(&g));
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let g = nsfnet();
        assert_eq!(g.node_count(), 14);
        assert_eq!(g.edge_count(), 44); // 22 physical links
        assert!(bfs::is_strongly_connected(&g));
    }

    #[test]
    fn diameter_small() {
        assert_eq!(bfs::diameter(&nsfnet()), Some(4));
    }

    #[test]
    fn degrees_backbone_like() {
        let g = nsfnet();
        for n in g.nodes() {
            let d = g.in_degree(n);
            assert!((2..=5).contains(&d), "{}: degree {d}", g.label(n));
        }
    }

    #[test]
    fn two_connected() {
        // No single-homed site: every node has >= 2 neighbors, and the
        // graph stays connected after removing any one node (checked by
        // BFS from a survivor skipping the removed node).
        let g = nsfnet();
        for removed in g.nodes() {
            let start = g.nodes().find(|&n| n != removed).unwrap();
            let mut seen = vec![false; g.node_count()];
            seen[removed.index()] = true;
            seen[start.index()] = true;
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                for v in g.successors(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "removing {} disconnects the graph",
                g.label(removed)
            );
        }
    }
}
