//! The MCI ISP backbone approximation (Figure 4 of the paper).
//!
//! The paper evaluates on "the MCI ISP backbone network" and reports only
//! two structural facts about it: diameter `L = 4` and maximum router
//! degree `N = 6`, with 100 Mbit/s links and every router acting as an
//! edge router. The figure itself is not machine-readable in the source
//! text, so this module encodes a 19-router, 29-link topology with a
//! meshy six-router national core (ring plus the three main diagonals),
//! six dual-homed regional attachments, six single-homed metros, and one
//! second-tier site — the structure of mid-1990s US backbones — chosen so
//! that both reported invariants hold *exactly* (asserted by unit tests
//! and debug assertions at construction).
//!
//! Every quantity in the paper's analysis depends on the topology only
//! through `L`, `N`, the capacities, and route structure, so matching
//! these invariants preserves the experiment's behaviour; the residual
//! difference in route *mixing depth* (how long the upstream prefixes
//! feeding a worst-case route are) is discussed in `EXPERIMENTS.md`.

use uba_graph::{bfs, Digraph, NodeId};

/// Number of routers in the MCI approximation.
pub const MCI_NODES: usize = 19;
/// Diameter of the MCI approximation (= the paper's `L`).
pub const MCI_DIAMETER: usize = 4;
/// Maximum router degree (= the paper's `N`).
pub const MCI_MAX_DEGREE: usize = 6;

/// City labels, cores first.
const LABELS: [&str; MCI_NODES] = [
    // 0..6: national core (ring + three diagonals)
    "SanFrancisco", // 0
    "LosAngeles",   // 1
    "Dallas",       // 2
    "Atlanta",      // 3
    "WashingtonDC", // 4
    "Chicago",      // 5
    // 6..12: dual-homed regional sites between adjacent cores
    "Seattle", // 6:  SF + LA
    "Phoenix", // 7:  LA + Dallas
    "Houston", // 8:  Dallas + Atlanta
    "Miami",   // 9:  Atlanta + DC
    "NewYork", // 10: DC + Chicago
    "Denver",  // 11: Chicago + SF
    // 12..18: single-homed metros, one per core
    "Sacramento", // 12: SF
    "SanDiego",   // 13: LA
    "Austin",     // 14: Dallas
    "Orlando",    // 15: Atlanta
    "Boston",     // 16: DC
    "Detroit",    // 17: Chicago
    // 18: second-tier site reached only through regionals
    "Portland", // 18: Seattle + Miami
];

/// Builds the MCI backbone approximation.
pub fn mci() -> Digraph {
    let mut g = Digraph::new();
    for label in LABELS {
        g.add_node(label);
    }
    let link = |g: &mut Digraph, a: usize, b: usize| {
        g.add_link(NodeId(a as u32), NodeId(b as u32), 1.0);
    };
    // Core ring (6 nodes) ...
    for i in 0..6 {
        link(&mut g, i, (i + 1) % 6);
    }
    // ... plus the three main diagonals: core diameter 2.
    link(&mut g, 0, 3);
    link(&mut g, 1, 4);
    link(&mut g, 2, 5);
    // Dual-homed regionals between adjacent cores.
    link(&mut g, 6, 0);
    link(&mut g, 6, 1);
    link(&mut g, 7, 1);
    link(&mut g, 7, 2);
    link(&mut g, 8, 2);
    link(&mut g, 8, 3);
    link(&mut g, 9, 3);
    link(&mut g, 9, 4);
    link(&mut g, 10, 4);
    link(&mut g, 10, 5);
    link(&mut g, 11, 5);
    link(&mut g, 11, 0);
    // Single-homed metros (filling each core's degree to 6).
    link(&mut g, 12, 0);
    link(&mut g, 13, 1);
    link(&mut g, 14, 2);
    link(&mut g, 15, 3);
    link(&mut g, 16, 4);
    link(&mut g, 17, 5);
    // Second-tier site reached only through regionals.
    link(&mut g, 18, 6);
    link(&mut g, 18, 9);

    debug_assert_eq!(bfs::diameter(&g), Some(MCI_DIAMETER));
    debug_assert_eq!(g.max_in_degree(), MCI_MAX_DEGREE);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_link_counts() {
        let g = mci();
        assert_eq!(g.node_count(), MCI_NODES);
        // 29 physical links = 58 directed link servers.
        assert_eq!(g.edge_count(), 58);
    }

    #[test]
    fn diameter_is_four() {
        assert_eq!(bfs::diameter(&mci()), Some(MCI_DIAMETER));
    }

    #[test]
    fn max_degree_is_six() {
        let g = mci();
        assert_eq!(g.max_in_degree(), MCI_MAX_DEGREE);
        // And it is attained by every core router.
        for i in 0..6u32 {
            assert_eq!(g.in_degree(NodeId(i)), 6, "core {i}");
        }
    }

    #[test]
    fn strongly_connected() {
        assert!(bfs::is_strongly_connected(&mci()));
    }

    #[test]
    fn in_and_out_degrees_match() {
        let g = mci();
        for n in g.nodes() {
            assert!(g.in_degree(n) >= 1);
            assert_eq!(g.in_degree(n), g.out_edges(n).len());
        }
    }

    #[test]
    fn labels_unique() {
        let g = mci();
        let mut seen = std::collections::HashSet::new();
        for n in g.nodes() {
            assert!(seen.insert(g.label(n).to_string()));
        }
    }

    #[test]
    fn diameter_attained_by_metro_pair() {
        // Sacramento (12, on SF) to Austin (14, on Dallas): 1 + 2 + 1 = 4.
        let g = mci();
        let d = bfs::hop_distances(&g, NodeId(12));
        assert_eq!(d[14], 4);
    }

    #[test]
    fn second_tier_site_within_reach() {
        // Portland reaches everything within the diameter.
        let g = mci();
        let d = bfs::hop_distances(&g, NodeId(18));
        assert!(d.iter().all(|&x| x <= MCI_DIAMETER));
    }
}
