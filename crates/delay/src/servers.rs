//! Per-link-server parameters.
//!
//! A *link server* is a directed edge of the topology (Section 3): the
//! queue in front of one output link. Delay computation needs, per server,
//! the output capacity `C` and the fan-in `N` — the number of input links
//! that can feed it. The paper assumes a uniform `N` for every router ("We
//! assume all routers to have N input links"); [`Servers::uniform`] matches
//! that, while [`Servers::from_topology`] derives per-server fan-ins from
//! actual router in-degrees (an ablation the benches exercise).

use uba_graph::Digraph;

/// Capacity and fan-in for every link server of a topology.
#[derive(Clone, Debug)]
pub struct Servers {
    capacity: Vec<f64>,
    fan_in: Vec<usize>,
}

impl Servers {
    /// Uniform parameters: every server has capacity `c` and fan-in `n`
    /// (the paper's model; in Section 6, `c = 100 Mbit/s`, `n = 6`).
    pub fn uniform(g: &Digraph, c: f64, n: usize) -> Self {
        assert!(c > 0.0 && c.is_finite(), "capacity must be positive");
        assert!(n >= 1, "fan-in must be at least 1");
        Self {
            capacity: vec![c; g.edge_count()],
            fan_in: vec![n; g.edge_count()],
        }
    }

    /// Per-server fan-in from the topology: the in-degree of the server's
    /// source router plus one host-ingress link (every router is also an
    /// edge router in the paper's experiment, so locally originated flows
    /// enter through an extra access link).
    pub fn from_topology(g: &Digraph, c: f64) -> Self {
        assert!(c > 0.0 && c.is_finite(), "capacity must be positive");
        let fan_in = g.edges().map(|e| g.in_degree(g.src(e)) + 1).collect();
        Self {
            capacity: vec![c; g.edge_count()],
            fan_in,
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.capacity.len()
    }

    /// True if the topology had no links.
    pub fn is_empty(&self) -> bool {
        self.capacity.is_empty()
    }

    /// Capacity of server `k` (edge `EdgeId(k)`) in bits/s.
    #[inline]
    pub fn capacity_at(&self, k: usize) -> f64 {
        self.capacity[k]
    }

    /// Fan-in `N` of server `k` (edge `EdgeId(k)`).
    #[inline]
    pub fn fan_in_at(&self, k: usize) -> usize {
        self.fan_in[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_graph::NodeId;

    fn star() -> Digraph {
        // Hub 0 with three spokes.
        let mut g = Digraph::with_nodes(4);
        for i in 1..4u32 {
            g.add_link(NodeId(0), NodeId(i), 1.0);
        }
        g
    }

    #[test]
    fn uniform_everywhere() {
        let g = star();
        let s = Servers::uniform(&g, 100e6, 6);
        assert_eq!(s.len(), 6);
        for e in g.edges() {
            assert_eq!(s.capacity_at(e.index()), 100e6);
            assert_eq!(s.fan_in_at(e.index()), 6);
        }
    }

    #[test]
    fn from_topology_uses_source_in_degree() {
        let g = star();
        let s = Servers::from_topology(&g, 1e6);
        // Hub has in-degree 3, spokes have in-degree 1.
        for e in g.edges() {
            let expect = g.in_degree(g.src(e)) + 1;
            assert_eq!(s.fan_in_at(e.index()), expect);
        }
        let hub_out = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(s.fan_in_at(hub_out.index()), 4);
    }

    #[test]
    #[should_panic(expected = "fan-in")]
    fn zero_fan_in_rejected() {
        let g = star();
        Servers::uniform(&g, 1e6, 0);
    }
}
