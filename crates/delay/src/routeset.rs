//! Committed route sets and the upstream-delay maximization `Y_k`.
//!
//! Eq. (6) defines `Y_k` as the largest total delay any flow traversing
//! server `k` may have accumulated *before* reaching `k`. With a concrete
//! route set this is a maximum over route prefixes: for every route
//! `[s_1, ..., s_m]` and every position `p`, the prefix sum
//! `d_{s_1} + ... + d_{s_{p-1}}` is a candidate for `Y_{s_p}`.

use uba_graph::Path;
use uba_traffic::ClassId;

/// One committed route: the class it carries and the server (edge)
/// sequence it traverses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Traffic class carried by this route.
    pub class: ClassId,
    /// Link servers, in traversal order (raw edge indices).
    pub servers: Vec<u32>,
}

impl Route {
    /// Builds a route from a topology path.
    pub fn from_path(class: ClassId, path: &Path) -> Self {
        Self {
            class,
            servers: path.edges.iter().map(|e| e.0).collect(),
        }
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True for a degenerate empty route.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }
}

/// The set of routes committed so far during configuration.
///
/// Supports cheap tentative extension (push/pop).
#[derive(Clone, Debug, Default)]
pub struct RouteSet {
    server_count: usize,
    routes: Vec<Route>,
}

impl RouteSet {
    /// An empty route set over `server_count` link servers.
    pub fn new(server_count: usize) -> Self {
        Self {
            server_count,
            routes: Vec::new(),
        }
    }

    /// Number of link servers in the underlying topology.
    pub fn server_count(&self) -> usize {
        self.server_count
    }

    /// Number of committed routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes are committed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The committed routes.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Commits a route; returns its index.
    ///
    /// # Panics
    /// Panics if the route references a server outside the topology.
    pub fn push(&mut self, route: Route) -> usize {
        for &s in &route.servers {
            assert!(
                (s as usize) < self.server_count,
                "route references unknown server {s}"
            );
        }
        self.routes.push(route);
        self.routes.len() - 1
    }

    /// Removes and returns the most recently committed route.
    pub fn pop(&mut self) -> Option<Route> {
        self.routes.pop()
    }

    /// Marks which servers carry traffic of `class` (dense mask).
    pub fn used_servers(&self, class: ClassId) -> Vec<bool> {
        let mut used = vec![false; self.server_count];
        for r in &self.routes {
            if r.class == class {
                for &s in &r.servers {
                    used[s as usize] = true;
                }
            }
        }
        used
    }

    /// Computes `Y_k` (Eq. 6) for one class given that class's current
    /// per-server delay vector, and simultaneously the end-to-end delay of
    /// every route of that class.
    ///
    /// `y` must have `server_count` entries and is overwritten; the return
    /// value is the per-route end-to-end delay (entries for routes of other
    /// classes are `0`).
    pub fn upstream_max_and_route_delays(
        &self,
        class: ClassId,
        delays: &[f64],
        y: &mut [f64],
    ) -> Vec<f64> {
        assert_eq!(delays.len(), self.server_count);
        assert_eq!(y.len(), self.server_count);
        y.fill(0.0);
        let mut route_delays = vec![0.0; self.routes.len()];
        for (ri, r) in self.routes.iter().enumerate() {
            if r.class != class {
                continue;
            }
            let mut prefix = 0.0;
            for &s in &r.servers {
                let k = s as usize;
                if prefix > y[k] {
                    y[k] = prefix;
                }
                prefix += delays[k];
            }
            route_delays[ri] = prefix;
        }
        route_delays
    }

    /// End-to-end delay of each route under the given per-class delay
    /// vectors (`delays[class][server]`).
    pub fn route_delays(&self, delays: &[Vec<f64>]) -> Vec<f64> {
        self.routes
            .iter()
            .map(|r| {
                let d = &delays[r.class.index()];
                r.servers.iter().map(|&s| d[s as usize]).sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: ClassId = ClassId(0);
    const C1: ClassId = ClassId(1);

    fn rs(server_count: usize, routes: &[(&[u32], ClassId)]) -> RouteSet {
        let mut set = RouteSet::new(server_count);
        for (servers, class) in routes {
            set.push(Route {
                class: *class,
                servers: servers.to_vec(),
            });
        }
        set
    }

    #[test]
    fn y_is_max_prefix() {
        // Two routes sharing server 2: one arrives fresh, one after
        // servers 0 and 1.
        let set = rs(4, &[(&[2, 3], C0), (&[0, 1, 2], C0)]);
        let delays = vec![0.010, 0.020, 0.005, 0.001];
        let mut y = vec![0.0; 4];
        let rd = set.upstream_max_and_route_delays(C0, &delays, &mut y);
        assert_eq!(y[0], 0.0);
        assert!((y[1] - 0.010).abs() < 1e-15);
        // Server 2 sees max(0 from route 1's first hop, 0.030 from route 2).
        assert!((y[2] - 0.030).abs() < 1e-15);
        assert!((y[3] - 0.005).abs() < 1e-15);
        assert!((rd[0] - 0.006).abs() < 1e-15);
        assert!((rd[1] - 0.035).abs() < 1e-15);
    }

    #[test]
    fn y_ignores_other_classes() {
        let set = rs(3, &[(&[0, 1], C0), (&[1, 2], C1)]);
        let delays = vec![0.5, 0.5, 0.5];
        let mut y = vec![0.0; 3];
        let rd = set.upstream_max_and_route_delays(C1, &delays, &mut y);
        assert_eq!(y[0], 0.0);
        assert_eq!(y[1], 0.0); // class-1 route arrives fresh at server 1
        assert_eq!(y[2], 0.5);
        assert_eq!(rd[0], 0.0); // class-0 route not evaluated
        assert_eq!(rd[1], 1.0);
    }

    #[test]
    fn zero_delays_give_zero_y() {
        let set = rs(3, &[(&[0, 1, 2], C0)]);
        let delays = vec![0.0; 3];
        let mut y = vec![0.0; 3];
        let rd = set.upstream_max_and_route_delays(C0, &delays, &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
        assert_eq!(rd[0], 0.0);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut set = rs(3, &[(&[0, 1], C0)]);
        let r = Route {
            class: C0,
            servers: vec![2],
        };
        set.push(r.clone());
        assert_eq!(set.len(), 2);
        assert_eq!(set.pop(), Some(r));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn used_servers_masks_by_class() {
        let set = rs(4, &[(&[0, 1], C0), (&[2], C1)]);
        assert_eq!(set.used_servers(C0), vec![true, true, false, false]);
        assert_eq!(set.used_servers(C1), vec![false, false, true, false]);
    }

    #[test]
    #[should_panic(expected = "unknown server")]
    fn out_of_range_server_rejected() {
        let mut set = RouteSet::new(2);
        set.push(Route {
            class: C0,
            servers: vec![5],
        });
    }

    #[test]
    fn route_delays_multi_class() {
        let set = rs(3, &[(&[0, 1], C0), (&[1, 2], C1)]);
        let delays = vec![vec![1.0, 2.0, 4.0], vec![10.0, 20.0, 40.0]];
        let rd = set.route_delays(&delays);
        assert_eq!(rd, vec![3.0, 60.0]);
    }

    #[test]
    fn route_revisiting_server_accumulates() {
        // Pathological but legal for the math: a route that visits server 0
        // twice (the heuristic never produces this, the solver must still
        // be well-defined).
        let set = rs(2, &[(&[0, 1, 0], C0)]);
        let delays = vec![0.25, 0.5];
        let mut y = vec![0.0; 2];
        let rd = set.upstream_max_and_route_delays(C0, &delays, &mut y);
        assert!((y[0] - 0.75).abs() < 1e-15); // second visit's prefix
        assert!((rd[0] - 1.0).abs() < 1e-15);
    }
}
