//! Committed route sets.
//!
//! Eq. (6) defines `Y_k` as the largest total delay any flow traversing
//! server `k` may have accumulated *before* reaching `k`. With a concrete
//! route set this is a maximum over route prefixes: for every route
//! `[s_1, ..., s_m]` and every position `p`, the prefix sum
//! `d_{s_1} + ... + d_{s_{p-1}}` is a candidate for `Y_{s_p}` — the sweep
//! the solvers run over the routes held here ([`crate::fixed_point`],
//! [`crate::committed`]).

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

/// A route borrowed from wherever its servers are stored — a committed
/// [`Route`], or a candidate in a caller's flat buffer — for the
/// questions that only read it
/// ([`CommittedState::try_route`](crate::committed::CommittedState::try_route)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteRef<'a> {
    /// Traffic class carried by this route.
    pub class: ClassId,
    /// Link servers, in traversal order (raw edge indices).
    pub servers: &'a [u32],
}

impl<'a> From<&'a Route> for RouteRef<'a> {
    fn from(route: &'a Route) -> Self {
        Self {
            class: route.class,
            servers: &route.servers,
        }
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
}
