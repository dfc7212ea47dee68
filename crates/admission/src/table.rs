//! The configured routing table.
//!
//! Configuration (Section 5) fixes one route per (source, destination,
//! class); run-time admission only ever looks routes up. Every route's
//! server indices sit end to end in one array the table owns, and the
//! lookup yields a `RouteRef` — the route's place in that array — so
//! whoever holds the table (an admitted flow holds its generation, and
//! with it the table) can name a route in eight bytes instead of copying
//! it: neither the lookup nor an admission allocates.

use std::collections::HashMap;
use uba_graph::{NodeId, Path};
use uba_traffic::ClassId;

/// A route's place in the table that handed it out; resolved by
/// `RoutingTable::servers` on that same table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RouteRef {
    start: u32,
    len: u32,
}

/// Immutable route lookup built at configuration time.
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    routes: HashMap<(NodeId, NodeId, ClassId), RouteRef>,
    /// Every installed route's server indices, end to end. A replaced
    /// route's stay behind unreferenced: tables are built once.
    servers: Vec<u32>,
}

impl RoutingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Installs a route for `(src, dst, class)`; replaces and returns any
    /// previous route.
    pub fn insert(&mut self, class: ClassId, path: &Path) -> Option<Box<[u32]>> {
        let src = path.source().expect("route must be non-empty");
        let dst = path.target().expect("route must be non-empty");
        assert_ne!(src, dst, "route must connect distinct routers");
        let route = RouteRef {
            start: u32::try_from(self.servers.len()).expect("routing table exceeds 2^32 hops"),
            len: u32::try_from(path.edges.len()).expect("route exceeds 2^32 hops"),
        };
        self.servers.extend(path.edges.iter().map(|e| e.0));
        self.routes
            .insert((src, dst, class), route)
            .map(|old| self.servers(old).into())
    }

    /// Installs routes for many `(pair, path)` results of a selection.
    pub fn insert_all<'a>(&mut self, class: ClassId, paths: impl IntoIterator<Item = &'a Path>) {
        for p in paths {
            self.insert(class, p);
        }
    }

    /// The configured route for `(src, dst, class)`, by reference.
    pub(crate) fn lookup(&self, src: NodeId, dst: NodeId, class: ClassId) -> Option<RouteRef> {
        self.routes.get(&(src, dst, class)).copied()
    }

    /// The server indices of a route this table handed out.
    pub(crate) fn servers(&self, route: RouteRef) -> &[u32] {
        &self.servers[route.start as usize..][..route.len as usize]
    }

    /// The configured route for `(src, dst, class)`, as server indices.
    pub fn route(&self, src: NodeId, dst: NodeId, class: ClassId) -> Option<&[u32]> {
        self.lookup(src, dst, class).map(|r| self.servers(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_graph::{Digraph, EdgeId};

    fn path(g: &Digraph, edges: &[EdgeId]) -> Path {
        Path::from_edges(g, edges.to_vec())
    }

    fn line3() -> (Digraph, Path) {
        let mut g = Digraph::with_nodes(3);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let p = path(&g, &[e01, e12]);
        (g, p)
    }

    #[test]
    fn insert_and_lookup() {
        let (_, p) = line3();
        let mut t = RoutingTable::new();
        t.insert(ClassId(0), &p);
        let r = t.route(NodeId(0), NodeId(2), ClassId(0)).unwrap();
        assert_eq!(r, &[0, 2]);
        assert!(t.route(NodeId(2), NodeId(0), ClassId(0)).is_none());
        assert!(t.route(NodeId(0), NodeId(2), ClassId(1)).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_replaces() {
        let (g, p) = line3();
        let mut t = RoutingTable::new();
        t.insert(ClassId(0), &p);
        // A different route for the same pair (direct edge 0->2 does not
        // exist; reuse the same path object to exercise replacement).
        let old = t.insert(ClassId(0), &path(&g, &p.edges));
        assert!(old.is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_route_rejected() {
        let mut t = RoutingTable::new();
        t.insert(ClassId(0), &Path::default());
    }
}
