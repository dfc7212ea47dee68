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
use std::hash::{BuildHasherDefault, Hasher};
use uba_graph::{NodeId, Path};
use uba_traffic::ClassId;

/// Hashes a route key — two node ids and a class id, written as
/// integers — by rotate, xor, multiply per word. The keys are
/// configuration output, not attacker-chosen input, so the lookup need
/// not pay for SipHash's flood resistance (it was a third of an admit).
/// A product's low bits depend only on its factors' low bits, and the
/// map takes a bucket from a hash's low bits and a tag from its top
/// seven: `finish` folds the well-mixed high half onto the low one so
/// both are mixed.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, word: u64) {
        // 2^64 / φ, odd: the Fibonacci-hashing multiplier.
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

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
    routes: HashMap<(NodeId, NodeId, ClassId), RouteRef, BuildHasherDefault<KeyHasher>>,
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

    /// Distinct values of the hashes' low 12 bits (bucket choice in a
    /// 4 096-bucket map) and top 7 bits (the map's tag).
    fn spread(keys: impl IntoIterator<Item = (NodeId, NodeId, ClassId)>) -> (usize, usize) {
        use std::collections::BTreeSet;
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let (mut low, mut top) = (BTreeSet::new(), BTreeSet::new());
        for key in keys {
            let h = hasher.hash_one(key);
            low.insert(h & 0xfff);
            top.insert(h >> 57);
        }
        (low.len(), top.len())
    }

    #[test]
    fn key_hasher_mixes_both_ends() {
        // The 8×8 torus' 4 032 ordered pairs: small dense ids, the keys
        // whose differences a bare multiply leaves in the high bits only.
        let torus = (0..64u32)
            .flat_map(|a| (0..64u32).map(move |b| (NodeId(a), NodeId(b), ClassId(0))))
            .filter(|(a, b, _)| a != b);
        let (low, top) = spread(torus);
        assert!(low >= 2048 && top >= 64, "torus: {low} / 4096, {top} / 128");
        uba_obs::check("key_hasher_mixes_both_ends", 1, |rng| {
            let keys: Vec<_> = (0..10_000)
                .map(|_| {
                    let (pair, class) = (rng.next_u64(), rng.next_u64());
                    (
                        NodeId(pair as u32),
                        NodeId((pair >> 32) as u32),
                        ClassId(class as usize),
                    )
                })
                .collect();
            let (low, top) = spread(keys);
            uba_obs::ensure!(low >= 2048 && top >= 64, "{low} / 4096, {top} / 128");
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_route_rejected() {
        let mut t = RoutingTable::new();
        t.insert(ClassId(0), &Path::default());
    }
}
