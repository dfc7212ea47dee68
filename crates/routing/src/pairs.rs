//! Source/destination pair enumeration and ordering.
//!
//! The Section 5.2 heuristic's first rule: "select the next
//! source/destination pair in decreasing order of distance between source
//! and destination" — longer routes are harder to satisfy, so they get
//! first pick of the route space.

use uba_graph::{bfs, Digraph, NodeId};
use uba_traffic::ClassId;

/// A source/destination router pair requesting connectivity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pair {
    /// Source router.
    pub src: NodeId,
    /// Destination router.
    pub dst: NodeId,
}

/// One routed demand: a class and a router pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Demand {
    /// Traffic class of the demand.
    pub class: ClassId,
    /// Source/destination pair.
    pub pair: Pair,
}

/// Every ordered pair of distinct routers ("flows can be established
/// between any two routers", Section 6).
pub fn all_ordered_pairs(g: &Digraph) -> Vec<Pair> {
    let mut out = Vec::with_capacity(g.node_count() * g.node_count().saturating_sub(1));
    for s in g.nodes() {
        for d in g.nodes() {
            if s != d {
                out.push(Pair { src: s, dst: d });
            }
        }
    }
    out
}

/// Orders pairs by decreasing shortest-path hop distance; ties broken by
/// `(src, dst)` for determinism. Unreachable pairs sort first (so the
/// selector fails fast on them).
pub fn order_pairs_by_distance(g: &Digraph, pairs: &[Pair]) -> Vec<Pair> {
    order_by_distance(g, pairs, |&p| p)
}

/// [`order_pairs_by_distance`] over anything that has a pair; the sort is
/// stable, so items of one pair keep their order.
pub(crate) fn order_by_distance<T: Copy>(
    g: &Digraph,
    items: &[T],
    pair: impl Fn(&T) -> Pair,
) -> Vec<T> {
    // One BFS per distinct source.
    let mut dist_by_src: Vec<Option<Vec<usize>>> = vec![None; g.node_count()];
    for p in items.iter().map(&pair) {
        let slot = &mut dist_by_src[p.src.index()];
        if slot.is_none() {
            *slot = Some(bfs::hop_distances(g, p.src));
        }
    }
    let mut ordered = items.to_vec();
    ordered.sort_by(|a, b| {
        let (a, b) = (pair(a), pair(b));
        let da = dist_by_src[a.src.index()].as_ref().unwrap()[a.dst.index()];
        let db = dist_by_src[b.src.index()].as_ref().unwrap()[b.dst.index()];
        db.cmp(&da)
            .then_with(|| a.src.cmp(&b.src))
            .then_with(|| a.dst.cmp(&b.dst))
    });
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_topology::line;

    #[test]
    fn all_pairs_count() {
        let g = line(4);
        let pairs = all_ordered_pairs(&g);
        assert_eq!(pairs.len(), 12);
        assert!(pairs.iter().all(|p| p.src != p.dst));
    }

    #[test]
    fn ordering_is_by_decreasing_distance() {
        let g = line(5);
        let pairs = all_ordered_pairs(&g);
        let ordered = order_pairs_by_distance(&g, &pairs);
        let d = |p: &Pair| bfs::hop_distances(&g, p.src)[p.dst.index()];
        for w in ordered.windows(2) {
            assert!(d(&w[0]) >= d(&w[1]));
        }
        // The two extreme pairs come first.
        assert_eq!(d(&ordered[0]), 4);
    }

    #[test]
    fn ordering_is_deterministic() {
        let g = line(5);
        let pairs = all_ordered_pairs(&g);
        let a = order_pairs_by_distance(&g, &pairs);
        let b = order_pairs_by_distance(&g, &pairs);
        assert_eq!(a, b);
    }

    #[test]
    fn unreachable_pairs_sort_first() {
        let mut g = line(3);
        let island = g.add_node("island");
        let pairs = vec![
            Pair {
                src: NodeId(0),
                dst: NodeId(2),
            },
            Pair {
                src: NodeId(0),
                dst: island,
            },
        ];
        let ordered = order_pairs_by_distance(&g, &pairs);
        assert_eq!(ordered[0].dst, island);
    }
}
