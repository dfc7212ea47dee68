//! Yen's algorithm for the k shortest loopless paths.
//!
//! The Section 5.2 route-selection heuristic needs, for every
//! source/destination pair, "a group of candidate routes" to choose among.
//! We generate those candidates as the k shortest simple paths by weight.
//!
//! A [`YenWorkspace`] is bound to one graph and one edge filter and serves
//! any number of pairs: search scratch and, per destination, a reverse
//! shortest-path tree (distance to the target `h`, next hop) grown on
//! first use. With `h` the loop makes five cuts, each exact — the lists
//! are, edge for edge and tie for tie, those of the loop that runs a full
//! search at every spur index (`reference_yen` in `tests/yen_diff.rs`;
//! DESIGN.md §5 argues each):
//!
//! 1. **Bound-skip**: a spur path weighs at least `root + min (w(e) +
//!    h(dst e))` over the spur node's allowed out-edges; with as many
//!    strictly lighter candidates pooled as paths are left to accept, it
//!    could never be extracted, and is not searched for.
//! 2. **Prefix-skip**: below the index where a path left the accepted
//!    path it was found from, roots and bans are as last searched and the
//!    result a duplicate; spur indices start there.
//! 3. **Potential-pruned search**: the tree's own spur path, when clear
//!    of the root, caps the spur distance at `ub`; a relaxation to `v` at
//!    `nd` with `nd + h(v) > ub` is not pushed. The heap stays ordered by
//!    `(dist, node)`, *not* `dist + h`: what is left pops as it did.
//! 4. **Tree-answered spur**: the spur path is written, root + edge + tree
//!    path, with no search, when the lightest allowed out-edge `e` of the
//!    spur has a tree path clear of the root and every other spur path is
//!    heavier by more than `MARGIN` times its weight `w(e) + h(dst e)`.
//!    The others either leave by another allowed edge — at least that
//!    edge plus its head's `h` — or by `e` and then leave the tree path,
//!    which the tree's `gap` at `dst e` bounds: per node `v`, by how much
//!    every other `v → target` path is heavier than the tree's, over the
//!    admitted edges — the least of its tree hop's gap and, for each other
//!    out-edge, that edge plus its head's `h` less `h(v)`. A tight edge is
//!    a gap of 0, one of weight 0 too. Bans only remove paths, so the gap
//!    holds under them. Dijkstra returns a path of least float weight; a
//!    path lighter than all others by more than the margin is that path,
//!    whatever the tie-breaking. Gaps are filled in the order the tree's
//!    nodes settled, each after its tree hop; distance order is not
//!    enough, as a zero-weight plateau settles a node and its hop at one
//!    distance.
//! 5. **Tie walk**, when every admitted weight is a whole number in `[1,
//!    2^53 / n]` (sums exact, so ties are real; MCI's unit weights): if a
//!    spur path weighs the lower bound `at_least`, every one is a chain of
//!    tight edges (`w(e) + h(head) = h(tail)`, or `= at_least` out of the
//!    spur), each node `u` on one lies `at_least − h(u)` from the spur,
//!    and the one a search returns is read backwards from the target:
//!    with positive weights a search settles nodes in `(d, id)` order and
//!    a node keeps the predecessor that first reached it at its distance,
//!    so each step takes the earliest settled tight predecessor (the
//!    spur first) over its first tight edge, among the nodes a walk over
//!    tight edges reaches from the spur. Each tree lists its tight edges
//!    once; no path of weight `at_least` (the walk misses the target)
//!    leaves the spur to the search. Cut 4 goes first: on whole-number
//!    weights the walk answers every spur it does, but reading the tree
//!    path costs less (≈ 15 % of Yen over MCI's pairs,
//!    `results/p_cfg_issue60.txt`).
//!
//! Cuts 1, 3 and 4 set a forward sum against a backward one, so they
//! compare with a relative `MARGIN` (1e-9), which only makes them more
//! timid; cut 5 compares exact sums. Cuts 3 and 4 ask whether a tree path is clear of the root: the
//! root is a bitset beside the banned flags, and the destination in hand
//! keeps each node's tree path as a bitset, one AND per word and out-edge
//! — at most n² bits, rebuilt when the destination changes.
//!
//! The bookkeeping around the searches is exact too. The pool of found
//! paths is kept sorted heaviest first by `(weight, edges)`, so the next
//! path out is a `pop`, cut 1's count of lighter candidates a
//! `partition_point` and the duplicate check a binary search. Each
//! accepted path's common prefix with the last one is counted once per
//! extraction; at spur index `i` the continuations to ban are those of
//! the paths that share `i` edges. The root's weight is carried along
//! the spur loop, the same left fold a fresh sum would make.
//!
//! A workspace runs one pair at a time and allocates nothing per path:
//! the pair's accepted paths are spans of one workspace buffer (nodes are
//! read off their edges), a search's distance, predecessor edge and
//! settled flag are one packed label per node, and
//! [`YenWorkspace::k_shortest_into`] appends each accepted path's edge
//! ids once to a buffer the caller owns. [`k_shortest_paths`] and
//! [`YenWorkspace::k_shortest_paths`] build their [`Path`]s from that
//! same output: one body. The α\* search generates many pairs at once on
//! one workspace per core, each taking whole destinations, so that a
//! reverse tree is built once, into one flat store (`uba-routing`'s
//! candidate cache).

use crate::digraph::{Digraph, EdgeId, NodeId, Path};
use crate::dijkstra::HeapEntry;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Relative slack where a forward sum is set against a backward one: many
/// orders of magnitude above what reordering a sum can move it.
const MARGIN: f64 = 1e-9;

/// Computes up to `k` shortest loopless paths from `src` to `dst`, in
/// non-decreasing order of total weight.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// simple paths. Returns an empty vector when `dst` is unreachable or
/// `src == dst`.
///
/// # Examples
/// ```
/// use uba_graph::{Digraph, NodeId, k_shortest_paths};
/// // A triangle: direct link plus a two-hop detour.
/// let mut g = Digraph::with_nodes(3);
/// g.add_link(NodeId(0), NodeId(1), 1.0);
/// g.add_link(NodeId(1), NodeId(2), 1.0);
/// g.add_link(NodeId(0), NodeId(2), 1.0);
/// let paths = k_shortest_paths(&g, NodeId(0), NodeId(2), 5);
/// assert_eq!(paths.len(), 2);
/// assert_eq!(paths[0].len(), 1);
/// assert_eq!(paths[1].len(), 2);
/// ```
pub fn k_shortest_paths(g: &Digraph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    k_shortest_paths_filtered(g, src, dst, k, |_| true)
}

/// [`k_shortest_paths`] restricted to edges accepted by `edge_ok` —
/// used to route around failed links without renumbering edge ids. One
/// [`YenWorkspace`] per call; a caller with many pairs keeps its own.
pub fn k_shortest_paths_filtered(
    g: &Digraph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    edge_ok: impl Fn(EdgeId) -> bool,
) -> Vec<Path> {
    YenWorkspace::new(g, edge_ok).k_shortest_paths(src, dst, k)
}

/// One destination's reverse shortest-path tree over the admitted edges:
/// each node's label from the search that grew it, `dist` its
/// shortest-path weight to `dst` (`INFINITY`: no path) and `prev` that
/// path's first edge; `order` the reached nodes as they settled, each
/// after the next hop of its tree path; and `gap[v]`, by how much every
/// other `v → dst` path is heavier than the tree's (0: a tie).
struct Tree {
    dst: NodeId,
    labels: Vec<Label>,
    order: Vec<NodeId>,
    gap: Vec<f64>,
    /// With integral weights (cut 5), node `v`'s tight out-edges — those
    /// with `w(e) + h(head) = h(v)` — are `tight[tight_at[v]..tight_at[v
    /// + 1]]`; both empty otherwise.
    tight_at: Vec<u32>,
    tight: Vec<EdgeId>,
}

/// A node's label in one search, packed so that a relaxation touches one
/// entry: tentative distance, the edge it was reached by, and whether it
/// is settled.
#[derive(Clone, Copy)]
struct Label {
    dist: f64,
    /// The predecessor edge's id; [`NO_EDGE`]: none.
    prev: u32,
    settled: bool,
}

/// [`Label::prev`] of a node no edge has reached.
const NO_EDGE: u32 = u32::MAX;

/// A node before the search reaches it.
const UNREACHED: Label = Label {
    dist: f64::INFINITY,
    prev: NO_EDGE,
    settled: false,
};

impl Label {
    fn prev(self) -> Option<EdgeId> {
        (self.prev != NO_EDGE).then_some(EdgeId(self.prev))
    }
}

/// A spur path found and not yet accepted: `pool_edges[span]`.
struct Pooled {
    weight: f64,
    /// The spur index it was found at.
    dev: usize,
    span: Range<usize>,
}

/// Yen's algorithm over one graph and one edge filter, for any number of
/// pairs (the [module docs](self) say what is shared and cut). The filter
/// is read once, into the mask the searches and the distance-to-target
/// trees both go by, and a workspace cannot be pointed at another:
/// distances never come from a different graph than the one searched.
pub struct YenWorkspace<'g> {
    g: &'g Digraph,
    /// Edges no search may take: those the filter refused, for good, and
    /// the current spur index's bans.
    edge_blocked: Vec<bool>,
    /// The current root's nodes, the spur's included.
    node_banned: Vec<bool>,
    /// `node_banned` as a bitset, one bit per node.
    root_bits: Vec<u64>,
    /// Per node `v`, as many words as `root_bits`: the nodes on `v`'s tree
    /// path to `path_dst`, both ends included. One destination's at a time.
    path_bits: Vec<u64>,
    path_dst: Option<NodeId>,
    labels: Vec<Label>,
    heap: BinaryHeap<HeapEntry>,
    /// Nodes in the order the last reverse search settled them.
    settled: Vec<NodeId>,
    /// Indexed by destination; grown on first use.
    trees: Vec<Option<Tree>>,
    pool: Vec<Pooled>,
    pool_edges: Vec<EdgeId>,
    /// The current pair's accepted paths, end to end: path `i` ends at
    /// `ends[i]`.
    accepted: Vec<EdgeId>,
    ends: Vec<usize>,
    /// Per accepted path, its common edge prefix with the last one.
    shared: Vec<usize>,
    /// Every admitted edge weighs a whole number in `[1, 2^53 / n]`: path
    /// sums are exact, and so are ties (cut 5).
    integral: bool,
    /// Cut 5's scratch: the nodes a tight walk from the spur reached.
    reached: Vec<bool>,
    stack: Vec<NodeId>,
    tallies: (u64, u64),
    answered: u64,
}

impl<'g> YenWorkspace<'g> {
    /// A workspace for `g` restricted to the edges `edge_ok` accepts.
    pub fn new(g: &'g Digraph, edge_ok: impl Fn(EdgeId) -> bool) -> Self {
        let n = g.node_count();
        let edge_blocked: Vec<bool> = g.edges().map(|e| !edge_ok(e)).collect();
        let most = (1u64 << 53) as f64 / n.max(1) as f64;
        let whole = |w: f64| (1.0..=most).contains(&w) && w.fract() == 0.0;
        Self {
            g,
            integral: g
                .edges()
                .all(|e| edge_blocked[e.index()] || whole(g.weight(e))),
            reached: vec![false; n],
            stack: Vec::new(),
            edge_blocked,
            node_banned: vec![false; n],
            root_bits: vec![0; n.div_ceil(64)],
            path_bits: Vec::new(),
            path_dst: None,
            labels: vec![UNREACHED; n],
            heap: BinaryHeap::new(),
            settled: Vec::new(),
            trees: (0..n).map(|_| None).collect(),
            pool: Vec::new(),
            pool_edges: Vec::new(),
            accepted: Vec::new(),
            ends: Vec::new(),
            shared: Vec::new(),
            tallies: (0, 0),
            answered: 0,
        }
    }

    /// Over every call so far: spur searches run, and spur indices whose
    /// search was proved unnecessary — between them, every spur index.
    pub fn tallies(&self) -> (u64, u64) {
        self.tallies
    }

    /// Over every call so far: forward searches cuts 4 and 5 made
    /// unnecessary, the destination tree spelling out the path — each
    /// pair's first path among them, and every other one a skipped spur
    /// index.
    pub fn tree_answered(&self) -> u64 {
        self.answered
    }

    /// Up to `k` shortest loopless `src → dst` paths over the admitted
    /// edges, exactly as [`k_shortest_paths_filtered`] returns them: those
    /// [`Self::k_shortest_into`] writes, as [`Path`]s.
    pub fn k_shortest_paths(&mut self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let (mut edges, mut ends) = (Vec::new(), Vec::new());
        self.k_shortest_into(src, dst, k, &mut edges, &mut ends);
        let mut start = 0;
        (ends.iter())
            .map(|&end| {
                let path = edges[start..end as usize].iter().map(|&e| EdgeId(e));
                start = end as usize;
                Path::from_edges(self.g, path.collect())
            })
            .collect()
    }

    /// Appends up to `k` shortest loopless `src → dst` paths over the
    /// admitted edges, in non-decreasing order of weight, to `edges` — each
    /// path's edge ids after the last's — and each path's end in `edges`
    /// to `ends`; returns how many. No path is empty: `src == dst` (or
    /// `k == 0`, or no path) appends nothing.
    pub fn k_shortest_into(
        &mut self,
        src: NodeId,
        dst: NodeId,
        k: usize,
        edges: &mut Vec<u32>,
        ends: &mut Vec<u32>,
    ) -> usize {
        if k == 0 || src == dst {
            return 0;
        }
        let tree = (self.trees[dst.index()].take()).unwrap_or_else(|| self.grow_tree(dst));
        if self.path_dst != Some(dst) {
            self.trace_paths(&tree);
        }
        self.yen(&tree, src, k);
        self.trees[dst.index()] = Some(tree);
        let base = edges.len();
        edges.extend(self.accepted.iter().map(|e| e.0));
        let end = |at: usize| u32::try_from(base + at).expect("fewer than 2^32 edge ids");
        ends.extend(self.ends.iter().map(|&at| end(at)));
        self.ends.len()
    }

    /// Dijkstra from `from` into `labels`, over the unblocked
    /// out-edges (`REVERSED`: in-edges) and off the banned nodes; `from`
    /// is expanded even when banned. This is
    /// [`dijkstra_filtered`](crate::dijkstra::dijkstra_filtered) step for
    /// step — same heap entries, same strict relaxation — except that it
    /// stops when `stop` settles, its predecessor chain by then final,
    /// never labels a node at a distance `keep` refuses, and, reversed,
    /// lists the nodes in `settled` as they settle.
    fn search<const REVERSED: bool>(
        &mut self,
        from: NodeId,
        stop: Option<NodeId>,
        keep: impl Fn(NodeId, f64) -> bool,
    ) {
        let g = self.g;
        self.labels.fill(UNREACHED);
        self.heap.clear();
        self.settled.clear();
        self.labels[from.index()].dist = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: from,
        });
        while let Some(HeapEntry { dist: d, node: u }) = self.heap.pop() {
            if self.labels[u.index()].settled {
                continue;
            }
            if Some(u) == stop {
                break;
            }
            self.labels[u.index()].settled = true;
            if REVERSED {
                self.settled.push(u);
            }
            for &e in if REVERSED {
                g.in_edges(u)
            } else {
                g.out_edges(u)
            } {
                if self.edge_blocked[e.index()] {
                    continue;
                }
                let v = if REVERSED { g.src(e) } else { g.dst(e) };
                let label = &mut self.labels[v.index()];
                if self.node_banned[v.index()] || label.settled {
                    continue;
                }
                let nd = d + g.weight(e);
                if nd < label.dist && keep(v, nd) {
                    label.dist = nd;
                    label.prev = e.0;
                    self.heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
    }

    /// Grows `dst`'s tree: the reverse search, then each reached node's
    /// `gap` in settle order, so that its tree path's next hop has its own.
    fn grow_tree(&mut self, dst: NodeId) -> Tree {
        let g = self.g;
        self.search::<true>(dst, None, |_, _| true);
        let labels = self.labels.clone();
        let mut gap = vec![f64::INFINITY; labels.len()];
        for &v in &self.settled {
            let Some(next) = labels[v.index()].prev() else {
                continue; // `dst`: no other path to itself.
            };
            // Another path either leaves `v` by its tree edge and departs
            // later, or leaves by another edge and weighs at least that
            // edge plus its head's distance. A tight edge is a tie, one of
            // weight 0 too.
            let mut least = gap[g.dst(next).index()];
            for &e in g.out_edges(v) {
                if e != next && !self.edge_blocked[e.index()] {
                    let via = g.weight(e) + labels[g.dst(e).index()].dist;
                    least = least.min(via - labels[v.index()].dist);
                }
            }
            gap[v.index()] = least;
        }
        let (mut tight_at, mut tight) = (Vec::new(), Vec::new());
        if self.integral {
            tight_at.push(0);
            for v in g.nodes() {
                let h = labels[v.index()].dist;
                for &e in g.out_edges(v).iter().filter(|_| h.is_finite()) {
                    if !self.edge_blocked[e.index()]
                        && g.weight(e) + labels[g.dst(e).index()].dist == h
                    {
                        tight.push(e);
                    }
                }
                tight_at.push(tight.len() as u32);
            }
        }
        Tree {
            dst,
            labels,
            order: self.settled.clone(),
            gap,
            tight_at,
            tight,
        }
    }

    /// Fills `path_bits` for `tree`'s destination, each node's row its
    /// next hop's plus itself.
    fn trace_paths(&mut self, tree: &Tree) {
        let (g, words) = (self.g, self.root_bits.len());
        self.path_bits.clear();
        self.path_bits.resize(tree.labels.len() * words, 0);
        for &v in &tree.order {
            let row = v.index() * words;
            if let Some(next) = tree.labels[v.index()].prev() {
                let from = g.dst(next).index() * words;
                self.path_bits.copy_within(from..from + words, row);
            }
            self.path_bits[row + v.index() / 64] |= 1 << (v.index() % 64);
        }
        self.path_dst = Some(tree.dst);
    }

    /// Bans (or clears) node `v` from the searches.
    fn ban_node(&mut self, v: NodeId, banned: bool) {
        self.node_banned[v.index()] = banned;
        let bit = 1 << (v.index() % 64);
        let word = &mut self.root_bits[v.index() / 64];
        *word = if banned { *word | bit } else { *word & !bit };
    }

    /// For a spur search from `spur`, on the root with the bans in force:
    /// a lower bound on any spur path's weight (`INFINITY`: there is none),
    /// the weight of one the tree spells out (`INFINITY`: none clear of
    /// the root), and the spur path itself when the tree decides it (cut
    /// 4): its first edge, after which it is the tree's.
    fn spur_bounds(&self, tree: &Tree, spur: NodeId) -> (f64, f64, Option<EdgeId>) {
        let (g, words) = (self.g, self.root_bits.len());
        // Tree edges are admitted and every ban leaves `spur`: a tree path
        // off the root's nodes is off its bans too.
        let clear = |v: NodeId| {
            let row = &self.path_bits[v.index() * words..][..words];
            row.iter().zip(&self.root_bits).all(|(p, r)| p & r == 0)
        };
        let (mut at_least, mut runner_up, mut at_most) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut lightest = None;
        for &e in g.out_edges(spur) {
            let v = g.dst(e);
            if self.edge_blocked[e.index()] || self.node_banned[v.index()] {
                continue;
            }
            // Infinite where `v` cannot reach the target: no bound moves.
            let via = g.weight(e) + tree.labels[v.index()].dist;
            if via < at_least {
                (runner_up, at_least, lightest) = (at_least, via, Some(e));
            } else {
                runner_up = runner_up.min(via);
            }
            if via < at_most && clear(v) {
                at_most = via;
            }
        }
        // The lightest edge's tree path is clear, and every other spur path
        // is heavier by more than the margin: any search returns it.
        let answer = lightest.filter(|&e| {
            let gap = (runner_up - at_least).min(tree.gap[g.dst(e).index()]);
            at_most == at_least && gap > at_least * MARGIN
        });
        (at_least, at_most, answer)
    }

    /// Pools the shortest path that follows `root` (weighing
    /// `root_weight`) to `spur` and goes on to the target over the
    /// unbanned subgraph — unless there is none, the pool has it, or
    /// (cut 1) `wanted` pooled candidates are lighter than it can be.
    /// Says whether it searched.
    fn pool_spur(
        &mut self,
        tree: &Tree,
        root: &[EdgeId],
        root_weight: f64,
        spur: NodeId,
        wanted: usize,
    ) -> bool {
        let g = self.g;
        let (at_least, at_most, answer) = self.spur_bounds(tree, spur);
        let floor = root_weight + at_least;
        // The pool runs heaviest first, so the lighter ones are a suffix.
        let lighter = |c: &Pooled| c.weight * (1.0 + MARGIN) < floor;
        let heavier = self.pool.partition_point(|c| !lighter(c));
        if at_least == f64::INFINITY || self.pool.len() - heavier >= wanted {
            return false;
        }
        let start = self.pool_edges.len();
        let mut searched = false;
        let found = if let Some(first) = answer {
            self.answered += 1;
            self.pool_edges.extend_from_slice(root);
            self.pool_edges.push(first);
            let mut cur = g.dst(first);
            while let Some(e) = tree.labels[cur.index()].prev() {
                self.pool_edges.push(e);
                cur = g.dst(e);
            }
            true
        } else if self.integral && self.walk_ties(tree, spur, at_least) {
            self.answered += 1;
            self.pool_edges.extend(root.iter().rev());
            self.pool_edges[start..].reverse();
            true
        } else {
            searched = true;
            // Cut 3; an infinite `at_most` refuses nothing.
            let cut = at_most * (1.0 + MARGIN);
            let h = |v: NodeId| tree.labels[v.index()].dist;
            self.search::<false>(spur, Some(tree.dst), |v, nd| nd + h(v) <= cut);
            let mut cur = tree.dst;
            while let Some(e) = self.labels[cur.index()].prev() {
                self.pool_edges.push(e);
                cur = g.src(e);
            }
            self.pool_edges.extend(root.iter().rev());
            self.pool_edges[start..].reverse();
            cur == spur
        };
        let (pooled, edges) = self.pool_edges.split_at(start);
        if found {
            let weight = edges.iter().map(|&e| g.weight(e)).sum();
            // Every accepted path on this root has its next edge banned,
            // so only the pool can hold this path already — at the place
            // it would be inserted.
            let key = |c: &Pooled| (c.weight, &pooled[c.span.clone()]);
            let found = self
                .pool
                .binary_search_by(|c| extraction_order((weight, edges), key(c)));
            if let Err(at) = found {
                let (dev, span) = (root.len(), start..start + edges.len());
                self.pool.insert(at, Pooled { weight, dev, span });
                return searched;
            }
        }
        self.pool_edges.truncate(start);
        searched
    }

    /// Cut 5, on integral weights: when a spur path of weight `at_least`
    /// exists, pushes the one a search from `spur` returns, target first,
    /// and says so; otherwise pushes nothing. Every such path is a chain
    /// of tight edges (`w(e) + h(head) = h(tail)`, or `= at_least` out of
    /// the spur), and a node `u` on one lies `d(u) = at_least − h(u)` from
    /// the spur. With positive weights a search settles nodes in `(d, id)`
    /// order, and a node keeps the predecessor that first reached it at
    /// its distance: the earliest settled of its tight predecessors, over
    /// the first of their tight edges. So the path is read backwards from
    /// the target, over the nodes a tight walk from the spur reaches.
    fn walk_ties(&mut self, tree: &Tree, spur: NodeId, at_least: f64) -> bool {
        let g = self.g;
        let h = |v: NodeId| tree.labels[v.index()].dist;
        let open = |ws: &Self, e: EdgeId| !ws.edge_blocked[e.index()];
        let from_spur = |ws: &Self, e: EdgeId| open(ws, e) && g.weight(e) + h(g.dst(e)) == at_least;
        self.reached.fill(false);
        for &e in g.out_edges(spur) {
            let v = g.dst(e);
            if from_spur(self, e) && !self.node_banned[v.index()] && !self.reached[v.index()] {
                self.reached[v.index()] = true;
                self.stack.push(v);
            }
        }
        while let Some(x) = self.stack.pop() {
            let span = tree.tight_at[x.index()] as usize..tree.tight_at[x.index() + 1] as usize;
            for &e in &tree.tight[span] {
                let y = g.dst(e);
                if !self.node_banned[y.index()] && !self.reached[y.index()] {
                    self.reached[y.index()] = true;
                    self.stack.push(y);
                }
            }
        }
        if !self.reached[tree.dst.index()] {
            return false;
        }
        let into = |x: NodeId| move |e: &&EdgeId| g.dst(**e) == x;
        let mut x = tree.dst;
        loop {
            // The spur, at distance 0, settles first.
            let spur_edge = (g.out_edges(spur).iter())
                .filter(into(x))
                .find(|&&e| from_spur(self, e));
            if let Some(&e) = spur_edge {
                self.pool_edges.push(e);
                return true;
            }
            let tight = |e: EdgeId| open(self, e) && g.weight(e) + h(g.dst(e)) == h(g.src(e));
            let earliest = (g.in_edges(x).iter())
                .map(|&e| (e, g.src(e)))
                .filter(|&(e, u)| u != spur && self.reached[u.index()] && tight(e))
                .map(|(_, u)| u)
                .min_by(|&a, &b| h(b).total_cmp(&h(a)).then(a.cmp(&b)))
                .expect("a reached node has a reached tight predecessor");
            let first = (g.out_edges(earliest).iter())
                .filter(into(x))
                .find(|&&e| tight(e))
                .expect("the predecessor's tight edge");
            self.pool_edges.push(*first);
            x = earliest;
        }
    }

    /// Bans (or clears) the `i`-th edge of every accepted path that
    /// shares the last one's first `i` edges — `shared` holds each one's
    /// common edge prefix with the last, edge-wise: node-wise comparison
    /// would over-ban on multigraphs — so that a spur path must deviate
    /// at `i`. The accepted paths are `accepted`, path `j` ending at
    /// `ends[j]`.
    fn ban_continuations(
        &mut self,
        (accepted, ends, shared): (&[EdgeId], &[usize], &[usize]),
        i: usize,
        banned: bool,
    ) {
        let mut start = 0;
        for (&end, &common) in ends.iter().zip(shared) {
            if common >= i && end - start > i {
                self.edge_blocked[accepted[start + i].index()] = banned;
            }
            start = end;
        }
    }

    /// Yen's loop for one pair, leaving its accepted paths in `accepted`
    /// and `ends`.
    fn yen(&mut self, tree: &Tree, src: NodeId, k: usize) {
        let g = self.g;
        self.pool.clear();
        self.pool_edges.clear();
        // Out of `self` while the spur searches run, which borrow it whole.
        let mut accepted = std::mem::take(&mut self.accepted);
        let mut ends = std::mem::take(&mut self.ends);
        let mut shared = std::mem::take(&mut self.shared);
        accepted.clear();
        ends.clear();
        // The shortest path is the spur path of the empty root.
        self.ban_node(src, true);
        self.pool_spur(tree, &[], 0.0, src, k);
        self.ban_node(src, false);
        // Extract the cheapest candidate — the pool's last, ties broken
        // on edge ids for determinism — and deviate from it.
        while let Some(Pooled { dev, span, .. }) = self.pool.pop() {
            let start = accepted.len();
            accepted.extend_from_slice(&self.pool_edges[span]);
            ends.push(accepted.len());
            if ends.len() == k {
                break;
            }
            let prev = &accepted[start..];
            debug_assert!(Path::from_edges(g, prev.to_vec()).is_simple());
            shared.clear();
            let mut from = 0;
            for &end in &ends {
                shared.push(common_prefix(&accepted[from..end], prev));
                from = end;
            }
            // Cut 2: spur indices start at `dev`, on `prev`'s root there.
            self.tallies.1 += dev as u64;
            for &e in &prev[..dev] {
                self.ban_node(g.src(e), true);
            }
            // The root's weight, summed in the order a fresh sum would.
            let mut root_weight: f64 = prev[..dev].iter().map(|&e| g.weight(e)).sum();
            for i in dev..prev.len() {
                let (spur, root) = (g.src(prev[i]), &prev[..i]);
                let paths = (&accepted[..], &ends[..], &shared[..]);
                self.ban_continuations(paths, i, true);
                // Off the root's nodes, the spur's included (a search
                // expands its own start): this and later spur paths stay
                // simple.
                self.ban_node(spur, true);
                let searched = self.pool_spur(tree, root, root_weight, spur, k - ends.len());
                self.tallies.0 += u64::from(searched);
                self.tallies.1 += u64::from(!searched);
                self.ban_continuations(paths, i, false);
                root_weight += g.weight(prev[i]);
            }
            for &e in prev {
                self.ban_node(g.src(e), false);
            }
        }
        (self.accepted, self.ends, self.shared) = (accepted, ends, shared);
    }
}

/// The order candidates leave the pool in: lighter first, then by edge
/// ids. The pool is kept sorted the other way round, so the next one out
/// is its last.
fn extraction_order(a: (f64, &[EdgeId]), b: (f64, &[EdgeId])) -> std::cmp::Ordering {
    (a.0.total_cmp(&b.0)).then_with(|| a.1.cmp(b.1))
}

/// How many leading edges `a` and `b` share.
fn common_prefix(a: &[EdgeId], b: &[EdgeId]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use uba_obs::{check, ensure, SplitMix64};

    /// Classic Yen example-style graph:
    ///
    /// ```text
    ///      1 --1-- 3
    ///     /|       |\
    ///    1 |2     2| 1
    ///   /  |       |  \
    ///  0   +---4---+   5
    ///   \  |       |  /
    ///    2 |       | 2
    ///     \|       |/
    ///      2 --3-- 4
    /// ```
    fn mesh() -> Digraph {
        let mut g = Digraph::with_nodes(6);
        let e = |g: &mut Digraph, a: u32, b: u32, w: f64| {
            g.add_link(NodeId(a), NodeId(b), w);
        };
        e(&mut g, 0, 1, 1.0);
        e(&mut g, 0, 2, 2.0);
        e(&mut g, 1, 2, 2.0);
        e(&mut g, 1, 3, 1.0);
        e(&mut g, 2, 4, 3.0);
        e(&mut g, 3, 4, 2.0);
        e(&mut g, 3, 5, 1.0);
        e(&mut g, 4, 5, 2.0);
        g
    }

    #[test]
    fn shortest_first_and_sorted() {
        let g = mesh();
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(5), 4);
        assert!(!ps.is_empty());
        // First is the true shortest: 0-1-3-5 with weight 3.
        assert_eq!(
            ps[0].nodes,
            vec![NodeId(0), NodeId(1), NodeId(3), NodeId(5)]
        );
        let weights: Vec<f64> = ps.iter().map(|p| p.weight(&g)).collect();
        for w in weights.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "not sorted: {weights:?}");
        }
    }

    #[test]
    fn all_paths_simple_and_distinct() {
        let g = mesh();
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(5), 10);
        let mut seen = HashSet::new();
        for p in &ps {
            assert!(p.is_simple());
            assert_eq!(p.source(), Some(NodeId(0)));
            assert_eq!(p.target(), Some(NodeId(5)));
            assert!(seen.insert(p.edges.clone()), "duplicate path");
        }
        assert!(ps.len() >= 4);
    }

    #[test]
    fn k_zero_and_same_endpoints_empty() {
        let g = mesh();
        assert!(k_shortest_paths(&g, NodeId(0), NodeId(5), 0).is_empty());
        assert!(k_shortest_paths(&g, NodeId(0), NodeId(0), 3).is_empty());
    }

    #[test]
    fn unreachable_target_empty() {
        let mut g = mesh();
        let island = g.add_node("island");
        assert!(k_shortest_paths(&g, NodeId(0), island, 3).is_empty());
    }

    #[test]
    fn fewer_paths_than_requested() {
        // A line has exactly one simple path between its ends.
        let mut g = Digraph::with_nodes(3);
        g.add_link(NodeId(0), NodeId(1), 1.0);
        g.add_link(NodeId(1), NodeId(2), 1.0);
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(2), 5);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn counts_simple_paths_in_small_complete_graph() {
        // K4: simple paths between two fixed nodes = 1 direct + 2 length-2 +
        // 2 length-3 = 5.
        let mut g = Digraph::with_nodes(4);
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                g.add_link(NodeId(a), NodeId(b), 1.0);
            }
        }
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(3), 100);
        assert_eq!(ps.len(), 5);
    }

    #[test]
    fn filtered_avoids_banned_edges() {
        let g = mesh();
        // Ban the 1-3 link (both directions): the true shortest path
        // 0-1-3-5 becomes unavailable.
        let banned: Vec<EdgeId> = g
            .edges()
            .filter(|&e| {
                let (a, b) = (g.src(e), g.dst(e));
                (a == NodeId(1) && b == NodeId(3)) || (a == NodeId(3) && b == NodeId(1))
            })
            .collect();
        let ps = k_shortest_paths_filtered(&g, NodeId(0), NodeId(5), 5, |e| !banned.contains(&e));
        assert!(!ps.is_empty());
        for p in &ps {
            for e in &p.edges {
                assert!(!banned.contains(e), "banned edge used");
            }
        }
    }

    #[test]
    fn filter_can_disconnect() {
        let mut g = Digraph::with_nodes(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 1.0);
        let ps = k_shortest_paths_filtered(&g, NodeId(0), NodeId(1), 3, |x| x != e);
        assert!(ps.is_empty());
    }

    #[test]
    fn deterministic_output() {
        let g = mesh();
        let a = k_shortest_paths(&g, NodeId(0), NodeId(5), 6);
        let b = k_shortest_paths(&g, NodeId(0), NodeId(5), 6);
        assert_eq!(a, b);
    }

    /// A random multigraph on 2..=10 nodes whose weights come from one of
    /// six families: small integers with zeros (plateaus), tenths (sums
    /// an ulp apart), distinct reals (mostly unique paths), weights 2^55
    /// apart from 1 (a forward sum absorbs what the backward one keeps),
    /// units and small positive integers (ties everywhere; cut 5's).
    fn arb_graph(rng: &mut SplitMix64) -> Digraph {
        let family = rng.index(6);
        let weight = |r: &mut SplitMix64| match family {
            0 => [0.0, 0.0, 1.0, 2.0, 3.0][r.index(5)],
            1 => [0.1, 0.2, 0.3, 0.4, 0.6, 0.7][r.index(6)],
            2 => r.range_f64(0.5, 4.0),
            3 => [1.0, 2.0, (1u64 << 55) as f64][r.index(3)],
            4 => 1.0,
            _ => (1 + r.index(4)) as f64,
        };
        let n = 2 + rng.index(9);
        let mut g = Digraph::with_nodes(n);
        for _ in 0..n + rng.index(2 * n) {
            let (a, b) = (rng.index(n) as u32, rng.index(n) as u32);
            if a != b {
                g.add_edge(NodeId(a), NodeId(b), weight(rng));
            }
        }
        g
    }

    /// Cuts 4 and 5 against the search they replace: on random spur
    /// states — a simple root walked off a random node, its nodes and the
    /// spur banned, some of the spur's out-edges blocked, under a random
    /// edge filter — every path the tree answers, and on integral weights
    /// every path the tight walk reads, is the one a full forward search
    /// from that state returns, edge for edge; a declined walk leaves a
    /// heavier path or none. Every outcome occurs.
    #[test]
    fn every_tree_answer_is_what_the_search_returns() {
        let (mut answered, mut declined, mut walked) = (0, 0, 0);
        check("yen_tree_answers", 256, |rng| {
            let g = arb_graph(rng);
            let dead: Vec<bool> = g.edges().map(|_| rng.index(6) == 0).collect();
            let mut ws = YenWorkspace::new(&g, |e| !dead[e.index()]);
            let dst = NodeId(rng.index(g.node_count()) as u32);
            let tree = ws.grow_tree(dst);
            ws.trace_paths(&tree);
            for _ in 0..16 {
                let mut spur = NodeId(rng.index(g.node_count()) as u32);
                let mut root = Vec::new();
                for _ in 0..rng.index(4) {
                    let next: Vec<EdgeId> = (g.out_edges(spur).iter().copied())
                        .filter(|&e| !dead[e.index()] && !root.contains(&g.dst(e)))
                        .filter(|&e| g.dst(e) != spur && g.dst(e) != dst)
                        .collect();
                    if next.is_empty() {
                        break;
                    }
                    root.push(spur);
                    spur = g.dst(next[rng.index(next.len())]);
                }
                if spur == dst {
                    continue;
                }
                let bans: Vec<EdgeId> = (g.out_edges(spur).iter().copied())
                    .filter(|&e| !dead[e.index()] && rng.index(3) == 0)
                    .collect();
                for &v in root.iter().chain([&spur]) {
                    ws.ban_node(v, true);
                }
                for &e in &bans {
                    ws.edge_blocked[e.index()] = true;
                }
                let (at_least, _, answer) = ws.spur_bounds(&tree, spur);
                ws.search::<false>(spur, None, |_, _| true);
                let mut got = Vec::new();
                let mut cur = dst;
                while let Some(e) = ws.labels[cur.index()].prev() {
                    got.push(e);
                    cur = g.src(e);
                }
                got.reverse();
                let heavier = ws.labels[dst.index()].dist > at_least;
                let state = format!("spur {spur:?} root {root:?} bans {bans:?} to {dst:?}");
                if let Some(first) = answer {
                    answered += 1;
                    let mut want = vec![first];
                    while let Some(e) = tree.labels[g.dst(*want.last().unwrap()).index()].prev() {
                        want.push(e);
                    }
                    ensure!(got == want, "{state}: tree {want:?}, search {got:?}");
                } else if at_least.is_finite() {
                    declined += 1;
                }
                if ws.integral && at_least.is_finite() {
                    ws.pool_edges.clear();
                    if ws.walk_ties(&tree, spur, at_least) {
                        walked += 1;
                        ws.pool_edges.reverse();
                        ensure!(
                            got == ws.pool_edges,
                            "{state}: walk {:?}, search {got:?}",
                            ws.pool_edges
                        );
                    } else {
                        // No path of the lower bound's weight: the search's is
                        // heavier, or there is none.
                        ensure!(got.is_empty() || heavier, "{state}: walk declined {got:?}");
                    }
                }
                for &v in root.iter().chain([&spur]) {
                    ws.ban_node(v, false);
                }
                for &e in &bans {
                    ws.edge_blocked[e.index()] = false;
                }
            }
            Ok(())
        });
        assert!(
            answered > 300 && declined > 60 && walked > 150,
            "{answered} answered, {declined} declined, {walked} walked"
        );
    }
}
