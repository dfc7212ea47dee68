//! Safe route selection (Section 5.2).
//!
//! A no-backtrack greedy search over source/destination pairs:
//!
//! 1. pairs are visited in decreasing order of shortest-path distance;
//! 2. for each pair, up to `k` candidate routes come from Yen's
//!    k-shortest-paths; candidates that keep the route-dependency graph
//!    acyclic are preferred (queueing feedback inflates delays — Section
//!    5.2's "noncyclic graph with existing routes");
//! 3. among candidates that verify *safe* (every committed route still
//!    meets its deadline under the Theorem 3 fixed point), the one with
//!    the minimum own end-to-end delay is committed.
//!
//! If no candidate is safe, the algorithm declares failure (the paper's
//! FAILURE outcome) — safe route selection is NP-hard, so this heuristic
//! is deliberately greedy.
//!
//! Every sub-heuristic can be disabled independently (experiment A-RS).
//! Candidates are verified one after another against a
//! [`CommittedState`]: the committed routes' fixed point persists across
//! candidates and pairs, and a candidate costs what it can move — its own
//! hops, the servers whose `Y_k` it raises, the routes through them —
//! not a solve over the whole route set.
//! The greedy routes *demands* (a pair in a class) under either delay rule:
//! [`select_routes`], [`crate::multiclass::select_routes_multiclass`].

use crate::pairs::{order_by_distance, Demand, Pair};
use std::collections::HashMap;
use uba_delay::committed::CommittedState;
use uba_delay::fixed_point::SolveConfig;
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::rule::{by_class, DelayRule};
use uba_delay::servers::Servers;
use uba_graph::yen::YenWorkspace;
use uba_graph::{Digraph, DynDigraph, EdgeId, Path};
use uba_traffic::{ClassId, TrafficClass};

/// The candidate routes of one search: one Yen call per pair on one
/// [`YenWorkspace`], whatever the number of classes, probes or pairs, and
/// per demand the same hops as the delay layer's [`Route`]s, whose server
/// ids are also the chains the overlay is asked about — prepared once, so
/// that checking, trying and committing a candidate convert nothing.
/// Candidates depend only on the topology, the admitted edges and the
/// pair — not on `α`, the class or the committed routes — so a caller
/// re-running selection (the §5.3 binary search) shares them across
/// probes. It also holds [`choose_route`]'s scratch and its tallies:
/// dropping it adds what selection did to `routing.select.*` and what
/// generation did to `routing.candidates.*`.
pub(crate) struct CandidateCache<'g> {
    yen: YenWorkspace<'g>,
    paths: HashMap<Pair, Vec<Path>>,
    routes: HashMap<Demand, Vec<Route>>,
    /// The candidates [`choose_route`] is weighing.
    pool: Vec<usize>,
    tally: SelectTally,
}

/// `routing.select.*` so far, in plain fields.
#[derive(Default)]
struct SelectTally {
    candidates: u64,
    pruned: u64,
    cycle_checks: u64,
}

impl<'g> CandidateCache<'g> {
    /// An empty cache over the edges of `g` that `edge_ok` admits (all
    /// but the failed links).
    pub(crate) fn new(g: &'g Digraph, edge_ok: impl Fn(EdgeId) -> bool) -> Self {
        Self {
            yen: YenWorkspace::new(g, edge_ok),
            paths: HashMap::new(),
            routes: HashMap::new(),
            pool: Vec::new(),
            tally: SelectTally::default(),
        }
    }

    /// `demand`'s candidates as routes in the demand's class — its pair's
    /// `k` shortest paths, the `k` of the pair's first call — with the
    /// scratch and the tallies to weigh them with.
    fn candidates(
        &mut self,
        demand: Demand,
        k: usize,
    ) -> (&[Route], &mut Vec<usize>, &mut SelectTally) {
        let Self {
            yen,
            paths,
            routes,
            pool,
            tally,
        } = self;
        let Pair { src, dst } = demand.pair;
        let paths = paths
            .entry(demand.pair)
            .or_insert_with(|| yen.k_shortest_paths(src, dst, k));
        let in_class = |p| Route::from_path(demand.class, p);
        let routes = routes
            .entry(demand)
            .or_insert_with(|| paths.iter().map(in_class).collect());
        (routes, pool, tally)
    }

    /// The path of `pair`'s candidate `index`.
    pub(crate) fn path(&self, pair: Pair, index: usize) -> &Path {
        &self.paths[&pair][index]
    }

    /// `chosen`, what [`select_in_order`] returned for `ordered` through
    /// this cache, as a selection: its paths cloned out of the cache.
    pub(crate) fn selection(&self, ordered: &[Demand], chosen: Chosen) -> MultiSelection {
        let paths = (ordered.iter().zip(&chosen.indices))
            .map(|(d, &i)| self.path(d.pair, i).clone())
            .collect();
        MultiSelection {
            demands: ordered.to_vec(),
            paths,
            routes: chosen.routes,
            delays: chosen.delays,
            route_delays: chosen.route_delays,
        }
    }
}

impl Drop for CandidateCache<'_> {
    fn drop(&mut self) {
        let (searched, skipped) = self.yen.tallies();
        let metrics = crate::metrics::select();
        metrics.candidates.add(self.tally.candidates);
        metrics.pruned.add(self.tally.pruned);
        metrics.cycle_checks.add(self.tally.cycle_checks);
        metrics.spur_searches.add(searched);
        metrics.spur_skipped.add(skipped);
    }
}

/// Tunables for the safe-route-selection heuristic.
#[derive(Clone, Debug)]
pub struct HeuristicConfig {
    /// Candidate routes per pair (Yen's k). Default 8.
    pub k_candidates: usize,
    /// Heuristic (1): visit pairs in decreasing distance order.
    pub order_by_distance: bool,
    /// Heuristic (2): prefer candidates keeping the route-dependency
    /// graph acyclic.
    pub prefer_acyclic: bool,
    /// Heuristic (3): among safe candidates pick the minimum-delay one
    /// (`false` = first safe candidate, i.e. shortest).
    pub min_delay_choice: bool,
    /// Fixed-point solver settings.
    pub solver: SolveConfig,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        Self {
            k_candidates: 8,
            order_by_distance: true,
            prefer_acyclic: true,
            min_delay_choice: true,
            solver: SolveConfig::default(),
        }
    }
}

/// Why selection failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionError {
    /// The topology has no route at all for this pair.
    NoRoute(Pair),
    /// Routes exist but none verifies safe at this utilization.
    NoSafeRoute(Pair),
}

/// A successful route selection.
#[derive(Clone, Debug)]
pub struct Selection {
    /// Pairs in the order they were routed.
    pub pairs: Vec<Pair>,
    /// Chosen route per pair (same order).
    pub paths: Vec<Path>,
    /// The committed route set (class 0, same order).
    pub routes: RouteSet,
    /// Per-server delay bounds at the final fixed point.
    pub delays: Vec<f64>,
    /// Per-route end-to-end delays at the final fixed point.
    pub route_delays: Vec<f64>,
}

impl Selection {
    /// Worst route slack `min(D − delay)`; `+∞` with no routes.
    pub fn worst_slack(&self, deadline: f64) -> f64 {
        self.route_delays
            .iter()
            .map(|&rd| deadline - rd)
            .fold(f64::INFINITY, f64::min)
    }

    /// The one-class view of what the greedy returns.
    pub(crate) fn one_class(mut sel: MultiSelection) -> Self {
        assert_eq!(sel.delays.len(), 1, "a selection of one class");
        Self {
            pairs: sel.demands.iter().map(|d| d.pair).collect(),
            paths: sel.paths,
            routes: sel.routes,
            delays: sel.delays.remove(0),
            route_delays: sel.route_delays,
        }
    }
}

/// What the greedy returns: a selection over any number of classes.
#[derive(Clone, Debug)]
pub struct MultiSelection {
    /// Demands in the order they were routed.
    pub demands: Vec<Demand>,
    /// Chosen route per demand.
    pub paths: Vec<Path>,
    /// The committed route set.
    pub routes: RouteSet,
    /// `delays[class][server]` at the final fixed point.
    pub delays: Vec<Vec<f64>>,
    /// Per-route end-to-end delays at the final fixed point.
    pub route_delays: Vec<f64>,
}

/// `pairs` as demands of the single real-time class.
pub(crate) fn class0_demands(pairs: &[Pair]) -> Vec<Demand> {
    let class = ClassId(0);
    pairs.iter().map(|&pair| Demand { class, pair }).collect()
}

/// Chooses `demand`'s route among its candidates in `cache` per the
/// three sub-heuristics and commits it to `state` (the new fixed point)
/// and `overlay`; returns the chosen candidate's index
/// ([`CandidateCache::path`] has its path). Both are untouched on `Err`.
/// Shared by bulk selection and incremental reconfiguration.
pub(crate) fn choose_route<R: DelayRule>(
    state: &mut CommittedState<'_, R>,
    overlay: &mut DynDigraph,
    demand: Demand,
    cfg: &HeuristicConfig,
    cache: &mut CandidateCache<'_>,
) -> Result<usize, SelectionError> {
    let (routes, pool, tally) = cache.candidates(demand, cfg.k_candidates);
    if routes.is_empty() {
        return Err(SelectionError::NoRoute(demand.pair));
    }
    // Heuristic (2): keep only feedback-free candidates when possible.
    pool.clear();
    if cfg.prefer_acyclic {
        pool.extend(
            (0..routes.len()).filter(|&i| !overlay.chain_would_create_cycle(&routes[i].servers)),
        );
        tally.cycle_checks += routes.len() as u64;
    }
    if pool.is_empty() {
        pool.extend(0..routes.len());
    }

    // Heuristic (3): the safe candidate with the least own delay, the
    // earlier (shorter) one on a tie — or simply the first safe one.
    let mut best: Option<(usize, f64)> = None;
    for &ci in pool.iter() {
        let route = &routes[ci];
        tally.candidates += 1;
        // Adding a route only raises delays, so a candidate whose delay at
        // the committed point is already no better than the incumbent's
        // would lose the comparison below, ties included: skip the solve.
        if let Some((_, least)) = best {
            if state.delay_floor(route).is_some_and(|floor| floor >= least) {
                tally.pruned += 1;
                continue;
            }
        }
        let Some(own) = state.try_route(route) else {
            continue;
        };
        let better = match best {
            Some((_, least)) => own.total_cmp(&least).is_lt(),
            None => true,
        };
        if better {
            best = Some((ci, own));
        }
        if !cfg.min_delay_choice {
            break;
        }
    }
    let Some((ci, _)) = best else {
        return Err(SelectionError::NoSafeRoute(demand.pair));
    };
    let committed = state.commit(routes[ci].clone());
    assert!(committed, "a route that just verified safe still does");
    overlay.add_chain(&routes[ci].servers);
    Ok(ci)
}

/// The order selection visits `demands` in under `cfg`: decreasing pair
/// distance, and at one pair the higher-priority class first — its route
/// constrains everyone below it.
pub(crate) fn visit_order(g: &Digraph, demands: &[Demand], cfg: &HeuristicConfig) -> Vec<Demand> {
    let mut ordered = demands.to_vec();
    if cfg.order_by_distance {
        // Two stable sorts: the second keeps the first's order on ties.
        ordered.sort_by_key(|d| d.class);
        ordered = order_by_distance(g, &ordered, |d| d.pair);
    }
    ordered
}

/// Runs safe route selection for the two-class system at utilization
/// `alpha`.
pub fn select_routes(
    g: &Digraph,
    servers: &Servers,
    class: &TrafficClass,
    alpha: f64,
    pairs: &[Pair],
    cfg: &HeuristicConfig,
) -> Result<Selection, SelectionError> {
    let ordered = visit_order(g, &class0_demands(pairs), cfg);
    let state = CommittedState::new(servers, class, alpha, &cfg.solver);
    let mut cache = CandidateCache::new(g, |_| true);
    let chosen = select_in_order(g, state, &ordered, cfg, &mut cache)?;
    Ok(Selection::one_class(cache.selection(&ordered, chosen)))
}

/// What the greedy committed, before any path is cloned: per demand, in
/// visiting order, the index of its route among the demand's candidates.
/// [`select_in_order`]'s callers turn only the selection they return into
/// paths ([`CandidateCache::selection`]).
pub(crate) struct Chosen {
    indices: Vec<usize>,
    routes: RouteSet,
    delays: Vec<Vec<f64>>,
    route_delays: Vec<f64>,
}

/// The §5.2 greedy over demands already in [`visit_order`], committing
/// onto `state` (empty, at the utilizations to verify), with the
/// caller's candidate cache — the §5.3 binary search re-runs selection
/// per probe, and neither the order nor the candidates depend on `α`.
pub(crate) fn select_in_order<R: DelayRule>(
    g: &Digraph,
    mut state: CommittedState<'_, R>,
    ordered: &[Demand],
    cfg: &HeuristicConfig,
    cache: &mut CandidateCache<'_>,
) -> Result<Chosen, SelectionError> {
    let mut overlay = DynDigraph::new(g.edge_count());
    let mut indices = Vec::with_capacity(ordered.len());

    for &demand in ordered {
        indices.push(choose_route(&mut state, &mut overlay, demand, cfg, cache)?);
    }

    let classes = state.classes();
    let (routes, delays, route_delays) = state.into_parts();
    Ok(Chosen {
        indices,
        routes,
        delays: by_class(&delays, classes),
        route_delays,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::all_ordered_pairs;
    use uba_topology::{mci, ring};

    fn voip() -> TrafficClass {
        TrafficClass::voip()
    }

    fn mci_setup() -> (Digraph, Servers) {
        let g = mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        (g, servers)
    }

    #[test]
    fn selects_all_pairs_at_low_alpha() {
        let (g, servers) = mci_setup();
        let pairs = all_ordered_pairs(&g);
        let sel = select_routes(
            &g,
            &servers,
            &voip(),
            0.1,
            &pairs,
            &HeuristicConfig::default(),
        )
        .expect("low alpha must be routable");
        assert_eq!(sel.paths.len(), pairs.len());
        assert!(sel.worst_slack(0.1) > 0.0);
        for (p, path) in sel.pairs.iter().zip(&sel.paths) {
            assert_eq!(path.source(), Some(p.src));
            assert_eq!(path.target(), Some(p.dst));
        }
    }

    #[test]
    fn fails_at_absurd_alpha() {
        let (g, servers) = mci_setup();
        let pairs = all_ordered_pairs(&g);
        let r = select_routes(
            &g,
            &servers,
            &voip(),
            0.99,
            &pairs,
            &HeuristicConfig::default(),
        );
        assert!(matches!(r, Err(SelectionError::NoSafeRoute(_))));
    }

    #[test]
    fn no_route_reported_for_disconnected_pair() {
        let mut g = ring(4);
        let island = g.add_node("island");
        let servers = Servers::uniform(&g, 100e6, 6);
        let pairs = vec![Pair {
            src: uba_graph::NodeId(0),
            dst: island,
        }];
        let r = select_routes(
            &g,
            &servers,
            &voip(),
            0.1,
            &pairs,
            &HeuristicConfig::default(),
        );
        assert!(matches!(r, Err(SelectionError::NoRoute(_))));
    }

    #[test]
    fn deterministic() {
        let (g, servers) = mci_setup();
        let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(7).collect();
        let a = select_routes(
            &g,
            &servers,
            &voip(),
            0.25,
            &pairs,
            &HeuristicConfig::default(),
        )
        .unwrap();
        let b = select_routes(
            &g,
            &servers,
            &voip(),
            0.25,
            &pairs,
            &HeuristicConfig::default(),
        )
        .unwrap();
        assert_eq!(a.paths, b.paths);
    }

    #[test]
    fn ablated_config_still_routes_low_alpha() {
        let (g, servers) = mci_setup();
        let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(11).collect();
        let cfg = HeuristicConfig {
            order_by_distance: false,
            prefer_acyclic: false,
            min_delay_choice: false,
            k_candidates: 1,
            ..Default::default()
        };
        let sel = select_routes(&g, &servers, &voip(), 0.1, &pairs, &cfg).unwrap();
        assert_eq!(sel.paths.len(), pairs.len());
        // k=1 without min-delay is exactly shortest-path routing.
        for path in &sel.paths {
            assert!(path.len() <= 4);
        }
    }

    #[test]
    fn candidate_cache_matches_uncached() {
        let (g, servers) = mci_setup();
        let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(10).collect();
        let cfg = HeuristicConfig::default();
        let plain = select_routes(&g, &servers, &voip(), 0.3, &pairs, &cfg).unwrap();
        let mut cache = CandidateCache::new(&g, |_| true);
        // Two runs through the same cache: second run hits every entry.
        let ordered = visit_order(&g, &class0_demands(&pairs), &cfg);
        let mut cached = || {
            let state = CommittedState::new(&servers, &voip(), 0.3, &cfg.solver);
            select_in_order(&g, state, &ordered, &cfg, &mut cache).unwrap()
        };
        let (first, second) = (cached(), cached());
        let first = cache.selection(&ordered, first);
        let second = cache.selection(&ordered, second);
        assert_eq!(cache.paths.len(), pairs.len());
        assert_eq!(plain.paths, first.paths);
        assert_eq!(plain.paths, second.paths);
        assert_eq!(plain.route_delays, first.route_delays);
        assert_eq!(plain.route_delays, second.route_delays);
    }

    #[test]
    fn committed_routes_meet_deadline() {
        let (g, servers) = mci_setup();
        let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(5).collect();
        let sel = select_routes(
            &g,
            &servers,
            &voip(),
            0.35,
            &pairs,
            &HeuristicConfig::default(),
        )
        .unwrap();
        for &rd in &sel.route_delays {
            assert!(rd <= 0.1 + 1e-9, "route delay {rd} exceeds deadline");
        }
    }
}
