//! Safe route selection (Section 5.2).
//!
//! A no-backtrack greedy search over source/destination pairs:
//!
//! 1. pairs are visited in decreasing order of shortest-path distance;
//! 2. for each pair, up to `k` candidate routes come from Yen's
//!    k-shortest-paths — generated for every pair before the first is
//!    routed, on every core, into one flat `Store` that runs read by
//!    visit position as borrowed slices, so the probes of a search share
//!    them across threads; a generation adds its `routing.candidates.*`
//!    when it ends;
//!    candidates that keep the route-dependency graph acyclic are
//!    preferred (queueing feedback inflates delays — Section 5.2's
//!    "noncyclic graph with existing routes");
//! 3. among candidates that verify *safe* (every committed route still
//!    meets its deadline under the delay rule's fixed point), the one with
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
//! The greedy routes *demands* (a pair in a class) under any delay rule,
//! through one body: [`select_routes`] hands it Theorem 5 over one class
//! at one `α`, [`crate::multiclass::select_routes_multiclass`] over
//! several at a share each. It
//! returns one [`Selection`] whatever the class count, its delays in the
//! rule's cells ([`uba_delay::rule`]).
//!
//! A greedy run keeps what it writes — its `routing.select.*` and
//! `delay.solve.*` tallies — in one `Writes` value and hands it back
//! with its answer, so a run can be thrown away without a trace: the
//! §5.3 search runs probes it may not need on the other cores and
//! publishes only the probes it adopts ([`crate::search`]). A run checks
//! a cancel flag once per demand and stops early when it is set. The same
//! loop re-routes the pairs a failed link strands, on top of a live
//! configuration's committed routes ([`crate::reconfigure`]).

use crate::pairs::{order_by_distance, Demand, Pair};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use uba_delay::committed::CommittedState;
use uba_delay::metrics::SolveTally;
use uba_delay::routeset::{Route, RouteRef, RouteSet};
use uba_delay::rule::{DelayRule, Theorem5};
use uba_delay::servers::Servers;
use uba_graph::yen::YenWorkspace;
use uba_graph::{Digraph, DynDigraph, EdgeId, Path};
use uba_obs::{Event, Stopwatch};
use uba_traffic::{ClassId, TrafficClass};

/// The candidate routes of one greedy run or search: Yen's `k` shortest
/// paths per pair, whatever the number of classes, probes or pairs,
/// generated once ([`Self::generate`]) into one flat buffer — edge ids,
/// which are also the server chains the overlay is asked about — and read
/// by visit position, so that checking and trying a candidate convert
/// nothing. A committed candidate is copied into the committed state's
/// own flat buffer; an owned [`Route`] and a [`Path`] are rebuilt only
/// for one a caller keeps ([`Self::path`], [`Self::selection`]).
///
/// Candidates depend only on the topology, the admitted edges and the
/// pair — not on `α`, the class or the committed routes — so a caller
/// re-running selection (the §5.3 binary search) shares them across
/// probes, on whatever threads it runs them.
///
/// It holds one buffer of server ids, where each candidate ends in it,
/// and per demand — indexed by its position in the order the demands
/// were generated, the visit order — the run of candidates that is its
/// list. The demands of one pair share one run.
pub(crate) struct Store {
    /// Every candidate's servers (edge ids), one candidate after another.
    servers: Vec<u32>,
    /// Candidate `c`'s servers are `servers[bounds[c]..bounds[c + 1]]`.
    bounds: Vec<u32>,
    /// Per demand, its candidates' indices.
    demands: Vec<Range<u32>>,
    /// Spur searches run and spur indices skipped generating it, summed
    /// over every worker's Yen workspace.
    spurs: (u64, u64),
}

/// One demand's candidates, borrowed from a [`Store`].
#[derive(Clone, Copy)]
struct Candidates<'a> {
    servers: &'a [u32],
    /// One more than there are candidates: candidate `i` is
    /// `servers[bounds[i]..bounds[i + 1]]`.
    bounds: &'a [u32],
}

impl<'a> Candidates<'a> {
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidate `i`'s servers.
    fn get(&self, i: usize) -> &'a [u32] {
        &self.servers[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }
}

impl Store {
    /// The candidates of `demands`, in order, `k` per pair over the edges
    /// of `g` that `edge_ok` admits (all but the failed links), generated
    /// on at most `workers` workers: the caller and, under one
    /// [`std::thread::scope`], a helper per further worker that has a
    /// group to take, each with its own [`YenWorkspace`]. They take whole
    /// destination groups off one counter, so each reverse tree is built
    /// once and a helper that starts late takes fewer groups; every pair's
    /// list, and the tallies summed, are what one workspace running the
    /// pairs in any order gives. A helper's share and tallies are its
    /// thread's value, which the caller absorbs as it joins the helpers in
    /// order. One worker spawns nothing. Adds what generation did to
    /// `routing.candidates.*` before it returns.
    pub(crate) fn generate(
        g: &Digraph,
        edge_ok: impl Fn(EdgeId) -> bool,
        workers: usize,
        demands: &[Demand],
        k: usize,
    ) -> Self {
        let admitted: Vec<bool> = g.edges().map(edge_ok).collect();
        let mut store = Self {
            servers: Vec::new(),
            bounds: vec![0],
            demands: vec![0..0; demands.len()],
            spurs: (0, 0),
        };
        let mut todo: Vec<(Pair, u32)> = demands.iter().map(|d| d.pair).zip(0..).collect();
        let watch = (!todo.is_empty()).then(Stopwatch::start);
        todo.sort_unstable_by_key(|&(pair, at)| (pair.dst, pair.src, at));
        let groups: Vec<&[(Pair, u32)]> = todo.chunk_by(|a, b| a.0.dst == b.0.dst).collect();
        let next = AtomicUsize::new(0);
        let helpers = workers.min(groups.len()).saturating_sub(1);
        let (admitted, groups, next) = (&admitted, &groups, &next);
        let worker = move || {
            let mut yen = YenWorkspace::new(g, |e| admitted[e.index()]);
            let mut share = Share::default();
            generate_groups(&mut yen, groups, next, k, &mut share);
            (share, yen.tallies())
        };
        std::thread::scope(|s| {
            let spawned: Vec<_> = (0..helpers).map(|_| s.spawn(worker)).collect();
            // The caller's share first, then each helper's. Joined by hand,
            // not left to the scope: a join waits for the thread to exit,
            // and so to hand its malloc arena back for the next search's
            // threads to reuse.
            let shares = std::iter::once(worker()).chain(spawned.into_iter().map(join));
            for (share, (searched, skipped)) in shares {
                store.absorb(&share);
                store.spurs.0 += searched;
                store.spurs.1 += skipped;
            }
        });
        let metrics = crate::metrics::select();
        metrics.spur_searches.add(store.spurs.0);
        metrics.spur_skipped.add(store.spurs.1);
        if let Some(watch) = watch {
            metrics.seconds.record(watch.elapsed_secs());
        }
        store
    }

    /// How many demands have their candidates here.
    fn len(&self) -> usize {
        self.demands.len()
    }

    /// The candidates of the demand at position `at`.
    fn at(&self, at: usize) -> Candidates<'_> {
        let Range { start, end } = self.demands[at];
        Candidates {
            servers: &self.servers,
            bounds: &self.bounds[start as usize..=end as usize],
        }
    }

    /// Appends a worker's share, its positions filled in.
    fn absorb(&mut self, share: &Share) {
        let (servers, candidates) = (self.servers.len() as u32, self.bounds.len() as u32 - 1);
        self.servers.extend_from_slice(&share.servers);
        self.bounds
            .extend(share.ends.iter().map(|&end| end + servers));
        for (at, run) in &share.placed {
            self.demands[*at as usize] = run.start + candidates..run.end + candidates;
        }
    }

    /// The path in `g` of candidate `index` of the demand at position
    /// `at`, rebuilt from its edges.
    fn path(&self, g: &Digraph, at: usize, index: usize) -> Path {
        let servers = self.at(at).get(index);
        Path::from_edges(g, servers.iter().map(|&e| EdgeId(e)).collect())
    }

    /// `chosen`, what [`select_in_order`] returned for `ordered` through
    /// this store, as a selection in `g`: its paths and routes rebuilt
    /// from the store.
    pub(crate) fn selection(&self, g: &Digraph, ordered: &[Demand], chosen: Chosen) -> Selection {
        let paths = (chosen.indices.iter().enumerate())
            .map(|(at, &i)| self.path(g, at, i))
            .collect();
        let mut routes = RouteSet::new(g.edge_count());
        for ((at, &i), demand) in chosen.indices.iter().enumerate().zip(ordered) {
            routes.push(Route {
                class: demand.class,
                servers: self.at(at).get(i).to_vec(),
            });
        }
        Selection {
            demands: ordered.to_vec(),
            paths,
            routes,
            delays: chosen.delays,
            route_delays: chosen.route_delays,
        }
    }
}

/// One worker's part of a generation, laid out as a [`Store`]'s own
/// fields with its candidates numbered from 0: each candidate's end in
/// `servers`, and per demand position it generated, its run.
#[derive(Default)]
struct Share {
    servers: Vec<u32>,
    ends: Vec<u32>,
    placed: Vec<(u32, Range<u32>)>,
}

/// How many threads the process may run at once, asked once per process:
/// the answer reads cgroup files and costs tens of microseconds.
pub(crate) fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Waits for a scoped thread to exit and returns its value, or resumes
/// its panic on the caller.
pub(crate) fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
    h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
}

/// `routing.select.*` so far, in plain fields.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct SelectTally {
    candidates: u64,
    pruned: u64,
    cycle_checks: u64,
}

impl SelectTally {
    /// Adds the tallies to the registry.
    pub(crate) fn publish(&self) {
        let metrics = crate::metrics::select();
        metrics.candidates.add(self.candidates);
        metrics.pruned.add(self.pruned);
        metrics.cycle_checks.add(self.cycle_checks);
    }
}

/// What a greedy run wrote, held back for whoever adopts the run: its
/// `routing.select.*` and `delay.solve.*` tallies and, for a run under
/// [`uba_obs::trace::hold`], its flight-recorder events. Publishing adds
/// them; dropping them discards them.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Writes {
    pub(crate) select: SelectTally,
    pub(crate) solve: SolveTally,
    pub(crate) events: Vec<Event>,
}

impl Writes {
    /// Adds the tallies to the registry and releases the events.
    pub(crate) fn publish(self) {
        self.select.publish();
        self.solve.publish();
        uba_obs::trace::release(self.events);
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
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        Self {
            k_candidates: 8,
            order_by_distance: true,
            prefer_acyclic: true,
            min_delay_choice: true,
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

/// A successful route selection, over any number of classes.
#[derive(Clone, Debug)]
pub struct Selection {
    /// Demands in the order they were routed.
    pub demands: Vec<Demand>,
    /// Chosen route per demand (same order).
    pub paths: Vec<Path>,
    /// The committed route set (same order).
    pub routes: RouteSet,
    /// Delay bounds at the final fixed point, in the delay rule's cells
    /// ([`uba_delay::rule`]): `delays[server · classes + class]`, one per
    /// server with one class.
    pub delays: Vec<f64>,
    /// Per-route end-to-end delays at the final fixed point.
    pub route_delays: Vec<f64>,
}

/// `pairs` as demands of the single real-time class.
pub(crate) fn class0_demands(pairs: &[Pair]) -> Vec<Demand> {
    let class = ClassId(0);
    pairs.iter().map(|&pair| Demand { class, pair }).collect()
}

/// Chooses `demand`'s route among its `candidates` per the three
/// sub-heuristics and commits it to `state` (the new fixed point) and
/// `overlay`; returns the chosen candidate's index ([`Store::path`]
/// rebuilds its path). Both are untouched on `Err`.
fn choose_route<R: DelayRule>(
    state: &mut CommittedState<'_, R>,
    overlay: &mut DynDigraph,
    demand: Demand,
    cfg: &HeuristicConfig,
    candidates: Candidates<'_>,
    tally: &mut SelectTally,
) -> Result<usize, SelectionError> {
    if candidates.is_empty() {
        return Err(SelectionError::NoRoute(demand.pair));
    }
    // Heuristic (2): weigh only feedback-free candidates when there are
    // any, every candidate when there are none.
    let acyclic_only = cfg.prefer_acyclic.then_some(&mut *overlay);
    let (mut best, weighed) = weigh(state, acyclic_only, demand, cfg, candidates, tally);
    if !weighed {
        (best, _) = weigh(state, None, demand, cfg, candidates, tally);
    }
    let Some((ci, _)) = best else {
        return Err(SelectionError::NoSafeRoute(demand.pair));
    };
    let servers = candidates.get(ci);
    let committed = state.commit(RouteRef {
        class: demand.class,
        servers,
    });
    assert!(committed, "a route that just verified safe still does");
    overlay.add_chain(servers);
    Ok(ci)
}

/// Heuristic (3) over `candidates` in index order — with `acyclic_only`,
/// over those that keep that overlay acyclic: the safe candidate with the
/// least own delay and that delay, the earlier (shorter) one on a tie, or
/// simply the first safe one (`None` if none is safe); and whether any
/// candidate was weighed at all, which `acyclic_only` may rule out.
fn weigh<R: DelayRule>(
    state: &mut CommittedState<'_, R>,
    mut acyclic_only: Option<&mut DynDigraph>,
    demand: Demand,
    cfg: &HeuristicConfig,
    candidates: Candidates<'_>,
    tally: &mut SelectTally,
) -> (Option<(usize, f64)>, bool) {
    let mut best: Option<(usize, f64)> = None;
    let mut weighed = false;
    for ci in 0..candidates.len() {
        let route = RouteRef {
            class: demand.class,
            servers: candidates.get(ci),
        };
        // Adding a route only raises delays, so a candidate whose delay at
        // the committed point is already no better than the incumbent's
        // has lost, ties included, acyclic or not: drop it before asking
        // the overlay, let alone solving. There is an incumbent only once
        // some candidate passed the overlay, so no fallback is skipped.
        let least = best.map_or(f64::INFINITY, |(_, least)| least);
        if best.is_some() && state.delay_floor(route).is_some_and(|floor| floor >= least) {
            tally.candidates += 1;
            tally.pruned += 1;
            continue;
        }
        if let Some(overlay) = acyclic_only.as_deref_mut() {
            tally.cycle_checks += 1;
            if overlay.chain_would_create_cycle(route.servers) {
                continue;
            }
        }
        weighed = true;
        tally.candidates += 1;
        // Only a delay below the incumbent's wins (the earlier candidate
        // keeps a tie), and the solve stops as soon as it cannot.
        if let Some(own) = state.try_route(route, least) {
            best = Some((ci, own));
            if !cfg.min_delay_choice {
                break;
            }
        }
    }
    (best, weighed)
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
/// `alpha`: the greedy under a one-class [`Theorem5`] (Theorem 3).
pub fn select_routes(
    g: &Digraph,
    servers: &Servers,
    class: &TrafficClass,
    alpha: f64,
    pairs: &[Pair],
    cfg: &HeuristicConfig,
) -> Result<Selection, SelectionError> {
    let rule = Theorem5::new([class], vec![alpha; servers.len()]);
    select_under_rule(g, servers, rule, &class0_demands(pairs), cfg)
}

/// The §5.2 greedy over `demands` under any delay rule: their
/// [`visit_order`], routed by [`select_onto`] on every edge from an empty
/// committed state under `rule`.
pub(crate) fn select_under_rule<R: DelayRule>(
    g: &Digraph,
    servers: &Servers,
    rule: R,
    demands: &[Demand],
    cfg: &HeuristicConfig,
) -> Result<Selection, SelectionError> {
    let ordered = visit_order(g, demands, cfg);
    let state = CommittedState::empty(servers, rule);
    let overlay = &mut DynDigraph::new(g.edge_count());
    select_onto(g, |_| true, state, overlay, &ordered, cfg)
}

/// One greedy run outside a search: one [`Store`] of `ordered`'s
/// candidates over the edges of `g` that `edge_ok` admits,
/// [`select_in_order`] from `state` onto `overlay` with its writes
/// published, and the selection rebuilt from the store.
pub(crate) fn select_onto<R: DelayRule>(
    g: &Digraph,
    edge_ok: impl Fn(EdgeId) -> bool,
    state: CommittedState<'_, R>,
    overlay: &mut DynDigraph,
    ordered: &[Demand],
    cfg: &HeuristicConfig,
) -> Result<Selection, SelectionError> {
    let store = Store::generate(g, edge_ok, workers(), ordered, cfg.k_candidates);
    let never = AtomicBool::new(false);
    let (chosen, writes) = select_in_order(state, overlay, ordered, cfg, &store, &never);
    writes.publish();
    Ok(store.selection(g, ordered, chosen?))
}

/// What the greedy committed, before any path or route is rebuilt: per
/// demand, in visiting order, the index of its route among the demand's
/// candidates. [`select_in_order`]'s callers turn only the selection they
/// return into paths and routes ([`Store::selection`]).
pub(crate) struct Chosen {
    indices: Vec<usize>,
    /// Cells, as [`Selection::delays`].
    delays: Vec<f64>,
    route_delays: Vec<f64>,
}

/// The §5.2 greedy over demands in the order to route them, committing
/// onto `state` and its route-dependency `overlay` — empty for a probe
/// at the utilizations to verify, a configuration's own for a re-route —
/// with the candidates of every demand in `store`, at its position: the
/// §5.3 binary search re-runs selection per probe, and neither the order
/// nor the candidates depend on `α`. Stops at the first demand it cannot
/// route, `overlay` then holding the chains committed before it. Hands
/// back what the run wrote, unpublished, beside its answer. Once
/// `cancel` is set (a hint, read once per demand) the run stops at the
/// next demand and reports it unroutable: a cancelled run is thrown
/// away, answer and writes.
pub(crate) fn select_in_order<R: DelayRule>(
    mut state: CommittedState<'_, R>,
    overlay: &mut DynDigraph,
    ordered: &[Demand],
    cfg: &HeuristicConfig,
    store: &Store,
    cancel: &AtomicBool,
) -> (Result<Chosen, SelectionError>, Writes) {
    assert_eq!(store.len(), ordered.len(), "one candidate list per demand");
    let mut tally = SelectTally::default();
    let mut indices = Vec::with_capacity(ordered.len());
    let mut failed = None;
    for (at, &demand) in ordered.iter().enumerate() {
        if cancel.load(Ordering::Relaxed) {
            failed = Some(SelectionError::NoSafeRoute(demand.pair));
            break;
        }
        match choose_route(&mut state, overlay, demand, cfg, store.at(at), &mut tally) {
            Ok(i) => indices.push(i),
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    let writes = Writes {
        select: tally,
        solve: state.take_tally(),
        events: Vec::new(),
    };
    let chosen = match failed {
        Some(e) => Err(e),
        None => {
            let (delays, route_delays) = state.into_parts();
            Ok(Chosen {
                indices,
                delays,
                route_delays,
            })
        }
    };
    (chosen, writes)
}

/// Takes whole destination groups — each a destination's demand
/// positions, sorted by pair — off `next` until none is left, generating
/// each pair's `k` candidates once for all its demands into `share`.
fn generate_groups(
    yen: &mut YenWorkspace<'_>,
    groups: &[&[(Pair, u32)]],
    next: &AtomicUsize,
    k: usize,
    share: &mut Share,
) {
    // The counter only hands out indices; the join orders every helper's
    // writes before the caller reads them.
    while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
        for same in group.chunk_by(|a, b| a.0 == b.0) {
            let Pair { src, dst } = same[0].0;
            let first = share.ends.len() as u32;
            yen.k_shortest_into(src, dst, k, &mut share.servers, &mut share.ends);
            let run = first..share.ends.len() as u32;
            (share.placed).extend(same.iter().map(|&(_, at)| (at, run.clone())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::all_ordered_pairs;
    use uba_graph::{k_shortest_paths_filtered, NodeId};
    use uba_topology::{mci, ring, torus};

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
        // Every route under the 100 ms deadline: a positive worst slack.
        assert!(sel.route_delays.iter().all(|&rd| rd < 0.1));
        for (d, path) in sel.demands.iter().zip(&sel.paths) {
            assert_eq!(path.source(), Some(d.pair.src));
            assert_eq!(path.target(), Some(d.pair.dst));
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
        // Two runs on one generation.
        let ordered = visit_order(&g, &class0_demands(&pairs), &cfg);
        let store = Store::generate(&g, |_| true, workers(), &ordered, cfg.k_candidates);
        let never = AtomicBool::new(false);
        let cached = || {
            let rule = Theorem5::new([&voip()], vec![0.3; servers.len()]);
            let state = CommittedState::empty(&servers, rule);
            let overlay = &mut DynDigraph::new(g.edge_count());
            let (chosen, _) = select_in_order(state, overlay, &ordered, &cfg, &store, &never);
            chosen.unwrap()
        };
        let (first, second) = (cached(), cached());
        let first = store.selection(&g, &ordered, first);
        let second = store.selection(&g, &ordered, second);
        // One list per demand, and the spur work of one pass over the
        // pairs.
        assert_eq!(store.len(), pairs.len());
        let mut once = YenWorkspace::new(&g, |_| true);
        for p in &pairs {
            once.k_shortest_paths(p.src, p.dst, cfg.k_candidates);
        }
        assert_eq!(store.spurs, once.tallies());
        assert_eq!(plain.paths, first.paths);
        assert_eq!(plain.paths, second.paths);
        assert_eq!(plain.route_delays, first.route_delays);
        assert_eq!(plain.route_delays, second.route_delays);
    }

    /// Position `at`'s candidates in `store`, as paths in `g`.
    fn paths_at(store: &Store, g: &Digraph, at: usize) -> Vec<Path> {
        (0..store.at(at).len())
            .map(|i| store.path(g, at, i))
            .collect()
    }

    #[test]
    fn search_wide_generation_gives_each_pair_its_own_list() {
        let masked = mci();
        let link_2_5 = [(2, 5), (5, 2)].map(|(a, b)| masked.find_edge(NodeId(a), NodeId(b)));
        let cases = [
            (mci(), [None; 2]),
            (ring(8), [None; 2]),
            (torus(4, 4), [None; 2]),
            (masked, link_2_5),
        ];
        for (g, cut) in &cases {
            let edge_ok = |e: EdgeId| !cut.contains(&Some(e));
            let pairs = all_ordered_pairs(g);
            // Two classes per pair: still one generation per pair.
            let demands: Vec<Demand> = (0..2)
                .flat_map(|c| {
                    pairs.iter().map(move |&pair| Demand {
                        class: ClassId(c),
                        pair,
                    })
                })
                .collect();
            let mut serial = YenWorkspace::new(g, edge_ok);
            for p in &pairs {
                serial.k_shortest_paths(p.src, p.dst, 8);
            }
            for workers in 1..=3 {
                let store = Store::generate(g, edge_ok, workers, &demands, 8);
                assert_eq!(store.len(), demands.len());
                for (at, d) in demands.iter().enumerate() {
                    let Pair { src, dst } = d.pair;
                    let want = k_shortest_paths_filtered(g, src, dst, 8, edge_ok);
                    assert_eq!(paths_at(&store, g, at), want, "{workers} workers, {d:?}");
                }
                assert_eq!(store.spurs, serial.tallies(), "{workers} workers");
            }
        }
    }

    /// A digraph on `n` nodes with random edges — parallel edges, zero
    /// weights and weights drawn from a few values, so that paths tie —
    /// over a ring, so that most pairs have a route.
    fn random_digraph(rng: &mut uba_obs::SplitMix64, n: usize) -> Digraph {
        let mut g = Digraph::with_nodes(n);
        let weight = |rng: &mut uba_obs::SplitMix64| [0.0, 1.0, 1.0, 2.0, 3.0][rng.index(5)];
        for a in 0..n {
            let w = weight(rng);
            g.add_edge(NodeId(a as u32), NodeId(((a + 1) % n) as u32), w);
        }
        for _ in 0..rng.index(3 * n) {
            let (a, b) = (rng.index(n), rng.index(n));
            if a != b {
                let w = weight(rng);
                g.add_edge(NodeId(a as u32), NodeId(b as u32), w);
            }
        }
        g
    }

    /// The store is Yen, position for position: on random digraphs with
    /// failed links, every demand's slices — in visit order, at one, two
    /// and three workers — are `k_shortest_paths_filtered` for its pair.
    #[test]
    fn the_store_is_yen_position_for_position() {
        uba_obs::check("candidate_store", 48, |rng| {
            let n = 3 + rng.index(6);
            let g = random_digraph(rng, n);
            let failed: Vec<bool> = g.edges().map(|_| rng.index(6) == 0).collect();
            let edge_ok = |e: EdgeId| !failed[e.index()];
            let k = 1 + rng.index(8);
            let node = |rng: &mut uba_obs::SplitMix64| NodeId(rng.index(n) as u32);
            // Repeats, two classes, and pairs with no route or src == dst.
            let demands: Vec<Demand> = (0..1 + rng.index(3 * n))
                .map(|_| Demand {
                    class: ClassId(rng.index(2)),
                    pair: Pair {
                        src: node(rng),
                        dst: node(rng),
                    },
                })
                .collect();
            let cfg = HeuristicConfig::default();
            let ordered = visit_order(&g, &demands, &cfg);
            let workers = 1 + rng.index(3);
            let store = Store::generate(&g, edge_ok, workers, &ordered, k);
            uba_obs::ensure!(store.len() == ordered.len());
            for (at, d) in ordered.iter().enumerate() {
                let Pair { src, dst } = d.pair;
                let want = k_shortest_paths_filtered(&g, src, dst, k, edge_ok);
                let got = paths_at(&store, &g, at);
                uba_obs::ensure!(got == want, "{workers} workers, k = {k}, {at}: {d:?}");
            }
            Ok(())
        });
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
