//! Maximizing utilization by safe route selection (Section 5.3).
//!
//! Binary search on the assigned utilization `α`, with the search space
//! initialized to Theorem 4's `[lower, upper]` bounds. Each probe runs the
//! chosen route selector and keeps the bisection half according to
//! success/failure; the best feasible `α` and its route set are returned.
//!
//! Probes share work where soundness allows:
//!
//! * **Yen candidates and the visiting order** (heuristic selector) are
//!   α-independent, so one candidate cache and one ordering of the pairs
//!   span all probes of a search. The first probe has the cache generate
//!   every pair's candidates before it routes one, split by destination
//!   over every core; no later probe runs Yen.
//! * **SP warm starts** — the shortest-path selector's routes are fixed,
//!   and bisection only probes `mid > lo` where `lo` is the last feasible
//!   α. Raising α only grows `Z`, so the feasible fixed point at `lo` is
//!   below the least fixed point at `mid` and is a sound warm start.

use crate::bounds::utilization_bounds;
use crate::heuristic::{
    class0_demands, select_in_order, visit_order, CandidateCache, HeuristicConfig, Selection,
};
use crate::pairs::{Demand, Pair};
use crate::sp::sp_selection;
use uba_delay::committed::CommittedState;
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::rule::{DelayRule, Theorem3};
use uba_delay::servers::Servers;
use uba_graph::{bfs, Digraph};
use uba_traffic::{ClassId, TrafficClass};

/// Which route-selection strategy the search drives.
#[derive(Clone, Debug)]
pub enum Selector {
    /// Fixed shortest-path routes; only the verification depends on `α`.
    ShortestPath,
    /// The Section 5.2 heuristic, re-run per probe.
    Heuristic(HeuristicConfig),
}

/// Result of the maximum-utilization search.
#[derive(Clone, Debug)]
pub struct MaxUtilResult {
    /// Largest verified-safe utilization found (`0` if even the Theorem 4
    /// lower bound failed).
    pub alpha: f64,
    /// The route selection achieving `alpha` (`None` iff `alpha == 0`).
    pub selection: Option<Selection>,
    /// Theorem 4 bounds that seeded the search.
    pub bounds: (f64, f64),
    /// Every probe as `(alpha, feasible)`, in order.
    pub probes: Vec<(f64, bool)>,
}

/// Runs the Section 5.3 binary search to tolerance `tol` (the paper's
/// experiment reports two decimals; `tol = 0.005` reproduces that), or
/// until the bracket holds no `f64` to probe, whichever comes first.
pub fn max_utilization(
    g: &Digraph,
    servers: &Servers,
    class: &TrafficClass,
    pairs: &[Pair],
    selector: &Selector,
    tol: f64,
) -> MaxUtilResult {
    let diameter = bfs::diameter(g).expect("topology must be strongly connected");
    // Theorem 4 needs N >= 2; a fan-in of 1 gets the N = 2 window, as
    // `uba-cli bounds` prints it.
    let fan_in = (0..servers.len())
        .map(|k| servers.fan_in_at(k))
        .max()
        .expect("need at least one server")
        .max(2);
    let (lb, ub) = utilization_bounds(fan_in, diameter.max(1), class);

    // Theorem 4's lower bound first: a safe one brackets the answer from
    // below, an unsafe one from above.
    let hi_cap = ub.min(1.0 - 1e-9);
    let first = Some(lb.min(hi_cap));
    let found = match selector {
        Selector::ShortestPath => {
            // The routes do not depend on α; the last *feasible* probe's
            // fixed point warm-starts the next, higher one.
            let paths = sp_selection(g, pairs).expect("pairs must be connected");
            let mut routes = RouteSet::new(g.edge_count());
            for p in &paths {
                routes.push(Route::from_path(ClassId(0), p));
            }
            let mut warm: Option<Vec<f64>> = None;
            let cfg = SolveConfig::default();
            let found = bisect(first, hi_cap, tol, |alpha| {
                let r = solve_two_class(servers, class, alpha, &routes, &cfg, warm.as_deref());
                r.outcome.is_safe().then(|| {
                    warm = Some(r.delays.clone());
                    (r.delays, r.route_delays)
                })
            });
            // No candidates, but the selection counters exist after any
            // search, as a heuristic one's cache registers them.
            crate::metrics::select();
            found.map(|(delays, route_delays)| Selection {
                demands: class0_demands(pairs),
                paths,
                routes,
                delays,
                route_delays,
            })
        }
        Selector::Heuristic(cfg) => {
            let demands = class0_demands(pairs);
            let rule_at = |alpha| Theorem3::new(class, vec![alpha; servers.len()]);
            bisect_greedy(g, servers, &demands, cfg, (first, hi_cap, tol), rule_at)
        }
    };
    MaxUtilResult {
        alpha: found.best,
        selection: found.selection,
        bounds: (lb, ub),
        probes: found.probes,
    }
}

/// The §5.3 search with the §5.2 greedy as its probe, under any delay
/// rule: [`bisect`] over `(first, cap, tol)`, the probe at `x` routing
/// `demands` under `rule_at(x)`. Neither the visiting order nor the Yen
/// candidates depend on `x`: one of each spans the probes, and dropping
/// the cache publishes the selection tallies.
pub(crate) fn bisect_greedy<R: DelayRule>(
    g: &Digraph,
    servers: &Servers,
    demands: &[Demand],
    cfg: &HeuristicConfig,
    (first, cap, tol): (Option<f64>, f64, f64),
    rule_at: impl Fn(f64) -> R,
) -> Bisection<Selection> {
    let ordered = visit_order(g, demands, cfg);
    let mut cache = CandidateCache::new(g, |_| true);
    let found = bisect(first, cap, tol, |x| {
        let state = CommittedState::empty(servers, rule_at(x));
        select_in_order(g, state, &ordered, cfg, &mut cache).ok()
    });
    found.map(|chosen| cache.selection(&ordered, chosen))
}

/// What [`bisect`] found.
pub(crate) struct Bisection<S> {
    /// The largest feasible point probed; `0` if none was.
    pub(crate) best: f64,
    /// What `probe` returned there.
    pub(crate) selection: Option<S>,
    /// Every probe as `(x, feasible)`, in order.
    pub(crate) probes: Vec<(f64, bool)>,
}

impl<S> Bisection<S> {
    /// The same bisection with `f` applied to its selection.
    pub(crate) fn map<T>(self, f: impl FnOnce(S) -> T) -> Bisection<T> {
        Bisection {
            best: self.best,
            selection: self.selection.map(f),
            probes: self.probes,
        }
    }
}

/// The §5.3 bisection on `(0, cap)`, after an opening probe at `first` if
/// there is one; each probe is also a `SearchProbe` trace event. Stops
/// once the bracket is within `tol`, or holds no `f64` to probe.
pub(crate) fn bisect<S>(
    first: Option<f64>,
    cap: f64,
    tol: f64,
    mut probe: impl FnMut(f64) -> Option<S>,
) -> Bisection<S> {
    assert!(tol > 0.0, "tolerance must be positive");
    let mut probes = Vec::new();
    let mut selection = None;
    let (mut lo, mut hi) = (0.0, cap);
    let mut narrow = |x: f64, lo: &mut f64, hi: &mut f64| {
        let found = probe(x);
        uba_obs::trace::global().emit(
            uba_obs::EventKind::SearchProbe,
            0,
            probes.len() as u64,
            u32::MAX,
            x,
            if found.is_some() { 1.0 } else { 0.0 },
        );
        probes.push((x, found.is_some()));
        match found {
            Some(s) => {
                *lo = x;
                selection = Some(s);
            }
            None => *hi = x,
        }
    };
    if let Some(x) = first {
        narrow(x, &mut lo, &mut hi);
    }
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        // Adjacent floats: the midpoint rounds onto an end, and a `tol`
        // below their spacing would have the loop probe it forever.
        if !(lo < mid && mid < hi) {
            break;
        }
        narrow(mid, &mut lo, &mut hi);
    }
    // `lo` starts at 0 and only ever moves onto a feasible probe.
    Bisection {
        best: lo,
        selection,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::all_ordered_pairs;
    use uba_topology::{mci, ring};

    fn voip() -> TrafficClass {
        TrafficClass::voip()
    }

    #[test]
    fn sp_on_ring_within_bounds() {
        let g = ring(6);
        let servers = Servers::uniform(&g, 100e6, 2);
        let pairs = all_ordered_pairs(&g);
        let r = max_utilization(&g, &servers, &voip(), &pairs, &Selector::ShortestPath, 0.01);
        let (lb, ub) = r.bounds;
        assert!(r.alpha > 0.0, "search found nothing");
        assert!(
            r.alpha + 1e-9 >= lb,
            "alpha {} below lower bound {lb}",
            r.alpha
        );
        assert!(
            r.alpha <= ub + 0.01,
            "alpha {} above upper bound {ub}",
            r.alpha
        );
        assert!(r.selection.is_some());
    }

    #[test]
    fn heuristic_beats_or_matches_sp_on_mci_subset() {
        let g = mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        // A subset keeps the test fast; the full experiment is the
        // `table1` bench binary.
        let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(6).collect();
        let sp = max_utilization(&g, &servers, &voip(), &pairs, &Selector::ShortestPath, 0.01);
        let heur = max_utilization(
            &g,
            &servers,
            &voip(),
            &pairs,
            &Selector::Heuristic(HeuristicConfig::default()),
            0.01,
        );
        assert!(sp.alpha > 0.0 && heur.alpha > 0.0);
        assert!(
            heur.alpha + 1e-9 >= sp.alpha,
            "heuristic {} worse than SP {}",
            heur.alpha,
            sp.alpha
        );
    }

    #[test]
    fn probes_bracket_the_answer() {
        let g = ring(5);
        let servers = Servers::uniform(&g, 100e6, 3);
        let pairs = all_ordered_pairs(&g);
        let r = max_utilization(&g, &servers, &voip(), &pairs, &Selector::ShortestPath, 0.01);
        // Feasible probes are all <= alpha; infeasible all > alpha - tol.
        for &(a, ok) in &r.probes {
            if ok {
                assert!(a <= r.alpha + 1e-12);
            } else {
                assert!(a > r.alpha);
            }
        }
    }

    #[test]
    fn a_tolerance_below_float_spacing_still_terminates() {
        // Once `lo` and `hi` are adjacent floats no midpoint lies between
        // them; the search must stop there, within the 64 halvings an
        // `f64` bracket allows, on the α the usual tolerance brackets.
        let g = mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        let all = all_ordered_pairs(&g);
        let sixth: Vec<Pair> = all.iter().copied().step_by(6).collect();
        let heuristic = Selector::Heuristic(HeuristicConfig::default());
        for (pairs, selector) in [(&all, Selector::ShortestPath), (&sixth, heuristic)] {
            let coarse = max_utilization(&g, &servers, &voip(), pairs, &selector, 0.005);
            let exact = max_utilization(&g, &servers, &voip(), pairs, &selector, f64::MIN_POSITIVE);
            assert!(exact.probes.len() <= 64, "{} probes", exact.probes.len());
            assert!(exact.probes.len() > coarse.probes.len());
            assert!(
                (exact.alpha - coarse.alpha).abs() <= 0.005,
                "{} vs {}",
                exact.alpha,
                coarse.alpha
            );
            assert!(exact.selection.is_some());
        }
    }

    #[test]
    fn sp_warm_started_search_matches_cold_per_probe() {
        // The search warm-starts SP probes from the last feasible probe;
        // every probe verdict must match an independent cold solve.
        let g = mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(4).collect();
        let r = max_utilization(
            &g,
            &servers,
            &voip(),
            &pairs,
            &Selector::ShortestPath,
            0.005,
        );
        let paths = sp_selection(&g, &pairs).unwrap();
        let mut rs = RouteSet::new(g.edge_count());
        for p in &paths {
            rs.push(Route::from_path(ClassId(0), p));
        }
        for &(a, feasible) in &r.probes {
            let cold = solve_two_class(&servers, &voip(), a, &rs, &SolveConfig::default(), None);
            assert_eq!(cold.outcome.is_safe(), feasible, "probe at alpha {a}");
        }
    }

    #[test]
    fn result_selection_verifies_at_alpha() {
        let g = ring(6);
        let servers = Servers::uniform(&g, 100e6, 2);
        let pairs = all_ordered_pairs(&g);
        let r = max_utilization(&g, &servers, &voip(), &pairs, &Selector::ShortestPath, 0.02);
        let sel = r.selection.unwrap();
        let check = solve_two_class(
            &servers,
            &voip(),
            r.alpha,
            &sel.routes,
            &SolveConfig::default(),
            None,
        );
        assert!(check.outcome.is_safe());
    }
}
