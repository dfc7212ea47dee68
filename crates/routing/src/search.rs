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
//!   span all probes of a search. The cache generates every pair's
//!   candidates before the first probe, split by destination over every
//!   core, into one flat store: every candidate's server ids end to end,
//!   and at each demand's visit position the run of them that is its
//!   list. No probe runs Yen, and a probe reads candidates as borrowed
//!   slices; only the route it commits is copied out.
//! * **The next probe, on the idle core** (heuristic selector). While the
//!   caller probes `x`, a helper probes the point the bisection would probe
//!   next if `x` turns out feasible, its `then`; an infeasible `x` cancels
//!   it. A probe is a pure function of `x` given the candidates, so the
//!   answers are those of one core. Each probe's writes — its
//!   `routing.select.*` and `delay.solve.*` tallies and its
//!   flight-recorder events, held back ([`uba_obs::trace::hold`]) — are
//!   published when the search adopts the probe, in probe order, before
//!   its `SearchProbe` event; a cancelled probe writes nothing. The
//!   helper is generation's, kept alive under the search's one
//!   [`std::thread::scope`], and runs only the `then` of probes the
//!   caller runs, so which thread runs which probe does not depend on
//!   timing. One worker spawns nothing.
//! * **SP warm starts** — the shortest-path selector's routes are fixed,
//!   and bisection only probes `mid > lo` where `lo` is the last feasible
//!   α. Raising α only grows `Z`, so the feasible fixed point at `lo` is
//!   below the least fixed point at `mid` and is a sound warm start.

use crate::bounds::utilization_bounds;
use crate::heuristic::{
    class0_demands, select_in_order, visit_order, workers, CandidateCache, Chosen, HeuristicConfig,
    Selection, Serve, Store, Writes,
};
use crate::pairs::{Demand, Pair};
use crate::sp::sp_selection;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use uba_delay::committed::CommittedState;
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::rule::{DelayRule, Theorem5};
use uba_delay::servers::Servers;
use uba_graph::{bfs, Digraph};
use uba_obs::Stopwatch;
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
            let probe = |alpha, _then| {
                let r = solve_two_class(servers, class, alpha, &routes, &cfg, warm.as_deref());
                let found = r.outcome.is_safe().then(|| {
                    warm = Some(r.delays.clone());
                    (r.delays, r.route_delays)
                });
                (found, ())
            };
            let found = bisect(first, hi_cap, tol, probe, drop);
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
            let rule_at = |alpha| Theorem5::new([class], vec![alpha; servers.len()]);
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
/// `demands` under `rule_at(x)`, on as many workers as the process may
/// run threads at once ([`workers`], asked once per process;
/// [`bisect_greedy_on`]).
pub(crate) fn bisect_greedy<R: DelayRule>(
    g: &Digraph,
    servers: &Servers,
    demands: &[Demand],
    cfg: &HeuristicConfig,
    bracket: (Option<f64>, f64, f64),
    rule_at: impl Fn(f64) -> R + Sync,
) -> Bisection<Selection> {
    let ordered = visit_order(g, demands, cfg);
    let greedy = Greedy {
        g,
        servers,
        ordered: &ordered,
        cfg,
        rule_at,
    };
    bisect_greedy_on(workers(), &greedy, bracket, Probed::publish).0
}

/// What every probe of a greedy search shares, on every thread.
struct Greedy<'a, F> {
    g: &'a Digraph,
    servers: &'a Servers,
    /// The demands in [`visit_order`].
    ordered: &'a [Demand],
    cfg: &'a HeuristicConfig,
    rule_at: F,
}

/// A probe's writes, held back, and its wall time.
#[derive(Debug)]
struct Probed {
    writes: Writes,
    seconds: f64,
}

impl Probed {
    /// Publishes the writes and one `routing.search.probe_seconds` record.
    fn publish(self) {
        self.writes.publish();
        crate::metrics::select().probe_seconds.record(self.seconds);
    }
}

impl<R: DelayRule, F: Fn(f64) -> R> Greedy<'_, F> {
    /// The greedy at `x` on the candidates in `store`, everything it writes
    /// held back beside its answer; `cancel` stops it early (see
    /// [`select_in_order`]).
    fn probe(&self, x: f64, store: &Store, cancel: &AtomicBool) -> (Option<Chosen>, Probed) {
        let watch = Stopwatch::start();
        let ((found, mut writes), events) = uba_obs::trace::hold(|| {
            let state = CommittedState::empty(self.servers, (self.rule_at)(x));
            select_in_order(self.g, state, self.ordered, self.cfg, store, cancel)
        });
        writes.events = events;
        let seconds = watch.elapsed_secs();
        (found.ok(), Probed { writes, seconds })
    }
}

/// How a search's probes went on the helper: adopted, and cancelled.
#[derive(Debug, Default, PartialEq)]
struct Speculation {
    adopted: usize,
    cancelled: usize,
}

/// [`bisect_greedy`] on `workers` workers, `adopt` taking each adopted
/// probe's writes in probe order. The candidates are generated up front
/// ([`CandidateCache::generate_on`]); with two workers or more, the
/// generation's first helper then runs each probe's `then` while the
/// caller runs the probe: the caller takes a probe's answer from the
/// helper when it asks for the point the helper ran, and cancels the
/// helper's run, throwing it away, when it asks for any other.
fn bisect_greedy_on<R: DelayRule, F: Fn(f64) -> R + Sync>(
    workers: usize,
    greedy: &Greedy<'_, F>,
    (first, cap, tol): (Option<f64>, f64, f64),
    mut adopt: impl FnMut(Probed),
) -> (Bisection<Selection>, Speculation) {
    let mut cache = CandidateCache::new(greedy.g, |_| true);
    // A hint: the helper may finish a run it was asked to drop.
    let cancel = &AtomicBool::new(false);
    let (to_helper, requests) = mpsc::channel::<f64>();
    // Boxed: a channel allocates its slots in blocks.
    let (to_caller, answers) = mpsc::channel::<Box<(Option<Chosen>, Probed)>>();
    let serve = (workers > 1).then(|| -> Serve<'_> {
        Box::new(move |candidates| {
            while let Ok(x) = recv_spinning(&requests) {
                let store = candidates
                    .get()
                    .expect("published before the first request");
                // The caller takes every answer before it hangs up.
                let _ = to_caller.send(Box::new(greedy.probe(x, store, cancel)));
            }
        })
    });
    let mut outcome = None;
    let out = &mut outcome;
    // Owns the request sender: the helper stops when this returns.
    let search = move |store: &Store| {
        let never = AtomicBool::new(false);
        let mut speculation = Speculation::default();
        let mut pending: Option<f64> = None;
        // Cancels the helper's run, waits for it to stop, and drops it.
        let cancel_pending = |speculation: &mut Speculation| {
            cancel.store(true, Ordering::Relaxed);
            drop(recv_spinning(&answers));
            cancel.store(false, Ordering::Relaxed);
            speculation.cancelled += 1;
            crate::metrics::select().cancelled.inc();
        };
        let probe = |x: f64, then: Option<f64>| {
            match pending.take() {
                Some(p) if p.to_bits() == x.to_bits() => {
                    speculation.adopted += 1;
                    return *recv_spinning(&answers).expect("the helper answers every request");
                }
                Some(_) => cancel_pending(&mut speculation),
                None => {}
            }
            if let Some(then) = then.filter(|_| workers > 1) {
                to_helper
                    .send(then)
                    .expect("the helper serves until hung up on");
                pending = Some(then);
            }
            greedy.probe(x, store, &never)
        };
        let found = bisect(first, cap, tol, probe, &mut adopt);
        if pending.is_some() {
            cancel_pending(&mut speculation);
        }
        *out = Some((found, speculation));
    };
    let k = greedy.cfg.k_candidates;
    cache.generate_on(workers, greedy.ordered, k, serve, Box::new(search));
    let (found, speculation) = outcome.expect("the search ran");
    let found = found.map(|chosen| cache.selection(greedy.ordered, chosen));
    (found, speculation)
}

/// How long a handoff polls before it blocks, seconds: a few probes.
const SPIN_SECS: f64 = 2e-3;

/// Receives from `rx`, polling for up to [`SPIN_SECS`] before it blocks.
/// Each probe hands off twice between the caller and the helper, and
/// waking a blocked thread costs tens of microseconds on a virtual CPU,
/// on the search's critical path; the waiting core has nothing else to do.
fn recv_spinning<T>(rx: &mpsc::Receiver<T>) -> Result<T, mpsc::RecvError> {
    let watch = Stopwatch::start();
    loop {
        for _ in 0..64 {
            match rx.try_recv() {
                Ok(v) => return Ok(v),
                Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
                Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
        if watch.elapsed_secs() > SPIN_SECS {
            return rx.recv();
        }
    }
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
/// there is one. Stops once the bracket is within `tol`, or holds no
/// `f64` to probe. Each probe is handed `x` and `then`, the point the
/// bisection probes next if `x` is feasible (`None` when that would
/// close the bracket), and returns its answer and its writes; `adopt`
/// takes the writes, in probe order, before the probe's `SearchProbe`
/// trace event.
pub(crate) fn bisect<S, W>(
    first: Option<f64>,
    cap: f64,
    tol: f64,
    mut probe: impl FnMut(f64, Option<f64>) -> (Option<S>, W),
    mut adopt: impl FnMut(W),
) -> Bisection<S> {
    assert!(tol > 0.0, "tolerance must be positive");
    // The midpoint of `(lo, hi)`, unless the bracket is within `tol` or
    // holds no `f64` there: the midpoint of adjacent floats rounds onto
    // an end, and a `tol` below their spacing would have the loop probe
    // it forever.
    let next = |lo: f64, hi: f64| {
        let mid = 0.5 * (lo + hi);
        (hi - lo > tol && lo < mid && mid < hi).then_some(mid)
    };
    let mut probes = Vec::new();
    let mut selection = None;
    let (mut lo, mut hi) = (0.0, cap);
    let mut at = first.or_else(|| next(lo, hi));
    while let Some(x) = at {
        let (found, writes) = probe(x, next(x, hi));
        adopt(writes);
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
                lo = x;
                selection = Some(s);
            }
            None => hi = x,
        }
        at = next(lo, hi);
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

    /// `paper.toml`'s search — MCI, all 342 pairs, C = 100 Mb/s — at one,
    /// two and three workers: the same α\*, probes and selection, and
    /// the same writes adopted, probe by probe, events included. At two
    /// workers or more the helper's runs are the `then`s of the caller's
    /// probes p0, p2, p4 and p5: three adopted, p4's cancelled.
    #[test]
    fn the_search_answers_and_writes_the_same_at_any_worker_count() {
        let g = mci();
        let servers = Servers::uniform(&g, 1e8, 6);
        let pairs = all_ordered_pairs(&g);
        assert_eq!(pairs.len(), 342);
        let cfg = HeuristicConfig::default();
        let ordered = visit_order(&g, &class0_demands(&pairs), &cfg);
        let voip = voip();
        let greedy = Greedy {
            g: &g,
            servers: &servers,
            ordered: &ordered,
            cfg: &cfg,
            rule_at: |alpha| Theorem5::new([&voip], vec![alpha; servers.len()]),
        };
        let (lb, ub) = max_utilization(
            &g,
            &servers,
            &voip,
            &pairs[..2],
            &Selector::ShortestPath,
            0.5,
        )
        .bounds;
        let cap = ub.min(1.0 - 1e-9);
        let bracket = (Some(lb.min(cap)), cap, 0.005);
        uba_obs::trace::global().set_enabled(true);
        let runs: Vec<_> = (1..=3)
            .map(|workers| {
                let mut adopted = Vec::new();
                let (found, speculation) =
                    bisect_greedy_on(workers, &greedy, bracket, |p| adopted.push(p.writes));
                (found, speculation, adopted)
            })
            .collect();
        uba_obs::trace::global().set_enabled(false);
        let (one, _, writes) = &runs[0];
        assert_eq!(one.best.to_bits(), 0.5415987127047674f64.to_bits());
        assert_eq!(one.probes.len(), 7);
        assert!(writes.iter().all(|w| !w.events.is_empty()));
        let expect = [(0, 0), (3, 1), (3, 1)];
        for ((found, speculation, adopted), (helped, cancelled)) in runs.iter().zip(expect) {
            assert_eq!(
                *speculation,
                Speculation {
                    adopted: helped,
                    cancelled
                }
            );
            assert_eq!(found.best.to_bits(), one.best.to_bits());
            assert_eq!(found.probes, one.probes);
            let (a, b) = (
                found.selection.as_ref().unwrap(),
                one.selection.as_ref().unwrap(),
            );
            assert_eq!((&a.demands, &a.paths), (&b.demands, &b.paths));
            assert_eq!(a.routes.routes(), b.routes.routes());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.delays), bits(&b.delays));
            assert_eq!(bits(&a.route_delays), bits(&b.route_delays));
            assert_eq!(adopted, writes, "{speculation:?}");
        }
    }

    /// Whenever a probe succeeds and the bisection goes on, it probes
    /// the `then` it handed that probe next; `then` is `None` exactly
    /// when a success would end the search.
    #[test]
    fn a_feasible_probe_is_followed_by_its_then() {
        uba_obs::check("bisect_then", 400, |rng| {
            let cap = rng.range_f64(0.01, 1.0);
            let threshold = rng.range_f64(-0.1, 1.1) * cap;
            let tol = [0.005, 1e-3, 1e-9, f64::MIN_POSITIVE][rng.index(4)];
            let first = [None, Some(rng.range_f64(0.0, 1.0) * cap)][rng.index(2)];
            let mut asked: Vec<(f64, Option<f64>, bool)> = Vec::new();
            let found = bisect(
                first,
                cap,
                tol,
                |x, then| {
                    let ok = x <= threshold;
                    asked.push((x, then, ok));
                    (ok.then_some(()), ())
                },
                drop,
            );
            uba_obs::ensure!(found.probes.len() == asked.len());
            for (i, &(_, then, ok)) in asked.iter().enumerate() {
                let next = asked.get(i + 1).map(|&(x, _, _)| x);
                if ok {
                    uba_obs::ensure!(
                        then.map(f64::to_bits) == next.map(f64::to_bits),
                        "probe {i} of {asked:?}: then {then:?}, next {next:?}"
                    );
                }
            }
            Ok(())
        });
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
