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
//!   α-independent, so one candidate store and one ordering of the pairs
//!   span all probes of a search. Every pair's candidates are generated
//!   before the first probe, split by destination over every core, into
//!   one flat store: every candidate's server ids end to end, and at each
//!   demand's visit position the run of them that is its list. No probe runs Yen, and a probe reads candidates as borrowed
//!   slices; no probe copies a route out: only the returned selection
//!   rebuilds its routes and paths from the store.
//! * **Every core probes** (heuristic selector). Generation's helpers
//!   end with it; the search then spawns its own probe workers beside the
//!   caller, under a second [`std::thread::scope`] (`bisect_on`, the one
//!   way the `Scheduler` runs). A free worker starts the point the
//!   bisection would probe next were every probe still running feasible
//!   (a feasible probe routes every demand and is the long one); a probe
//!   that comes back infeasible cancels the probes started on the
//!   premise that it would not, each through its worker's own flag. A probe is a pure function of `x` given the candidates, so the
//!   answer, the probe list and the selection are those of one core. The
//!   caller adopts the probes in bisection order: each probe's writes —
//!   its `routing.select.*` and `delay.solve.*` tallies and its
//!   flight-recorder events, held back ([`uba_obs::trace::hold`]) — are
//!   published on adoption, before its `SearchProbe` event, so they too
//!   are one core's; a cancelled probe writes nothing. Only which thread
//!   ran a probe, and how many were cancelled
//!   (`routing.search.cancelled`), depend on timing. One worker spawns
//!   nothing.
//! * **SP warm starts** — the shortest-path selector's routes are fixed,
//!   and bisection only probes `mid > lo` where `lo` is the last feasible
//!   α. Raising α only grows `Z`, so the feasible fixed point at `lo` is
//!   below the least fixed point at `mid` and is a sound warm start.

use crate::bounds::utilization_bounds;
use crate::heuristic::{
    class0_demands, join, select_in_order, visit_order, workers, Chosen, HeuristicConfig,
    Selection, Store, Writes,
};
use crate::pairs::{Demand, Pair};
use crate::sp::sp_selection;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use uba_delay::committed::CommittedState;
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::rule::{DelayRule, Theorem5};
use uba_delay::servers::Servers;
use uba_graph::{bfs, Digraph, DynDigraph};
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
    let bracket = Bracket::new(Some(lb.min(hi_cap)), hi_cap, tol);
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
            let probe = |alpha| {
                let r = solve_two_class(servers, class, alpha, &routes, &cfg, warm.as_deref());
                let found = r.outcome.is_safe().then(|| {
                    warm = Some(r.delays.clone());
                    (r.delays, r.route_delays)
                });
                (found, ())
            };
            let found = bisect(bracket, probe, drop);
            // No candidates, but the selection counters exist after any
            // search, as a heuristic one's generation registers them.
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
            bisect_greedy(g, servers, &demands, cfg, bracket, rule_at)
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
/// rule: the bisection from `bracket`, the probe at `x` routing `demands`
/// under `rule_at(x)`, on as many workers as the process may run threads
/// at once ([`workers`], asked once per process; [`bisect_greedy_on`]).
pub(crate) fn bisect_greedy<R: DelayRule>(
    g: &Digraph,
    servers: &Servers,
    demands: &[Demand],
    cfg: &HeuristicConfig,
    bracket: Bracket,
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
            let overlay = &mut DynDigraph::new(self.g.edge_count());
            select_in_order(state, overlay, self.ordered, self.cfg, store, cancel)
        });
        writes.events = events;
        let seconds = watch.elapsed_secs();
        (found.ok(), Probed { writes, seconds })
    }
}

/// [`bisect_greedy`] on `workers` workers, `adopt` taking each adopted
/// probe's writes in probe order: the candidates generated up front on
/// `workers` workers ([`Store::generate`]), then the probes on the store
/// through [`bisect_on`]. Returns how many probes were cancelled beside
/// what it found.
fn bisect_greedy_on<R: DelayRule, F: Fn(f64) -> R + Sync>(
    workers: usize,
    greedy: &Greedy<'_, F>,
    bracket: Bracket,
    adopt: impl FnMut(Probed),
) -> (Bisection<Selection>, usize) {
    let (g, ordered) = (greedy.g, greedy.ordered);
    let store = Store::generate(g, |_| true, workers, ordered, greedy.cfg.k_candidates);
    let probe = |x, cancel: &AtomicBool| greedy.probe(x, &store, cancel);
    let (found, cancelled) = bisect_on(workers, bracket, &probe, adopt);
    crate::metrics::select().cancelled.add(cancelled as u64);
    let found = found.map(|chosen| store.selection(g, ordered, chosen));
    (found, cancelled)
}

/// Where the §5.3 bisection stands: the last feasible point `lo` (0 at
/// first), the first infeasible one `hi` (the cap at first), and the
/// opening probe until it is made. Its one rule for the point probed next,
/// [`Self::next`], is [`bisect`]'s and the [`Scheduler`]'s.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bracket {
    first: Option<f64>,
    lo: f64,
    hi: f64,
    tol: f64,
}

impl Bracket {
    /// The bisection on `(0, cap)` to tolerance `tol`, after an opening
    /// probe at `first` if there is one.
    pub(crate) fn new(first: Option<f64>, cap: f64, tol: f64) -> Self {
        assert!(tol > 0.0, "tolerance must be positive");
        Self {
            first,
            lo: 0.0,
            hi: cap,
            tol,
        }
    }

    /// The opening probe, then the midpoint of `(lo, hi)` — unless the
    /// bracket is within `tol` or holds no `f64` there: the midpoint of
    /// adjacent floats rounds onto an end, and a `tol` below their spacing
    /// would have the search probe it forever.
    fn next(&self) -> Option<f64> {
        if self.first.is_some() {
            return self.first;
        }
        let (lo, hi) = (self.lo, self.hi);
        let mid = 0.5 * (lo + hi);
        (hi - lo > self.tol && lo < mid && mid < hi).then_some(mid)
    }

    /// The bracket once the probe at `x` came back `feasible` or not.
    fn after(self, x: f64, feasible: bool) -> Self {
        let (lo, hi) = if feasible { (x, self.hi) } else { (self.lo, x) };
        Self {
            first: None,
            lo,
            hi,
            ..self
        }
    }
}

/// What a bisection found.
pub(crate) struct Bisection<S> {
    /// The largest feasible point probed; `0` if none was.
    pub(crate) best: f64,
    /// What the probe returned there.
    pub(crate) selection: Option<S>,
    /// Every probe as `(x, feasible)`, in order.
    pub(crate) probes: Vec<(f64, bool)>,
}

impl<S> Bisection<S> {
    fn new() -> Self {
        Self {
            best: 0.0,
            selection: None,
            probes: Vec::new(),
        }
    }

    /// Adopts the probe at `x` that returned `found`: its `SearchProbe`
    /// trace event, its verdict, and a feasible one's answer.
    fn adopt(&mut self, x: f64, found: Option<S>) {
        uba_obs::trace::global().emit(
            uba_obs::EventKind::SearchProbe,
            0,
            self.probes.len() as u64,
            u32::MAX,
            x,
            if found.is_some() { 1.0 } else { 0.0 },
        );
        self.probes.push((x, found.is_some()));
        if found.is_some() {
            // Feasible points only rise: each is the bracket's new `lo`.
            self.best = x;
            self.selection = found;
        }
    }

    /// The same bisection with `f` applied to its selection.
    pub(crate) fn map<T>(self, f: impl FnOnce(S) -> T) -> Bisection<T> {
        Bisection {
            best: self.best,
            selection: self.selection.map(f),
            probes: self.probes,
        }
    }
}

/// The §5.3 bisection from `bracket`, one probe at a time. Each probe is
/// handed `x` and returns its answer and its writes; `adopt` takes the
/// writes, in probe order, before the probe's `SearchProbe` trace event.
pub(crate) fn bisect<S, W>(
    bracket: Bracket,
    mut probe: impl FnMut(f64) -> (Option<S>, W),
    mut adopt: impl FnMut(W),
) -> Bisection<S> {
    let (mut out, mut at) = (Bisection::new(), bracket);
    while let Some(x) = at.next() {
        let (found, writes) = probe(x);
        adopt(writes);
        at = at.after(x, found.is_some());
        out.adopt(x, found);
    }
    out
}

/// [`bisect`] on `workers` workers at once, with the same probes, answer
/// and adopted writes: the caller runs the [`Scheduler`]'s caller part
/// and, under one [`std::thread::scope`], a helper per further worker its
/// helper part, each passed its worker number. `probe(x, cancel)` must be
/// a pure function of `x` unless `cancel` is set. Returns beside what it
/// found how many probes were cancelled (run or running, and thrown
/// away), which depends on timing; at one worker it is 0. A probe that
/// panics on a helper ends the search, and reaches the caller as that
/// panic when the helper is joined.
fn bisect_on<S: Send, W: Send>(
    workers: usize,
    bracket: Bracket,
    probe: &(impl Fn(f64, &AtomicBool) -> (Option<S>, W) + Sync),
    adopt: impl FnMut(W),
) -> (Bisection<S>, usize) {
    let scheduler = &Scheduler::new(workers);
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers)
            .map(|me| s.spawn(move || scheduler.serve(me, probe)))
            .collect();
        let found = scheduler.run(bracket, probe, adopt);
        // Joined by hand, as generation's helpers are, so that each hands
        // its malloc arena back before the next search.
        spawned.into_iter().for_each(join);
        found
    })
}

/// The work-conserving schedule of [`bisect_on`]'s workers, the caller
/// one of them. A free worker starts the point the bisection would probe
/// next were every probe still running feasible; a probe that comes back
/// infeasible cancels every probe started after it (their premise),
/// through each one's worker's flag. The caller adopts the probes
/// strictly in bisection order. Generic over the probe, which each worker
/// passes in; a cancelled probe's answer and writes are dropped.
struct Scheduler<S, W> {
    chain: Mutex<Chain<S, W>>,
    /// Bumped on every change a waiting worker may need, under the lock;
    /// polled without it.
    epoch: AtomicU64,
    changed: Condvar,
    /// One cancel flag per worker, the caller's first.
    cancel: Vec<AtomicBool>,
    /// Every worker has a core of its own: a waiting one polls before it
    /// sleeps, and takes none from a worker that is probing.
    spin: bool,
}

/// A probe started and not adopted.
struct Run<S, W> {
    id: u64,
    x: f64,
    worker: usize,
    /// What the probe returned, once it has.
    done: Option<(Option<S>, W)>,
}

/// The scheduler's state, under its lock.
struct Chain<S, W> {
    /// The bisection of the adopted probes; `None` until the caller opens
    /// the search.
    adopted: Option<Bracket>,
    /// The probes started and not adopted, in bisection order: each is
    /// the next point after the ones before it, those still running taken
    /// as feasible.
    runs: VecDeque<Run<S, W>>,
    started: u64,
    /// The caller has left: the workers leave too.
    over: bool,
    /// A helper panicked.
    failed: bool,
    sleepers: usize,
    /// Probes thrown away, run or running.
    cancelled: usize,
}

impl<S, W> Chain<S, W> {
    /// Starts the next point on `worker`, if the bisection has one.
    fn start(&mut self, worker: usize, cancel: &[AtomicBool]) -> Option<(u64, f64)> {
        let mut ahead = self.adopted.filter(|_| !self.over)?;
        for run in &self.runs {
            let feasible = run.done.as_ref().is_none_or(|(found, _)| found.is_some());
            ahead = ahead.after(run.x, feasible);
        }
        let x = ahead.next()?;
        // No run of this worker's is left to cancel.
        cancel[worker].store(false, Ordering::Relaxed);
        let id = self.started;
        self.started += 1;
        self.runs.push_back(Run {
            id,
            x,
            worker,
            done: None,
        });
        Some((id, x))
    }

    /// Files what run `id` returned. An infeasible answer cancels every
    /// run after it; a run no longer here was cancelled, and what it
    /// returned is dropped.
    fn finish(&mut self, id: u64, done: (Option<S>, W), cancel: &[AtomicBool]) {
        let Some(at) = self.runs.iter().position(|run| run.id == id) else {
            return;
        };
        let feasible = done.0.is_some();
        self.runs[at].done = Some(done);
        if !feasible {
            for run in self.runs.drain(at + 1..) {
                if run.done.is_none() {
                    cancel[run.worker].store(true, Ordering::Relaxed);
                }
                self.cancelled += 1;
            }
        }
    }
}

/// How long a waiting worker polls before it sleeps, seconds: a few
/// probes. Waking a sleeping thread costs tens of microseconds on a
/// virtual CPU, on the search's critical path.
const SPIN_SECS: f64 = 2e-3;

impl<S, W> Scheduler<S, W> {
    /// A scheduler for `workers` workers: the caller and `workers - 1`
    /// helpers. More workers than the process may run at once
    /// ([`workers`]) sleep as soon as they wait.
    fn new(workers: usize) -> Self {
        Self {
            chain: Mutex::new(Chain {
                adopted: None,
                runs: VecDeque::new(),
                started: 0,
                over: false,
                failed: false,
                sleepers: 0,
                cancelled: 0,
            }),
            epoch: AtomicU64::new(0),
            changed: Condvar::new(),
            cancel: (0..workers.max(1))
                .map(|_| AtomicBool::new(false))
                .collect(),
            spin: workers <= crate::heuristic::workers(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Chain<S, W>> {
        self.chain.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks a change of `chain`, waking whoever sleeps on one.
    fn bump(&self, chain: &Chain<S, W>) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        if chain.sleepers > 0 {
            self.changed.notify_all();
        }
    }

    /// Releases `chain` and takes it back once it has changed: polled for
    /// up to [`SPIN_SECS`] if the workers have a core each, then slept on.
    fn wait<'a>(&'a self, chain: MutexGuard<'a, Chain<S, W>>) -> MutexGuard<'a, Chain<S, W>> {
        let seen = self.epoch.load(Ordering::Relaxed);
        if self.spin {
            drop(chain);
            let watch = Stopwatch::start();
            while watch.elapsed_secs() < SPIN_SECS {
                for _ in 0..64 {
                    if self.epoch.load(Ordering::Relaxed) != seen {
                        return self.lock();
                    }
                    std::hint::spin_loop();
                }
            }
            return self.sleep(self.lock(), seen);
        }
        self.sleep(chain, seen)
    }

    /// Sleeps on `chain` until the epoch has moved past `seen`.
    fn sleep<'a>(
        &'a self,
        mut chain: MutexGuard<'a, Chain<S, W>>,
        seen: u64,
    ) -> MutexGuard<'a, Chain<S, W>> {
        chain.sleepers += 1;
        while self.epoch.load(Ordering::Relaxed) == seen {
            chain = (self.changed.wait(chain)).unwrap_or_else(PoisonError::into_inner);
        }
        chain.sleepers -= 1;
        chain
    }

    /// Helper `me`'s part: runs points with `probe` until the caller
    /// leaves.
    fn serve(&self, me: usize, probe: impl Fn(f64, &AtomicBool) -> (Option<S>, W)) {
        let _leave = Leave {
            scheduler: self,
            caller: false,
        };
        let mut ran = None;
        let mut chain = self.lock();
        loop {
            if let Some((id, done)) = ran.take() {
                chain.finish(id, done, &self.cancel);
                self.bump(&chain);
            }
            if chain.over {
                return;
            }
            match chain.start(me, &self.cancel) {
                Some((id, x)) => {
                    drop(chain);
                    ran = Some((id, probe(x, &self.cancel[me])));
                    chain = self.lock();
                }
                None => chain = self.wait(chain),
            }
        }
    }

    /// The caller's part: opens the bisection at `bracket`, runs points
    /// with `probe` as any worker does, and adopts every probe in
    /// bisection order, `adopt` taking its writes before its `SearchProbe`
    /// event. Returns once the bisection is over, or at once if a helper
    /// panicked: joining it then resumes the panic.
    fn run(
        &self,
        bracket: Bracket,
        probe: impl Fn(f64, &AtomicBool) -> (Option<S>, W),
        mut adopt: impl FnMut(W),
    ) -> (Bisection<S>, usize) {
        let _leave = Leave {
            scheduler: self,
            caller: true,
        };
        let mut out = Bisection::new();
        let mut ready = Vec::new();
        let mut ran = None;
        let mut chain = self.lock();
        chain.adopted = Some(bracket);
        self.bump(&chain);
        let chain = loop {
            if chain.failed {
                break chain;
            }
            if let Some((id, done)) = ran.take() {
                chain.finish(id, done, &self.cancel);
                self.bump(&chain);
            }
            while chain.runs.front().is_some_and(|run| run.done.is_some()) {
                let Some(Run {
                    x,
                    done: Some((found, writes)),
                    ..
                }) = chain.runs.pop_front()
                else {
                    unreachable!("the front run has returned");
                };
                chain.adopted = chain.adopted.map(|b| b.after(x, found.is_some()));
                ready.push((x, found, writes));
            }
            let over = chain.adopted.and_then(|b| b.next()).is_none();
            let started = if over {
                None
            } else {
                chain.start(0, &self.cancel)
            };
            if ready.is_empty() && started.is_none() && !over {
                chain = self.wait(chain);
                continue;
            }
            drop(chain);
            for (x, found, writes) in ready.drain(..) {
                adopt(writes);
                out.adopt(x, found);
            }
            if over {
                break self.lock();
            }
            if let Some((id, x)) = started {
                ran = Some((id, probe(x, &self.cancel[0])));
            }
            chain = self.lock();
        };
        debug_assert!(
            chain.failed || chain.runs.is_empty(),
            "a run outlived the bisection"
        );
        (out, chain.cancelled)
    }
}

/// Ends the search for every worker when its holder leaves it early: the
/// caller by returning or unwinding, a helper by unwinding.
struct Leave<'a, S, W> {
    scheduler: &'a Scheduler<S, W>,
    caller: bool,
}

impl<S, W> Drop for Leave<'_, S, W> {
    fn drop(&mut self) {
        if self.caller || std::thread::panicking() {
            let mut chain = self.scheduler.lock();
            chain.over = true;
            chain.failed |= !self.caller;
            self.scheduler.bump(&chain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::all_ordered_pairs;
    use std::sync::atomic::AtomicUsize;
    use uba_delay::certificate;
    use uba_topology::{mci, ring};
    use uba_traffic::ClassSet;

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
    /// the same writes adopted, probe by probe, events included; and at
    /// every worker count the independent checker certifies the selection
    /// at α\*, its cells × (1 + 1e-9) the witness. Which worker ran which
    /// probe, and how many were cancelled, depend on timing: one worker
    /// runs every probe and cancels none.
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
        let bracket = Bracket::new(Some(lb.min(cap)), cap, 0.005);
        uba_obs::trace::global().set_enabled(true);
        let runs: Vec<_> = (1..=3)
            .map(|workers| {
                let mut adopted = Vec::new();
                let (found, cancelled) =
                    bisect_greedy_on(workers, &greedy, bracket, |p| adopted.push(p.writes));
                (found, cancelled, adopted)
            })
            .collect();
        uba_obs::trace::global().set_enabled(false);
        let (one, alone, writes) = &runs[0];
        assert_eq!(one.best.to_bits(), 0.5415987127047674f64.to_bits());
        assert_eq!(one.probes.len(), 7);
        assert_eq!(*alone, 0);
        assert!(writes.iter().all(|w| !w.events.is_empty()));
        let classes = ClassSet::single(voip.clone());
        let alpha_cells = vec![one.best; servers.len()];
        for (found, cancelled, adopted) in &runs {
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
            assert_eq!(adopted, writes, "{cancelled} cancelled");
            let d_hat: Vec<f64> = a.delays.iter().map(|d| d * (1.0 + 1e-9)).collect();
            let certified = certificate::check(&servers, &classes, &alpha_cells, &a.routes, &d_hat);
            assert_eq!(certified, Ok(()), "a selection at α* the checker refuses");
        }
    }

    /// Timing cannot change the answer. Synthetic probes — feasible up
    /// to a seeded threshold, each spinning for a seeded while, 0–20 µs —
    /// run on 1–4 workers from a seeded opening point and `tol`: the
    /// probes, the best point and the adopted writes, in order, are
    /// sequential [`bisect`]'s. Every probe started is adopted or
    /// cancelled, and a probe that sees its cancel flag returns writes
    /// that must never reach `adopt`. One worker cancels nothing.
    #[test]
    fn timing_cannot_change_the_answer() {
        uba_obs::check("scheduler_timing", 100, |rng| {
            let cap = rng.range_f64(0.01, 1.0);
            let threshold = rng.range_f64(-0.1, 1.1) * cap;
            let tol = [0.005, 1e-3, 1e-9, f64::MIN_POSITIVE][rng.index(4)];
            let first = [None, Some(rng.range_f64(0.0, 1.0) * cap)][rng.index(2)];
            let bracket = Bracket::new(first, cap, tol);
            let seed = rng.next_u64();
            let verdict = |x: f64| (x <= threshold).then_some(x.to_bits());
            let mut want = Vec::new();
            let alone = bisect(bracket, |x| (verdict(x), x.to_bits()), |w| want.push(w));
            let started = AtomicUsize::new(0);
            let probe = |x: f64, cancel: &AtomicBool| {
                started.fetch_add(1, Ordering::Relaxed);
                let spin = uba_obs::SplitMix64::new(seed ^ x.to_bits()).next_u64() % 20_000;
                let watch = Stopwatch::start();
                while watch.elapsed_secs() * 1e9 < spin as f64 {
                    if cancel.load(Ordering::Relaxed) {
                        return (None, u64::MAX);
                    }
                    std::hint::spin_loop();
                }
                (verdict(x), x.to_bits())
            };
            for workers in 1..=4 {
                started.store(0, Ordering::Relaxed);
                let mut adopted = Vec::new();
                let (found, cancelled) = bisect_on(workers, bracket, &probe, |w| adopted.push(w));
                let at = format!("{workers} workers, {cancelled} cancelled");
                uba_obs::ensure!(found.probes == alone.probes, "{at}: {:?}", found.probes);
                uba_obs::ensure!(found.best.to_bits() == alone.best.to_bits(), "{at}");
                uba_obs::ensure!(found.selection == alone.selection, "{at}");
                uba_obs::ensure!(adopted == want, "{at}: adopted {adopted:x?}");
                let ran = started.load(Ordering::Relaxed);
                uba_obs::ensure!(ran == found.probes.len() + cancelled, "{at}");
                if workers == 1 {
                    uba_obs::ensure!(cancelled == 0, "{at}");
                }
            }
            Ok(())
        });
    }

    /// A probe that panics on a helper ends the search at 2–4 workers and
    /// reaches the caller as that panic, never a hang. The caller's own
    /// probe waits until a helper has started one, so a helper always
    /// runs a probe; every probe a helper starts panics.
    #[test]
    fn a_helper_probe_panic_reaches_the_caller() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caller = std::thread::current().id();
            for workers in 2..=4 {
                let helped = AtomicBool::new(false);
                let probe = |x: f64, _: &AtomicBool| {
                    if std::thread::current().id() != caller {
                        helped.store(true, Ordering::Relaxed);
                        panic!("helper probe at {x}");
                    }
                    while !helped.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    (Some(()), ())
                };
                let bracket = Bracket::new(None, 1.0, 1e-3);
                let run =
                    std::panic::AssertUnwindSafe(|| bisect_on(workers, bracket, &probe, drop));
                let payload = std::panic::catch_unwind(run).err();
                let message = payload.and_then(|p| p.downcast::<String>().ok());
                tx.send(message).unwrap();
            }
        });
        for workers in 2..=4 {
            let got = (rx.recv_timeout(std::time::Duration::from_secs(60))).expect("a hung search");
            let helper = got
                .as_deref()
                .is_some_and(|m| m.starts_with("helper probe at "));
            assert!(helper, "{workers} workers: {got:?}");
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
