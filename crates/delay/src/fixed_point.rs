//! Iterative solution of the delay vector equation `d = Z(d)` (Eq. 11–14).
//!
//! Theorem 3 gives each server's delay bound as a function of `Y_k`, which
//! by Eq. (6) is a function of the other servers' delays — a circular
//! dependency the paper resolves with "an iterative procedure". We iterate
//! from `d = 0` (or a warm start): `Z` is monotone in `d`, so the iterates
//! increase toward the *least* fixed point when one exists, and grow
//! without bound when the utilization is infeasible.
//!
//! Soundness of the stopping rules:
//!
//! * **Convergence** — sup-norm change below tolerance; the limit is the
//!   least fixed point, i.e. the tightest bound this analysis yields.
//! * **Early deadline exit** — because iterates only increase, a route's
//!   end-to-end delay exceeding its class deadline at *any* iterate
//!   already proves the final answer would too.
//! * **Iteration cap** — treated as unsafe (conservative).
//!
//! # Incremental sweeps
//!
//! The solver is a worklist sweep. `d_k` depends only on `Y_k`, and `Y_k`
//! only on the delays of servers upstream of `k` on routes through `k`
//! (tracked by the [`RouteSet`]'s inverted index). Because iterates are
//! non-decreasing, a route whose servers' delays did not change
//! contributes the same prefixes, so only *dirty* routes (those
//! containing a just-changed server) are re-swept, folding their prefixes
//! into the persistent `Y` by max-merge, and only servers whose `Y_k`
//! actually moved are re-evaluated. If a warm start ever violates the
//! monotone (shrink-to-grow) discipline, the first observed decrease
//! triggers a full rebuild of `Y`.
//!
//! The math as written — every iteration rebuilds every `Y_k` from
//! scratch and re-evaluates Theorem 3 at every server — is kept as
//! [`solve_two_class_dense`], the executable specification: the worklist
//! sweep's outcome, iteration count and delay vectors are bitwise
//! identical to it (`tests/incremental.rs`). Nothing outside the tests
//! calls it.
//!
//! All per-iteration buffers live in a caller-owned [`SolveScratch`]
//! arena, so steady-state solving allocates only for the returned
//! [`SolveResult`]. The §5.2 candidate-evaluation loop does not come
//! through here: it asks one question thousands of times against a
//! slowly growing route set, and [`crate::committed::CommittedState`]
//! answers it from persistent state with these iterates, bit for bit.

use crate::bound::theorem3_delay;
use crate::metrics::SolveRecord;
use crate::routeset::{Route, RouteSet};
use crate::servers::Servers;
use uba_graph::par::par_map;
use uba_traffic::{ClassId, TrafficClass};

/// Tunables for the fixed-point iteration.
#[derive(Clone, Copy, Debug)]
pub struct SolveConfig {
    /// Absolute sup-norm convergence tolerance in seconds.
    pub tol: f64,
    /// Iteration cap; hitting it is reported as [`Outcome::IterationLimit`].
    pub max_iters: usize,
    /// Worker threads for the per-iteration sweeps (1 = serial).
    pub threads: usize,
}

/// Minimum per-iteration worklist size before the Theorem 3 updates fan
/// out across [`SolveConfig::threads`] workers; below it the sweep stays
/// serial (thread spawn/join would dominate).
const PAR_THRESHOLD: usize = 256;

impl Default for SolveConfig {
    fn default() -> Self {
        Self {
            tol: 1e-12,
            max_iters: 20_000,
            threads: 1,
        }
    }
}

/// How a solve ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Converged and every route meets its class deadline.
    Safe,
    /// Some route provably misses its deadline (index into the route set).
    DeadlineExceeded {
        /// Index of the first offending route.
        route: usize,
    },
    /// No convergence within the iteration cap — treated as unsafe.
    IterationLimit,
    /// Parameters outside the theorems' domain (e.g. `α ∉ (0, 1)`).
    InvalidParams,
}

impl Outcome {
    /// True only for [`Outcome::Safe`].
    pub fn is_safe(self) -> bool {
        matches!(self, Outcome::Safe)
    }
}

/// Result of a fixed-point solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Verdict.
    pub outcome: Outcome,
    /// Per-server delay bounds at the last iterate (the least fixed point
    /// when `outcome` is `Safe`).
    pub delays: Vec<f64>,
    /// Per-route end-to-end delays at the last iterate.
    pub route_delays: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
}

pub(crate) const DEADLINE_SLACK: f64 = 1e-12;

/// Caller-owned scratch arena for the fixed-point solver.
///
/// Holds every per-iteration buffer (`d`, `Y`, route delays, worklists),
/// so a caller running many solves — the §5.3 binary search over fixed
/// routes — pays no per-iteration and (after warm-up) no per-solve
/// allocations.
#[derive(Clone, Debug, Default)]
pub struct SolveScratch {
    d: Vec<f64>,
    y: Vec<f64>,
    route_delays: Vec<f64>,
    prop: Vec<f64>,
    used: Vec<bool>,
    sweep_list: Vec<u32>,
    vals: Vec<Option<f64>>,
    route_dirty: Vec<bool>,
    dirty_routes: Vec<u32>,
    touched_mark: Vec<bool>,
    touched: Vec<u32>,
    changed: Vec<u32>,
    alphas: Vec<f64>,
}

impl SolveScratch {
    /// An empty arena; buffers grow to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs `f` with a thread-local [`SolveScratch`], so repeated solves on
/// the same thread share one arena.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut SolveScratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut sc) => f(&mut sc),
        // Re-entrant call: fall back to a fresh arena rather than panic.
        Err(_) => f(&mut SolveScratch::new()),
    })
}

/// Solves the two-class system (one real-time class + implicit best
/// effort): all routes in `routes` must carry [`ClassId`]`(0)`.
///
/// `warm` may carry the least fixed point of a *smaller* problem (fewer
/// routes, or lower `alpha`, with everything else equal): `Z` only grows
/// under those changes, so iterates stay monotone and all stopping rules
/// remain sound. Passing anything above the new least fixed point would
/// be unsound; callers stick to the shrink-to-grow discipline.
pub fn solve_two_class(
    servers: &Servers,
    class: &TrafficClass,
    alpha: f64,
    routes: &RouteSet,
    cfg: &SolveConfig,
    warm: Option<&[f64]>,
) -> SolveResult {
    solve_uniform(servers, class, alpha, routes, cfg, warm, Sweep::Worklist)
}

/// [`solve_two_class`] by the dense sweep — the math as written, kept as
/// the oracle the worklist sweep is tested against (identical
/// [`Outcome`], iteration count and bitwise delays).
pub fn solve_two_class_dense(
    servers: &Servers,
    class: &TrafficClass,
    alpha: f64,
    routes: &RouteSet,
    cfg: &SolveConfig,
    warm: Option<&[f64]>,
) -> SolveResult {
    solve_uniform(servers, class, alpha, routes, cfg, warm, Sweep::Dense)
}

/// [`solve_two_class`] in full generality: a *per-server* utilization
/// assignment (the run-time admission test is per-link anyway, so
/// nothing forces every link to the same `α`; only the `α_k` of servers
/// that actually carry routes are validated) and a caller-owned scratch
/// arena.
pub fn solve_two_class_with(
    servers: &Servers,
    class: &TrafficClass,
    alphas: &[f64],
    routes: &RouteSet,
    cfg: &SolveConfig,
    warm: Option<&[f64]>,
    scratch: &mut SolveScratch,
) -> SolveResult {
    solve_instrumented(
        servers,
        class,
        alphas,
        routes,
        cfg,
        warm,
        Sweep::Worklist,
        scratch,
    )
}

/// Which sweep [`solve_core`] runs after its shared set-up.
#[derive(Clone, Copy)]
enum Sweep {
    Worklist,
    Dense,
}

/// One `alpha` on every server, on the thread's scratch arena.
fn solve_uniform(
    servers: &Servers,
    class: &TrafficClass,
    alpha: f64,
    routes: &RouteSet,
    cfg: &SolveConfig,
    warm: Option<&[f64]>,
    sweep: Sweep,
) -> SolveResult {
    with_thread_scratch(|sc| {
        let mut alphas = std::mem::take(&mut sc.alphas);
        alphas.clear();
        alphas.resize(servers.len(), alpha);
        let r = solve_instrumented(servers, class, &alphas, routes, cfg, warm, sweep, sc);
        sc.alphas = alphas;
        r
    })
}

/// Sweep-economy counters reported by one solve.
#[derive(Clone, Copy, Debug, Default)]
struct SweepStats {
    /// Route `Y`-sweeps the worklist avoided vs. the dense reference.
    sweeps_skipped: u64,
    /// Per-server Theorem 3 evaluations actually performed.
    servers_touched: u64,
    /// Some iterate decreased a delay — on a warm-started solve this is
    /// the monotonicity break that forces the dense `Y` rebuild.
    warm_fallback: bool,
}

/// Instrumentation wrapper around [`solve_core`]: records wall time,
/// iteration count, residual, divergence, and sweep-economy counters,
/// then materializes the [`SolveResult`] from the scratch state.
#[allow(clippy::too_many_arguments)]
fn solve_instrumented(
    servers: &Servers,
    class: &TrafficClass,
    alphas: &[f64],
    routes: &RouteSet,
    cfg: &SolveConfig,
    warm: Option<&[f64]>,
    sweep: Sweep,
    scratch: &mut SolveScratch,
) -> SolveResult {
    let (outcome, iterations) =
        crate::metrics::record_solve(servers.len(), routes.len(), warm.is_some(), || {
            let (outcome, iterations, residual, stats) =
                solve_core(servers, class, alphas, routes, cfg, warm, sweep, scratch);
            let record = SolveRecord {
                iterations,
                residual,
                iteration_limit: outcome == Outcome::IterationLimit,
                sweeps_skipped: stats.sweeps_skipped,
                servers_touched: stats.servers_touched,
                decreased: stats.warm_fallback,
            };
            ((outcome, iterations), record)
        });
    SolveResult {
        outcome,
        delays: scratch.d.clone(),
        route_delays: scratch.route_delays.clone(),
        iterations,
    }
}

/// Walks one route, max-merging its prefix sums into `y`; returns the
/// route's total queueing delay (Eq. 6 contribution + end-to-end sum).
#[inline]
fn sweep_route(r: &Route, d: &[f64], y: &mut [f64]) -> f64 {
    let mut prefix = 0.0;
    for &sv in &r.servers {
        let k = sv as usize;
        if prefix > y[k] {
            y[k] = prefix;
        }
        prefix += d[k];
    }
    prefix
}

/// [`sweep_route`] that also records which servers' `Y` moved.
#[inline]
fn sweep_route_tracked(
    r: &Route,
    d: &[f64],
    y: &mut [f64],
    touched_mark: &mut [bool],
    touched: &mut Vec<u32>,
) -> f64 {
    let mut prefix = 0.0;
    for &sv in &r.servers {
        let k = sv as usize;
        if prefix > y[k] {
            y[k] = prefix;
            if !touched_mark[k] {
                touched_mark[k] = true;
                touched.push(sv);
            }
        }
        prefix += d[k];
    }
    prefix
}

#[inline]
fn first_violation(route_delays: &[f64], deadline: f64) -> Option<usize> {
    route_delays
        .iter()
        .position(|&rd| rd > deadline + DEADLINE_SLACK)
}

/// The uninstrumented solver body. Final state (delays, route delays) is
/// left in `scratch`; returns the outcome, iterations, the final sup-norm
/// residual (0 when the loop never completed a sweep), and sweep stats.
#[allow(clippy::too_many_arguments)]
fn solve_core(
    servers: &Servers,
    class: &TrafficClass,
    alphas: &[f64],
    routes: &RouteSet,
    cfg: &SolveConfig,
    warm: Option<&[f64]>,
    sweep: Sweep,
    scratch: &mut SolveScratch,
) -> (Outcome, usize, f64, SweepStats) {
    let s = servers.len();
    assert_eq!(routes.server_count(), s, "route set / servers mismatch");
    assert_eq!(alphas.len(), s, "one alpha per server");
    let class0 = ClassId(0);
    debug_assert!(
        routes.routes().iter().all(|r| r.class == class0),
        "solve_two_class expects single-class routes"
    );
    let committed = routes.routes();
    let n_routes = committed.len();

    // Destructure so closures can borrow individual buffers.
    let SolveScratch {
        d,
        y,
        route_delays,
        prop,
        used,
        sweep_list,
        vals,
        route_dirty,
        dirty_routes,
        touched_mark,
        touched,
        changed,
        ..
    } = scratch;
    d.clear();
    d.resize(s, 0.0);
    y.clear();
    y.resize(s, 0.0);
    route_delays.clear();
    route_delays.resize(n_routes, 0.0);
    prop.clear();
    used.clear();
    used.resize(s, false);
    sweep_list.clear();
    route_dirty.clear();
    route_dirty.resize(n_routes, false);
    dirty_routes.clear();
    touched_mark.clear();
    touched_mark.resize(s, false);
    touched.clear();
    changed.clear();

    // Used-server mask, constant (propagation) delay per route. The
    // propagation term consumes deadline budget but adds no jitter, so it
    // enters the checks, never `Y_k`.
    let mut n_class_routes = 0usize;
    for r in committed {
        prop.push(servers.route_const_delay(&r.servers));
        if r.class == class0 {
            n_class_routes += 1;
            for &sv in &r.servers {
                used[sv as usize] = true;
            }
        }
    }

    // Static domain check on the servers that matter.
    if (0..s).any(|k| used[k] && !(alphas[k] > 0.0 && alphas[k] < 1.0 && alphas[k].is_finite())) {
        return (Outcome::InvalidParams, 0, 0.0, SweepStats::default());
    }

    if let Some(w) = warm {
        assert_eq!(w.len(), s, "warm start length mismatch");
        d.copy_from_slice(w);
    }
    // Routes of other classes never move in the two-class solve; their
    // delay is the constant term alone (dense parity: 0 queueing + prop).
    for (ri, r) in committed.iter().enumerate() {
        if r.class != class0 {
            route_delays[ri] = prop[ri];
        }
    }
    // Full-sweep worklist: used servers, plus any server a warm start
    // seeded with a nonzero delay (the dense reference zeroes unused
    // servers on its first pass; matching it keeps iterates identical).
    for k in 0..s {
        if used[k] || d[k] != 0.0 {
            sweep_list.push(k as u32);
        }
    }

    let mut iterations = 0usize;
    let mut residual = 0.0f64;
    let mut stats = SweepStats::default();

    if let Sweep::Dense = sweep {
        // ---- Dense reference sweep: the math as written. ----
        loop {
            iterations += 1;
            y.fill(0.0);
            for (ri, r) in committed.iter().enumerate() {
                if r.class != class0 {
                    continue;
                }
                route_delays[ri] = sweep_route(r, d, y) + prop[ri];
            }
            if let Some(ri) = first_violation(route_delays, class.deadline) {
                return (
                    Outcome::DeadlineExceeded { route: ri },
                    iterations,
                    residual,
                    stats,
                );
            }

            stats.servers_touched += s as u64;
            let step = |k: usize| -> Option<f64> {
                if !used[k] {
                    return Some(0.0);
                }
                theorem3_delay(alphas[k], class.bucket, servers.fan_in_at(k), y[k])
            };
            vals.clear();
            vals.extend((0..s).map(step));
            let mut max_diff: f64 = 0.0;
            for k in 0..s {
                match vals[k] {
                    Some(v) => {
                        let diff = (v - d[k]).abs();
                        if diff > max_diff {
                            max_diff = diff;
                        }
                        d[k] = v;
                    }
                    None => return (Outcome::InvalidParams, iterations, residual, stats),
                }
            }
            residual = max_diff;

            if max_diff <= cfg.tol {
                // Converged: one final pass for route delays at the fixed
                // point.
                y.fill(0.0);
                for (ri, r) in committed.iter().enumerate() {
                    if r.class != class0 {
                        continue;
                    }
                    route_delays[ri] = sweep_route(r, d, y) + prop[ri];
                }
                let outcome = match first_violation(route_delays, class.deadline) {
                    Some(ri) => Outcome::DeadlineExceeded { route: ri },
                    None => Outcome::Safe,
                };
                return (outcome, iterations, residual, stats);
            }
            if iterations >= cfg.max_iters {
                return (Outcome::IterationLimit, iterations, residual, stats);
            }
        }
    }

    // ---- Incremental worklist sweep. ----
    let index = routes.index();
    let mut full_sweep = true;
    loop {
        iterations += 1;
        for &k in touched.iter() {
            touched_mark[k as usize] = false;
        }
        touched.clear();

        if full_sweep {
            y.fill(0.0);
            for (ri, r) in committed.iter().enumerate() {
                if r.class != class0 {
                    continue;
                }
                route_delays[ri] = sweep_route(r, d, y) + prop[ri];
            }
        } else {
            stats.sweeps_skipped += (n_class_routes - dirty_routes.len()) as u64;
            for &ri in dirty_routes.iter() {
                let ri = ri as usize;
                route_delays[ri] =
                    sweep_route_tracked(&committed[ri], d, y, touched_mark, touched) + prop[ri];
            }
        }
        if let Some(ri) = first_violation(route_delays, class.deadline) {
            return (
                Outcome::DeadlineExceeded { route: ri },
                iterations,
                residual,
                stats,
            );
        }

        // Re-evaluate Theorem 3 only where `Y` moved (ascending server
        // order, matching the dense application order).
        if !full_sweep {
            touched.sort_unstable();
        }
        let worklist: &[u32] = if full_sweep { sweep_list } else { touched };
        stats.servers_touched += worklist.len() as u64;
        let step = |i: usize| -> Option<f64> {
            let k = worklist[i] as usize;
            if !used[k] {
                return Some(0.0);
            }
            theorem3_delay(alphas[k], class.bucket, servers.fan_in_at(k), y[k])
        };
        if cfg.threads > 1 && worklist.len() > PAR_THRESHOLD {
            *vals = par_map(worklist.len(), cfg.threads, step);
        } else {
            vals.clear();
            vals.extend((0..worklist.len()).map(step));
        }
        let mut max_diff: f64 = 0.0;
        let mut decreased = false;
        changed.clear();
        for (i, &ku) in worklist.iter().enumerate() {
            let k = ku as usize;
            match vals[i] {
                Some(v) => {
                    if v != d[k] {
                        let diff = (v - d[k]).abs();
                        if diff > max_diff {
                            max_diff = diff;
                        }
                        if v < d[k] {
                            decreased = true;
                        }
                        d[k] = v;
                        changed.push(ku);
                    }
                }
                None => return (Outcome::InvalidParams, iterations, residual, stats),
            }
        }
        residual = max_diff;
        if decreased {
            stats.warm_fallback = true;
        }

        if max_diff <= cfg.tol {
            // Converged: refresh route delays at the fixed point. Only
            // routes fed by a just-changed server can move.
            if decreased {
                y.fill(0.0);
                for (ri, r) in committed.iter().enumerate() {
                    if r.class != class0 {
                        continue;
                    }
                    route_delays[ri] = sweep_route(r, d, y) + prop[ri];
                }
            } else {
                for &ri in dirty_routes.iter() {
                    route_dirty[ri as usize] = false;
                }
                dirty_routes.clear();
                for &ku in changed.iter() {
                    let k = ku as usize;
                    for &(ri, _) in index.entries(k) {
                        let riu = ri as usize;
                        if !route_dirty[riu] && committed[riu].class == class0 {
                            route_dirty[riu] = true;
                            dirty_routes.push(ri);
                        }
                    }
                }
                dirty_routes.sort_unstable();
                stats.sweeps_skipped += (n_class_routes - dirty_routes.len()) as u64;
                for &ri in dirty_routes.iter() {
                    let ri = ri as usize;
                    route_delays[ri] = sweep_route(&committed[ri], d, y) + prop[ri];
                }
            }
            let outcome = match first_violation(route_delays, class.deadline) {
                Some(ri) => Outcome::DeadlineExceeded { route: ri },
                None => Outcome::Safe,
            };
            return (outcome, iterations, residual, stats);
        }
        if iterations >= cfg.max_iters {
            return (Outcome::IterationLimit, iterations, residual, stats);
        }

        // Next iteration's dirty routes: those containing a changed server.
        // Either sweep mode computes identical iterates (a full sweep is
        // the dirty sweep's superset), so the choice is pure cost policy:
        // when most servers moved — typical for *cold* solves far from the
        // fixed point — worklist bookkeeping costs more than it saves.
        if decreased || changed.len() * 2 >= sweep_list.len() {
            // `decreased` additionally means a warm start above the least
            // fixed point broke monotonicity; the dense `Y` rebuild
            // restores exactness.
            full_sweep = true;
        } else {
            full_sweep = false;
            for &ri in dirty_routes.iter() {
                route_dirty[ri as usize] = false;
            }
            dirty_routes.clear();
            for &ku in changed.iter() {
                let k = ku as usize;
                for &(ri, _) in index.entries(k) {
                    let riu = ri as usize;
                    if !route_dirty[riu] && committed[riu].class == class0 {
                        route_dirty[riu] = true;
                        dirty_routes.push(ri);
                    }
                }
            }
            dirty_routes.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routeset::Route;
    use uba_graph::{Digraph, NodeId};
    use uba_traffic::TrafficClass;

    fn voip() -> TrafficClass {
        TrafficClass::voip()
    }

    /// A 5-router line; routes along it in both directions.
    fn line_setup(hops: usize) -> (Digraph, Servers, RouteSet) {
        let n = hops + 1;
        let mut g = Digraph::with_nodes(n);
        for i in 0..hops {
            g.add_link(NodeId(i as u32), NodeId(i as u32 + 1), 1.0);
        }
        let servers = Servers::uniform(&g, 100e6, 6);
        let mut routes = RouteSet::new(g.edge_count());
        // Forward edges are even indices (add_link adds fwd then back).
        let fwd: Vec<u32> = (0..hops as u32).map(|i| 2 * i).collect();
        let back: Vec<u32> = (0..hops as u32).rev().map(|i| 2 * i + 1).collect();
        routes.push(Route {
            class: ClassId(0),
            servers: fwd,
        });
        routes.push(Route {
            class: ClassId(0),
            servers: back,
        });
        (g, servers, routes)
    }

    #[test]
    fn empty_route_set_safe_immediately() {
        let (_, servers, _) = line_setup(3);
        let routes = RouteSet::new(servers.len());
        let r = solve_two_class(
            &servers,
            &voip(),
            0.3,
            &routes,
            &SolveConfig::default(),
            None,
        );
        assert_eq!(r.outcome, Outcome::Safe);
        assert!(r.delays.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn feedforward_line_converges_to_closed_form() {
        // On a one-direction line, Y at hop p is the sum of delays of hops
        // before it; the fixed point is the Theorem-4-upper-bound
        // recurrence S_k = (1+β)S_{k-1} + βT/ρ.
        let hops = 4;
        let n = hops + 1;
        let mut g = Digraph::with_nodes(n);
        let mut fwd = Vec::new();
        for i in 0..hops {
            // Directed only: pure feed-forward.
            fwd.push(g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1.0).0);
        }
        let servers = Servers::uniform(&g, 100e6, 6);
        let mut routes = RouteSet::new(g.edge_count());
        routes.push(Route {
            class: ClassId(0),
            servers: fwd,
        });
        let alpha = 0.3;
        let cls = voip();
        let r = solve_two_class(
            &servers,
            &cls,
            alpha,
            &routes,
            &SolveConfig::default(),
            None,
        );
        assert_eq!(r.outcome, Outcome::Safe);
        let beta = alpha * 5.0 / (6.0 - alpha);
        let t_over_rho = 0.02;
        let expect_total = t_over_rho * ((1.0 + beta).powi(hops as i32) - 1.0);
        assert!(
            (r.route_delays[0] - expect_total).abs() < 1e-9,
            "got {}, expect {expect_total}",
            r.route_delays[0]
        );
    }

    #[test]
    fn bidirectional_line_safe_at_moderate_alpha() {
        let (_, servers, routes) = line_setup(4);
        let r = solve_two_class(
            &servers,
            &voip(),
            0.3,
            &routes,
            &SolveConfig::default(),
            None,
        );
        assert_eq!(r.outcome, Outcome::Safe);
        assert!(r.route_delays.iter().all(|&rd| rd <= 0.1));
        assert!(r.route_delays.iter().all(|&rd| rd > 0.0));
    }

    #[test]
    fn high_alpha_rejected() {
        let (_, servers, routes) = line_setup(4);
        // α close to 1 on a 4-hop path with N=6 blows past 100 ms.
        let r = solve_two_class(
            &servers,
            &voip(),
            0.95,
            &routes,
            &SolveConfig::default(),
            None,
        );
        assert!(matches!(
            r.outcome,
            Outcome::DeadlineExceeded { .. } | Outcome::IterationLimit
        ));
    }

    #[test]
    fn invalid_alpha_reported() {
        let (_, servers, routes) = line_setup(2);
        for &bad in &[0.0, 1.0, -0.5, f64::NAN] {
            let r = solve_two_class(
                &servers,
                &voip(),
                bad,
                &routes,
                &SolveConfig::default(),
                None,
            );
            assert_eq!(r.outcome, Outcome::InvalidParams);
        }
    }

    #[test]
    fn monotone_in_alpha() {
        let (_, servers, routes) = line_setup(4);
        let lo = solve_two_class(
            &servers,
            &voip(),
            0.2,
            &routes,
            &SolveConfig::default(),
            None,
        );
        let hi = solve_two_class(
            &servers,
            &voip(),
            0.4,
            &routes,
            &SolveConfig::default(),
            None,
        );
        assert_eq!(lo.outcome, Outcome::Safe);
        assert_eq!(hi.outcome, Outcome::Safe);
        for (a, b) in lo.route_delays.iter().zip(&hi.route_delays) {
            assert!(a < b);
        }
    }

    #[test]
    fn warm_start_reaches_same_fixed_point() {
        let (_, servers, mut routes) = line_setup(4);
        let cls = voip();
        let cfg = SolveConfig::default();
        // Solve a smaller problem (one route), then add the second route
        // and warm start.
        let second = routes.pop().unwrap();
        let small = solve_two_class(&servers, &cls, 0.3, &routes, &cfg, None);
        assert_eq!(small.outcome, Outcome::Safe);
        routes.push(second);
        let warm = solve_two_class(&servers, &cls, 0.3, &routes, &cfg, Some(&small.delays));
        let cold = solve_two_class(&servers, &cls, 0.3, &routes, &cfg, None);
        assert_eq!(warm.outcome, Outcome::Safe);
        for (a, b) in warm.delays.iter().zip(&cold.delays) {
            assert!((a - b).abs() < 1e-9, "warm {a} vs cold {b}");
        }
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn parallel_matches_serial() {
        // A 9x9 torus has 324 link servers; shortest paths between a
        // spread of pairs use more than `PAR_THRESHOLD` of them, so the
        // full sweeps of the parallel solve really fan out.
        let g = uba_topology::torus(9, 9);
        let servers = Servers::uniform(&g, 100e6, 4);
        let mut routes = RouteSet::new(g.edge_count());
        let n = g.node_count() as u32;
        for src in 0..n {
            for dst in (0..n).filter(|dst| (src + dst) % 5 == 0 && *dst != src) {
                let path = &uba_graph::k_shortest_paths(&g, NodeId(src), NodeId(dst), 1)[0];
                routes.push(Route::from_path(ClassId(0), path));
            }
        }
        let used = routes.used_servers(ClassId(0));
        assert!(used.iter().filter(|&&u| u).count() > PAR_THRESHOLD);
        let cls = voip();
        let serial = solve_two_class(&servers, &cls, 0.1, &routes, &SolveConfig::default(), None);
        let par_cfg = SolveConfig {
            threads: 4,
            ..Default::default()
        };
        let parallel = solve_two_class(&servers, &cls, 0.1, &routes, &par_cfg, None);
        assert_eq!(serial.outcome, parallel.outcome);
        for (a, b) in serial.delays.iter().zip(&parallel.delays) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn unused_servers_keep_zero_delay() {
        let (_, servers, mut routes) = line_setup(4);
        routes.pop(); // keep only the forward route
        let r = solve_two_class(
            &servers,
            &voip(),
            0.3,
            &routes,
            &SolveConfig::default(),
            None,
        );
        assert_eq!(r.outcome, Outcome::Safe);
        let used = routes.used_servers(ClassId(0));
        for (k, &u) in used.iter().enumerate() {
            if !u {
                assert_eq!(r.delays[k], 0.0);
            } else {
                assert!(r.delays[k] > 0.0);
            }
        }
    }

    #[test]
    fn iteration_cap_is_conservative() {
        let (_, servers, routes) = line_setup(4);
        let cfg = SolveConfig {
            max_iters: 1,
            ..Default::default()
        };
        let r = solve_two_class(&servers, &voip(), 0.3, &routes, &cfg, None);
        assert_eq!(r.outcome, Outcome::IterationLimit);
        assert!(!r.outcome.is_safe());
    }

    #[test]
    fn incremental_matches_dense_reference() {
        let (_, servers, routes) = line_setup(6);
        let cls = voip();
        for &alpha in &[0.1, 0.3, 0.45, 0.6] {
            let inc = solve_two_class(
                &servers,
                &cls,
                alpha,
                &routes,
                &SolveConfig::default(),
                None,
            );
            let dense = solve_two_class_dense(
                &servers,
                &cls,
                alpha,
                &routes,
                &SolveConfig::default(),
                None,
            );
            assert_eq!(inc.outcome, dense.outcome, "alpha {alpha}");
            assert_eq!(inc.iterations, dense.iterations, "alpha {alpha}");
            for (a, b) in inc.delays.iter().zip(&dense.delays) {
                assert_eq!(a, b, "delays diverge at alpha {alpha}");
            }
            for (a, b) in inc.route_delays.iter().zip(&dense.route_delays) {
                assert_eq!(a, b, "route delays diverge at alpha {alpha}");
            }
        }
    }

    #[test]
    fn sweep_economy_counters_recorded() {
        let m = crate::metrics::solver();
        let touched0 = m.servers_touched.get();
        let (_, servers, routes) = line_setup(4);
        let r = solve_two_class(
            &servers,
            &voip(),
            0.3,
            &routes,
            &SolveConfig::default(),
            None,
        );
        assert_eq!(r.outcome, Outcome::Safe);
        // Every solve evaluates at least its used servers once.
        assert!(m.servers_touched.get() > touched0);
    }
}
