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
//! The loop is the math as written: every iteration rebuilds every `Y_k`
//! from the route prefixes (Eq. 6) and re-evaluates the delay rule
//! ([`crate::rule`]) at every used server. There is one entry point,
//! `solve_rule(servers, &rule, routes, cfg, warm)`, under
//! `Theorem5::new(classes, alphas)` (a share per server and class);
//! [`solve_two_class`] is its one-class line at one `α` everywhere. A
//! solve is one [`SolveResult`] with its delays in the rule's cells;
//! Figure 2's
//! [`crate::verify()`] is the one place they become per-class rows.
//! The §5.2 candidate-evaluation loop does not come through
//! here: it asks one question thousands of times against a slowly
//! growing route set, and [`crate::committed::CommittedState`] answers it
//! from persistent state with these iterates, bit for bit
//! (`tests/committed_equiv.rs`; `tests/solve_equiv.rs` pins this solver's
//! own answers).

use crate::metrics::SolveRecord;
use crate::routeset::{Route, RouteSet};
use crate::rule::{DelayRule, Theorem5};
use crate::servers::Servers;
use uba_traffic::TrafficClass;

/// Tunables for the fixed-point iteration.
#[derive(Clone, Copy, Debug)]
pub struct SolveConfig {
    /// Absolute sup-norm convergence tolerance in seconds.
    pub tol: f64,
    /// Iteration cap; hitting it is reported as [`Outcome::IterationLimit`].
    pub max_iters: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        Self {
            tol: 1e-12,
            max_iters: 20_000,
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
    /// Delay bounds at the last iterate (the least fixed point when
    /// `outcome` is `Safe`), in the rule's cells ([`crate::rule`]): one
    /// per server with one class.
    pub delays: Vec<f64>,
    /// Per-route end-to-end delays at the last iterate.
    pub route_delays: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
}

pub(crate) const DEADLINE_SLACK: f64 = 1e-12;

/// Solves the two-class system (one real-time class + implicit best
/// effort) at one utilization `alpha` on every server: [`solve_rule`]
/// under a one-class [`Theorem5`], which is Theorem 3. All routes in
/// `routes` must carry `ClassId(0)`; a per-server assignment is
/// `solve_rule(servers, &Theorem5::new([class], alphas), ..)`.
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
    let rule = Theorem5::new([class], vec![alpha; servers.len()]);
    solve_rule(servers, &rule, routes, cfg, warm)
}

/// The solver, whatever the rule: iterates `d ← Z(d)` under `rule`
/// to `cfg.tol`, one record in the `delay.solve.*` series. `warm` and the
/// result's `delays` are in the cell layout of [`crate::rule`].
pub fn solve_rule<R: DelayRule>(
    servers: &Servers,
    rule: &R,
    routes: &RouteSet,
    cfg: &SolveConfig,
    warm: Option<&[f64]>,
) -> SolveResult {
    let (result, rec) =
        crate::metrics::trace_solve(servers.len(), routes.len(), warm.is_some(), true, || {
            solve_core(servers, rule, routes, cfg, warm)
        });
    crate::metrics::solver().record(&rec);
    result
}

/// Walks one route, max-merging its prefix sums into `y`; returns the
/// route's total queueing delay (Eq. 6 contribution + end-to-end sum).
#[inline(always)]
fn sweep_route(r: &Route, nc: usize, d: &[f64], y: &mut [f64]) -> f64 {
    let class = r.class.index();
    let mut prefix = 0.0;
    for &sv in &r.servers {
        let cell = sv as usize * nc + class;
        if prefix > y[cell] {
            y[cell] = prefix;
        }
        prefix += d[cell];
    }
    prefix
}

/// Eq. (6) over the whole set: rebuilds every `Y` from the route
/// prefixes under `d`, and each route's end-to-end delay, inlined with
/// [`sweep_route`] into the solver's loop.
#[inline(always)]
fn sweep_all(routes: &[Route], nc: usize, d: &[f64], y: &mut [f64], route_delays: &mut [f64]) {
    y.fill(0.0);
    for (ri, r) in routes.iter().enumerate() {
        route_delays[ri] = sweep_route(r, nc, d, y);
    }
}

#[inline]
fn first_violation<R: DelayRule>(
    rule: &R,
    routes: &[Route],
    route_delays: &[f64],
) -> Option<usize> {
    routes
        .iter()
        .zip(route_delays)
        .position(|(r, &rd)| rd > rule.deadline(r.class) + DEADLINE_SLACK)
}

/// The uninstrumented solver body: the result, and what
/// [`crate::metrics::SolverMetrics::record`] publishes about it (the
/// residual is 0 when the loop never completed a sweep).
fn solve_core<R: DelayRule>(
    servers: &Servers,
    rule: &R,
    routes: &RouteSet,
    cfg: &SolveConfig,
    warm: Option<&[f64]>,
) -> (SolveResult, SolveRecord) {
    let s = servers.len();
    let nc = rule.classes();
    assert_eq!(routes.server_count(), s, "route set / servers mismatch");
    let committed = routes.routes();
    assert!(
        committed.iter().all(|r| r.class.index() < nc),
        "a route of a class the delay rule does not cover"
    );

    let cells = s * nc;
    let mut d = vec![0.0; cells];
    let mut y = vec![0.0; cells];
    let mut route_delays = vec![0.0; committed.len()];
    let mut record = SolveRecord::default();

    let mut used = vec![false; cells];
    for r in committed {
        for &sv in &r.servers {
            used[sv as usize * nc + r.class.index()] = true;
        }
    }
    let n_used = used.iter().filter(|&&u| u).count() as u64;

    let mut iterate = || -> Outcome {
        if !rule.in_domain(&used) {
            return Outcome::InvalidParams;
        }
        if let Some(w) = warm {
            assert_eq!(w.len(), cells, "warm start length mismatch");
            d.copy_from_slice(w);
        }

        loop {
            record.iterations += 1;
            sweep_all(committed, nc, &d, &mut y, &mut route_delays);
            if let Some(ri) = first_violation(rule, committed, &route_delays) {
                return Outcome::DeadlineExceeded { route: ri };
            }

            // The rule at every used cell; an unused one (a warm start
            // may have seeded it) carries no delay.
            record.servers_touched += n_used;
            let mut max_diff: f64 = 0.0;
            for cell in 0..cells {
                let (k, class) = (cell / nc, cell % nc);
                let v = if used[cell] {
                    rule.delay(class, k, servers.fan_in_at(k), &y[cell - class..][..nc])
                } else {
                    Some(0.0)
                };
                match v {
                    Some(v) => {
                        let diff = (v - d[cell]).abs();
                        if diff > max_diff {
                            max_diff = diff;
                        }
                        // Iterates from below only grow: a fall means the
                        // warm start was above the least fixed point.
                        if v < d[cell] {
                            record.decreased = true;
                        }
                        d[cell] = v;
                    }
                    None => return Outcome::InvalidParams,
                }
            }
            record.residual = max_diff;

            if max_diff <= cfg.tol {
                // Converged: one final pass for route delays at the fixed
                // point.
                sweep_all(committed, nc, &d, &mut y, &mut route_delays);
                return match first_violation(rule, committed, &route_delays) {
                    Some(ri) => Outcome::DeadlineExceeded { route: ri },
                    None => Outcome::Safe,
                };
            }
            if record.iterations >= cfg.max_iters {
                return Outcome::IterationLimit;
            }
        }
    };
    let outcome = iterate();
    record.iteration_limit = outcome == Outcome::IterationLimit;
    let result = SolveResult {
        outcome,
        delays: d,
        route_delays,
        iterations: record.iterations,
    };
    (result, record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routeset::Route;
    use uba_graph::{Digraph, NodeId};
    use uba_traffic::{ClassId, TrafficClass};

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
    fn sweep_takes_the_max_prefix_per_class() {
        // Eq. (6) on the cell layout, two classes over four servers: two
        // class-0 routes share server 2 (one arrives fresh, one after
        // servers 0 and 1), a class-1 route revisits server 0.
        let mut routes = RouteSet::new(4);
        for (class, servers) in [(0, vec![2, 3]), (0, vec![0, 1, 2]), (1, vec![0, 1, 0])] {
            let class = ClassId(class);
            routes.push(Route { class, servers });
        }
        // Class 0's delays 10, 20, 5, 1 ms; class 1's 0.25, 0.5, 0, 0 s.
        let d = [0.010, 0.25, 0.020, 0.5, 0.005, 0.0, 0.001, 0.0];
        let (mut y, mut rd) = (vec![f64::NAN; 8], [0.0; 3]);
        sweep_all(routes.routes(), 2, &d, &mut y, &mut rd);
        let y = crate::rule::by_class(&y, 2);
        // Server 2 sees max(0 from the first route's first hop, 0.030).
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        assert!(y[0][0] == 0.0 && close(y[0][1], 0.010));
        assert!(close(y[0][2], 0.030) && close(y[0][3], 0.005));
        // The second visit's prefix; class 0's delays play no part.
        assert_eq!(y[1], [0.75, 0.25, 0.0, 0.0]);
        assert!(close(rd[0], 0.006) && close(rd[1], 0.035) && rd[2] == 1.0);
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
