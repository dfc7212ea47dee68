//! An independent check of a safe verdict: Figure 2 without the solver.
//!
//! `Z` — Eq. (6)'s prefix maxima `Y`, then the per-server closed form —
//! is monotone in `d`. So any `d̂ ≥ 0` with `Z(d̂) ≤ d̂` bounds the least
//! fixed point from above, and if every route's `Σ d̂` also meets its
//! class deadline the configuration is safe, however `d̂` was found.
//! [`check`] tests exactly those two things, and nothing else.
//!
//! It shares no code with the solvers. `Y` is re-derived from the routes,
//! and the closed form is DESIGN.md §2's Theorem 5 as printed there, the
//! literal quotient (with one class, Eq. 10):
//!
//! ```text
//!            Σ_{l≤i} α_l·(T_l/ρ_l + Y_{l,k})  +  (Σ_{l≤i} α_l − 1)·τ_i
//! d_{i,k} = ───────────────────────────────────────────────────────────
//!                             1 − Σ_{l<i} α_l
//!
//! τ_i = α_i·(T_i + ρ_i·Y_{i,k}) / (ρ_i·(N − α_i))
//! ```
//!
//! Every operation is rounded outward with `next_up` / `next_down`: the
//! prefix sums and the numerator up, `τ_i` and the denominator down. The
//! quotient is non-decreasing in every `Y` in the reals (§2's
//! subtraction-free line), so its upper bound at an upper bound of `Y`
//! bounds `Z(d̂)`; `Ok` holds in the reals, not only in floating point.

use crate::routeset::RouteSet;
use crate::servers::Servers;
use uba_traffic::ClassSet;

/// Why a certificate was refused: the first failure found, cells (in
/// order) before routes.
#[derive(Clone, Debug, PartialEq)]
pub enum CertError {
    /// A route crosses `server`, whose `α` row is outside the theorem's
    /// domain: a share outside `(0, 1)`, or the row's sum above 1.
    Domain {
        /// The server.
        server: usize,
    },
    /// `Z(d̂) > d̂` at `cell` (`server · classes + class`).
    Cell {
        /// The cell.
        cell: usize,
        /// An upper bound of `Z(d̂)` there.
        z: f64,
        /// `d̂` there.
        d_hat: f64,
    },
    /// Route `route`'s `Σ d̂` exceeds its class deadline.
    Route {
        /// Index into the route set.
        route: usize,
        /// An upper bound of the route's `Σ d̂`.
        sum: f64,
        /// The class deadline.
        deadline: f64,
    },
}

fn up(x: f64) -> f64 {
    x.next_up()
}

fn down(x: f64) -> f64 {
    x.next_down()
}

/// Certifies that `routes` meet their deadlines under `classes` with
/// `alpha_cells` (one `α` per cell, `server · classes + class`), using
/// `d_hat` (one delay per cell) as the witness.
///
/// # Panics
/// If the cell vectors, the servers and the route set disagree in size,
/// or a route carries a class outside `classes`.
pub fn check(
    servers: &Servers,
    classes: &ClassSet,
    alpha_cells: &[f64],
    routes: &RouteSet,
    d_hat: &[f64],
) -> Result<(), CertError> {
    let nc = classes.len();
    let cells = servers.len() * nc;
    assert_eq!(alpha_cells.len(), cells, "one alpha per cell");
    assert_eq!(d_hat.len(), cells, "one delay per cell");
    assert_eq!(routes.server_count(), servers.len(), "routes / servers");

    // Eq. (6): the largest prefix sum of d̂ before each used cell.
    let mut y = vec![0.0f64; cells];
    let mut used = vec![false; cells];
    for r in routes.routes() {
        assert!(r.class.index() < nc, "a route of an unknown class");
        let mut prefix = 0.0;
        for &sv in &r.servers {
            let cell = sv as usize * nc + r.class.index();
            used[cell] = true;
            y[cell] = y[cell].max(prefix);
            prefix = up(prefix + d_hat[cell]);
        }
    }

    let buckets: Vec<_> = classes.iter().map(|(_, c)| c.bucket).collect();
    for cell in (0..cells).filter(|&c| used[c]) {
        let (server, i) = (cell / nc, cell % nc);
        let alpha = &alpha_cells[server * nc..][..nc];
        let row_sum = alpha.iter().fold(0.0, |s, &a| up(s + a));
        if !alpha.iter().all(|&a| a > 0.0 && a < 1.0) || row_sum > 1.0 {
            return Err(CertError::Domain { server });
        }
        let y = &y[server * nc..][..nc];
        let n = servers.fan_in_at(server) as f64;

        let (mut num, mut sum_le, mut sum_lt) = (0.0, 0.0, 0.0);
        for l in 0..=i {
            let b = buckets[l];
            num = up(num + up(alpha[l] * up(up(b.burst / b.rate) + y[l])));
            sum_lt = sum_le;
            sum_le = up(sum_le + alpha[l]);
        }
        // Σ_{l≤i} α_l ≤ 1 was shown above, so the coefficient is ≤ 0 and
        // the subtracted term is bounded by a lower bound of τ_i.
        let coef = up(sum_le - 1.0).min(0.0);
        let b = buckets[i];
        let tau = down(
            down(alpha[i] * down(b.burst + down(b.rate * y[i]))) / up(b.rate * up(n - alpha[i])),
        );
        let num = up(num + up(coef * tau));
        let den = down(1.0 - sum_lt);
        if den <= 0.0 {
            return Err(CertError::Domain { server });
        }
        let z = up(num / den);
        let holds = z <= d_hat[cell]; // false on a NaN witness too
        if !holds {
            return Err(CertError::Cell {
                cell,
                z,
                d_hat: d_hat[cell],
            });
        }
    }

    for (route, r) in routes.routes().iter().enumerate() {
        let sum = (r.servers.iter()).fold(0.0, |s, &sv| {
            up(s + d_hat[sv as usize * nc + r.class.index()])
        });
        let deadline = classes.get(r.class).deadline;
        let meets = sum <= deadline;
        if !meets {
            return Err(CertError::Route {
                route,
                sum,
                deadline,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve_rule, SolveConfig, SolveResult};
    use crate::routeset::Route;
    use crate::rule::Theorem5;
    use uba_traffic::{ClassId, LeakyBucket, TrafficClass};

    /// The relative lift from the solver's cells to a witness: the solver
    /// stops within `tol` of its fixed point, the witness must be above it.
    const LIFT: f64 = 1e-9;

    fn lifted(cells: &[f64]) -> Vec<f64> {
        cells.iter().map(|d| d * (1.0 + LIFT)).collect()
    }

    /// voip, video, bulk-rt: the first `n`.
    fn classes(n: usize) -> ClassSet {
        let all = [
            TrafficClass::voip(),
            TrafficClass::new("video", LeakyBucket::new(64_000.0, 2_000_000.0), 0.3),
            TrafficClass::new("bulk-rt", LeakyBucket::new(256_000.0, 5_000_000.0), 1.0),
        ];
        let mut set = ClassSet::new();
        for class in all.into_iter().take(n) {
            set.push(class);
        }
        set
    }

    /// MCI's shortest path for every ordered pair, once per class.
    fn mci_sp(nc: usize) -> (Servers, RouteSet) {
        let g = uba_topology::mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        let mut routes = RouteSet::new(g.edge_count());
        for src in g.nodes() {
            let tree = uba_graph::dijkstra(&g, src);
            for dst in g.nodes().filter(|&d| d != src) {
                let path = tree.path_to(&g, dst).expect("MCI is connected");
                for c in 0..nc {
                    routes.push(Route::from_path(ClassId(c), &path));
                }
            }
        }
        (servers, routes)
    }

    fn solve(
        servers: &Servers,
        classes: &ClassSet,
        alphas: &[f64],
        routes: &RouteSet,
    ) -> SolveResult {
        let rule = Theorem5::new(classes.iter().map(|(_, c)| c), alphas.repeat(servers.len()));
        solve_rule(servers, &rule, routes, &SolveConfig::default(), None)
    }

    /// Every safe verdict over MCI's shortest paths in one, two and three
    /// classes, from light load past the feasible edge, certifies at the
    /// lifted cells; and the sweep does cross the edge in every class
    /// count.
    #[test]
    fn every_safe_mci_verdict_certifies() {
        let mut certified = 0;
        for nc in 1..=3 {
            let (servers, routes) = mci_sp(nc);
            let classes = classes(nc);
            let weights = &[1.0, 0.5, 0.5][..nc];
            let mut refused = 0;
            for step in 1..=150 {
                let alphas: Vec<f64> = weights.iter().map(|w| w * 0.004 * step as f64).collect();
                let r = solve(&servers, &classes, &alphas, &routes);
                if !r.outcome.is_safe() {
                    refused += 1;
                    continue;
                }
                let cells = alphas.repeat(servers.len());
                let got = check(&servers, &classes, &cells, &routes, &lifted(&r.delays));
                assert_eq!(got, Ok(()), "{nc} classes at {alphas:?}");
                certified += 1;
            }
            assert!(
                refused > 0,
                "{nc} classes: the sweep never crossed the edge"
            );
        }
        assert!(certified >= 300, "only {certified} safe verdicts");
    }

    fn mci_two_class() -> (Servers, ClassSet, RouteSet, Vec<f64>, SolveResult) {
        let (servers, routes) = mci_sp(2);
        let classes = classes(2);
        let alphas = [0.1, 0.05];
        let r = solve(&servers, &classes, &alphas, &routes);
        assert!(r.outcome.is_safe());
        let cells = alphas.repeat(servers.len());
        (servers, classes, routes, cells, r)
    }

    #[test]
    fn a_witness_below_the_fixed_point_is_refused_at_a_cell() {
        let (servers, classes, routes, cells, r) = mci_two_class();
        let low: Vec<f64> = r.delays.iter().map(|d| d * (1.0 - 1e-6)).collect();
        match check(&servers, &classes, &cells, &routes, &low) {
            Err(CertError::Cell { z, d_hat, .. }) => assert!(z > d_hat),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_route_over_its_deadline_is_refused() {
        let (servers, mut classes, routes, cells, r) = mci_two_class();
        let worst = r.route_delays.iter().copied().fold(0.0, f64::max);
        let mut tight = ClassSet::new();
        for (id, class) in classes.iter() {
            let mut class = class.clone();
            if id == ClassId(1) {
                class.deadline = worst * 0.999;
            }
            tight.push(class);
        }
        let d_hat = lifted(&r.delays);
        assert_eq!(check(&servers, &classes, &cells, &routes, &d_hat), Ok(()));
        classes = tight;
        match check(&servers, &classes, &cells, &routes, &d_hat) {
            Err(CertError::Route { sum, deadline, .. }) => assert!(sum > deadline),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_alpha_row_outside_the_domain_is_refused_where_a_route_crosses_it() {
        let (servers, classes, routes, mut cells, r) = mci_two_class();
        let d_hat = lifted(&r.delays);
        let used = routes.routes()[0].servers[0] as usize;
        let unused = (0..servers.len()).find(|&k| {
            routes
                .routes()
                .iter()
                .all(|r| !r.servers.contains(&(k as u32)))
        });
        if let Some(k) = unused {
            cells[2 * k] = f64::NAN;
            assert_eq!(check(&servers, &classes, &cells, &routes, &d_hat), Ok(()));
        }
        cells[2 * used + 1] = 0.95;
        assert_eq!(
            check(&servers, &classes, &cells, &routes, &d_hat),
            Err(CertError::Domain { server: used })
        );
    }
}
