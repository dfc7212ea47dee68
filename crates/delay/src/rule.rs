//! The per-server delay rule both solvers iterate.
//!
//! `d = Z(d)` has one shape whatever the number of classes: sweep every
//! route's prefix sums into `Y` (Eq. 6), then re-evaluate a closed form
//! `d_{i,k} = f(Y_{·,k})` at every used server. The closed form is the
//! [`DelayRule`]: [`Theorem3`] for one real-time class (with a per-server
//! `α`), [`Theorem5`] for several under static priority; the solvers are
//! monomorphised per rule. A rule is the only thing a configuration step
//! varies on: `solve_rule`, `CommittedState::{empty, from_fixed_point}`
//! and the routing crate's greedy and bisection take any rule, so a third
//! one needs no wrapper. Two formulas rather than one because "Theorem 5
//! with one class *is* Theorem 3" is algebra, not bits: the simplified
//! product and the literal quotient differ in the last place, each caller
//! keeps the form it always used, and both are pinned
//! (`tests/solve_equiv.rs`).
//!
//! Delays and upstream maxima live in one vector of *cells*,
//! `cell = server · classes + class`: a server's per-class `Y` row — what
//! Theorem 5 reads — is contiguous, and with one class a cell is the
//! server. Cells are the one layout from the solver to the route
//! selection; [`by_class`] turns them into `delays[class][server]` rows
//! for Figure 2's report.

use crate::bound::theorem3_delay;
use crate::multiclass::{theorem5_delay, ClassSpec};
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

/// A closed-form per-server delay bound over `classes()` priority classes.
pub trait DelayRule {
    /// Relative margin to concede before relying on [`Self::delay`] being
    /// non-decreasing in every `y[l]`: `0` when it is bit for bit, as
    /// Theorem 3's product of monotone operations is. The literal
    /// Theorem 5 subtracts a term that grows with the class's own `Y`, and
    /// now and then rounds one ulp (2⁻⁵²) lower; `1e-9` leaves that six
    /// orders of magnitude of room — a margin, not a proof.
    const ROUNDING_MARGIN: f64;
    /// Number of real-time classes, highest priority first.
    fn classes(&self) -> usize;
    /// End-to-end deadline of `class`.
    fn deadline(&self, class: ClassId) -> f64;
    /// The static domain check, given which cells carry a route.
    fn in_domain(&self, used: &[bool]) -> bool;
    /// `d_{class, server}` from the server's upstream maxima `y[l]`, one
    /// per class; `None` outside the theorem's domain.
    fn delay(&self, class: usize, server: usize, fan_in: usize, y: &[f64]) -> Option<f64>;
}

fn valid_share(alpha: f64) -> bool {
    alpha > 0.0 && alpha < 1.0 && alpha.is_finite()
}

/// Theorem 3 as [`theorem3_delay`] writes it: one real-time class, a
/// utilization per server (only those of servers that carry a route are
/// validated).
#[derive(Clone, Debug)]
pub struct Theorem3 {
    bucket: LeakyBucket,
    deadline: f64,
    alphas: Vec<f64>,
    all_valid: bool,
}

impl Theorem3 {
    /// `alphas[k]` for server `k`: one per server, which the solvers
    /// assert where the rule meets the servers.
    pub fn new(class: &TrafficClass, alphas: Vec<f64>) -> Self {
        Self {
            bucket: class.bucket,
            deadline: class.deadline,
            all_valid: alphas.iter().all(|&a| valid_share(a)),
            alphas,
        }
    }
}

impl DelayRule for Theorem3 {
    const ROUNDING_MARGIN: f64 = 0.0;

    #[inline]
    fn classes(&self) -> usize {
        1
    }

    #[inline]
    fn deadline(&self, _class: ClassId) -> f64 {
        self.deadline
    }

    #[inline]
    fn in_domain(&self, used: &[bool]) -> bool {
        assert_eq!(used.len(), self.alphas.len(), "one alpha per server");
        self.all_valid
            || used
                .iter()
                .zip(&self.alphas)
                .all(|(&u, &a)| !u || valid_share(a))
    }

    #[inline]
    fn delay(&self, _class: usize, server: usize, fan_in: usize, y: &[f64]) -> Option<f64> {
        theorem3_delay(self.alphas[server], self.bucket, fan_in, y[0])
    }
}

/// Theorem 5 as [`theorem5_delay`] writes it: a utilization share per
/// class, the same at every server.
#[derive(Clone, Debug)]
pub struct Theorem5 {
    specs: Vec<ClassSpec>,
    deadlines: Vec<f64>,
    valid: bool,
}

impl Theorem5 {
    /// `alphas[i]` for the `i`-th class of `classes`.
    pub fn new(classes: &ClassSet, alphas: &[f64]) -> Self {
        assert_eq!(alphas.len(), classes.len(), "one alpha per class");
        let total: f64 = alphas.iter().sum();
        Self {
            specs: classes
                .iter()
                .zip(alphas)
                .map(|((_, c), &alpha)| ClassSpec {
                    alpha,
                    bucket: c.bucket,
                })
                .collect(),
            deadlines: classes.iter().map(|(_, c)| c.deadline).collect(),
            // Every share in (0, 1) and Σα ≤ 1, whatever the routes.
            valid: total <= 1.0 + 1e-12 && alphas.iter().all(|&a| valid_share(a)),
        }
    }
}

impl DelayRule for Theorem5 {
    const ROUNDING_MARGIN: f64 = 1e-9;

    #[inline]
    fn classes(&self) -> usize {
        self.specs.len()
    }

    #[inline]
    fn deadline(&self, class: ClassId) -> f64 {
        self.deadlines[class.index()]
    }

    #[inline]
    fn in_domain(&self, _used: &[bool]) -> bool {
        self.valid
    }

    #[inline]
    fn delay(&self, class: usize, _server: usize, fan_in: usize, y: &[f64]) -> Option<f64> {
        theorem5_delay(&self.specs, class, fan_in, y)
    }
}

/// Cells as `delays[class][server]`.
pub fn by_class(cells: &[f64], classes: usize) -> Vec<Vec<f64>> {
    (0..classes)
        .map(|i| cells.iter().skip(i).step_by(classes).copied().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_become_rows_by_class() {
        let cells = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        let rows = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
        assert_eq!(by_class(&cells, 2), rows);
        assert_eq!(by_class(&[], 2), vec![Vec::<f64>::new(); 2]);
    }
}
