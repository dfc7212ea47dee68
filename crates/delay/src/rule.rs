//! The per-server delay rule both solvers iterate.
//!
//! `d = Z(d)` has one shape whatever the number of classes: sweep every
//! route's prefix sums into `Y` (Eq. 6), then re-evaluate a closed form
//! `d_{i,k} = f(Y_{·,k})` at every used server. The closed form is the
//! [`DelayRule`]; the one production rule is [`Theorem5`], static
//! priority over any number of classes with a utilization share per
//! server and class — Theorem 3 is its one-class case bit for bit, and a
//! per-server `α` (the NU experiment, per-link shares) is data, not
//! another rule. The solvers are generic over the trait:
//! `solve_rule`, `CommittedState::{empty, from_fixed_point}` and the
//! routing crate's greedy and bisection take any rule, so a second one
//! (a test oracle, say) needs no wrapper. Every rule must be
//! non-decreasing in every `y[l]` bit for bit: the committed evaluator's
//! floor relies on it.
//!
//! Delays and upstream maxima live in one vector of *cells*,
//! `cell = server · classes + class`: a server's per-class `Y` row — what
//! Theorem 5 reads — is contiguous, and with one class a cell is the
//! server. Cells are the one layout from the solver to the route
//! selection; [`by_class`] turns them into `delays[class][server]` rows
//! for Figure 2's report.

use crate::multiclass::theorem5_delay;
use uba_traffic::{ClassId, LeakyBucket, TrafficClass};

/// A closed-form per-server delay bound over `classes()` priority classes,
/// non-decreasing in every `y[l]` bit for bit.
pub trait DelayRule {
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

/// Every share of a server's row in `(0, 1)` and their sum at most 1.
fn valid_row(alphas: &[f64]) -> bool {
    alphas.iter().all(|&a| a > 0.0 && a < 1.0 && a.is_finite())
        && alphas.iter().sum::<f64>() <= 1.0 + 1e-12
}

/// Theorem 5 as [`theorem5_delay`] writes it: a utilization share per
/// cell, i.e. per server and class (only the rows of servers that carry
/// a route are validated).
#[derive(Clone, Debug)]
pub struct Theorem5 {
    buckets: Vec<LeakyBucket>,
    deadlines: Vec<f64>,
    alphas: Vec<f64>,
    all_valid: bool,
}

impl Theorem5 {
    /// `classes` in priority order; `alphas[server · classes + class]`,
    /// one per cell, which the solvers assert where the rule meets the
    /// servers. One share per class on every server is the class row
    /// repeated: `row.repeat(servers.len())`.
    pub fn new<'c>(classes: impl IntoIterator<Item = &'c TrafficClass>, alphas: Vec<f64>) -> Self {
        let (buckets, deadlines): (Vec<_>, _) =
            classes.into_iter().map(|c| (c.bucket, c.deadline)).unzip();
        assert!(!buckets.is_empty(), "need at least one class");
        Self {
            all_valid: alphas.chunks(buckets.len()).all(valid_row),
            buckets,
            deadlines,
            alphas,
        }
    }
}

impl DelayRule for Theorem5 {
    #[inline]
    fn classes(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn deadline(&self, class: ClassId) -> f64 {
        self.deadlines[class.index()]
    }

    #[inline]
    fn in_domain(&self, used: &[bool]) -> bool {
        assert_eq!(used.len(), self.alphas.len(), "one alpha per cell");
        let nc = self.buckets.len();
        self.all_valid
            || (used.chunks(nc))
                .zip(self.alphas.chunks(nc))
                .all(|(used, row)| !used.contains(&true) || valid_row(row))
    }

    #[inline]
    fn delay(&self, class: usize, server: usize, fan_in: usize, y: &[f64]) -> Option<f64> {
        let nc = self.buckets.len();
        let row = &self.alphas[server * nc..][..nc];
        theorem5_delay(row, &self.buckets, class, fan_in, y)
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
