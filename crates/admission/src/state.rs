//! Lock-free per-(server, class) bandwidth accounting.
//!
//! The admission invariant the whole paper rests on: the reserved rate of
//! class `i` on any link never exceeds `α_i · C`. We enforce it with one
//! `AtomicU64` per (server, class) and a compare-exchange reservation
//! loop — admissions from any number of threads can proceed concurrently
//! without locks, and the budget check is exact (rates are accounted in
//! integer millibits/second, so no floating-point drift can accumulate).
//!
//! There is one reservation walk ([`try_reserve_path_up_to`]): `n`
//! identical flows along a route, one CAS per cell, each cell granting
//! as many of the flows still wanted as its headroom holds and the
//! earlier cells giving back what a later one could not take. A single
//! flow is the walk with `n = 1` ([`try_reserve_path`]): all or nothing,
//! the reserved prefix rolled back when a later cell is full.
//!
//! [`try_reserve_path`]: UtilizationState::try_reserve_path
//! [`try_reserve_path_up_to`]: UtilizationState::try_reserve_path_up_to

use uba_graph::Path;
use uba_obs::sync::atomic::{AtomicU64, Ordering};

/// Rates are stored in millibits/second: exact integer accounting with
/// enough resolution for any practical rate.
pub(crate) const SCALE: f64 = 1000.0;

/// Largest rate, in bits/s, that the millibit accounting holds exactly:
/// 2^53 millibits/s, the largest count below which every integer is an
/// `f64`. Above it `rate * SCALE` silently loses integer precision and
/// the "exact accounting" invariant would be fiction; ~9 Tb/s is far
/// beyond any link this model describes. Scenario files check every
/// rate and capacity they set against it.
pub const MAX_EXACT_RATE_BPS: f64 = 9_007_199_254_740_992.0 / SCALE;

pub(crate) fn to_millibits(rate: f64) -> u64 {
    assert!(rate >= 0.0 && rate.is_finite(), "rate must be >= 0");
    assert!(
        rate <= MAX_EXACT_RATE_BPS,
        "rate {rate} bits/s exceeds exact millibit accounting range \
         ({MAX_EXACT_RATE_BPS} bits/s)"
    );
    (rate * SCALE).round() as u64
}

/// How many of `flows` flows of `want` millibits/s fit in a cell whose
/// `budget` has `cur` reserved. Compares first: when the whole run fits
/// (`flows · want`, saturating, within the headroom — a zero rate always
/// does) that is the answer, and only a run the headroom clips divides.
/// A budget is at most 2^53 millibits/s, so a product that saturates
/// never fits.
#[inline]
fn flows_that_fit(budget: u64, cur: u64, want: u64, flows: u64) -> u64 {
    let room = budget.saturating_sub(cur);
    if want.saturating_mul(flows) <= room {
        flows
    } else {
        room / want
    }
}

/// Why a path reservation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathReject {
    /// The first server along the route whose class budget could not fit
    /// the flow.
    pub server: u32,
    /// CAS retries spent before giving up (contention signal).
    pub retries: u32,
}

/// What [`UtilizationState::try_reserve_path_up_to`] granted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathGrant {
    /// Flows now reserved on every server of the route.
    pub flows: u64,
    /// When fewer flows than asked were granted: the first server along
    /// the route with no room for one more — the server a further
    /// [`try_reserve_path`](UtilizationState::try_reserve_path) would be
    /// turned away at.
    pub full: Option<u32>,
    /// CAS retries spent (contention signal).
    pub retries: u32,
}

/// Reserved-rate counters for every (server, class) pair: the
/// reservation state shared by all admissions of one configuration
/// generation.
#[derive(Debug)]
pub struct UtilizationState {
    servers: usize,
    classes: usize,
    /// Budget `α_i · C_k` per (server, class), millibits/s.
    budgets: Vec<u64>,
    /// Currently reserved rate per (server, class), millibits/s.
    // padding: cells are shared by every thread by design (one counter
    // per (server, class) is the paper's run-time mechanism), so
    // per-cell cache-line padding would only grow the table ~16x without
    // removing any true sharing; measured CAS retries/op stay <= 0.04
    // even on the one-cell hotlink star (DESIGN.md §8).
    reserved: Vec<AtomicU64>,
}

impl UtilizationState {
    /// Creates the state from per-server capacities and per-class
    /// utilization shares: budget of class `i` on server `k` is
    /// `alphas[i] * capacities[k]`.
    pub fn new(capacities: &[f64], alphas: &[f64]) -> Self {
        assert!(!alphas.is_empty(), "need at least one class");
        for &a in alphas {
            assert!((0.0..=1.0).contains(&a), "alpha must be in [0, 1]");
        }
        let servers = capacities.len();
        let classes = alphas.len();
        let mut budgets = Vec::with_capacity(servers * classes);
        for &c in capacities {
            assert!(c > 0.0 && c.is_finite(), "capacity must be positive");
            for &a in alphas {
                budgets.push(to_millibits(a * c));
            }
        }
        let reserved = (0..servers * classes).map(|_| AtomicU64::new(0)).collect();
        Self {
            servers,
            classes,
            budgets,
            reserved,
        }
    }

    /// Number of link servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    #[inline]
    fn idx(&self, server: usize, class: usize) -> usize {
        debug_assert!(server < self.servers && class < self.classes);
        server * self.classes + class
    }

    /// Reserves `rate` bits/s of `class` on every server of `route` for
    /// one flow, all or nothing: the walk of
    /// [`try_reserve_path_up_to`](Self::try_reserve_path_up_to) with one
    /// flow asked. Reports the first full server, after rolling the
    /// reserved prefix back, so a failed path reservation leaves no
    /// residue. Returns total CAS retries on success.
    pub fn try_reserve_path(
        &self,
        route: &[u32],
        class: usize,
        rate: f64,
    ) -> Result<u32, PathReject> {
        let grant = self.try_reserve_path_up_to(route, class, rate, 1);
        match grant.full {
            None => Ok(grant.retries),
            Some(server) => Err(PathReject {
                server,
                retries: grant.retries,
            }),
        }
    }

    /// Reserves `rate` bits/s of `class` on every server of `route` for
    /// as many of `flows` identical flows as fit: the grant `flows`
    /// one-flow reservations in a row would have reached, in one CAS per
    /// cell. Each cell takes `min(still wanted, headroom / rate)` flows;
    /// a cell with less room than the cells before it lowers the grant
    /// and the difference is released on those earlier cells at once,
    /// so the call leaves exactly [`PathGrant::flows`] flows on every
    /// cell. Until that release a concurrent caller can be turned away
    /// by headroom this call will not keep.
    pub fn try_reserve_path_up_to(
        &self,
        route: &[u32],
        class: usize,
        rate: f64,
        flows: u64,
    ) -> PathGrant {
        self.try_reserve_path_up_to_millibits(route, class, to_millibits(rate), flows)
    }

    /// [`try_reserve_path_up_to`](Self::try_reserve_path_up_to) on a rate
    /// already in millibits/s — a generation converts its class rates
    /// once, when it is built, so an admission converts nothing.
    pub(crate) fn try_reserve_path_up_to_millibits(
        &self,
        route: &[u32],
        class: usize,
        want: u64,
        flows: u64,
    ) -> PathGrant {
        let mut grant = PathGrant {
            flows,
            ..PathGrant::default()
        };
        for (i, &server) in route.iter().enumerate() {
            if grant.flows == 0 {
                break;
            }
            let (got, retries) = self.reserve_cell_up_to(server as usize, class, want, grant.flows);
            grant.retries += retries;
            if got < grant.flows {
                for &held in &route[..i] {
                    self.release_cell(held as usize, class, (grant.flows - got) * want);
                }
                grant.flows = got;
                grant.full = Some(server);
            }
        }
        grant
    }

    /// Fills `paths` (each edge a link server, as in a
    /// [`RoutingTable`](crate::RoutingTable)) with flows of `rate` bits/s
    /// of `class`, round-robin: every pass offers each path one flow, in
    /// the order given, through [`try_reserve_path`](Self::try_reserve_path)
    /// — the admission test itself — and the fill stops after a pass that
    /// admits nothing. The admitted flows stay reserved. Returns the index
    /// into `paths` of every admitted flow, in admission order; a count
    /// per path is a tally of it.
    ///
    /// # Panics
    /// Panics if `rate` rounds to zero millibits/s or a path has no edge:
    /// such a flow always fits, so the fill would never end.
    pub fn fill_round_robin(&self, paths: &[Path], class: usize, rate: f64) -> Vec<usize> {
        let routes: Vec<Vec<u32>> = paths
            .iter()
            .map(|p| p.edges.iter().map(|e| e.0).collect())
            .collect();
        assert!(
            to_millibits(rate) > 0 && routes.iter().all(|r| !r.is_empty()),
            "a round-robin fill needs a positive rate and non-empty paths"
        );
        let mut admitted = Vec::new();
        loop {
            let before = admitted.len();
            for (i, route) in routes.iter().enumerate() {
                if self.try_reserve_path(route, class, rate).is_ok() {
                    admitted.push(i);
                }
            }
            if admitted.len() == before {
                return admitted;
            }
        }
    }

    /// The per-cell CAS loop of the walk: takes as many multiples of
    /// `want` millibits/s, up to `flows`, as the budget has room for
    /// (`flows_that_fit`). Returns the multiple taken and the CAS
    /// retries spent; a full cell is read, not written.
    fn reserve_cell_up_to(&self, server: usize, class: usize, want: u64, flows: u64) -> (u64, u32) {
        let i = self.idx(server, class);
        let budget = self.budgets[i];
        let cell = &self.reserved[i];
        let mut cur = cell.load(Ordering::Relaxed);
        let mut retries = 0u32;
        loop {
            let got = flows_that_fit(budget, cur, want, flows);
            if got == 0 {
                return (0, retries);
            }
            // ordering: AcqRel — the success CAS orders this reserve
            // after the release fetch_sub that freed the headroom it
            // consumes, so a reserve that takes freed headroom
            // happens-after the flow teardown that freed it; failure
            // reloads need no edge.
            match cell.compare_exchange_weak(
                cur,
                cur + got * want,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (got, retries),
                Err(actual) => {
                    cur = actual;
                    retries += 1;
                }
            }
        }
    }

    /// Releases a previously successful path reservation.
    ///
    /// # Panics
    /// Panics if the release exceeds what is currently reserved on a
    /// server — that is always an accounting bug in the caller.
    pub fn release_path(&self, route: &[u32], class: usize, rate: f64) {
        self.release_path_millibits(route, class, to_millibits(rate));
    }

    /// [`release_path`](Self::release_path) on a rate already in
    /// millibits/s.
    pub(crate) fn release_path_millibits(&self, route: &[u32], class: usize, amount: u64) {
        for &server in route {
            self.release_cell(server as usize, class, amount);
        }
    }

    fn release_cell(&self, server: usize, class: usize, amount: u64) {
        let i = self.idx(server, class);
        // ordering: AcqRel — the release publishes the flow's teardown
        // to the next reserve CAS that consumes the freed headroom (the
        // counterpart of the reserve CAS in `reserve_cell_up_to`).
        let prev = self.reserved[i].fetch_sub(amount, Ordering::AcqRel);
        assert!(
            prev >= amount,
            "release of {amount} exceeds reservation {prev} on server {server}"
        );
    }

    /// Reserved rate of `class` on `server` in bits/s.
    pub fn reserved(&self, server: usize, class: usize) -> f64 {
        // ordering: Acquire — diagnostics reads see a cell state no
        // older than any reservation the caller already observed.
        self.reserved[self.idx(server, class)].load(Ordering::Acquire) as f64 / SCALE
    }

    /// Budget of `class` on `server` in bits/s.
    pub fn budget(&self, server: usize, class: usize) -> f64 {
        self.budgets[self.idx(server, class)] as f64 / SCALE
    }

    /// Fraction of the class budget in use on `server` (0 when the class
    /// budget is zero).
    pub fn occupancy(&self, server: usize, class: usize) -> f64 {
        let b = self.budget(server, class);
        if b > 0.0 {
            self.reserved(server, class) / b
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn state() -> UtilizationState {
        // Two servers at 1 Mb/s, one class at 50%.
        UtilizationState::new(&[1e6, 1e6], &[0.5])
    }

    /// One flow of `rate` on the single cell `server`.
    fn reserve(s: &UtilizationState, server: u32, class: usize, rate: f64) -> bool {
        s.try_reserve_path(&[server], class, rate).is_ok()
    }

    /// Releases one flow of `rate` from the single cell `server`.
    fn release(s: &UtilizationState, server: u32, class: usize, rate: f64) {
        s.release_path(&[server], class, rate);
    }

    #[test]
    fn reserve_until_budget() {
        let s = state();
        // Budget 500 kb/s; 15 x 32 kb/s = 480 fits, 16th does not.
        for i in 0..15 {
            assert!(reserve(&s, 0, 0, 32_000.0), "reservation {i}");
        }
        assert!(!reserve(&s, 0, 0, 32_000.0));
        // Other server untouched.
        assert!(reserve(&s, 1, 0, 32_000.0));
    }

    #[test]
    fn release_restores_headroom() {
        let s = state();
        assert!(reserve(&s, 0, 0, 400_000.0));
        assert!(!reserve(&s, 0, 0, 200_000.0));
        release(&s, 0, 0, 400_000.0);
        assert!(reserve(&s, 0, 0, 500_000.0));
        assert_eq!(s.reserved(0, 0), 500_000.0);
    }

    #[test]
    fn exact_boundary_admission() {
        let s = state();
        assert!(reserve(&s, 0, 0, 500_000.0));
        assert!(!reserve(&s, 0, 0, 0.001));
        assert_eq!(s.occupancy(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds reservation")]
    fn over_release_panics() {
        let s = state();
        reserve(&s, 0, 0, 1000.0);
        release(&s, 0, 0, 2000.0);
    }

    #[test]
    fn per_class_budgets_independent() {
        let s = UtilizationState::new(&[1e6], &[0.3, 0.2]);
        assert_eq!(s.budget(0, 0), 300_000.0);
        assert_eq!(s.budget(0, 1), 200_000.0);
        assert!(reserve(&s, 0, 0, 300_000.0));
        // Class 0 full; class 1 unaffected.
        assert!(!reserve(&s, 0, 0, 1.0));
        assert!(reserve(&s, 0, 1, 200_000.0));
    }

    #[test]
    fn concurrent_reservations_never_exceed_budget() {
        // 8 threads hammer one counter; at most budget/rate succeed.
        let s = Arc::new(UtilizationState::new(&[1e6], &[0.5]));
        let rate = 32_000.0;
        let max_ok = (500_000.0 / rate) as usize; // 15
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0usize;
                for _ in 0..100 {
                    if reserve(&s, 0, 0, rate) {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, max_ok);
        assert!(s.reserved(0, 0) <= 500_000.0);
    }

    #[test]
    fn concurrent_reserve_release_balances_to_zero() {
        let s = Arc::new(UtilizationState::new(&[1e8], &[0.5]));
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let rate = 1000.0 + t as f64;
                for _ in 0..1000 {
                    if reserve(&s, 0, 0, rate) {
                        release(&s, 0, 0, rate);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.reserved(0, 0), 0.0);
    }

    #[test]
    fn failed_path_reservation_leaves_no_residue() {
        let s = state();
        assert!(s.try_reserve_path(&[1], 0, 500_000.0).is_ok());
        // Path 0 -> 1 fails on server 1; server 0 must be rolled back.
        let r = s.try_reserve_path(&[0, 1], 0, 32_000.0);
        assert_eq!(
            r,
            Err(PathReject {
                server: 1,
                retries: 0
            })
        );
        assert_eq!(s.reserved(0, 0), 0.0);
        assert_eq!(s.reserved(1, 0), 500_000.0);
        s.release_path(&[1], 0, 500_000.0);
        assert!(s.try_reserve_path(&[0, 1], 0, 32_000.0).is_ok());
        assert_eq!(s.reserved(0, 0), 32_000.0);
        assert_eq!(s.reserved(1, 0), 32_000.0);
    }

    #[test]
    fn path_up_to_grants_what_sequential_reserves_would() {
        // Budget 500 kb/s = 15 voip flows per cell; cell 1 starts with 5
        // and cell 2 with 12 taken.
        let rate = 32_000.0;
        let seeded = || {
            let s = UtilizationState::new(&[1e6, 1e6, 1e6], &[0.5]);
            assert!(reserve(&s, 1, 0, 5.0 * rate) && reserve(&s, 2, 0, 12.0 * rate));
            s
        };
        for (route, asked) in [
            (&[0u32, 1, 2][..], 20u64),
            (&[2, 1, 0][..], 20),
            (&[0, 1][..], 10),
            (&[0, 1][..], 4),
            (&[2][..], 3),
            (&[0][..], 0),
        ] {
            let (closed, walked) = (seeded(), seeded());
            let grant = closed.try_reserve_path_up_to(route, 0, rate, asked);
            let mut flows = 0;
            let mut full = None;
            for _ in 0..asked {
                match walked.try_reserve_path(route, 0, rate) {
                    Ok(_) => flows += 1,
                    Err(reject) => full = Some(reject.server),
                }
            }
            assert_eq!(
                (grant.flows, grant.full),
                (flows, full),
                "{route:?} × {asked}"
            );
            for server in 0..3 {
                assert_eq!(closed.reserved(server, 0), walked.reserved(server, 0));
            }
        }
        // A zero-rate flow fits any number of times, as it does one by one.
        let grant = seeded().try_reserve_path_up_to(&[2], 0, 0.0, 7);
        assert_eq!((grant.flows, grant.full), (7, None));
    }

    /// The cell step against its definition — one-flow reservations in a
    /// row until one fails or `n` succeed — at the edges of its compare:
    /// headroom exactly `n·ρ`, one millibit short of it, `n·ρ` past
    /// `u64`, and `ρ = 0` on a full cell.
    #[test]
    fn cell_step_matches_one_flow_reservations_at_its_boundaries() {
        const RATE: f64 = 32_000.0;
        let want = to_millibits(RATE);
        // (what, reserved before, rate, n, flows granted)
        for (what, before, rate, n, granted) in [
            ("headroom exactly n·ρ", 3.0 * RATE, RATE, 5, 5),
            ("headroom exactly ρ", 7.0 * RATE, RATE, 1, 1),
            ("one millibit short", 3.0 * RATE + 0.001, RATE, 5, 4),
            ("one millibit short of ρ", 7.0 * RATE + 0.001, RATE, 1, 0),
            ("n·ρ past u64", 3.0 * RATE, RATE, u64::MAX / want + 1, 5),
            ("zero rate on a full cell", 8.0 * RATE, 0.0, 1_000, 1_000),
        ] {
            let seeded = || {
                let s = UtilizationState::new(&[8.0 * RATE], &[1.0]);
                assert!(reserve(&s, 0, 0, before), "{what}");
                s
            };
            let (closed, walked) = (seeded(), seeded());
            let grant = closed.try_reserve_path_up_to(&[0], 0, rate, n);
            let mut flows = 0;
            while flows < n && reserve(&walked, 0, 0, rate) {
                flows += 1;
            }
            assert_eq!(grant.flows, granted, "{what}");
            assert_eq!(
                (grant.flows, grant.full),
                (flows, (flows < n).then_some(0)),
                "{what}"
            );
            assert_eq!(closed.reserved(0, 0), walked.reserved(0, 0), "{what}");
        }
        // The step itself where the product saturates: a rate past any
        // budget fits no flow of a run, and a long run is clipped to
        // what the headroom divides into.
        assert_eq!(flows_that_fit(10, 0, u64::MAX, 2), 0);
        assert_eq!(flows_that_fit(10, 3, 2, u64::MAX), 3);
        assert_eq!(flows_that_fit(10, 3, 0, u64::MAX), u64::MAX);
    }

    /// Where a float copy of the utilization test parts from the walk: a
    /// budget `α·C` a tenth of a millibit short of `k` flows. The walk
    /// holds the budget in whole millibits, so the fill and the
    /// controller both admit `k` flows per link, where
    /// `reserved + ρ ≤ α·C + 1e-9` in `f64` admitted `k − 1`. At
    /// `α·C = kρ` exactly, all three admit `k`.
    #[test]
    fn fill_and_controller_admit_what_the_millibit_budget_holds() {
        use crate::{AdmissionController, ConfigGeneration, RoutingTable};
        use uba_graph::{Digraph, NodeId};
        use uba_traffic::{ClassId, ClassSet, TrafficClass};
        const RATE: f64 = 32_000.0;
        const K: usize = 5;
        let mut g = Digraph::with_nodes(3);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let paths = [e01, e12].map(|e| Path::from_edges(&g, vec![e]));
        for (budget, float_flows) in [(K as f64 * RATE - 1e-4, K - 1), (K as f64 * RATE, K)] {
            // The float test, one link.
            let (mut reserved, mut flows) = (0.0, 0);
            while reserved + RATE <= budget + 1e-9 {
                reserved += RATE;
                flows += 1;
            }
            assert_eq!(flows, float_flows, "budget {budget}");
            // α = 0.5 halves the capacity exactly: α·C is the budget.
            let caps = vec![2.0 * budget; g.edge_count()];
            let state = UtilizationState::new(&caps, &[0.5]);
            assert_eq!(state.fill_round_robin(&paths, 0, RATE), [0, 1].repeat(K));
            let mut table = RoutingTable::new();
            table.insert_all(ClassId(0), &paths);
            let classes = ClassSet::single(TrafficClass::voip());
            let ctrl = AdmissionController::from_generation_unmetered(ConfigGeneration::new(
                table,
                &classes,
                &caps,
                &[0.5],
            ));
            for p in &paths {
                let (src, dst) = (p.nodes[0], p.nodes[1]);
                let held: Vec<_> =
                    std::iter::from_fn(|| ctrl.try_admit(ClassId(0), src, dst).ok()).collect();
                assert_eq!(held.len(), K, "budget {budget}");
            }
        }
    }

    #[test]
    fn crossing_paths_never_share_a_cell_and_leave_no_residue() {
        // Budget of exactly one flow per cell, two threads reserving the
        // same two cells in opposite hop order: whoever loses the second
        // hop must roll its first hop back, so there are never two
        // holders at once and both cells read exactly zero at the end.
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Barrier;
        const RATE: f64 = 32_000.0;
        let s = UtilizationState::new(&[RATE, RATE], &[1.0]);
        let holders = AtomicU32::new(0);
        let start = Barrier::new(2);
        let admitted: u32 = std::thread::scope(|scope| {
            let workers: Vec<_> = [[0u32, 1], [1, 0]]
                .into_iter()
                .map(|route| {
                    let (s, holders, start) = (&s, &holders, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut admitted = 0u32;
                        for _ in 0..20_000 {
                            if s.try_reserve_path(&route, 0, RATE).is_ok() {
                                assert_eq!(holders.fetch_add(1, Ordering::SeqCst), 0);
                                admitted += 1;
                                holders.fetch_sub(1, Ordering::SeqCst);
                                s.release_path(&route, 0, RATE);
                            }
                        }
                        admitted
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert!(admitted > 0, "someone must get through");
        assert_eq!(s.reserved(0, 0), 0.0);
        assert_eq!(s.reserved(1, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        UtilizationState::new(&[1e6], &[1.5]);
    }

    #[test]
    fn millibits_exact_at_the_precision_boundary() {
        // The largest exactly-representable millibit count converts.
        assert_eq!(to_millibits(MAX_EXACT_RATE_BPS), 1 << 53);
    }

    #[test]
    #[should_panic(expected = "exceeds exact millibit accounting range")]
    fn millibits_overflow_rejected() {
        // 1e16 bits/s -> 1e19 millibits, past f64's exact-integer range.
        to_millibits(1e16);
    }
}
