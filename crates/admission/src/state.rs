//! Lock-free per-(server, class) bandwidth accounting.
//!
//! The admission invariant the whole paper rests on: the reserved rate of
//! class `i` on any link never exceeds `α_i · C`. We enforce it with one
//! `AtomicU64` per (server, class) and a compare-exchange reservation
//! loop — admissions from any number of threads can proceed concurrently
//! without locks, and the budget check is exact (rates are accounted in
//! integer millibits/second, so no floating-point drift can accumulate).
//!
//! The controller reserves whole routes ([`try_reserve_path`]) against
//! this table, all-or-nothing over per-cell CASes, rolling the reserved
//! prefix back when a later cell is full. A run of identical flows is
//! reserved in one walk that grants as many of them as every cell of the
//! route has room for ([`try_reserve_path_up_to`]).
//!
//! [`try_reserve_path`]: UtilizationState::try_reserve_path
//! [`try_reserve_path_up_to`]: UtilizationState::try_reserve_path_up_to

use crate::sync::atomic::{AtomicU64, Ordering};

/// Rates are stored in millibits/second: exact integer accounting with
/// enough resolution for any practical rate.
pub(crate) const SCALE: f64 = 1000.0;

/// Largest millibit value that is exactly representable as an `f64`
/// (2^53). Above this, `rate * SCALE` silently loses integer precision
/// and the "exact accounting" invariant would be fiction; 2^53 mb/s is
/// ~9 Pb/s, far beyond any link this model describes.
pub(crate) const MAX_EXACT_MILLIBITS: f64 = 9_007_199_254_740_992.0;

pub(crate) fn to_millibits(rate: f64) -> u64 {
    assert!(rate >= 0.0 && rate.is_finite(), "rate must be >= 0");
    let mb = (rate * SCALE).round();
    assert!(
        mb <= MAX_EXACT_MILLIBITS,
        "rate {rate} bits/s exceeds exact millibit accounting range \
         ({MAX_EXACT_MILLIBITS} mb/s)"
    );
    mb as u64
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

    /// Attempts to reserve `rate` bits/s of class `class` on `server`.
    /// Returns `true` on success; never overshoots the budget.
    pub fn try_reserve(&self, server: usize, class: usize, rate: f64) -> bool {
        self.reserve_cell(server, class, to_millibits(rate)).0
    }

    /// The per-cell CAS loop: reserves `want` millibits/s of `class` on
    /// `server` unless that would overshoot the budget. Also reports how
    /// many CAS retries the loop took (0 on an uncontended cell) so
    /// contention is observable.
    fn reserve_cell(&self, server: usize, class: usize, want: u64) -> (bool, u32) {
        let i = self.idx(server, class);
        let budget = self.budgets[i];
        let cell = &self.reserved[i];
        let mut cur = cell.load(Ordering::Relaxed);
        let mut retries = 0u32;
        loop {
            let Some(next) = cur.checked_add(want) else {
                return (false, retries);
            };
            if next > budget {
                return (false, retries);
            }
            // ordering: AcqRel — the success edge orders this reserve
            // against the release fetch_sub on the same cell, so a
            // reserve that consumes freed headroom happens-after the
            // flow teardown that freed it; failure reloads need no edge.
            match cell.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return (true, retries),
                Err(actual) => {
                    cur = actual;
                    retries += 1;
                }
            }
        }
    }

    /// Reserves `rate` bits/s of `class` on every server of `route`, one
    /// CAS per cell; rolls the reserved prefix back and reports the
    /// failing server if any cell is full, so a failed path reservation
    /// leaves no residue. Returns total CAS retries on success.
    pub fn try_reserve_path(
        &self,
        route: &[u32],
        class: usize,
        rate: f64,
    ) -> Result<u32, PathReject> {
        self.try_reserve_path_millibits(route, class, to_millibits(rate))
    }

    /// [`try_reserve_path`](Self::try_reserve_path) on a rate already in
    /// millibits/s — a generation converts its class rates once, when it
    /// is built, so an admission converts nothing.
    pub(crate) fn try_reserve_path_millibits(
        &self,
        route: &[u32],
        class: usize,
        want: u64,
    ) -> Result<u32, PathReject> {
        let mut cas_retries = 0u32;
        for (i, &server) in route.iter().enumerate() {
            let (ok, retries) = self.reserve_cell(server as usize, class, want);
            cas_retries += retries;
            if !ok {
                for &held in route.iter().take(i) {
                    self.release_cell(held as usize, class, want);
                }
                return Err(PathReject {
                    server,
                    retries: cas_retries,
                });
            }
        }
        Ok(cas_retries)
    }

    /// Reserves `rate` bits/s of `class` on every server of `route` for
    /// as many of `flows` identical flows as fit: the grant
    /// [`try_reserve_path`](Self::try_reserve_path) would have reached
    /// called `flows` times in a row, in one CAS per cell. Each cell
    /// takes `min(still wanted, headroom / rate)` flows; a cell with
    /// less room than the cells before it lowers the grant and the
    /// difference is released on those earlier cells at once, so the
    /// call leaves exactly [`PathGrant::flows`] flows on every cell.
    /// Until that release a concurrent caller can be turned away by
    /// headroom this call will not keep — as it can by a
    /// [`try_reserve_path`](Self::try_reserve_path) about to roll back.
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
    /// already in millibits/s.
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

    /// The per-cell CAS loop of
    /// [`try_reserve_path_up_to`](Self::try_reserve_path_up_to): takes
    /// as many multiples of `want` millibits/s, up to `flows`, as the
    /// budget has room for. Returns the multiple taken and the CAS
    /// retries spent; a full cell is read, not written.
    fn reserve_cell_up_to(&self, server: usize, class: usize, want: u64, flows: u64) -> (u64, u32) {
        let i = self.idx(server, class);
        let budget = self.budgets[i];
        let cell = &self.reserved[i];
        let mut cur = cell.load(Ordering::Relaxed);
        let mut retries = 0u32;
        loop {
            let got = match budget.saturating_sub(cur).checked_div(want) {
                Some(room) => room.min(flows),
                // A zero-rate flow fits any number of times.
                None => flows,
            };
            if got == 0 {
                return (0, retries);
            }
            // ordering: AcqRel — the same edge as `reserve_cell`: the
            // success CAS orders this reserve after the release
            // fetch_sub that freed the headroom it consumes; failure
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

    /// Whether reserving `rate` bits/s of `class` on `server` would
    /// succeed *right now*, without reserving anything. Uses the same
    /// exact integer-millibit predicate as
    /// [`try_reserve`](Self::try_reserve), so a dry-run diagnosis (the
    /// admission `explain` path) can never disagree with the real
    /// admission decision taken against the same state.
    pub fn would_fit(&self, server: usize, class: usize, rate: f64) -> bool {
        let want = to_millibits(rate);
        let i = self.idx(server, class);
        // ordering: Acquire pairs with the AcqRel reserve/release RMWs
        // so a dry run that observes freed headroom also observes the
        // teardown writes that freed it.
        let cur = self.reserved[i].load(Ordering::Acquire);
        match cur.checked_add(want) {
            Some(next) => next <= self.budgets[i],
            None => false,
        }
    }

    /// Releases a previously successful reservation.
    ///
    /// # Panics
    /// Panics if the release exceeds what is currently reserved — that is
    /// always an accounting bug in the caller.
    pub fn release(&self, server: usize, class: usize, rate: f64) {
        self.release_cell(server, class, to_millibits(rate));
    }

    fn release_cell(&self, server: usize, class: usize, amount: u64) {
        let i = self.idx(server, class);
        // ordering: AcqRel — the release publishes the flow's teardown
        // to the next reserve CAS that consumes the freed headroom (the
        // counterpart of the reserve edge above).
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

    #[test]
    fn reserve_until_budget() {
        let s = state();
        // Budget 500 kb/s; 15 x 32 kb/s = 480 fits, 16th does not.
        for i in 0..15 {
            assert!(s.try_reserve(0, 0, 32_000.0), "reservation {i}");
        }
        assert!(!s.try_reserve(0, 0, 32_000.0));
        // Other server untouched.
        assert!(s.try_reserve(1, 0, 32_000.0));
    }

    #[test]
    fn release_restores_headroom() {
        let s = state();
        assert!(s.try_reserve(0, 0, 400_000.0));
        assert!(!s.try_reserve(0, 0, 200_000.0));
        s.release(0, 0, 400_000.0);
        assert!(s.try_reserve(0, 0, 500_000.0));
        assert_eq!(s.reserved(0, 0), 500_000.0);
    }

    #[test]
    fn exact_boundary_admission() {
        let s = state();
        assert!(s.try_reserve(0, 0, 500_000.0));
        assert!(!s.try_reserve(0, 0, 0.001));
        assert_eq!(s.occupancy(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds reservation")]
    fn over_release_panics() {
        let s = state();
        s.try_reserve(0, 0, 1000.0);
        s.release(0, 0, 2000.0);
    }

    #[test]
    fn per_class_budgets_independent() {
        let s = UtilizationState::new(&[1e6], &[0.3, 0.2]);
        assert_eq!(s.budget(0, 0), 300_000.0);
        assert_eq!(s.budget(0, 1), 200_000.0);
        assert!(s.try_reserve(0, 0, 300_000.0));
        // Class 0 full; class 1 unaffected.
        assert!(!s.try_reserve(0, 0, 1.0));
        assert!(s.try_reserve(0, 1, 200_000.0));
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
                    if s.try_reserve(0, 0, rate) {
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
                    if s.try_reserve(0, 0, rate) {
                        s.release(0, 0, rate);
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
            assert!(s.try_reserve(1, 0, 5.0 * rate) && s.try_reserve(2, 0, 12.0 * rate));
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
        assert_eq!(
            to_millibits(MAX_EXACT_MILLIBITS / SCALE),
            MAX_EXACT_MILLIBITS as u64
        );
    }

    #[test]
    #[should_panic(expected = "exceeds exact millibit accounting range")]
    fn millibits_overflow_rejected() {
        // 1e16 bits/s -> 1e19 millibits, past f64's exact-integer range.
        to_millibits(1e16);
    }
}
