//! Candidate evaluation against one persistent committed fixed point.
//!
//! The §5.2 greedy asks the same question thousands of times: *with this
//! one route appended to the committed set, does every route still meet
//! its deadline, and what is the new route's own delay?* The delay rule's
//! `d_{i,k}` depends on the shares, `N` and the server's `Y_{l,k}`, `l ≤ i`,
//! only — never on how many routes cross `k` — so a candidate can move
//! nothing except through the `Y` of its own hops. [`CommittedState`]
//! therefore keeps the committed routes' `d`, `Y`, route delays and
//! cell→routes lists (routes and lists in flat buffers) across
//! candidates, sweeps only the candidate's hops,
//! re-evaluates only the cells that read a `Y` that moved (the server's
//! classes at or below the one whose `Y` moved; with one class, the cell
//! itself), re-sweeps only the routes through cells whose `d`
//! moved, journals every write and undoes them on reject. State is one
//! entry per cell of [`crate::rule`]'s layout; with one class a cell is a
//! server, which is how the text below speaks. A state is built under any
//! [`DelayRule`], two ways: [`CommittedState::empty`], and
//! [`CommittedState::from_fixed_point`] adopting routes somebody else
//! solved. Evaluations converge to, and stop at, the iteration cap of
//! [`SolveConfig::default`] — the settings of every general solve a
//! configuration step makes.
//!
//! # Invariant
//!
//! Between calls, `Y_k` is the max-merge of every committed route's
//! prefix sums at the current `d` (exact, because `d` only grows and
//! floating-point addition is monotone), route delays are the sums at
//! the current `d`, and `d_k = f(Y_k)` bit for bit at every used server
//! *except* those in the stale list: the servers whose `Y` moved in the
//! last commit's closing refresh, after their `d` was last evaluated.
//! That list is empty when the commit converged exactly (no dependency
//! cycle reaches it) and non-empty when it only converged to `tol`.
//!
//! # Same iterates as the general solver
//!
//! The results are those of "clone the route set, push the candidate,
//! [`solve_rule`](crate::fixed_point::solve_rule) warm from the committed
//! delays", bit for bit. That solve's first iteration rebuilds
//! `Y` and re-evaluates `f(Y_k)` at *every* used server; here the rebuild
//! is the invariant, and the re-evaluation can only differ from `d_k` at
//! a stale server, so it is computed once per committed state and shared
//! by all of a pair's candidates — shared, not skipped: skipping it drifts
//! route delays by ~1e-12 on route sets with dependency cycles. From the
//! second iteration on the general solver re-evaluates every server and
//! this one only those whose `Y` moved: `f` reads `Y_k` alone, so the rest
//! repeat their value. A decreasing iterate (a warm start above the least
//! fixed point) voids the max-merge; the remedy is what the general
//! solver does every iteration, a from-scratch `Y` rebuild.
//!
//! # A floor before any of it
//!
//! Because delays only grow while a route is added, the candidate's delay
//! summed over the *committed* `d` — its first sweep, no staging — bounds
//! from below what evaluating it would return. [`CommittedState::delay_floor`]
//! hands that out so a caller comparing candidates can drop one that has
//! already lost; it declines (`None`) in the one situation where an
//! iterate can fall, which the shared first-iteration step reveals. The
//! rule is non-decreasing in every `Y` bit for bit ([`DelayRule`]), so
//! the floor needs no margin for rounding.
//!
//! The same premise makes a cutoff exact. A caller that only wants a
//! candidate beating some delay passes it to [`CommittedState::try_route`]
//! as a bound: where the floor would answer, no iterate falls, so the
//! candidate's own delay only rises from its floor, and once it reaches
//! the bound the converged delay could not be below it — the evaluation
//! stops there and rolls back. Where the floor declines the evaluation
//! runs to the end, and the bound only filters its answer.

use crate::fixed_point::{SolveConfig, DEADLINE_SLACK};
use crate::metrics::{trace_solve, SolveRecord, SolveTally, TIME_EVERY};
use crate::routeset::{RouteRef, RouteSet};
use crate::rule::DelayRule;
use crate::servers::Servers;
use uba_traffic::ClassId;

/// The committed routes of a configuration at one utilization assignment
/// (`rule`), with their fixed point, ready to evaluate tentative routes
/// against.
#[derive(Debug)]
pub struct CommittedState<'a, R> {
    servers: &'a Servers,
    rule: R,
    routes: Flat,
    /// Append-only: the routes crossing each cell, once per visit.
    through: Through,
    d: Vec<f64>,
    y: Vec<f64>,
    used: Vec<bool>,
    route_delays: Vec<f64>,
    /// Servers whose `Y` moved after `d` was last evaluated there.
    stale: Vec<u32>,
    /// `(k, f(Y_k))` for the stale servers where that differs from
    /// `d_k`: the shared part of every candidate's first iteration.
    pending: Vec<(u32, f64)>,
    pending_ready: bool,
    /// Some pending value is below its `d_k`: the committed delays sit
    /// above what their own `Y` supports, so iterates may fall.
    pending_lowers: bool,
    /// Candidates evaluated so far (one in [`TIME_EVERY`] is timed).
    evaluations: u64,
    /// Their `delay.solve.*` records, published on drop unless taken.
    tally: SolveTally,
    /// No candidate can verify: a committed route already misses its
    /// deadline, or a stale server is outside the rule's domain.
    blocked: bool,
    // Undo journal of the staged candidate: `(index, old value)`.
    log_d: Vec<(u32, f64)>,
    log_y: Vec<(u32, f64)>,
    log_rd: Vec<(u32, f64)>,
    log_used: Vec<u32>,
    violated: bool,
    // Worklists.
    touched: Vec<u32>,
    touched_mark: Vec<bool>,
    changed: Vec<u32>,
    dirty: Vec<u32>,
    dirty_mark: Vec<bool>,
}

/// Routes end to end in one buffer: route `r` carries `classes[r]` over
/// `hops[ends[r]..ends[r + 1]]`. A commit copies its servers in; nothing
/// is allocated per route.
#[derive(Debug)]
struct Flat {
    hops: Vec<u32>,
    ends: Vec<u32>,
    classes: Vec<ClassId>,
}

impl Flat {
    fn len(&self) -> usize {
        self.classes.len()
    }

    fn get(&self, r: usize) -> RouteRef<'_> {
        RouteRef {
            class: self.classes[r],
            servers: &self.hops[self.ends[r] as usize..self.ends[r + 1] as usize],
        }
    }

    fn push(&mut self, route: RouteRef<'_>) {
        self.hops.extend_from_slice(route.servers);
        self.ends.push(self.hops.len() as u32);
        self.classes.push(route.class);
    }
}

/// The routes crossing each cell, once per visit, newest first: one list
/// per cell threaded through one flat buffer of visits, so that a visit
/// is pushed, and the staged candidate's popped, without an allocation
/// per cell.
#[derive(Debug)]
struct Through {
    /// Per cell, its newest visit, or [`Self::NONE`].
    head: Vec<u32>,
    /// Per visit, its route and the cell's visit before it.
    visits: Vec<(u32, u32)>,
}

impl Through {
    const NONE: u32 = u32::MAX;

    fn new(cells: usize, visits: usize) -> Self {
        Self {
            head: vec![Self::NONE; cells],
            visits: Vec::with_capacity(visits),
        }
    }

    fn push(&mut self, cell: usize, route: u32) {
        self.visits.push((route, self.head[cell]));
        self.head[cell] = (self.visits.len() - 1) as u32;
    }

    /// Pops the newest visit, which is at `cell`.
    fn pop(&mut self, cell: usize) {
        let (_, before) = self.visits.pop().expect("a visit to pop");
        debug_assert_eq!(self.head[cell] as usize, self.visits.len());
        self.head[cell] = before;
    }

    /// The routes through `cell`, one per visit.
    fn routes(&self, cell: usize) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.head[cell];
        std::iter::from_fn(move || {
            let (route, before) = *self.visits.get(at as usize)?;
            at = before;
            Some(route)
        })
    }
}

/// Walks one route, max-merging its prefix sums into `y` (journalled) and
/// recording the cells that read a `Y` that moved — the route's class and
/// the lower-priority ones at that server; returns the queueing sum. One
/// class gets its own copy of the loop, in which a cell is a server and
/// reads one cell.
#[inline(always)]
fn sweep_tracked(
    route: RouteRef<'_>,
    nc: usize,
    d: &[f64],
    y: &mut [f64],
    log_y: &mut Vec<(u32, f64)>,
    touched_mark: &mut [bool],
    touched: &mut Vec<u32>,
) -> f64 {
    if nc == 1 {
        sweep_tracked_in(route, 1, d, y, log_y, touched_mark, touched)
    } else {
        sweep_tracked_in(route, nc, d, y, log_y, touched_mark, touched)
    }
}

#[inline(always)]
fn sweep_tracked_in(
    route: RouteRef<'_>,
    nc: usize,
    d: &[f64],
    y: &mut [f64],
    log_y: &mut Vec<(u32, f64)>,
    touched_mark: &mut [bool],
    touched: &mut Vec<u32>,
) -> f64 {
    let class = route.class.index();
    assert!(class < nc, "a route outside the state's classes");
    let mut prefix = 0.0;
    for &sv in route.servers {
        let cell = sv as usize * nc + class;
        if prefix > y[cell] {
            log_y.push((cell as u32, y[cell]));
            y[cell] = prefix;
            let readers = cell..(sv as usize + 1) * nc;
            for (mark, reader) in touched_mark[readers.clone()].iter_mut().zip(readers) {
                if !*mark {
                    *mark = true;
                    touched.push(reader as u32);
                }
            }
        }
        prefix += d[cell];
    }
    prefix
}

impl<'a, R: DelayRule> CommittedState<'a, R> {
    /// No routes committed yet, under `rule`.
    pub fn empty(servers: &'a Servers, rule: R) -> Self {
        let (routes, cells) = (RouteSet::new(servers.len()), servers.len() * rule.classes());
        Self::from_fixed_point(servers, rule, &routes, vec![0.0; cells])
    }

    /// Adopts `routes` under `rule` with `delays`, one per cell: a warm
    /// start for them in the sense of
    /// [`solve_rule`](crate::fixed_point::solve_rule) — normally their own
    /// fixed point. The routes are copied in; `Y` and the route delays
    /// are rebuilt from `delays` (one pass over every hop); every cell
    /// counts as stale until the first evaluation has looked at it.
    pub fn from_fixed_point(
        servers: &'a Servers,
        rule: R,
        routes: &RouteSet,
        delays: Vec<f64>,
    ) -> Self {
        let (nc, links) = (rule.classes(), servers.len());
        let s = links * nc;
        assert_eq!(routes.server_count(), links, "route set / servers mismatch");
        assert_eq!(delays.len(), s, "warm start length mismatch");
        assert!(
            routes.routes().iter().all(|r| r.class.index() < nc),
            "a route of a class the delay rule does not cover"
        );
        let n = routes.len();
        let mut flat = Flat {
            hops: Vec::with_capacity(routes.routes().iter().map(|r| r.len()).sum()),
            ends: Vec::with_capacity(n + 1),
            classes: Vec::with_capacity(n),
        };
        flat.ends.push(0);
        for r in routes.routes() {
            flat.push(r.into());
        }
        let mut st = Self {
            servers,
            rule,
            routes: flat,
            through: Through::new(s, routes.routes().iter().map(|r| r.len()).sum()),
            d: delays,
            y: vec![0.0; s],
            used: vec![false; s],
            route_delays: Vec::with_capacity(n + 1),
            stale: Vec::new(),
            pending: Vec::new(),
            pending_ready: false,
            pending_lowers: false,
            evaluations: 0,
            tally: SolveTally::default(),
            blocked: false,
            log_d: Vec::new(),
            log_y: Vec::new(),
            log_rd: Vec::new(),
            log_used: Vec::new(),
            violated: false,
            touched: Vec::new(),
            touched_mark: vec![false; s],
            changed: Vec::new(),
            dirty: Vec::new(),
            dirty_mark: vec![false; n + 1],
        };
        for (ri, r) in routes.routes().iter().enumerate() {
            let mut prefix = 0.0;
            for &sv in &r.servers {
                let k = sv as usize * nc + r.class.index();
                st.through.push(k, ri as u32);
                st.used[k] = true;
                if prefix > st.y[k] {
                    st.y[k] = prefix;
                }
                prefix += st.d[k];
            }
            st.route_delays.push(prefix);
        }
        st.blocked = (routes.routes().iter())
            .zip(&st.route_delays)
            .any(|(r, &rd)| rd > st.rule.deadline(r.class) + DEADLINE_SLACK);
        st.stale = (0..s as u32)
            .filter(|&k| st.used[k as usize] || st.d[k as usize] != 0.0)
            .collect();
        st
    }

    /// The committed routes, in commit order, borrowed from the state's
    /// one buffer of them.
    pub fn routes(&self) -> impl ExactSizeIterator<Item = RouteRef<'_>> + '_ {
        (0..self.routes.len()).map(|r| self.routes.get(r))
    }

    /// Delay bounds at the committed fixed point, one per cell.
    pub fn delays(&self) -> &[f64] {
        &self.d
    }

    /// Per-route end-to-end delays at the committed fixed point.
    pub fn route_delays(&self) -> &[f64] {
        &self.route_delays
    }

    /// Hands back the evaluations' `delay.solve.*` records so far, for
    /// the caller to publish ([`SolveTally::publish`]) or drop; the state
    /// then publishes only what it records after this.
    pub fn take_tally(&mut self) -> SolveTally {
        std::mem::take(&mut self.tally)
    }

    /// Hands back `(delays, route_delays)`; the routes are the caller's
    /// (whatever it committed, in order).
    pub fn into_parts(mut self) -> (Vec<f64>, Vec<f64>) {
        use std::mem::take;
        (take(&mut self.d), take(&mut self.route_delays))
    }

    /// `route`'s own end-to-end delay at the committed delays — the value
    /// the first sweep of [`Self::try_route`] computes, without staging
    /// anything. It is a floor on what `try_route` would return: while a
    /// route is added every `Y_k`, hence every `d_k`, only grows, and
    /// floating-point addition and the rule are monotone. `None` when
    /// that premise fails — the shared first-iteration step would lower
    /// some delay, which only a warm start above the least fixed point (or
    /// one seeding an unused server) brings about.
    pub fn delay_floor<'r>(&mut self, route: impl Into<RouteRef<'r>>) -> Option<f64> {
        let route = route.into();
        self.ensure_pending();
        if self.pending_lowers {
            return None;
        }
        let (nc, class) = (self.rule.classes(), route.class.index());
        assert!(class < nc, "a route outside the state's classes");
        let queueing = route
            .servers
            .iter()
            .fold(0.0, |prefix, &sv| prefix + self.d[sv as usize * nc + class]);
        Some(queueing)
    }

    /// Evaluates `route` as if appended to the committed set: `Some(own
    /// end-to-end delay)` if every route then verifies safe and `own <
    /// bound`, else `None` — `f64::INFINITY` for a caller with nothing to
    /// beat. Where iterates can only rise (wherever [`Self::delay_floor`]
    /// answers) the evaluation stops as soon as the candidate's own delay
    /// reaches `bound`. The committed state is unchanged either way.
    /// `route` is only read: a [`Route`](crate::routeset::Route), or a
    /// [`RouteRef`] into the caller's storage.
    pub fn try_route<'r>(&mut self, route: impl Into<RouteRef<'r>>, bound: f64) -> Option<f64> {
        let route = route.into();
        let safe = self.evaluate(route, bound);
        let own = safe
            .then(|| self.route_delays[self.routes.len()])
            .filter(|&own| own < bound);
        self.rollback(route);
        own
    }

    /// Appends `route` if it verifies safe (leaving the new fixed point
    /// committed) and says whether it did; the state is unchanged if not.
    /// `route` is read, like [`Self::try_route`]'s: its servers are copied
    /// into the state's buffer of committed routes.
    pub fn commit<'r>(&mut self, route: impl Into<RouteRef<'r>>) -> bool {
        let route = route.into();
        if !self.evaluate(route, f64::INFINITY) {
            self.rollback(route);
            return false;
        }
        // The closing refresh's moved-`Y` list is the next stale list.
        for &k in &self.touched {
            self.touched_mark[k as usize] = false;
        }
        std::mem::swap(&mut self.stale, &mut self.touched);
        self.touched.clear();
        self.pending_ready = false;
        self.clear_journal();
        self.routes.push(route);
        true
    }

    /// The rule at `cell`'s current `Y` row (an unused cell that a warm
    /// start seeded is zeroed, as the general solver does).
    #[inline(always)]
    fn eval(&self, cell: usize) -> Option<f64> {
        if !self.used[cell] {
            return Some(0.0);
        }
        let nc = self.rule.classes();
        if nc == 1 {
            // A cell is its server: the hot path skips the row arithmetic.
            let y = &self.y[cell..=cell];
            return self.rule.delay(0, cell, self.servers.fan_in_at(cell), y);
        }
        let (k, class) = (cell / nc, cell % nc);
        let row = &self.y[cell - class..][..nc];
        self.rule.delay(class, k, self.servers.fan_in_at(k), row)
    }

    /// The shared first-iteration step: `f(Y_k)` at every stale server.
    fn ensure_pending(&mut self) {
        if self.pending_ready {
            return;
        }
        self.pending.clear();
        self.pending_lowers = false;
        for i in 0..self.stale.len() {
            let k = self.stale[i];
            match self.eval(k as usize) {
                Some(v) if v != self.d[k as usize] => {
                    self.pending_lowers |= v < self.d[k as usize];
                    self.pending.push((k, v));
                }
                Some(_) => {}
                None => self.blocked = true,
            }
        }
        self.tally.servers_touched += self.stale.len() as u64;
        self.pending_ready = true;
    }

    /// Instrumented [`Self::iterate`]: traced like any other warm solve,
    /// one record per evaluated candidate in the state's tally, and only
    /// the first evaluation and every [`TIME_EVERY`]th read the clock.
    fn evaluate(&mut self, cand: RouteRef<'_>, bound: f64) -> bool {
        let (servers, routes) = (self.servers.len(), self.routes.len() + 1);
        let timed = self.evaluations.is_multiple_of(TIME_EVERY);
        self.evaluations += 1;
        let (safe, rec) = trace_solve(servers, routes, true, timed, || {
            let mut rec = SolveRecord::default();
            let safe = self.iterate(cand, bound, &mut rec);
            (safe, rec)
        });
        self.tally.add(&rec);
        safe
    }

    /// Stages `cand` as route `n` and iterates to the new fixed point,
    /// leaving every write journalled for [`Self::rollback`]; `true` iff
    /// every route then verifies safe. Converges to, and caps iterations
    /// at, [`SolveConfig::default`]'s `tol` and `max_iters`. Where no
    /// iterate can fall, stops with `false` once the candidate's own delay
    /// reaches `bound`: it could only end there or above.
    fn iterate(&mut self, cand: RouteRef<'_>, bound: f64, rec: &mut SolveRecord) -> bool {
        let SolveConfig { tol, max_iters } = SolveConfig::default();
        let n = self.routes.len();
        let (nc, class) = (self.rule.classes(), cand.class.index());
        assert!(class < nc, "tentative route of unknown class {class}");
        for &sv in cand.servers {
            assert!(
                (sv as usize) < self.servers.len(),
                "tentative route references unknown server {sv}"
            );
        }
        // Stage the candidate as one more route.
        self.route_delays.push(0.0);
        self.dirty_mark.resize(n + 1, false);
        for &sv in cand.servers {
            self.through.push(sv as usize * nc + class, n as u32);
        }

        // The shared step reads the committed routes' cells only: before
        // the candidate marks its own.
        self.ensure_pending();
        let cutoff = if self.pending_lowers {
            f64::INFINITY
        } else {
            bound
        };
        self.clear_touched();
        for &sv in cand.servers {
            let k = sv as usize * nc + class;
            if !self.used[k] {
                self.used[k] = true;
                self.log_used.push(k as u32);
                self.touched_mark[k] = true;
                self.touched.push(k as u32);
            }
        }
        if !self.rule.in_domain(&self.used) {
            return false;
        }
        rec.iterations = 1;
        if self.blocked {
            return false;
        }

        // Iteration 1: the committed routes' sweep is the invariant; only
        // the candidate's hops are new.
        rec.sweeps_skipped += n as u64;
        let own = sweep_tracked(
            cand,
            nc,
            &self.d,
            &mut self.y,
            &mut self.log_y,
            &mut self.touched_mark,
            &mut self.touched,
        );
        self.route_delays[n] = own;
        if own > self.rule.deadline(cand.class) + DEADLINE_SLACK || own >= cutoff {
            return false;
        }
        let Some((mut max_diff, mut decreased)) = self.reevaluate(true, rec) else {
            return false;
        };

        loop {
            rec.residual = max_diff;
            rec.decreased |= decreased;
            debug_assert!(
                !decreased || self.pending_lowers,
                "an iterate fell below a delay `delay_floor` vouched for"
            );
            let converged = max_diff <= tol;
            if !converged {
                if rec.iterations >= max_iters {
                    rec.iteration_limit = true;
                    return false;
                }
                rec.iterations += 1;
            }
            // Carry the changed delays into `Y` and the route delays: the
            // next iteration's sweep, or the closing refresh.
            self.clear_touched();
            if decreased {
                self.resweep_all(cand);
            } else {
                self.mark_dirty();
                rec.sweeps_skipped += (n + 1 - self.dirty.len()) as u64;
                for i in 0..self.dirty.len() {
                    self.resweep(self.dirty[i] as usize, cand);
                }
            }
            if self.violated || self.route_delays[n] >= cutoff {
                return false;
            }
            if converged {
                return true;
            }
            match self.reevaluate(false, rec) {
                Some(step) => (max_diff, decreased) = step,
                None => return false,
            }
        }
    }

    /// Re-evaluates the rule at the touched servers (plus, in the first
    /// iteration, the shared pending values at the untouched ones) and
    /// applies the changes; returns `(sup-norm change, any decrease)`, or
    /// `None` outside the theorem's domain.
    fn reevaluate(&mut self, first: bool, rec: &mut SolveRecord) -> Option<(f64, bool)> {
        let mut max_diff: f64 = 0.0;
        let mut decreased = false;
        self.changed.clear();
        let mut apply = |st: &mut Self, k: u32, v: f64| {
            let old = st.d[k as usize];
            max_diff = max_diff.max((v - old).abs());
            decreased |= v < old;
            st.log_d.push((k, old));
            st.d[k as usize] = v;
            st.changed.push(k);
        };
        if first {
            for i in 0..self.pending.len() {
                let (k, v) = self.pending[i];
                if !self.touched_mark[k as usize] {
                    apply(self, k, v);
                }
            }
        }
        rec.servers_touched += self.touched.len() as u64;
        for i in 0..self.touched.len() {
            let k = self.touched[i];
            let v = self.eval(k as usize)?;
            if v != self.d[k as usize] {
                apply(self, k, v);
            }
        }
        Some((max_diff, decreased))
    }

    fn clear_touched(&mut self) {
        for &k in &self.touched {
            self.touched_mark[k as usize] = false;
        }
        self.touched.clear();
    }

    /// The routes (staged candidate included) through a changed server.
    fn mark_dirty(&mut self) {
        for &ri in &self.dirty {
            self.dirty_mark[ri as usize] = false;
        }
        self.dirty.clear();
        for &k in &self.changed {
            for ri in self.through.routes(k as usize) {
                if !self.dirty_mark[ri as usize] {
                    self.dirty_mark[ri as usize] = true;
                    self.dirty.push(ri);
                }
            }
        }
    }

    /// Re-sweeps route `ri` at the current `d`.
    fn resweep(&mut self, ri: usize, cand: RouteRef<'_>) {
        let route = if ri < self.routes.len() {
            self.routes.get(ri)
        } else {
            cand
        };
        let rd = sweep_tracked(
            route,
            self.rule.classes(),
            &self.d,
            &mut self.y,
            &mut self.log_y,
            &mut self.touched_mark,
            &mut self.touched,
        );
        if rd != self.route_delays[ri] {
            self.log_rd.push((ri as u32, self.route_delays[ri]));
            self.route_delays[ri] = rd;
        }
        self.violated |= rd > self.rule.deadline(route.class) + DEADLINE_SLACK;
    }

    /// A delay decreased, so max-merging is no longer exact: rebuild `Y`
    /// from zero over every route and re-evaluate every server.
    fn resweep_all(&mut self, cand: RouteRef<'_>) {
        for k in 0..self.y.len() {
            if self.y[k] != 0.0 {
                self.log_y.push((k as u32, self.y[k]));
                self.y[k] = 0.0;
            }
        }
        for ri in 0..=self.routes.len() {
            self.resweep(ri, cand);
        }
        for k in 0..self.d.len() {
            if (self.used[k] || self.d[k] != 0.0) && !self.touched_mark[k] {
                self.touched_mark[k] = true;
                self.touched.push(k as u32);
            }
        }
    }

    /// Undoes the staged candidate.
    fn rollback(&mut self, cand: RouteRef<'_>) {
        for &(k, old) in self.log_d.iter().rev() {
            self.d[k as usize] = old;
        }
        for &(k, old) in self.log_y.iter().rev() {
            self.y[k as usize] = old;
        }
        for &(ri, old) in self.log_rd.iter().rev() {
            self.route_delays[ri as usize] = old;
        }
        for &k in &self.log_used {
            self.used[k as usize] = false;
        }
        let (nc, class) = (self.rule.classes(), cand.class.index());
        for &sv in cand.servers.iter().rev() {
            self.through.pop(sv as usize * nc + class);
        }
        self.route_delays.pop();
        self.clear_journal();
    }

    fn clear_journal(&mut self) {
        self.log_d.clear();
        self.log_y.clear();
        self.log_rd.clear();
        self.log_used.clear();
        self.violated = false;
    }
}

/// Publishes the evaluations' `delay.solve.*` records not taken.
impl<R> Drop for CommittedState<'_, R> {
    fn drop(&mut self) {
        self.tally.publish();
    }
}
