//! A second delay rule, from network calculus (in the line of Yu, He &
//! Zhao, PAPERS.md), against Theorem 5 on `random_differential`'s
//! instances: same property names, same seeds, same draws.
//!
//! [`Calculus`] computes each cell's bound from curves, not from
//! DESIGN.md §2's closed form. At server `k` of capacity `C` with `N`
//! input links, class `l`'s aggregate arrival curve is the `N` links'
//! peak against the admitted flows' buckets, grown by their upstream
//! jitter:
//!
//! ```text
//! a_l(t) = min(N·C·t, (α_l·C/ρ_l)·(T_l + ρ_l·Y_{l,k}) + α_l·C·t)
//! ```
//!
//! The higher classes' token-bucket parts, taken as interference, leave
//! class `i` a rate-latency residual service `R·(t − L)⁺` with
//! `R = C − Σ_{l<i} α_l·C` and `L = Σ_{l<i} b_l / R` (`b_l` the bursts
//! above), and the bound is the horizontal deviation between `a_i` and
//! it, evaluated at `a_i`'s breakpoints `0⁺` and `t* = b_i / (N·C − α_i·C)`
//! (past `t*` it falls while `α_i·C ≤ R`). In the reals that is Theorem 5;
//! in floating point the two differ by a few ulps, and each rule's safe
//! set — its fixed point from `solve_rule`, from commits onto
//! `CommittedState::empty`, and from `CommittedState::from_fixed_point`
//! adopting the other rule's fixed point — must be certified by the other
//! at a witness lifted by 1e-9: the other rule at the witness's `Y` stays
//! at or below it in every used cell, and every route's sum meets its
//! deadline. A refusal names the instance, the gap, and the term of the
//! curve bound that the refused rule undercounts.

mod instances;

use instances::{
    theorem4_alpha, topology, video, CAPACITY, CASES, ONE_CLASS, TWO_CLASS, TWO_CLASS_CAPACITY,
};
use uba_delay::committed::CommittedState;
use uba_delay::fixed_point::{solve_rule, SolveConfig, SolveResult};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::rule::{DelayRule, Theorem5};
use uba_delay::servers::Servers;
use uba_graph::bfs;
use uba_obs::{check, ensure};
use uba_routing::pairs::all_ordered_pairs;
use uba_routing::sp::sp_selection;
use uba_traffic::{ClassId, LeakyBucket, TrafficClass};

/// The relative lift from a rule's cells to the witness the other rule
/// is asked about.
const LIFT: f64 = 1e-9;

/// The network-calculus delay rule: static priority over `classes`, a
/// share per cell, each cell's bound the horizontal deviation of its
/// class's arrival curve from its residual service.
#[derive(Clone)]
struct Calculus {
    buckets: Vec<LeakyBucket>,
    deadlines: Vec<f64>,
    /// One share per cell, `server · classes + class`.
    alphas: Vec<f64>,
    capacities: Vec<f64>,
}

/// One cell's curve bound, split into the parts it adds: the higher
/// classes' latency `L`, and the own class's burst and upstream-jitter
/// shares of `t*·(N·C − R)/R`.
#[derive(Debug)]
struct Terms {
    interference: f64,
    burst: f64,
    jitter: f64,
}

impl Terms {
    fn total(&self) -> f64 {
        self.interference + self.burst + self.jitter
    }
}

impl Calculus {
    fn new(servers: &Servers, classes: &[&TrafficClass], alphas: Vec<f64>) -> Self {
        Self {
            buckets: classes.iter().map(|c| c.bucket).collect(),
            deadlines: classes.iter().map(|c| c.deadline).collect(),
            alphas,
            capacities: (0..servers.len()).map(|k| servers.capacity_at(k)).collect(),
        }
    }

    fn row(&self, server: usize) -> &[f64] {
        let nc = self.buckets.len();
        &self.alphas[server * nc..][..nc]
    }

    /// The curves at `server` for class `i` given its `Y` row; `None`
    /// where a share is outside `(0, 1)`, the classes up to `i` overbook
    /// the link, or `a_i`'s peak is no faster than its rate.
    fn terms(&self, i: usize, server: usize, fan_in: usize, y: &[f64]) -> Option<Terms> {
        let (alphas, c) = (self.row(server), self.capacities[server]);
        if !alphas[..=i].iter().all(|&a| a > 0.0 && a < 1.0) {
            return None;
        }
        // Class l's aggregate: burst b_l = (α_l·C/ρ_l)·(T_l + ρ_l·Y_l) and
        // rate α_l·C; its burst split into the bucket's and the jitter's.
        let burst = |l: usize| {
            let b = self.buckets[l];
            let flows = alphas[l] * c / b.rate;
            (flows * b.burst, flows * (b.rate * y[l]))
        };
        let higher_rate = alphas[..i].iter().fold(0.0, |sum, a| sum + a * c);
        let r = c - higher_rate;
        let (peak, rate) = (fan_in as f64 * c, alphas[i] * c);
        if r <= 0.0 || rate > r * (1.0 + 1e-12) || peak <= rate {
            return None;
        }
        let higher = (0..i).fold(0.0, |sum, l| sum + burst(l).0 + burst(l).1);
        let interference = higher / r;
        // h(0⁺) = L; h(t*) = L + t*·(N·C − R)/R, with t* = b_i / (N·C − α_i·C).
        let (own_burst, own_jitter) = burst(i);
        let climb = (peak - r) / r;
        let at_kink = |b: f64| b / (peak - rate) * climb;
        Some(Terms {
            interference,
            burst: at_kink(own_burst),
            jitter: at_kink(own_jitter),
        })
    }
}

impl DelayRule for Calculus {
    fn classes(&self) -> usize {
        self.buckets.len()
    }

    fn deadline(&self, class: ClassId) -> f64 {
        self.deadlines[class.index()]
    }

    fn in_domain(&self, used: &[bool]) -> bool {
        let nc = self.buckets.len();
        (used.chunks(nc).enumerate())
            .filter(|(_, cells)| cells.contains(&true))
            .all(|(k, _)| {
                let row = self.row(k);
                row.iter().all(|&a| a > 0.0 && a < 1.0) && row.iter().sum::<f64>() <= 1.0 + 1e-12
            })
    }

    fn delay(&self, class: usize, server: usize, fan_in: usize, y: &[f64]) -> Option<f64> {
        // Each part is monotone in every `y` bit for bit; so is their sum,
        // and `h(t*) ≥ h(0⁺)` since `N·C ≥ R`.
        let t = self.terms(class, server, fan_in, y)?;
        Some((t.interference + t.burst + t.jitter).max(t.interference))
    }
}

/// Why `rule` refuses a witness.
enum Refusal {
    Cell {
        cell: usize,
        z: f64,
        d_hat: f64,
        terms: Option<Terms>,
    },
    Route {
        route: usize,
        sum: f64,
        deadline: f64,
    },
    Domain,
}

/// Whether `cells` × (1 + [`LIFT`]) is a certificate for `routes` under
/// `rule`: the rule at the witness's prefix maxima is at most the witness
/// in every used cell, and every route's sum meets its deadline.
fn certify<R: DelayRule>(
    servers: &Servers,
    rule: &R,
    calculus: &Calculus,
    routes: &RouteSet,
    cells: &[f64],
) -> Result<(), Refusal> {
    let nc = rule.classes();
    let d_hat: Vec<f64> = cells.iter().map(|d| d * (1.0 + LIFT)).collect();
    let mut y = vec![0.0f64; d_hat.len()];
    let mut used = vec![false; d_hat.len()];
    for r in routes.routes() {
        let mut prefix = 0.0;
        for &sv in &r.servers {
            let cell = sv as usize * nc + r.class.index();
            used[cell] = true;
            y[cell] = y[cell].max(prefix);
            prefix += d_hat[cell];
        }
    }
    if !rule.in_domain(&used) {
        return Err(Refusal::Domain);
    }
    for cell in (0..d_hat.len()).filter(|&c| used[c]) {
        let (server, class) = (cell / nc, cell % nc);
        let (fan_in, row) = (servers.fan_in_at(server), &y[server * nc..][..nc]);
        let z = rule
            .delay(class, server, fan_in, row)
            .unwrap_or(f64::INFINITY);
        if z > d_hat[cell] {
            let terms = calculus.terms(class, server, fan_in, row);
            return Err(Refusal::Cell {
                cell,
                z,
                d_hat: d_hat[cell],
                terms,
            });
        }
    }
    for (route, r) in routes.routes().iter().enumerate() {
        let sum: f64 = (r.servers.iter())
            .map(|&sv| d_hat[sv as usize * nc + r.class.index()])
            .sum();
        let deadline = rule.deadline(r.class);
        if sum > deadline {
            return Err(Refusal::Route {
                route,
                sum,
                deadline,
            });
        }
    }
    Ok(())
}

/// A refusal as a sentence: the gap, and the curve term the refused rule
/// undercounts — the one whose removal leaves the bound at the witness,
/// or a scale if no single term does.
fn explain(refusal: &Refusal, routes: &RouteSet, nc: usize) -> String {
    match refusal {
        Refusal::Domain => "a used cell outside the rule's domain".into(),
        Refusal::Route {
            route,
            sum,
            deadline,
        } => format!(
            "route {route} ({:?}) sums to {sum:e} s, over its deadline {deadline} s by {:e} s",
            routes.routes()[*route].servers,
            sum - deadline
        ),
        Refusal::Cell {
            cell,
            z,
            d_hat,
            terms,
        } => {
            let (gap, at) = (
                z - d_hat,
                format!("server {} class {}", cell / nc, cell % nc),
            );
            let Some(t) = terms else {
                return format!("{at}: bound {z:e} s over witness {d_hat:e} s");
            };
            // The term whose removal leaves the bound at the witness; a
            // witness short of it by no one term is a scale.
            let total = t.total();
            let (name, off) = [
                ("interference from higher classes", t.interference),
                ("own burst T", t.burst),
                ("own upstream jitter ρ·Y", t.jitter),
            ]
            .into_iter()
            .map(|(name, v)| (name, (total - v - d_hat).abs()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three terms");
            let culprit = if off <= 1e-6 * d_hat {
                name.to_string()
            } else {
                format!(
                    "no single term, the witness is {:.3} of the bound",
                    d_hat / total
                )
            };
            format!(
                "{at}: bound {z:e} s over witness {d_hat:e} s by {gap:e} s ({:.3e} relative); \
                 terms {t:?}; undercounted: {culprit}",
                gap / d_hat
            )
        }
    }
}

/// Counts over one arm.
#[derive(Debug, Default)]
struct Tally {
    verdicts: usize,
    theorem5_safe: usize,
    calculus_safe: usize,
    /// The largest relative difference of a cell between the two rules'
    /// fixed points where both are safe.
    max_rel_diff: f64,
}

/// Both rules on one instance at one share row, each rule's safe set
/// certified by the other ([`one_way`]); whether Theorem 5 says safe.
fn cross_certify(
    what: &str,
    servers: &Servers,
    classes: &[&TrafficClass],
    routes: &RouteSet,
    row: &[f64],
    tally: &mut Tally,
) -> Result<bool, String> {
    let alphas = row.repeat(servers.len());
    let theorem5 = Theorem5::new(classes.iter().copied(), alphas.clone());
    let calculus = Calculus::new(servers, classes, alphas);
    let cfg = SolveConfig::default();
    let t5 = solve_rule(servers, &theorem5, routes, &cfg, None);
    let nc = solve_rule(servers, &calculus, routes, &cfg, None);
    tally.verdicts += 1;
    tally.theorem5_safe += usize::from(t5.outcome.is_safe());
    tally.calculus_safe += usize::from(nc.outcome.is_safe());
    if t5.outcome.is_safe() && nc.outcome.is_safe() {
        for (a, b) in t5.delays.iter().zip(&nc.delays) {
            let rel = (a - b).abs() / a.abs().max(1e-300);
            tally.max_rel_diff = tally.max_rel_diff.max(rel);
        }
    }
    let what = format!("{what} at shares {row:?}");
    let both = (servers, routes, &calculus);
    one_way(&what, "Theorem 5", (&theorem5, &t5), (&calculus, &nc), both)?;
    one_way(&what, "calculus", (&calculus, &nc), (&theorem5, &t5), both)?;
    Ok(t5.outcome.is_safe())
}

/// If `rule` solved `routes` safe, its fixed point found three ways —
/// `solve_rule`, commits onto `CommittedState::empty`, and
/// `CommittedState::from_fixed_point` adopting the other rule's fixed
/// point (when that is safe) before committing the last route — each
/// certified by `other`. Committing route by route must reach the
/// solve's verdict.
fn one_way<R: DelayRule + Clone, O: DelayRule>(
    what: &str,
    name: &str,
    (rule, solved): (&R, &SolveResult),
    (other, other_solved): (&O, &SolveResult),
    (servers, routes, calculus): (&Servers, &RouteSet, &Calculus),
) -> Result<(), String> {
    let safe = solved.outcome.is_safe();
    let committed = commit_all(servers, rule.clone(), routes);
    ensure!(
        committed.is_some() == safe,
        "{what}: {name} solves safe: {safe}, commits every route: {}",
        committed.is_some()
    );
    let Some(committed) = committed else {
        return Ok(());
    };
    let mut ways = vec![
        ("solve_rule", solved.delays.clone()),
        ("commits", committed),
    ];
    if other_solved.outcome.is_safe() {
        let adopted = adopt_then_commit(servers, rule.clone(), routes, &other_solved.delays);
        let adopted = adopted.ok_or_else(|| {
            format!("{what}: {name} refuses the last route over the other rule's fixed point")
        })?;
        ways.push(("from_fixed_point", adopted));
    }
    for (how, cells) in ways {
        certify(servers, other, calculus, routes, &cells).map_err(|r| {
            format!(
                "{what}: the {name} fixed point ({how}) is not certified by the other rule: {}",
                explain(&r, routes, rule.classes())
            )
        })?;
    }
    Ok(())
}

/// Commits `routes` one by one onto an empty state under `rule`: its
/// cells if every commit verifies, `None` at the first that does not.
fn commit_all<R: DelayRule>(servers: &Servers, rule: R, routes: &RouteSet) -> Option<Vec<f64>> {
    let mut state = CommittedState::empty(servers, rule);
    let all = routes.routes().iter().all(|r| state.commit(r));
    all.then(|| state.into_parts().0)
}

/// `rule` adopting `warm` for every route but the last, then committing
/// the last: the cells if it verifies.
fn adopt_then_commit<R: DelayRule>(
    servers: &Servers,
    rule: R,
    routes: &RouteSet,
    warm: &[f64],
) -> Option<Vec<f64>> {
    let (last, head) = routes.routes().split_last().expect("a route");
    let mut prefix = RouteSet::new(routes.server_count());
    for r in head {
        prefix.push(r.clone());
    }
    let mut state = CommittedState::from_fixed_point(servers, rule, &prefix, warm.to_vec());
    state.commit(last).then(|| state.into_parts().0)
}

/// Every ordered pair's shortest path, once per class.
fn sp_routes(g: &uba_graph::Digraph, classes: usize) -> RouteSet {
    let paths = sp_selection(g, &all_ordered_pairs(g)).expect("strongly connected");
    let mut routes = RouteSet::new(g.edge_count());
    for class in 0..classes {
        for p in &paths {
            routes.push(Route::from_path(ClassId(class), p));
        }
    }
    routes
}

#[test]
fn one_class_safe_sets_certify_each_other() {
    let voip = TrafficClass::voip();
    let mut tally = Tally::default();
    check(ONE_CLASS, CASES, |rng| {
        let (family, g) = topology(rng);
        let servers = Servers::from_topology(&g, CAPACITY);
        let routes = sp_routes(&g, 1);
        let diameter = bfs::diameter(&g).expect("non-empty");
        let mut alpha = theorem4_alpha(rng, &servers, diameter, &voip);
        // The α sequence `random_differential` walks, to Theorem 5's
        // first safe verdict.
        while !cross_certify(&family, &servers, &[&voip], &routes, &[alpha], &mut tally)? {
            alpha /= 2.0;
            ensure!(alpha > 1e-6, "{family}: nothing verifies safe");
        }
        Ok(())
    });
    eprintln!("one class: {tally:?}");
    assert_eq!(tally.theorem5_safe, CASES as usize);
}

#[test]
fn two_class_safe_sets_certify_each_other() {
    let (voip, video) = (TrafficClass::voip(), video());
    let mut tally = Tally::default();
    check(TWO_CLASS, CASES, |rng| {
        let (family, g) = topology(rng);
        let servers = Servers::from_topology(&g, TWO_CLASS_CAPACITY);
        let routes = sp_routes(&g, 2);
        let diameter = bfs::diameter(&g).expect("non-empty");
        let mut alphas = [&voip, &video].map(|c| theorem4_alpha(rng, &servers, diameter, c));
        while !cross_certify(
            &family,
            &servers,
            &[&voip, &video],
            &routes,
            &alphas,
            &mut tally,
        )? {
            alphas = alphas.map(|a| a / 2.0);
            ensure!(alphas[0] > 1e-6, "{family}: nothing verifies safe");
        }
        Ok(())
    });
    eprintln!("two classes: {tally:?}");
    assert_eq!(tally.theorem5_safe, CASES as usize);
}
