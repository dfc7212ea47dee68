//! `CommittedState` vs the literal reading of §5.2's candidate check.
//!
//! Oracle: clone the committed `RouteSet`, push the candidate,
//! `solve_rule` under the same one-class `Theorem5` warm from the committed delays. The evaluator must
//! give the same verdict and the same own delay for every candidate,
//! leave its state untouched by a rejected or merely tried one, and after
//! a commit hold the oracle's `delays` and `route_delays` bit for bit —
//! on random route sets over MCI, a torus and a ring, most of which have
//! dependency cycles (so the committed point is only `tol`-converged and
//! the shared first-iteration step does real work), at one `α` on every
//! server or at an `α` graded by server. Before every try the
//! evaluator is also asked for the candidate's delay floor: asking leaves
//! no trace, and the floor never exceeds the delay the try then returns.
//! The same walks run under Theorem 5 with two and three classes (oracle:
//! `solve_rule`, the one dense loop, warm from the committed cells).
//! And a bound passed to `try_route` only filters its answer: the bounded
//! try is the unbounded one kept where the own delay is below the bound,
//! bit for bit, on grown, adopted and inflated states alike.

use uba_delay::certificate;
use uba_delay::committed::CommittedState;
use uba_delay::fixed_point::{solve_rule, solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::rule::Theorem5;
use uba_delay::servers::Servers;
use uba_graph::{k_shortest_paths, Digraph, DynDigraph, NodeId};
use uba_obs::{ensure, SplitMix64};
use uba_topology::{mci, ring, torus};
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

/// The relative lift from a committed state's cells to a certificate
/// witness.
const LIFT: f64 = 1e-9;

/// A committed state's lifted cells pass the independent checker: every
/// committed route set is a safe verdict.
fn certify<R: uba_delay::rule::DelayRule>(
    st: &CommittedState<'_, R>,
    servers: &Servers,
    classes: &ClassSet,
    alpha_cells: &[f64],
    ctx: &str,
) {
    let d_hat: Vec<f64> = st.delays().iter().map(|d| d * (1.0 + LIFT)).collect();
    let got = certificate::check(
        servers,
        classes,
        alpha_cells,
        &owned(st, servers.len()),
        &d_hat,
    );
    assert_eq!(got, Ok(()), "{ctx}: a safe verdict the checker refuses");
}

/// A committed state's routes as an owned set over `server_count` servers.
fn owned<R: uba_delay::rule::DelayRule>(
    st: &CommittedState<'_, R>,
    server_count: usize,
) -> RouteSet {
    let mut routes = RouteSet::new(server_count);
    for r in st.routes() {
        routes.push(Route {
            class: r.class,
            servers: r.servers.to_vec(),
        });
    }
    routes
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What a caller can see of the evaluator's state.
fn digest<R: uba_delay::rule::DelayRule>(
    st: &CommittedState<'_, R>,
) -> (usize, Vec<u64>, Vec<u64>) {
    (
        st.routes().len(),
        bits(st.delays()),
        bits(st.route_delays()),
    )
}

fn random_route(g: &Digraph, rng: &mut SplitMix64) -> Route {
    loop {
        let src = NodeId(rng.index(g.node_count()) as u32);
        let dst = NodeId(rng.index(g.node_count()) as u32);
        let paths = k_shortest_paths(g, src, dst, 4);
        if !paths.is_empty() {
            return Route::from_path(ClassId(0), &paths[rng.index(paths.len())]);
        }
    }
}

/// VoIP at `alpha` on every one of `servers`.
fn uniform(servers: &Servers, alpha: f64) -> Theorem5 {
    Theorem5::new([&TrafficClass::voip()], vec![alpha; servers.len()])
}

/// Pushes `cand` onto a clone of `routes` and solves warm from `delays`.
fn oracle(
    servers: &Servers,
    rule: &Theorem5,
    routes: &RouteSet,
    delays: &[f64],
    cand: &Route,
) -> (RouteSet, uba_delay::SolveResult) {
    let mut trial = routes.clone();
    trial.push(cand.clone());
    let r = solve_rule(servers, rule, &trial, &SolveConfig::default(), Some(delays));
    (trial, r)
}

/// One random walk of tries, rejects and commits at `α_k = alpha −
/// grade·(k mod 4)` on server `k`; returns how many candidates were
/// unsafe, committed, and whether the set went cyclic.
fn walk(
    g: &Digraph,
    fan_in: usize,
    (alpha, grade): (f64, f64),
    steps: usize,
    seed: u64,
    ctx: &str,
) -> (usize, usize, bool) {
    let servers = Servers::uniform(g, 100e6, fan_in);
    let alphas: Vec<f64> = (0..servers.len())
        .map(|k| alpha - grade * (k % 4) as f64)
        .collect();
    let voip = ClassSet::single(TrafficClass::voip());
    let rule = Theorem5::new([&TrafficClass::voip()], alphas.clone());
    let mut rng = SplitMix64::new(seed);
    let mut state = CommittedState::empty(&servers, rule.clone());
    let mut routes = RouteSet::new(g.edge_count());
    let mut delays = vec![0.0; g.edge_count()];
    let mut overlay = DynDigraph::new(g.edge_count());
    let (mut unsafe_seen, mut committed) = (0, 0);
    for step in 0..steps {
        let ctx = format!("{ctx} seed {seed} step {step}");
        let cand = random_route(g, &mut rng);
        let (trial, want) = oracle(&servers, &rule, &routes, &delays, &cand);
        let before = digest(&state);
        // Grown from nothing, delays have only ever risen.
        let floor = state
            .delay_floor(&cand)
            .unwrap_or_else(|| panic!("{ctx}: no floor"));
        assert_eq!(digest(&state), before, "{ctx}: asking left a trace");
        let got = state.try_route(&cand, f64::INFINITY);
        assert_eq!(got.is_some(), want.outcome.is_safe(), "{ctx}: verdict");
        assert_eq!(digest(&state), before, "{ctx}: a tried route left a trace");
        let Some(own) = got else {
            unsafe_seen += 1;
            assert!(!state.commit(&cand), "{ctx}: unsafe route committed");
            assert_eq!(
                digest(&state),
                before,
                "{ctx}: a rejected commit left a trace"
            );
            continue;
        };
        assert_eq!(
            own.to_bits(),
            want.route_delays.last().unwrap().to_bits(),
            "{ctx}: own delay"
        );
        assert!(floor <= own, "{ctx}: floor {floor} above own delay {own}");
        // Reject about a third of the safe candidates, like a pair's
        // losing candidates.
        if rng.index(3) == 0 {
            continue;
        }
        overlay.add_chain(&cand.servers);
        assert!(state.commit(&cand), "{ctx}: safe route refused");
        assert_eq!(bits(state.delays()), bits(&want.delays), "{ctx}: delays");
        assert_eq!(
            bits(state.route_delays()),
            bits(&want.route_delays),
            "{ctx}: route delays"
        );
        certify(&state, &servers, &voip, &alphas, &ctx);
        routes = trial;
        delays = want.delays;
        committed += 1;
    }
    assert_eq!(
        owned(&state, routes.server_count()).routes(),
        routes.routes(),
        "{ctx}: route set"
    );
    (unsafe_seen, committed, overlay.has_cycle())
}

#[test]
fn evaluator_matches_push_and_solve_on_random_route_sets() {
    // (name, topology, fan-in, (α, grade)): a zero grade is one α on
    // every server.
    let cases: [(&str, Digraph, usize, (f64, f64)); 5] = [
        ("mci", mci(), 6, (0.45, 0.0)),
        ("torus5x5", torus(5, 5), 4, (0.3, 0.0)),
        ("ring8", ring(8), 2, (0.25, 0.0)),
        ("ring8 past the edge", ring(8), 2, (0.6, 0.0)),
        ("mci per-server", mci(), 6, (0.45, 0.05)),
    ];
    for (name, g, fan_in, alpha) in &cases {
        let (mut unsafe_seen, mut committed, mut cyclic) = (0, 0, 0);
        for seed in 0..6u64 {
            let (u, c, cyc) = walk(g, *fan_in, *alpha, 70, 0x5EED ^ (seed * 977), name);
            unsafe_seen += u;
            committed += c;
            cyclic += cyc as usize;
        }
        assert!(committed > 60, "{name}: only {committed} commits");
        // Most walks must go cyclic, and the one past the feasible edge
        // must reach the unsafe verdict, or those paths are untested.
        if alpha.0 > 0.5 {
            assert!(unsafe_seen > 100, "{name}: only {unsafe_seen} unsafe");
        } else {
            assert!(cyclic >= 4, "{name}: only {cyclic}/6 walks went cyclic");
        }
    }
}

#[test]
fn evaluator_matches_from_an_adopted_fixed_point() {
    // `Configuration::add_pair` / `fail_link`: the evaluator is built
    // from routes and delays somebody else solved — cold, so only
    // `tol`-converged on this cyclic set.
    let voip = TrafficClass::voip();
    let g = torus(5, 5);
    let servers = Servers::uniform(&g, 100e6, 4);
    let cfg = SolveConfig::default();
    let mut rng = SplitMix64::new(0xAD0B7);
    let mut routes = RouteSet::new(g.edge_count());
    for _ in 0..60 {
        routes.push(random_route(&g, &mut rng));
    }
    let base = solve_two_class(&servers, &voip, 0.25, &routes, &cfg, None);
    assert!(base.outcome.is_safe());
    let alphas = vec![0.25; servers.len()];
    let mut state = CommittedState::from_fixed_point(
        &servers,
        uniform(&servers, 0.25),
        &routes,
        base.delays.clone(),
    );
    assert_eq!(bits(state.route_delays()), bits(&base.route_delays));
    let mut delays = base.delays;
    for step in 0..25 {
        let cand = random_route(&g, &mut rng);
        let (trial, want) = oracle(&servers, &uniform(&servers, 0.25), &routes, &delays, &cand);
        // A cold solve stops below its fixed point: a floor exists.
        let floor = state.delay_floor(&cand).expect("floor");
        let got = state.try_route(&cand, f64::INFINITY);
        assert_eq!(
            got.map(f64::to_bits),
            want.outcome
                .is_safe()
                .then(|| want.route_delays.last().unwrap().to_bits()),
            "step {step}"
        );
        if let Some(own) = got {
            assert!(floor <= own, "step {step}");
        }
        if want.outcome.is_safe() {
            assert!(state.commit(&cand));
            let ctx = format!("adopted step {step}");
            certify(
                &state,
                &servers,
                &ClassSet::single(voip.clone()),
                &alphas,
                &ctx,
            );
            assert_eq!(bits(state.delays()), bits(&want.delays), "step {step}");
            assert_eq!(
                bits(state.route_delays()),
                bits(&want.route_delays),
                "step {step}"
            );
            routes = trial;
            delays = want.delays;
        }
    }
}

#[test]
fn tentative_matches_committed_across_seeds() {
    // One candidate against 24 routes solved cold: when that solve is
    // unsafe at this α, evaluator and oracle both start from zero.
    let voip = TrafficClass::voip();
    let g = mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let cfg = SolveConfig::default();
    for seed in 0..5u64 {
        let mut rng = SplitMix64::new(0xABCD + seed);
        let mut routes = RouteSet::new(g.edge_count());
        for _ in 0..24 {
            routes.push(random_route(&g, &mut rng));
        }
        let candidate = random_route(&g, &mut rng);
        let base = solve_two_class(&servers, &voip, 0.35, &routes, &cfg, None);
        let warm = if base.outcome.is_safe() {
            base.delays
        } else {
            vec![0.0; servers.len()]
        };

        let mut state = CommittedState::from_fixed_point(
            &servers,
            uniform(&servers, 0.35),
            &routes,
            warm.clone(),
        );
        let tentative = state.try_route(&candidate, f64::INFINITY);
        let (_, committed) = oracle(
            &servers,
            &uniform(&servers, 0.35),
            &routes,
            &warm,
            &candidate,
        );
        assert_eq!(
            tentative.is_some(),
            committed.outcome.is_safe(),
            "seed {seed}"
        );
        if let Some(own) = tentative {
            assert_eq!(own, *committed.route_delays.last().unwrap(), "seed {seed}");
            assert!(state.commit(&candidate));
            assert_eq!(state.delays(), committed.delays, "seed {seed}");
            assert_eq!(state.route_delays(), committed.route_delays, "seed {seed}");
        }
    }
}

#[test]
fn evaluator_matches_on_warm_starts_above_the_fixed_point() {
    // Inflated delays break monotonicity: the first re-evaluation
    // *decreases* delays, and both solvers must fall back to rebuilding
    // `Y` from zero. Junk on unused servers must be zeroed by both.
    let voip = TrafficClass::voip();
    let g = mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let cfg = SolveConfig::default();
    let mut rng = SplitMix64::new(0xBAD5EED);
    let mut routes = RouteSet::new(g.edge_count());
    for _ in 0..30 {
        routes.push(random_route(&g, &mut rng));
    }
    let base = solve_two_class(&servers, &voip, 0.3, &routes, &cfg, None);
    assert!(base.outcome.is_safe());
    for scale in [1.2, 2.0] {
        let mut warm: Vec<f64> = base.delays.iter().map(|d| d * scale).collect();
        for (k, d) in warm.iter_mut().enumerate() {
            if *d == 0.0 && k % 3 == 0 {
                *d = 1e-3;
            }
        }
        let mut state = CommittedState::from_fixed_point(
            &servers,
            uniform(&servers, 0.3),
            &routes,
            warm.clone(),
        );
        let cand = random_route(&g, &mut rng);
        let (_, want) = oracle(&servers, &uniform(&servers, 0.3), &routes, &warm, &cand);
        // x1.2 recovers; x2 already misses a deadline at the first sweep.
        assert_eq!(want.outcome.is_safe(), scale < 2.0, "x{scale}");
        let before = digest(&state);
        // The candidate's delay at these inflated delays is no floor:
        // the solve brings them down, x1.2's own delay with them.
        assert_eq!(state.delay_floor(&cand), None, "x{scale}");
        assert_eq!(digest(&state), before, "x{scale}: asking left a trace");
        assert_eq!(
            state.try_route(&cand, f64::INFINITY).map(f64::to_bits),
            want.outcome
                .is_safe()
                .then(|| want.route_delays.last().unwrap().to_bits()),
            "x{scale}"
        );
        assert_eq!(
            digest(&state),
            before,
            "x{scale}: rollback of a full rebuild"
        );
        if !want.outcome.is_safe() {
            assert!(!state.commit(&cand));
            continue;
        }
        assert!(state.commit(&cand));
        assert_eq!(bits(state.delays()), bits(&want.delays), "x{scale}");
        assert_eq!(
            bits(state.route_delays()),
            bits(&want.route_delays),
            "x{scale}"
        );
    }
}

#[test]
fn no_floor_when_only_an_unused_server_is_seeded() {
    // The routes' own fixed point, plus a delay at one server no route
    // crosses: the first evaluation zeroes it, so an iterate can fall and
    // a candidate through that server would be over-estimated.
    let voip = TrafficClass::voip();
    let g = mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let cfg = SolveConfig::default();
    let mut rng = SplitMix64::new(0x5EEDED);
    let mut routes = RouteSet::new(g.edge_count());
    for _ in 0..10 {
        routes.push(random_route(&g, &mut rng));
    }
    let base = solve_two_class(&servers, &voip, 0.3, &routes, &cfg, None);
    assert!(base.outcome.is_safe());
    let cand = random_route(&g, &mut rng);
    let adopt = |delays: Vec<f64>| {
        CommittedState::from_fixed_point(&servers, uniform(&servers, 0.3), &routes, delays)
    };
    assert!(adopt(base.delays.clone()).delay_floor(&cand).is_some());
    let unused = routes.used_servers(ClassId(0));
    let unused = unused.iter().position(|&u| !u).expect("an unused server");
    let mut seeded = base.delays;
    seeded[unused] = 1e-3;
    assert_eq!(adopt(seeded).delay_floor(&cand), None);
}

/// voip, video, bulk-rt: the first `n` of them.
fn classes(n: usize) -> ClassSet {
    let mut set = ClassSet::new();
    set.push(TrafficClass::voip());
    set.push(TrafficClass::new(
        "video",
        LeakyBucket::new(64_000.0, 2_000_000.0),
        0.3,
    ));
    set.push(TrafficClass::new(
        "bulk-rt",
        LeakyBucket::new(256_000.0, 5_000_000.0),
        1.0,
    ));
    let mut first = ClassSet::new();
    for (_, class) in set.iter().take(n) {
        first.push(class.clone());
    }
    first
}

/// [`walk`] under Theorem 5: candidates of a random class, the oracle the
/// dense loop over the cloned set warm from the committed cells. Also
/// returns how many candidates were given a floor.
fn walk_classes(
    g: &Digraph,
    fan_in: usize,
    alphas: &[f64],
    steps: usize,
    seed: u64,
    ctx: &str,
) -> (usize, usize, usize, bool) {
    let classes = classes(alphas.len());
    let servers = Servers::uniform(g, 100e6, fan_in);
    let cfg = SolveConfig::default();
    let alpha_cells = alphas.repeat(servers.len());
    let rule = || Theorem5::new(classes.iter().map(|(_, c)| c), alpha_cells.clone());
    let mut rng = SplitMix64::new(seed);
    let cells = g.edge_count() * alphas.len();
    let mut routes = RouteSet::new(g.edge_count());
    let mut delays = vec![0.0; cells];
    let mut state = CommittedState::empty(&servers, rule());
    let mut overlay = DynDigraph::new(g.edge_count());
    let (mut unsafe_seen, mut committed, mut floors) = (0, 0, 0);
    for step in 0..steps {
        let ctx = format!("{ctx} seed {seed} step {step}");
        let mut cand = random_route(g, &mut rng);
        cand.class = ClassId(rng.index(alphas.len()));
        let mut trial = routes.clone();
        trial.push(cand.clone());
        let want = solve_rule(&servers, &rule(), &trial, &cfg, Some(&delays));
        let before = digest(&state);
        let floor = state.delay_floor(&cand);
        floors += floor.is_some() as usize;
        assert_eq!(digest(&state), before, "{ctx}: asking left a trace");
        let got = state.try_route(&cand, f64::INFINITY);
        assert_eq!(got.is_some(), want.outcome.is_safe(), "{ctx}: verdict");
        assert_eq!(digest(&state), before, "{ctx}: a tried route left a trace");
        let Some(own) = got else {
            unsafe_seen += 1;
            assert!(!state.commit(&cand), "{ctx}: unsafe route committed");
            assert_eq!(
                digest(&state),
                before,
                "{ctx}: a rejected commit left a trace"
            );
            continue;
        };
        assert_eq!(
            own.to_bits(),
            want.route_delays.last().unwrap().to_bits(),
            "{ctx}: own delay"
        );
        // Grown from nothing, delays have only ever risen: the rule is
        // monotone bit for bit, so every candidate gets a floor.
        let floor = floor.unwrap_or_else(|| panic!("{ctx}: no floor"));
        assert!(floor <= own, "{ctx}: floor {floor} above own delay {own}");
        if rng.index(3) == 0 {
            continue;
        }
        overlay.add_chain(&cand.servers);
        assert!(state.commit(&cand), "{ctx}: safe route refused");
        assert_eq!(bits(state.delays()), bits(&want.delays), "{ctx}: delays");
        assert_eq!(
            bits(state.route_delays()),
            bits(&want.route_delays),
            "{ctx}: route delays"
        );
        certify(&state, &servers, &classes, &alpha_cells, &ctx);
        routes = trial;
        delays = want.delays;
        committed += 1;
    }
    assert_eq!(
        owned(&state, routes.server_count()).routes(),
        routes.routes(),
        "{ctx}: route set"
    );
    (unsafe_seen, committed, floors, overlay.has_cycle())
}

#[test]
fn evaluator_matches_push_and_solve_with_two_and_three_classes() {
    let cases: [(&str, Digraph, usize, &[f64]); 5] = [
        ("mci x2", mci(), 6, &[0.4, 0.2]),
        ("mci x3", mci(), 6, &[0.09, 0.27, 0.27]),
        ("torus5x5 x3", torus(5, 5), 4, &[0.05, 0.15, 0.15]),
        ("ring8 x2", ring(8), 2, &[0.15, 0.1]),
        ("ring8 x2 past the edge", ring(8), 2, &[0.4, 0.3]),
    ];
    for (name, g, fan_in, alphas) in &cases {
        let (mut unsafe_seen, mut committed, mut floors, mut cyclic) = (0, 0, 0, 0);
        for seed in 0..6u64 {
            let (u, c, f, cyc) = walk_classes(g, *fan_in, alphas, 70, 0xC1A55 ^ (seed * 977), name);
            unsafe_seen += u;
            committed += c;
            floors += f;
            cyclic += cyc as usize;
        }
        assert!(committed > 60, "{name}: only {committed} commits");
        // Every candidate of every walk was given a floor.
        assert_eq!(floors, 420, "{name}: only {floors}/420 floors");
        if name.ends_with("past the edge") {
            assert!(unsafe_seen > 100, "{name}: only {unsafe_seen} unsafe");
        } else {
            assert!(cyclic >= 4, "{name}: only {cyclic}/6 walks went cyclic");
        }
    }
}

#[test]
fn a_bound_only_filters_what_try_route_answers() {
    let topologies = [
        ("mci", mci(), 6),
        ("torus5x5", torus(5, 5), 4),
        ("ring8", ring(8), 2),
    ];
    let voip = TrafficClass::voip();
    let cfg = SolveConfig::default();
    // Bounds between a candidate's converged delay and its larger first
    // sweep on an inflated state: its own delay passes them on the way down.
    let (mut answered, mut refused, mut crossed) = (0, 0, 0);
    uba_obs::check("committed_bound", 48, |rng: &mut SplitMix64| {
        let (name, g, fan_in) = &topologies[rng.index(topologies.len())];
        let servers = Servers::uniform(g, 100e6, *fan_in);
        let alpha = rng.range_f64(0.15, 0.5);
        let mut routes = RouteSet::new(g.edge_count());
        for _ in 0..10 + rng.index(30) {
            routes.push(random_route(g, rng));
        }
        // Grown by commits from nothing, adopted from a cold solve, or
        // (half the cases) adopted from that solve inflated above the
        // fixed point.
        let how = rng.index(4);
        let cold = solve_two_class(&servers, &voip, alpha, &routes, &cfg, None);
        let mut state = if how == 0 || !cold.outcome.is_safe() {
            let mut state = CommittedState::empty(&servers, uniform(&servers, alpha));
            for r in routes.routes() {
                state.commit(r);
            }
            state
        } else {
            let scale = if how == 1 {
                1.0
            } else {
                rng.range_f64(1.1, 1.6)
            };
            let warm = cold.delays.iter().map(|d| d * scale).collect();
            CommittedState::from_fixed_point(&servers, uniform(&servers, alpha), &routes, warm)
        };
        let ctx = format!("{name} @ {alpha}, state {how}");
        for step in 0..8 {
            let ctx = format!("{ctx}, candidate {step}");
            let cand = random_route(g, rng);
            let before = digest(&state);
            let free = state.try_route(&cand, f64::INFINITY);
            let first: f64 = cand
                .servers
                .iter()
                .map(|&k| state.delays()[k as usize])
                .sum();
            let mut bounds = vec![f64::INFINITY, 0.0, first, rng.range_f64(0.0, 0.2)];
            if let Some(own) = free {
                bounds.extend([own, own.next_up(), own.next_down()]);
                bounds.extend([own * rng.range_f64(0.9, 1.0), own * rng.range_f64(1.0, 1.1)]);
                if first > own {
                    bounds.push(rng.range_f64(own, first));
                    crossed += 1;
                }
            }
            for b in bounds {
                let got = state.try_route(&cand, b);
                let want = free.filter(|&own| own < b);
                ensure!(
                    got.map(f64::to_bits) == want.map(f64::to_bits),
                    "{ctx}: bound {b}: {got:?}, unbounded {free:?}"
                );
                ensure!(digest(&state) == before, "{ctx}: bound {b} left a trace");
                answered += got.is_some() as usize;
                refused += (free.is_some() && got.is_none()) as usize;
            }
        }
        Ok(())
    });
    assert!(answered >= 200, "only {answered} bounded answers");
    assert!(refused >= 200, "only {refused} answers bounded away");
    assert!(crossed >= 15, "only {crossed} crossing bounds");
}
