//! CLI command implementations. Each returns its report as a `String`
//! so the binary stays a thin printer and the logic stays testable.

use crate::scenario::{Scenario, ScenarioError};
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use uba::admission::{
    run_churn, AdmissionController, BackendKind, ChurnConfig, ConfigGeneration, FlowHandle,
    PolicyChain, Reject, RoutingTable, UtilizationState,
};
use uba::delay::fixed_point::{Outcome, SolveConfig};
use uba::delay::routeset::{Route, RouteSet};
use uba::delay::verify::verify;
use uba::graph::bfs;
use uba::prelude::*;
use uba::sim::{simulate, FlowSpec, SimConfig, SourceModel};

/// Renders the process-global metrics registry (the `--metrics` flag and
/// the tail of the `metrics` subcommand).
pub fn render_global_metrics(json: bool) -> String {
    let snap = uba::obs::global().snapshot();
    if json {
        snap.render_json_lines()
    } else {
        snap.render_table()
    }
}

/// `bounds`: Theorem 4 window for each class of the scenario.
pub fn cmd_bounds(sc: &Scenario) -> Result<String, ScenarioError> {
    let diameter = bfs::diameter(&sc.graph)
        .ok_or_else(|| ScenarioError::Invalid("topology is not strongly connected".into()))?;
    let fan_in = (0..sc.servers.len())
        .map(|k| sc.servers.fan_in_at(k))
        .max()
        .unwrap_or(2)
        .max(2);
    let mut out = String::new();
    writeln!(out, "diameter L = {diameter}, fan-in N = {fan_in}").unwrap();
    for (_, class) in sc.classes.iter() {
        let (lb, ub) = utilization_bounds(fan_in, diameter.max(1), class);
        writeln!(
            out,
            "class {:<10} T/rho = {:>6.1} ms, D = {:>6.1} ms  ->  alpha* in [{lb:.3}, {ub:.3}]",
            class.name,
            class.burst_time() * 1e3,
            class.deadline * 1e3
        )
        .unwrap();
    }
    Ok(out)
}

/// `verify`: SP routes for every pair and class (or the scenario's
/// `[[route]]` sections), Figure 2 verification at the scenario's alphas.
pub fn cmd_verify(sc: &Scenario) -> Result<String, ScenarioError> {
    let mut routes = RouteSet::new(sc.graph.edge_count());
    scenario_paths(sc, |ci, p| {
        routes.push(Route::from_path(ci, p));
    })?;
    let report = verify(
        &sc.servers,
        &sc.classes,
        &sc.alphas,
        &routes,
        &SolveConfig::default(),
    );
    let mut out = String::new();
    writeln!(
        out,
        "verification: {}",
        if report.safe { "SUCCESS" } else { "FAILURE" }
    )
    .unwrap();
    writeln!(out, "outcome: {:?}", report.outcome).unwrap();
    writeln!(out, "iterations: {}", report.iterations).unwrap();
    // Only these two outcomes come with delays the solve computed; on
    // the others the slack and per-server delays are placeholders.
    if !matches!(
        report.outcome,
        Outcome::Safe | Outcome::DeadlineExceeded { .. }
    ) {
        return Ok(out);
    }
    if report.worst_slack.is_finite() {
        writeln!(out, "worst slack: {:.3} ms", report.worst_slack * 1e3).unwrap();
    }
    for (i, (_, class)) in sc.classes.iter().enumerate() {
        let worst = report.server_delays[i].iter().cloned().fold(0.0, f64::max);
        writeln!(
            out,
            "class {:<10} worst per-server delay {:.3} ms",
            class.name,
            worst * 1e3
        )
        .unwrap();
    }
    Ok(out)
}

/// `maximize`: Section 5.3 binary search; multi-class scenarios use the
/// §5.4 trade-off ray (scenario alphas as the weight vector).
pub fn cmd_maximize(sc: &Scenario, selector_name: &str) -> Result<String, ScenarioError> {
    let selector = match selector_name {
        "sp" => Selector::ShortestPath,
        "heuristic" => Selector::Heuristic(HeuristicConfig::default()),
        other => {
            return Err(ScenarioError::Invalid(format!(
                "unknown selector '{other}' (use sp|heuristic)"
            )))
        }
    };
    if sc.classes.len() != 1 {
        let Selector::Heuristic(cfg) = selector else {
            return Err(ScenarioError::Invalid(format!(
                "selector '{selector_name}' handles single-class scenarios; \
                 a multi-class scenario is maximized with 'heuristic'"
            )));
        };
        return cmd_maximize_multiclass(sc, &cfg);
    }
    let (_, class) = sc.classes.iter().next().unwrap();
    let r = max_utilization(&sc.graph, &sc.servers, class, &sc.pairs, &selector, 0.005);
    let mut out = String::new();
    writeln!(
        out,
        "theorem 4 window: [{:.3}, {:.3}]",
        r.bounds.0, r.bounds.1
    )
    .unwrap();
    writeln!(out, "selector: {selector_name}").unwrap();
    writeln!(out, "maximum safe utilization: {:.3}", r.alpha).unwrap();
    writeln!(out, "probes: {}", r.probes.len()).unwrap();
    if let Some(sel) = &r.selection {
        let longest = sel.paths.iter().map(Path::len).max().unwrap_or(0);
        writeln!(
            out,
            "routes committed: {} (longest {longest} hops)",
            sel.paths.len()
        )
        .unwrap();
        writeln!(
            out,
            "worst route delay: {:.3} ms (deadline {:.1} ms)",
            sel.route_delays.iter().cloned().fold(0.0, f64::max) * 1e3,
            class.deadline * 1e3
        )
        .unwrap();
    }
    Ok(out)
}

/// Multi-class maximize: scale the scenario's alphas as a ray until the
/// Theorem 5 verification stops succeeding.
fn cmd_maximize_multiclass(sc: &Scenario, cfg: &HeuristicConfig) -> Result<String, ScenarioError> {
    use uba::routing::{max_utilization_ray, Demand};
    // The ray needs a direction: finite, non-negative, not all zero (and
    // not so large that the weights' sum overflows).
    let total: f64 = sc.alphas.iter().sum();
    if !(sc.alphas.iter().all(|&w| w.is_finite() && w >= 0.0) && total.is_finite() && total > 0.0) {
        return Err(ScenarioError::Invalid(format!(
            "class alphas {:?} are the trade-off ray's weights: each must be finite and \
             non-negative, with a finite positive sum",
            sc.alphas
        )));
    }
    let demands: Vec<Demand> = sc
        .classes
        .iter()
        .flat_map(|(ci, _)| {
            let pairs = sc.class_pairs(ci).into_iter().map(|i| sc.pairs[i]);
            pairs.map(move |pair| Demand { class: ci, pair })
        })
        .collect();
    let r = max_utilization_ray(
        &sc.graph,
        &sc.servers,
        &sc.classes,
        &sc.alphas,
        &demands,
        cfg,
        0.01,
    );
    let mut out = String::new();
    writeln!(out, "trade-off ray weights: {:?}", sc.alphas).unwrap();
    writeln!(out, "maximum safe scale t = {:.3}", r.t).unwrap();
    for ((_, class), alpha) in sc.classes.iter().zip(&r.alphas) {
        writeln!(out, "class {:<10} alpha = {:.3}", class.name, alpha).unwrap();
    }
    writeln!(out, "probes: {}", r.probes.len()).unwrap();
    if let Some(sel) = &r.selection {
        writeln!(out, "routes committed: {}", sel.paths.len()).unwrap();
    }
    Ok(out)
}

/// `simulate`: SP routes, a round-robin fill of the class-0 budget through
/// the reservation walk, adversarial sources, packet simulation against
/// the analytic bound. A scenario's `[[route]]` sections replace the SP
/// routes, and its `[[flow]]` sections, each reserved first, the fill.
pub fn cmd_simulate(sc: &Scenario, horizon: f64) -> Result<String, ScenarioError> {
    // `"inf"` and `"nan"` parse as f64: an infinite horizon would emit
    // packets until memory runs out, NaN would emit none and "pass".
    if !(horizon.is_finite() && horizon >= 0.0) {
        return Err(ScenarioError::Invalid(format!(
            "horizon must be a finite, non-negative number of seconds, got {horizon}"
        )));
    }
    if sc.classes.len() != 1 {
        return Err(ScenarioError::Invalid(
            "simulate handles single-class scenarios".into(),
        ));
    }
    let (_, class) = sc.classes.iter().next().unwrap();
    let alpha = sc.alphas[0];
    let mut routes = RouteSet::new(sc.graph.edge_count());
    let paths = scenario_paths(sc, |ci, p| {
        routes.push(Route::from_path(ci, p));
    })?;
    let analysis = uba::delay::fixed_point::solve_two_class(
        &sc.servers,
        class,
        alpha,
        &routes,
        &SolveConfig::default(),
        None,
    );
    match analysis.outcome {
        o if o.is_safe() => {}
        Outcome::InvalidParams => {
            return Err(ScenarioError::Invalid(format!(
                "alpha {alpha} is outside the delay analysis's domain (0, 1)"
            )))
        }
        o => {
            return Err(ScenarioError::Invalid(format!(
                "alpha {alpha} does not verify ({o:?}); lower it before simulating"
            )))
        }
    }
    let bound = analysis.route_delays.iter().cloned().fold(0.0, f64::max);

    let caps = sc.capacities();
    let (flows, from) = if sc.flows.is_empty() {
        let fill = UtilizationState::new(&caps, &[alpha])
            .fill_round_robin(&paths, 0, class.bucket.rate)
            .into_iter()
            .map(|i| greedy_flow(class, sc.pairs[i].src, &paths[i]));
        (fill.collect(), "greedy fill")
    } else {
        (sc.admit_flows()?, "the scenario")
    };
    let report = simulate(
        &caps,
        &flows,
        &SimConfig::new(horizon, vec![class.deadline]),
    );
    let mut out = String::new();
    writeln!(out, "flows admitted by {from}: {}", flows.len()).unwrap();
    writeln!(out, "packets delivered: {}", report.total_packets).unwrap();
    writeln!(out, "analytic bound: {:.3} ms", bound * 1e3).unwrap();
    writeln!(
        out,
        "simulated max / mean delay: {:.3} / {:.3} ms",
        report.max_delay() * 1e3,
        report.classes[0].mean_delay * 1e3
    )
    .unwrap();
    writeln!(out, "deadline misses: {}", report.total_misses()).unwrap();
    Ok(out)
}

/// `metrics`: exercise every instrumented layer on the scenario —
/// Figure 2 verification (delay solver), one §5.2 heuristic selection at
/// the scenario's `α` (single-class scenarios), an admission churn workload
/// plus saturation to the first link-full rejection (admission
/// controller), a short packet simulation, and one SLO evaluation
/// window over the scenario's `[slo]` rules — then dump the metrics
/// registry.
pub fn cmd_metrics(sc: &Scenario, json: bool) -> Result<String, ScenarioError> {
    let mut out = String::new();

    // 1. Delay analysis: SP routes, Figure 2 verification.
    let mut routes = RouteSet::new(sc.graph.edge_count());
    let paths = scenario_paths(sc, |ci, p| {
        routes.push(Route::from_path(ci, p));
    })?;
    let solver_metrics = uba::delay::metrics::solver();
    let (skipped0, touched0) = (
        solver_metrics.sweeps_skipped.get(),
        solver_metrics.servers_touched.get(),
    );
    let report = verify(
        &sc.servers,
        &sc.classes,
        &sc.alphas,
        &routes,
        &SolveConfig::default(),
    );
    writeln!(
        out,
        "verification: {} ({} iterations)",
        if report.safe { "SUCCESS" } else { "FAILURE" },
        report.iterations
    )
    .unwrap();
    writeln!(
        out,
        "solver sweep economy: {} route sweeps skipped, {} server evaluations",
        solver_metrics.sweeps_skipped.get() - skipped0,
        solver_metrics.servers_touched.get() - touched0,
    )
    .unwrap();

    // 1b. Route selection: the §5.2 heuristic at the scenario's own α
    // (single-class scenarios only, like the simulation below).
    if sc.classes.len() == 1 {
        let (_, class) = sc.classes.iter().next().unwrap();
        let m = uba::routing::metrics::select();
        let (candidates0, pruned0, checks0) =
            (m.candidates.get(), m.pruned.get(), m.cycle_checks.get());
        let selected = select_routes(
            &sc.graph,
            &sc.servers,
            class,
            sc.alphas[0],
            &sc.pairs,
            &HeuristicConfig::default(),
        );
        writeln!(
            out,
            "route selection: {} ({} candidates, {} pruned unsolved, {} cycle checks)",
            if selected.is_ok() {
                "SUCCESS"
            } else {
                "FAILURE"
            },
            m.candidates.get() - candidates0,
            m.pruned.get() - pruned0,
            m.cycle_checks.get() - checks0,
        )
        .unwrap();
    }

    // 2. Admission: churn workload, then saturate until a link fills —
    // through the scenario's policy chain, like `explain` and `serve`.
    let ctrl = scenario_controller(sc)?;
    let pairs = churn_pairs(sc)?;
    let churn = run_churn(
        &ctrl,
        &pairs,
        ClassId(0),
        &ChurnConfig {
            arrivals: 2_000,
            mean_active: 64.0,
            seed: 42,
        },
    );
    writeln!(
        out,
        "churn: {} offered, {} accepted, blocking {:.1}%, mean admit {:.0} ns",
        churn.offered,
        churn.accepted,
        churn.blocking() * 100.0,
        churn.mean_admit_ns
    )
    .unwrap();
    let mut sample = None;
    let held = saturate(&ctrl, sc, [ClassId(0)], |_, _, r| match r {
        Reject::LinkFull { .. } => {
            sample = Some(r);
            ControlFlow::Break(())
        }
        Reject::NoRoute | Reject::Policy { .. } => ControlFlow::Continue(()),
    });
    ctrl.refresh_gauges();
    match sample {
        Some(Reject::LinkFull {
            server,
            class,
            reserved_bps,
            budget_bps,
        }) => {
            let share = if budget_bps > 0.0 {
                100.0 * reserved_bps / budget_bps
            } else {
                0.0
            };
            writeln!(
                out,
                "saturation: {} flows held; first rejection at server {server}, \
                 class {} ({}), reserved {:.1}/{:.1} kb/s ({share:.1}% of budget)",
                held.len(),
                class.index(),
                sc.classes.get(class).name,
                reserved_bps / 1e3,
                budget_bps / 1e3,
            )
            .unwrap();
        }
        _ => {
            writeln!(out, "saturation: {} flows held; no link filled", held.len()).unwrap();
        }
    }
    drop(held);
    ctrl.flush_metrics();

    // 3. A short packet simulation (single-class scenarios only).
    if sc.classes.len() == 1 {
        let (_, class) = sc.classes.iter().next().unwrap();
        let flows: Vec<FlowSpec> = sc
            .pairs
            .iter()
            .zip(&paths)
            .take(16)
            .map(|(pair, path)| greedy_flow(class, pair.src, path))
            .collect();
        let sim_report = simulate(
            &sc.capacities(),
            &flows,
            &SimConfig::new(0.05, vec![class.deadline]),
        );
        writeln!(
            out,
            "simulation: {} packets, {} deadline misses",
            sim_report.total_packets,
            sim_report.total_misses()
        )
        .unwrap();
    }

    // 4. SLO engine: anchor, then close one evaluation window over
    // everything the sections above produced, so the `slo.*` gauges and
    // counters are registered and live in the dump below.
    let mut slo = uba::obs::SloEngine::new(uba::obs::global(), uba::obs::standard_rules(&sc.slo));
    slo.evaluate(uba::obs::global().snapshot());
    let firing = slo.evaluate(uba::obs::global().snapshot());
    writeln!(
        out,
        "slo: {} rules evaluated, {firing} firing, {} active alerts",
        uba::obs::standard_rules(&sc.slo).len(),
        slo.active_alerts().len()
    )
    .unwrap();

    writeln!(out).unwrap();
    out.push_str(&render_global_metrics(json));
    Ok(out)
}

/// The scenario's routes: its `[[route]]` sections, one path each, seen
/// by `each` once with its own class; without them, SP paths in pair
/// order, which `each` sees once per class, class by class — the order a
/// route set or routing table is filled in. Either way, in a one-class
/// scenario `paths[i]` serves `sc.pairs[i]`.
fn scenario_paths(
    sc: &Scenario,
    mut each: impl FnMut(ClassId, &Path),
) -> Result<Vec<Path>, ScenarioError> {
    if !sc.routes.is_empty() {
        for (ci, p) in &sc.routes {
            each(*ci, p);
        }
        return Ok(sc.routes.iter().map(|(_, p)| p.clone()).collect());
    }
    let paths = sp_selection(&sc.graph, &sc.pairs)
        .map_err(|p| ScenarioError::Invalid(format!("no route for pair {p:?}")))?;
    for (ci, _) in sc.classes.iter() {
        for p in &paths {
            each(ci, p);
        }
    }
    Ok(paths)
}

/// The `(src, dst)` pairs class 0 is demanded on, which `metrics` and
/// `serve` churn; an error where it has none.
pub(crate) fn churn_pairs(sc: &Scenario) -> Result<Vec<(NodeId, NodeId)>, ScenarioError> {
    let pairs: Vec<_> = (sc.class_pairs(ClassId(0)).into_iter())
        .map(|i| (sc.pairs[i].src, sc.pairs[i].dst))
        .collect();
    if pairs.is_empty() {
        return Err(ScenarioError::Invalid(
            "class 0 has no route to churn on".into(),
        ));
    }
    Ok(pairs)
}

/// The greedy on-off source of `class` entering at `src` along `path`
/// (simulator class 0): its whole bucket at t = 0, then its rate.
fn greedy_flow(class: &TrafficClass, src: NodeId, path: &Path) -> FlowSpec {
    FlowSpec {
        class: 0,
        ingress: src.0,
        route: path.edges.iter().map(|e| e.0).collect(),
        source: SourceModel::GreedyOnOff {
            burst_bits: class.bucket.burst,
            rate_bps: class.bucket.rate,
            packet_bits: (class.bucket.burst as u64).max(64),
            start: 0.0,
        },
    }
}

/// Saturates `ctrl` round-robin: for each of `classes` in turn, one
/// `try_admit` per pair the class is demanded on, in file order, pass
/// after pass, until a pass admits nothing. Each reject goes to `on_reject(class, pair index,
/// reject)`, whose `Break` ends the whole saturation there. Returns every
/// admitted handle with its class and pair index, in admission order.
fn saturate(
    ctrl: &AdmissionController,
    sc: &Scenario,
    classes: impl IntoIterator<Item = ClassId>,
    mut on_reject: impl FnMut(ClassId, usize, Reject) -> ControlFlow<()>,
) -> Vec<(FlowHandle, ClassId, usize)> {
    let mut held = Vec::new();
    for ci in classes {
        let pairs = sc.class_pairs(ci);
        loop {
            let mut progress = false;
            for &pi in &pairs {
                let pair = &sc.pairs[pi];
                match ctrl.try_admit(ci, pair.src, pair.dst) {
                    Ok(h) => {
                        held.push((h, ci, pi));
                        progress = true;
                    }
                    Err(r) => {
                        if on_reject(ci, pi, r).is_break() {
                            return held;
                        }
                    }
                }
            }
            if !progress {
                break;
            }
        }
    }
    held
}

/// The scenario's `[policy]` section instantiated against its class
/// rates — fresh stage state per call, as a generation install expects.
fn scenario_chain(sc: &Scenario) -> PolicyChain {
    let rates: Vec<f64> = sc.classes.iter().map(|(_, c)| c.bucket.rate).collect();
    PolicyChain::from_config(&sc.policy, &rates)
}

/// Builds the routing table (SP, or the `[[route]]` sections) and a
/// metered admission controller for a scenario — shared by `metrics`,
/// `explain`, `reconfigure` and `serve`.
pub(crate) fn scenario_controller(sc: &Scenario) -> Result<AdmissionController, ScenarioError> {
    scenario_generation(sc).map(AdmissionController::from_generation)
}

/// Builds an installable [`ConfigGeneration`] from a scenario — the unit
/// [`AdmissionController::reconfigure`] swaps in (the `reconfigure`
/// command and `serve`'s `POST /reconfigure`). The `[policy]` chain is
/// baked into the generation, so a hot-reload installs fresh policy
/// state alongside fresh budgets.
pub(crate) fn scenario_generation(sc: &Scenario) -> Result<ConfigGeneration, ScenarioError> {
    let mut table = RoutingTable::new();
    scenario_paths(sc, |ci, p| {
        table.insert(ci, p);
    })?;
    Ok(ConfigGeneration::with_policy(
        table,
        &sc.classes,
        &sc.capacities(),
        &sc.alphas,
        BackendKind::Atomic,
        scenario_chain(sc),
    ))
}

/// Total class budget across all servers of a generation, bits/s.
fn total_budget_bps(gen: &ConfigGeneration) -> f64 {
    let backend = gen.backend();
    let mut total = 0.0;
    for server in 0..backend.servers() {
        for class in 0..backend.classes() {
            total += backend.budget(server, class);
        }
    }
    total
}

/// `reconfigure`: a live-migration rehearsal. Admits the old scenario's
/// workload to saturation, installs the new scenario as a fresh
/// generation *while those flows are held*, and reports the migration:
/// which flows keep a route under the new configuration, which are
/// stranded, and how the total class budget moved. The old flows drain
/// against their own (retired) generation, exactly as a live controller
/// would behave.
pub fn cmd_reconfigure(
    old: &Scenario,
    new: &Scenario,
    json: bool,
) -> Result<String, ScenarioError> {
    let ctrl = scenario_controller(old)?;
    // Deterministic saturation, every class, holding every admitted flow.
    let held = saturate(
        &ctrl,
        old,
        old.classes.iter().map(|(ci, _)| ci),
        |_, _, _| ControlFlow::Continue(()),
    );
    let admitted = held.len();

    let next = scenario_generation(new)?;
    let old_budget = total_budget_bps(&ctrl.current_generation());
    let new_budget = total_budget_bps(&next);
    // Flows survive the migration iff the new configuration still routes
    // their (src, dst, class); the rest are stranded on the retired
    // generation until they terminate.
    let (mut kept, mut stranded) = (0usize, 0usize);
    for (_, ci, pi) in &held {
        let pair = &old.pairs[*pi];
        if next.table().route(pair.src, pair.dst, *ci).is_some() {
            kept += 1;
        } else {
            stranded += 1;
        }
    }
    let report = ctrl.reconfigure(next);
    let headroom_delta = new_budget - old_budget;

    drop(held);
    let drained = ctrl.drain().is_drained();
    ctrl.flush_metrics();

    let mut out = String::new();
    if json {
        writeln!(
            out,
            "{{\"generation\":{},\"previous\":{},\"admitted\":{admitted},\"kept\":{kept},\
             \"stranded\":{stranded},\"pinned_previous\":{},\"headroom_delta_bps\":{:.1},\
             \"drained\":{drained}}}",
            report.generation, report.previous, report.pinned_previous, headroom_delta,
        )
        .unwrap();
        return Ok(out);
    }
    writeln!(
        out,
        "reconfigure: generation {} -> {}",
        report.previous, report.generation
    )
    .unwrap();
    writeln!(out, "flows held under old configuration: {admitted}").unwrap();
    writeln!(out, "  kept (still routable):  {kept}").unwrap();
    writeln!(out, "  stranded (route gone):  {stranded}").unwrap();
    writeln!(
        out,
        "pinned to retired generation at swap: {}",
        report.pinned_previous
    )
    .unwrap();
    writeln!(
        out,
        "total class budget delta: {:+.1} kb/s",
        headroom_delta / 1e3
    )
    .unwrap();
    writeln!(out, "retired generation drained after release: {drained}").unwrap();
    Ok(out)
}

/// `explain`: replays the scenario's admission workload to saturation —
/// round-robin over the pair list in file order, every class — and
/// reports each (class, pair)'s first rejection as the decision returned
/// it: the route it was decided on, what that decision's [`Reject`]
/// names (the first link without headroom, with the class's reserved
/// rate and budget there, or the policy stage that refused) and what
/// each stage of the chain did. The replay has no randomness, so the
/// report is byte-identical across runs.
pub fn cmd_explain(sc: &Scenario, json: bool) -> Result<String, ScenarioError> {
    let ctrl = scenario_controller(sc)?;
    let generation = ctrl.current_generation();
    let chain: Vec<&'static str> = generation
        .policy()
        .stages()
        .iter()
        .map(|s| s.name())
        .collect();
    let mut diagnoses: Vec<Diagnosis> = Vec::new();
    // (class, pair index) already diagnosed, so each reports its *first*
    // rejection.
    let mut diagnosed = vec![false; sc.classes.len() * sc.pairs.len()];
    let held = saturate(
        &ctrl,
        sc,
        sc.classes.iter().map(|(ci, _)| ci),
        |ci, pi, reject| {
            let seen = &mut diagnosed[ci.index() * sc.pairs.len() + pi];
            if !*seen {
                *seen = true;
                let pair = &sc.pairs[pi];
                let route = generation.table().route(pair.src, pair.dst, ci);
                diagnoses.push(Diagnosis {
                    class: ci,
                    src: pair.src,
                    dst: pair.dst,
                    path: route.unwrap_or_default().to_vec(),
                    rate: generation.rates()[ci.index()],
                    reject,
                });
            }
            ControlFlow::Continue(())
        },
    );
    let admitted = held.len();
    drop(held);
    ctrl.flush_metrics();

    let mut out = String::new();
    if json {
        for d in &diagnoses {
            writeln!(out, "{}", d.to_json_line(&chain)).unwrap();
        }
        return Ok(out);
    }
    writeln!(
        out,
        "{admitted} flows admitted before saturation; {} rejection diagnoses",
        diagnoses.len()
    )
    .unwrap();
    if diagnoses.is_empty() {
        return Ok(out);
    }
    writeln!(
        out,
        "{:<10} {:>4} {:>5} {:<13} {:>5} {:>13} {:>13} {:>7} {:>12}  stages",
        "class", "src", "dst", "verdict", "link", "reserved", "budget", "util", "headroom"
    )
    .unwrap();
    for d in &diagnoses {
        let kbps = |bps: f64| format!("{:.1} kb/s", bps / 1e3);
        let [link, reserved, budget, util, headroom] = match d.link() {
            Some((server, [reserved, budget, util, headroom])) => [
                server.to_string(),
                kbps(reserved),
                kbps(budget),
                format!("{:.1}%", util * 100.0),
                kbps(headroom),
            ],
            None => ["-"; 5].map(String::from),
        };
        let stages = d
            .stages(&chain)
            .iter()
            .map(|(name, verdict)| format!("{name}={verdict}"))
            .collect::<Vec<_>>()
            .join(",");
        writeln!(
            out,
            "{:<10} {:>4} {:>5} {:<13} {:>5} {:>13} {:>13} {:>7} {:>12}  {}",
            sc.classes.get(d.class).name,
            d.src.0,
            d.dst.0,
            d.verdict(),
            link,
            reserved,
            budget,
            util,
            headroom,
            stages,
        )
        .unwrap();
    }
    Ok(out)
}

/// One `explain` row: a (class, pair)'s first rejection as the decision
/// returned it, with the route it was decided on (empty on `NoRoute`)
/// and the class's per-flow rate, bits/s.
struct Diagnosis {
    class: ClassId,
    src: NodeId,
    dst: NodeId,
    path: Vec<u32>,
    rate: f64,
    reject: Reject,
}

impl Diagnosis {
    fn verdict(&self) -> &'static str {
        match self.reject {
            Reject::NoRoute => "no_route",
            Reject::LinkFull { .. } => "link_full",
            Reject::Policy { .. } => "policy_reject",
        }
    }

    /// The full link, with the class's reserved rate, budget,
    /// utilization (reserved ÷ budget, `0.0` on a zero budget) and
    /// headroom there, bits/s: only a `LinkFull` decision walked the
    /// links.
    fn link(&self) -> Option<(u32, [f64; 4])> {
        let Reject::LinkFull {
            server,
            reserved_bps: reserved,
            budget_bps: budget,
            ..
        } = self.reject
        else {
            return None;
        };
        let util = if budget > 0.0 { reserved / budget } else { 0.0 };
        Some((
            server,
            [reserved, budget, util, (budget - reserved).max(0.0)],
        ))
    }

    /// What the decision did at each stage of `chain` and then at the
    /// terminal `utilization` stage: the stages before the one that
    /// rejected passed, and the ones after it were never asked. A flow
    /// with no route was asked nothing.
    fn stages(&self, chain: &[&'static str]) -> Vec<(&'static str, &'static str)> {
        let rejecting = match self.reject {
            Reject::NoRoute => None,
            Reject::Policy { stage, .. } => chain.iter().position(|&s| s == stage),
            Reject::LinkFull { .. } => Some(chain.len()),
        };
        chain
            .iter()
            .copied()
            .chain(["utilization"])
            .enumerate()
            .map(|(i, name)| {
                let verdict = match rejecting.map(|r| i.cmp(&r)) {
                    Some(Ordering::Less) => "pass",
                    Some(Ordering::Equal) => "reject",
                    Some(Ordering::Greater) | None => "skipped",
                };
                (name, verdict)
            })
            .collect()
    }

    /// One-line JSON rendering (workspace JSON-lines idiom). Without a
    /// full link, `link` is `null` and the four link figures are `0.0`.
    fn to_json_line(&self, chain: &[&'static str]) -> String {
        let path = self
            .path
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let (link, [reserved, budget, util, headroom]) = self
            .link()
            .map_or(("null".into(), [0.0; 4]), |(server, figures)| {
                (server.to_string(), figures)
            });
        let stages = self
            .stages(chain)
            .iter()
            .map(|(name, verdict)| format!("{{\"stage\":\"{name}\",\"verdict\":\"{verdict}\"}}"))
            .collect::<Vec<_>>()
            .join(",");
        let rejected_stage = match self.reject {
            Reject::Policy { stage, .. } => format!("\"{stage}\""),
            Reject::NoRoute | Reject::LinkFull { .. } => "null".into(),
        };
        let num = uba::obs::json::number;
        format!(
            "{{\"class\":{},\"src\":{},\"dst\":{},\"verdict\":\"{}\",\"path\":[{path}],\
             \"flow_rate_bps\":{},\"link\":{link},\"reserved_bps\":{},\
             \"budget_bps\":{},\"utilization\":{},\"headroom_bps\":{},\
             \"stages\":[{stages}],\"rejected_stage\":{rejected_stage}}}",
            self.class.index(),
            self.src.0,
            self.dst.0,
            self.verdict(),
            num(self.rate),
            num(reserved),
            num(budget),
            num(util),
            num(headroom),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_scenario() -> Scenario {
        Scenario::from_str(
            r#"
            [topology]
            kind = "ring"
            n = 6
            [network]
            capacity = 1e6
            fan_in = 3
            [[class]]
            name = "voip"
            burst = 640
            rate = 32000
            deadline = 0.1
            alpha = 0.2
            "#,
        )
        .unwrap()
    }

    #[test]
    fn bounds_report() {
        let out = cmd_bounds(&ring_scenario()).unwrap();
        assert!(out.contains("diameter L = 3"));
        assert!(out.contains("alpha* in ["));
    }

    #[test]
    fn verify_report_safe() {
        let out = cmd_verify(&ring_scenario()).unwrap();
        assert!(out.contains("SUCCESS"), "{out}");
        assert!(out.contains("worst slack"));
    }

    #[test]
    fn verify_report_failure() {
        let mut sc = ring_scenario();
        sc.alphas = vec![0.99];
        let out = cmd_verify(&sc).unwrap();
        assert!(out.contains("FAILURE"), "{out}");
        // Two classes at α = 0.8 on one link sum past 1: the solve
        // refuses the parameters and computes no delay, so none is shown.
        let class = |name: &str| {
            format!(
                "[[class]]\nname = \"{name}\"\nburst = 640\nrate = 32000\n\
                 deadline = 0.1\nalpha = 0.8\n"
            )
        };
        let sc = Scenario::from_str(&format!(
            "[topology]\nkind = \"ring\"\nn = 4\n[network]\ncapacity = 1e6\n{}{}",
            class("voip"),
            class("voip2")
        ))
        .unwrap();
        let out = cmd_verify(&sc).unwrap();
        assert!(out.contains("FAILURE"), "{out}");
        assert!(out.contains("outcome: InvalidParams"), "{out}");
        assert!(!out.contains("worst slack"), "{out}");
        assert!(!out.contains("worst per-server delay"), "{out}");
    }

    #[test]
    fn maximize_both_selectors() {
        let sc = ring_scenario();
        for sel in ["sp", "heuristic"] {
            let out = cmd_maximize(&sc, sel).unwrap();
            assert!(out.contains("maximum safe utilization"), "{out}");
        }
        let unknown = cmd_maximize(&sc, "magic").unwrap_err();
        assert!(
            unknown.to_string().contains("unknown selector"),
            "{unknown:?}"
        );
    }

    #[test]
    fn maximize_multiclass_uses_ray() {
        let sc = Scenario::from_str(
            r#"
            [topology]
            kind = "ring"
            n = 5
            [network]
            fan_in = 3
            [[class]]
            name = "voip"
            burst = 640
            rate = 32000
            deadline = 0.1
            alpha = 0.5
            [[class]]
            name = "video"
            burst = 64000
            rate = 2e6
            deadline = 0.3
            alpha = 1.0
            [pairs]
            mode = "all"
            step = 2
            "#,
        )
        .unwrap();
        let out = cmd_maximize(&sc, "heuristic").unwrap();
        assert!(out.contains("maximum safe scale"), "{out}");
        assert!(out.contains("class voip"));
        assert!(out.contains("class video"));
        // The selector is validated before the class count is looked at,
        // and the ray search has only the heuristic.
        let unknown = cmd_maximize(&sc, "magic").unwrap_err();
        assert!(
            unknown.to_string().contains("unknown selector"),
            "{unknown:?}"
        );
        let sp = cmd_maximize(&sc, "sp").unwrap_err();
        assert!(sp.to_string().contains("'heuristic'"), "{sp:?}");
    }

    #[test]
    fn simulate_respects_bound() {
        let out = cmd_simulate(&ring_scenario(), 0.2).unwrap();
        assert!(out.contains("deadline misses: 0"), "{out}");
    }

    #[test]
    fn metrics_report_surfaces_rejection_and_registry() {
        let out = cmd_metrics(&ring_scenario(), false).unwrap();
        // Saturation must hit a link-full rejection on a finite ring and
        // surface the class + observed-vs-budget utilization.
        assert!(out.contains("first rejection at server"), "{out}");
        assert!(out.contains("% of budget"), "{out}");
        // The solver's sweep-economy counters are summarized and dumped.
        assert!(out.contains("solver sweep economy"), "{out}");
        assert!(out.contains("delay.solve.sweeps_skipped"), "{out}");
        assert!(out.contains("delay.solve.servers_touched"), "{out}");
        // So is the configuration side: one heuristic selection.
        assert!(out.contains("route selection: SUCCESS"), "{out}");
        assert!(out.contains(" pruned unsolved, "), "{out}");
        assert!(out.contains("routing.select.candidates"), "{out}");
        assert!(out.contains("routing.select.pruned"), "{out}");
        // The registry dump includes all three instrumented layers.
        assert!(out.contains("admission.admits"), "{out}");
        assert!(out.contains("delay.solve.iterations"), "{out}");
        assert!(out.contains("sim.queue_depth"), "{out}");
        // ... plus the SLO engine.
        assert!(out.contains("rules evaluated"), "{out}");
        assert!(out.contains("slo.deadline_miss_ratio.state"), "{out}");
    }

    #[test]
    fn metrics_report_json_mode_parses_back() {
        let out = cmd_metrics(&ring_scenario(), true).unwrap();
        let json_tail: Vec<&str> = out.lines().filter(|l| l.starts_with('{')).collect();
        assert!(!json_tail.is_empty(), "{out}");
        for line in json_tail {
            uba::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
    }

    #[test]
    fn explain_diagnoses_saturated_link_deterministically() {
        let sc = ring_scenario();
        let out = cmd_explain(&sc, false).unwrap();
        assert!(out.contains("flows admitted before saturation"), "{out}");
        assert!(out.contains("link_full"), "{out}");
        assert!(out.contains("kb/s"), "{out}");
        // alpha 0.2 on 1 Mb/s = 200 kb/s budget; 6 voip flows (192 kb/s)
        // fill it — the 8 kb/s headroom cannot fit a 7th 32 kb/s flow.
        assert!(out.contains("96.0%"), "{out}");
        assert!(out.contains("8.0 kb/s"), "{out}");
        // The replay has no randomness: byte-identical across runs.
        assert_eq!(out, cmd_explain(&sc, false).unwrap());
    }

    #[test]
    fn explain_on_oversubscribed_mci_names_saturated_link() {
        // The default scenario is the paper's MCI backbone; at a low
        // alpha the pair list over-subscribes it quickly.
        let sc = Scenario::from_str(
            r#"
            [network]
            capacity = 1e6
            [pairs]
            mode = "all"
            step = 8
            "#,
        )
        .unwrap();
        let out = cmd_explain(&sc, true).unwrap();
        assert_eq!(
            out,
            cmd_explain(&sc, true).unwrap(),
            "must be deterministic"
        );
        let mut saw_link_full = false;
        for line in out.lines() {
            let v = uba::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            use uba::obs::json::JsonValue;
            if v.get("verdict").and_then(JsonValue::as_str) == Some("link_full") {
                saw_link_full = true;
                // The diagnosis names a concrete link with observed and
                // budgeted utilization for the rejected class.
                assert!(
                    v.get("link").and_then(JsonValue::as_number).is_some(),
                    "{line}"
                );
                let reserved = v
                    .get("reserved_bps")
                    .and_then(JsonValue::as_number)
                    .unwrap();
                let budget = v.get("budget_bps").and_then(JsonValue::as_number).unwrap();
                assert!(budget > 0.0 && reserved <= budget, "{line}");
                let rate = v
                    .get("flow_rate_bps")
                    .and_then(JsonValue::as_number)
                    .unwrap();
                assert!(
                    budget - reserved < rate,
                    "headroom must not fit the flow: {line}"
                );
            }
        }
        assert!(saw_link_full, "{out}");
    }

    /// Two classes routed over one pair, and the second over another too:
    /// each command asks each class only for the pairs it has a route on.
    #[test]
    fn a_two_class_witness_is_served_on_its_own_routes() {
        let sc = Scenario::from_str(
            r#"
            [topology]
            kind = "ring"
            n = 6
            [network]
            capacity = 1e6
            fan_in = 3
            [[class]]
            name = "voip"
            burst = 640
            rate = 32000
            deadline = 0.1
            alpha = 0.1
            [[class]]
            name = "video"
            burst = 640
            rate = 32000
            deadline = 0.2
            alpha = 0.1
            [[route]]
            class = 0
            routers = [0, 1, 2]
            [[route]]
            class = 1
            routers = [0, 1, 2]
            [[route]]
            class = 1
            routers = [3, 4]
            "#,
        )
        .unwrap();
        assert_eq!(sc.pairs.len(), 2);
        let out = cmd_verify(&sc).unwrap();
        assert!(out.contains("verification: SUCCESS"), "{out}");
        // One first rejection per routed (class, pair), each a full link.
        let out = cmd_explain(&sc, true).unwrap();
        let verdicts: Vec<_> = (out.lines())
            .map(|line| {
                let v = uba::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                let verdict = v.get("verdict").and_then(uba::obs::json::JsonValue::as_str);
                verdict.unwrap().to_string()
            })
            .collect();
        assert_eq!(verdicts, ["link_full"; 3], "{out}");
        let out = cmd_maximize(&sc, "heuristic").unwrap();
        assert!(out.contains("routes committed: 3"), "{out}");
    }

    #[test]
    fn explain_renders_policy_stage_verdicts() {
        let adaptive = Scenario::from_str(
            r#"
            [topology]
            kind = "ring"
            n = 6
            [network]
            capacity = 1e6
            fan_in = 3
            [[class]]
            name = "voip"
            burst = 640
            rate = 32000
            deadline = 0.1
            alpha = 0.2
            [policy]
            chain = "adaptive"
            bucket_rate_bps = 0.001
            bucket_burst_bits = 64000
            "#,
        )
        .unwrap();
        // Depth 64 kbit at 32 kb/s per flow = two token-bucket admits;
        // the ~non-refilling rate pins the bucket empty afterwards. The
        // decision stopped at the bucket: AIMD and the links were never
        // asked, and no link was walked.
        let out = cmd_explain(&adaptive, false).unwrap();
        assert!(out.starts_with("2 flows admitted"), "{out}");
        assert!(out.contains("policy_reject"), "{out}");
        assert!(
            out.contains("token_bucket=reject,aimd=skipped,utilization=skipped"),
            "{out}"
        );
        assert!(!out.contains("kb/s"), "{out}");

        // The JSON key contract, on both verdicts the replays reach.
        use uba::obs::json::JsonValue;
        const KEYS: [&str; 13] = [
            "class",
            "src",
            "dst",
            "verdict",
            "path",
            "flow_rate_bps",
            "link",
            "reserved_bps",
            "budget_bps",
            "utilization",
            "headroom_bps",
            "stages",
            "rejected_stage",
        ];
        let parse = |toml: &str| Scenario::from_str(toml).unwrap();
        let (mut link_full, mut policy_reject) = (0, 0);
        for sc in [
            parse(include_str!("../scenarios/ring_small.toml")),
            parse(include_str!("../scenarios/ring_policy.toml")),
            adaptive,
        ] {
            let js = cmd_explain(&sc, true).unwrap();
            assert!(!js.is_empty());
            for line in js.lines() {
                let v = uba::obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
                let mut sorted = KEYS;
                sorted.sort_unstable();
                assert_eq!(keys, sorted, "{line}");
                let at: Vec<usize> = KEYS
                    .iter()
                    .map(|k| line.find(&format!("\"{k}\":")).unwrap())
                    .collect();
                assert!(at.windows(2).all(|w| w[0] < w[1]), "key order: {line}");
                let num = |k: &str| v.get(k).and_then(JsonValue::as_number).unwrap();
                let Some(JsonValue::Array(path)) = v.get("path") else {
                    panic!("path: {line}")
                };
                let Some(JsonValue::Array(stages)) = v.get("stages") else {
                    panic!("stages: {line}")
                };
                fn stage<'a>(s: &'a JsonValue, k: &str) -> &'a str {
                    s.get(k).and_then(JsonValue::as_str).unwrap()
                }
                match v.get("verdict").and_then(JsonValue::as_str) {
                    Some("link_full") => {
                        link_full += 1;
                        let link = v.get("link").unwrap();
                        assert!(path.contains(link), "{line}");
                        assert!(
                            num("budget_bps") - num("reserved_bps") < num("flow_rate_bps"),
                            "headroom must not fit the flow: {line}"
                        );
                        assert_eq!(v.get("rejected_stage"), Some(&JsonValue::Null), "{line}");
                        let (last, before) = stages.split_last().unwrap();
                        assert_eq!(stage(last, "stage"), "utilization", "{line}");
                        assert_eq!(stage(last, "verdict"), "reject", "{line}");
                        assert!(
                            before.iter().all(|s| stage(s, "verdict") == "pass"),
                            "{line}"
                        );
                    }
                    Some("policy_reject") => {
                        policy_reject += 1;
                        assert_eq!(v.get("link"), Some(&JsonValue::Null), "{line}");
                        let rejected = v.get("rejected_stage").and_then(JsonValue::as_str).unwrap();
                        let i = stages
                            .iter()
                            .position(|s| stage(s, "stage") == rejected)
                            .unwrap_or_else(|| panic!("{rejected} not in stages: {line}"));
                        assert_eq!(stage(&stages[i], "verdict"), "reject", "{line}");
                        assert!(
                            stages[..i].iter().all(|s| stage(s, "verdict") == "pass"),
                            "{line}"
                        );
                        assert!(
                            stages[i + 1..]
                                .iter()
                                .all(|s| stage(s, "verdict") == "skipped"),
                            "{line}"
                        );
                    }
                    _ => panic!("unexpected verdict: {line}"),
                }
            }
        }
        assert!(
            link_full > 0 && policy_reject > 0,
            "{link_full} / {policy_reject}"
        );
    }

    #[test]
    fn reconfigure_widened_budget_keeps_every_flow() {
        let old = ring_scenario();
        let mut new = ring_scenario();
        new.alphas = vec![0.4]; // double every link budget
        let out = cmd_reconfigure(&old, &new, false).unwrap();
        assert!(out.contains("reconfigure: generation"), "{out}");
        assert!(out.contains("stranded (route gone):  0"), "{out}");
        // alpha 0.2 -> 0.4 on 12 ring links of 1 Mb/s: +2400 kb/s.
        assert!(
            out.contains("total class budget delta: +2400.0 kb/s"),
            "{out}"
        );
        assert!(out.contains("drained after release: true"), "{out}");
    }

    #[test]
    fn reconfigure_reports_stranded_flows_and_json_parses() {
        let scenario_with_pairs = |pairs: &str| {
            Scenario::from_str(&format!(
                r#"
                [topology]
                kind = "ring"
                n = 6
                [network]
                capacity = 1e6
                fan_in = 3
                [[class]]
                name = "voip"
                burst = 640
                rate = 32000
                deadline = 0.1
                alpha = 0.2
                [pairs]
                mode = "list"
                list = [{pairs}]
                "#
            ))
            .unwrap()
        };
        let old = scenario_with_pairs("\"0-2\", \"1-3\"");
        let new = scenario_with_pairs("\"0-2\"");
        let out = cmd_reconfigure(&old, &new, true).unwrap();
        let v = uba::obs::json::parse(out.trim()).unwrap_or_else(|e| panic!("{e}: {out}"));
        use uba::obs::json::JsonValue;
        let num = |k: &str| v.get(k).and_then(JsonValue::as_number).unwrap();
        assert!(num("generation") > num("previous"));
        let admitted = num("admitted");
        assert!(admitted > 0.0);
        assert_eq!(num("kept") + num("stranded"), admitted);
        assert!(num("stranded") > 0.0, "pair 1-3 lost its route: {out}");
        assert_eq!(num("pinned_previous"), admitted);
        assert_eq!(num("headroom_delta_bps"), 0.0);
        assert_eq!(v.get("drained"), Some(&JsonValue::Bool(true)));
        // The rehearsal is deterministic (generation ids are
        // process-global and monotone, so compare everything else).
        let out2 = cmd_reconfigure(&old, &new, true).unwrap();
        let v2 = uba::obs::json::parse(out2.trim()).unwrap();
        let num2 = |k: &str| v2.get(k).and_then(JsonValue::as_number).unwrap();
        for k in [
            "admitted",
            "kept",
            "stranded",
            "pinned_previous",
            "headroom_delta_bps",
        ] {
            assert_eq!(num(k), num2(k), "field {k}: {out} vs {out2}");
        }
    }

    #[test]
    fn simulate_rejects_a_bad_horizon() {
        for bad in [f64::INFINITY, f64::NAN, -0.1] {
            let err = cmd_simulate(&ring_scenario(), bad).unwrap_err();
            assert!(err.to_string().contains("horizon"), "{bad}: {err}");
        }
    }

    #[test]
    fn simulate_rejects_unsafe_alpha() {
        let mut sc = ring_scenario();
        sc.alphas = vec![0.99];
        assert!(cmd_simulate(&sc, 0.1).is_err());
    }
}
