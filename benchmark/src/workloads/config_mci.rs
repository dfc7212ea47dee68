//! `config_mci` — configuration time, the paper's offline half.
//!
//! op = one full configuration pass from text: parse the scenario →
//! heuristic α\* search over a seed-chosen 338 of MCI's 342 ordered pairs →
//! `Configuration` → verify → apply → install on a live, empty
//! controller. `routing`/`delay`/`graph` do nearly all of the work;
//! `admission` only takes the generation, `sim` none.

use super::{generation, probe_delay, probe_graph, probe_metrics, registry_sum, seeded_subset};
use crate::harness::{Metrics, Recorder, Workload};
use crate::spans::Spans;
use std::time::Instant;
use uba::admission::{AdmissionController, BackendKind};
use uba::obs::{Snapshot, SplitMix64};
use uba::prelude::*;
use uba::routing::reconfigure::Configuration;
use uba_cli::Scenario;

const SCENARIO: &str = include_str!("../../scenarios/config_mci.toml");
/// Pairs kept of MCI's 342. Which four are dropped changes every solver
/// count but, for seeds 1..10, not α\* (0.5416) and so not which probes
/// fail: pass time stays within noise across seeds. A 90 % subset moved
/// α\* between 0.527 and 0.566 and pass time by ±15 % with the seed,
/// more than the regression bound.
const PAIRS_KEPT: usize = 338;
const PASSES_PER_ROUND: u64 = 10;
const SEARCH_TOL: f64 = 0.005;

pub struct ConfigMci {
    pairs: Vec<Pair>,
    ctrl: AdmissionController,
    /// α\* of the first pass ever run, as bits.
    reference_alpha: Option<u64>,
    /// Bisection probes of the latest pass.
    search_probes: usize,
}

/// What one pass produced, for the check and the counts.
struct Pass {
    alpha: f64,
    bounds: (f64, f64),
    verified: bool,
    probes: usize,
}

/// A pass is correct when the installed configuration verifies, α\*
/// lies in Theorem 4's window, and α\* repeats bit for bit.
fn pass_ok(pass: &Pass, reference_alpha: u64) -> bool {
    pass.verified
        && pass.bounds.0 <= pass.alpha
        && pass.alpha <= pass.bounds.1
        && pass.alpha.to_bits() == reference_alpha
}

impl ConfigMci {
    fn pass(&self, spans: &mut Spans) -> Pass {
        let sc = spans.time("cli.scenario_parse", || {
            Scenario::from_str(SCENARIO).expect("scenario parses")
        });
        let (_, class) = sc.classes.iter().next().expect("one class");
        let class = class.clone();

        let found = spans.time("routing.max_utilization", || {
            max_utilization(
                &sc.graph,
                &sc.servers,
                &class,
                &self.pairs,
                &Selector::Heuristic(HeuristicConfig::default()),
                SEARCH_TOL,
            )
        });
        let selection = found.selection.expect("Theorem 4's lower bound is safe");

        let cfg = spans.time("routing.from_selection", || {
            Configuration::from_selection(
                sc.graph,
                sc.servers,
                class,
                found.alpha,
                HeuristicConfig::default(),
                selection,
            )
        });
        let verified = spans.time("routing.verify", || cfg.verify());
        let generation = spans.time("routing.apply", || cfg.apply(BackendKind::Atomic));
        spans.time("admission.reconfigure", || {
            self.ctrl.reconfigure(generation)
        });
        Pass {
            alpha: found.alpha,
            bounds: found.bounds,
            verified,
            probes: found.probes.len(),
        }
    }
}

impl Workload for ConfigMci {
    fn set_up(seed: u64, spans: &mut Spans) -> Self {
        let s = spans.enter("setup.configure");
        let sc = Scenario::from_str(SCENARIO).expect("scenario parses");
        let pairs = seeded_subset(&sc.pairs, PAIRS_KEPT, &mut SplitMix64::new(seed));
        spans.exit(s);
        // Live and empty: no routes, no flows.
        let ctrl = spans.time("setup.build", || {
            AdmissionController::from_generation(generation(&sc, &[]))
        });
        Self {
            pairs,
            ctrl,
            reference_alpha: None,
            search_probes: 0,
        }
    }

    fn ops_per_round(&self) -> u64 {
        PASSES_PER_ROUND
    }

    fn round(&mut self, rec: &mut Recorder) {
        for _ in 0..PASSES_PER_ROUND {
            let t0 = Instant::now();
            let s = rec.spans.enter("harness.pass");
            let pass = self.pass(&mut rec.spans);
            rec.spans.exit(s);
            rec.unit(t0.elapsed().as_nanos() as u64, 1);
            let reference = *self.reference_alpha.get_or_insert(pass.alpha.to_bits());
            rec.check(1, pass_ok(&pass, reference));
            self.search_probes = pass.probes;
        }
    }

    fn probes(&mut self, rec: &mut Recorder) {
        let sc = Scenario::from_str(SCENARIO).expect("scenario parses");
        let (_, class) = sc.classes.iter().next().expect("one class");
        let alpha = f64::from_bits(self.reference_alpha.expect("rounds ran"));
        let mut routes = RouteSet::new(sc.graph.edge_count());
        for _ in 0..5 {
            let selection = rec.spans.time("routing.select_routes", || {
                select_routes(
                    &sc.graph,
                    &sc.servers,
                    class,
                    alpha,
                    &self.pairs,
                    &HeuristicConfig::default(),
                )
            });
            routes = selection.expect("alpha* is feasible").routes;
        }
        probe_graph(rec, &sc.graph, &self.pairs);
        probe_delay(rec, &sc.servers, &sc.classes, alpha, &routes);
    }

    fn layer_metrics(&self, rec: &Recorder, registry: &Snapshot, out: &mut Metrics) {
        let us = |name: &str| rec.span_median_ns(name) / 1e3;
        out.insert("cli.scenario_parse_us", us("cli.scenario_parse"));
        out.insert(
            "routing.max_utilization_ms",
            us("routing.max_utilization") / 1e3,
        );
        out.insert(
            "routing.select_routes_ms",
            us("routing.select_routes") / 1e3,
        );
        out.insert("routing.from_selection_us", us("routing.from_selection"));
        out.insert("routing.verify_us", us("routing.verify"));
        out.insert("routing.apply_us", us("routing.apply"));
        out.insert("admission.reconfigure_us", us("admission.reconfigure"));
        out.insert("routing.probes", self.search_probes as f64);
        probe_metrics(rec, out);
        // Per pass: the window is one traced round.
        let per_pass = |name: &str| registry_sum(registry, name) / PASSES_PER_ROUND as f64;
        out.insert("delay.solve_iterations", per_pass("delay.solve.iterations"));
        out.insert(
            "delay.servers_touched",
            per_pass("delay.solve.servers_touched"),
        );
        out.insert(
            "delay.sweeps_skipped",
            per_pass("delay.solve.sweeps_skipped"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_check_rejects_each_broken_property() {
        let good = Pass {
            alpha: 0.4,
            bounds: (0.3, 0.6),
            verified: true,
            probes: 7,
        };
        assert!(pass_ok(&good, 0.4f64.to_bits()));
        assert!(!pass_ok(&good, 0.41f64.to_bits()));
        assert!(!pass_ok(
            &Pass {
                verified: false,
                ..good
            },
            0.4f64.to_bits()
        ));
        assert!(!pass_ok(&Pass { alpha: 0.7, ..good }, 0.7f64.to_bits()));
    }
}
