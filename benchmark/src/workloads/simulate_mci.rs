//! `simulate_mci` — verification: the packet simulator as referee.
//!
//! The `validate_sim` setting: MCI at C = 2 Mb/s, α = 0.30, SP routes,
//! greedy fill to the admission limit, worst-case VoIP sources (a
//! seed-chosen half of them phase-shifted), 3 s horizon, static
//! priority. op = one packet delivered end to end — fixed by the inputs,
//! unlike events, so a change that removes events cannot lower the
//! score. `sim` does the work; `delay` one solve in set-up; `admission`
//! none.

use super::{probe_delay, probe_graph, probe_metrics, route_set};
use crate::harness::{Metrics, Recorder, Workload};
use crate::spans::Spans;
use crate::stats::median;
use std::time::Instant;
use uba::obs::{Snapshot, SplitMix64};
use uba::prelude::*;
use uba::sim::{simulate, FlowSpec, SimConfig, SimReport, SourceModel};
use uba_cli::Scenario;

const SCENARIO: &str = include_str!("../../scenarios/simulate_mci.toml");
const HORIZON_S: f64 = 3.0;
const SIMULATIONS_PER_ROUND: usize = 7;
/// Shifted sources start inside one packet period.
const MAX_PHASE_S: f64 = 0.02;

/// A simulation is correct when no packet missed its deadline, the
/// worst simulated delay respects the analytic bound (the paper's
/// guarantee), and the packet count is the inputs'.
pub fn simulation_ok(report: &SimReport, bound_s: f64, reference_packets: u64) -> bool {
    report.total_misses() == 0
        && report.max_delay() <= bound_s
        && report.total_packets == reference_packets
}

pub struct SimulateMci {
    sc: Scenario,
    routes: RouteSet,
    caps: Vec<f64>,
    flows: Vec<FlowSpec>,
    cfg: SimConfig,
    /// Worst route delay of the set-up solve, seconds.
    bound_s: f64,
    reference_packets: Option<u64>,
    last: Option<SimReport>,
}

impl Workload for SimulateMci {
    fn set_up(seed: u64, spans: &mut Spans) -> Self {
        let s = spans.enter("setup.configure");
        let sc = Scenario::from_str(SCENARIO).expect("scenario parses");
        let (_, class) = sc.classes.iter().next().expect("one class");
        let alpha = sc.alphas[0];
        let paths = sp_selection(&sc.graph, &sc.pairs).expect("MCI is connected");
        let routes = route_set(&sc.graph, &paths);
        let solved = solve_two_class(
            &sc.servers,
            class,
            alpha,
            &routes,
            &SolveConfig::default(),
            None,
        );
        assert!(solved.outcome.is_safe(), "the scenario's alpha must verify");
        let bound_s = solved.route_delays.iter().cloned().fold(0.0, f64::max);
        spans.exit(s);

        // Greedy fill to the admission limit: keep adding one flow per
        // pair while every link of its route has alpha*C headroom.
        let s = spans.enter("setup.prefill");
        let caps: Vec<f64> = (0..sc.servers.len())
            .map(|k| sc.servers.capacity_at(k))
            .collect();
        let rate = class.bucket.rate;
        let mut reserved = vec![0.0f64; caps.len()];
        let mut admitted: Vec<usize> = Vec::new();
        let mut progress = true;
        while progress {
            progress = false;
            for (i, path) in paths.iter().enumerate() {
                let fits = path
                    .edges
                    .iter()
                    .all(|e| reserved[e.index()] + rate <= alpha * caps[e.index()] + 1e-9);
                if fits {
                    for e in &path.edges {
                        reserved[e.index()] += rate;
                    }
                    admitted.push(i);
                    progress = true;
                }
            }
        }
        spans.exit(s);

        // A seed-chosen half of the sources start inside [0, 20 ms);
        // the rest stay synchronized at 0, the adversarial case.
        let s = spans.enter("setup.tracegen");
        let mut rng = SplitMix64::new(seed);
        let flows: Vec<FlowSpec> = admitted
            .iter()
            .map(|&i| {
                let shifted = rng.next_u64() & 1 == 1;
                let start = if shifted {
                    rng.range_f64(0.0, MAX_PHASE_S)
                } else {
                    0.0
                };
                FlowSpec {
                    class: 0,
                    ingress: sc.pairs[i].src.0,
                    route: paths[i].edges.iter().map(|e| e.0).collect(),
                    source: SourceModel::voip_greedy(start),
                }
            })
            .collect();
        let cfg = SimConfig::new(HORIZON_S, vec![class.deadline]);
        spans.exit(s);
        Self {
            sc,
            routes,
            caps,
            flows,
            cfg,
            bound_s,
            reference_packets: None,
            last: None,
        }
    }

    fn ops_per_round(&self) -> u64 {
        SIMULATIONS_PER_ROUND as u64 * self.reference_packets.expect("warm-up ran")
    }

    fn round(&mut self, rec: &mut Recorder) {
        for _ in 0..SIMULATIONS_PER_ROUND {
            let t0 = Instant::now();
            let report = rec.spans.time("sim.simulate", || {
                simulate(&self.caps, &self.flows, &self.cfg)
            });
            let ns = t0.elapsed().as_nanos() as u64;
            let reference = *self.reference_packets.get_or_insert(report.total_packets);
            rec.unit(ns, reference);
            rec.check(reference, simulation_ok(&report, self.bound_s, reference));
            if rec.spans.enabled() {
                rec.sample("sim.ns_per_event", ns as f64 / report.events as f64);
            }
            self.last = Some(report);
        }
    }

    fn probes(&mut self, rec: &mut Recorder) {
        probe_graph(rec, &self.sc.graph, &self.sc.pairs);
        probe_delay(
            rec,
            &self.sc.servers,
            &self.sc.classes,
            self.sc.alphas[0],
            &self.routes,
        );
    }

    fn layer_metrics(&self, rec: &Recorder, _registry: &Snapshot, out: &mut Metrics) {
        probe_metrics(rec, out);
        let last = self.last.as_ref().expect("rounds ran");
        let ns_per_event = median(rec.samples("sim.ns_per_event"));
        out.insert("sim.ns_per_event", ns_per_event);
        out.insert("sim.events_per_s", 1e9 / ns_per_event);
        out.insert("sim.events", last.events as f64);
        out.insert("sim.packets", last.total_packets as f64);
        out.insert("sim.peak_backlog", last.peak_backlog as f64);
        out.insert("sim.max_delay_over_bound", last.max_delay() / self.bound_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Recorder;

    /// The `fail_ratio` path fires: the real simulation against a bound
    /// of 0 fails every packet of every simulation.
    #[test]
    fn a_bound_of_zero_fails_every_op() {
        let mut w = SimulateMci::set_up(1, &mut Spans::new(Instant::now()));
        // A short horizon keeps the test quick; the check is the same.
        w.cfg = SimConfig::new(0.1, w.cfg.deadlines.clone());
        let mut rec = Recorder::new(Instant::now());
        w.round(&mut rec);
        assert!(rec.attempted > 0);
        assert_eq!(rec.failed, 0, "the guarantee holds");
        assert!(w.last.as_ref().unwrap().max_delay() <= w.bound_s);

        w.bound_s = 0.0;
        let mut rec = Recorder::new(Instant::now());
        w.round(&mut rec);
        assert_eq!(rec.failed, rec.attempted);
        assert_ne!(crate::exit_code(&rec), 0);
    }
}
