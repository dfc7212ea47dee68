//! `serve_loop_mci` — what `uba-cli serve` does between requests, in
//! process and on a virtual clock.
//!
//! Every tick offers a burst of flows for one pair through
//! `try_admit_batch_at`, with the decision time taken from the trace
//! (never the process clock, so decisions are seed-exact). After every
//! window of ticks the loop refreshes gauges, flushes metrics, snapshots
//! the registry and evaluates the SLO rules; every 4th window it scrapes
//! (delta + Prometheus render) and drains the flight recorder; every
//! 16th it hot-reloads a fresh generation while flows are held.
//! op = one offered flow. The batch path, the policy chain, trace
//! emission, snapshot/render and the generation swap run only here.

use super::{
    generation, probe_delay, probe_graph, probe_metrics, registry_sum, route_set, Holdings,
};
use crate::harness::{Metrics, Recorder, Workload};
use crate::spans::Spans;
use crate::stats::{percentile, Fnv};
use std::time::Instant;
use uba::admission::{AdmissionController, FlowHandle, FlowSpec, Reject};
use uba::obs::{standard_rules, SloEngine, Snapshot, SplitMix64};
use uba::prelude::*;
use uba::traffic::BurstModel;
use uba_cli::Scenario;

const SCENARIO: &str = include_str!("../../scenarios/serve_loop_mci.toml");
const TICKS_PER_WINDOW: usize = 500;
/// Windows per round; a multiple of [`RELOAD_EVERY`].
const WINDOWS_PER_ROUND: usize = 528;
const SCRAPE_EVERY: usize = 4;
const RELOAD_EVERY: usize = 16;
/// Decision time advances by this much per tick, seconds.
const TICK_S: f64 = 1e-3;
/// Burst sizes as `serve`'s own churn draws them.
const BURST_MEAN: f64 = 8.0;
const BURST_CV: f64 = 2.5;
/// Mean holding time of a flow, ticks.
const MEAN_HOLD: f64 = 64.0;

/// One tick of the pre-generated trace. Its releases are
/// `releases[previous.rel_end..rel_end]` and the slots of its burst are
/// `burst_slots[previous.slot_end..slot_end]`.
struct Tick {
    rel_end: u32,
    slot_end: u32,
    pair: u32,
}

pub struct ServeTrace {
    ticks: Vec<Tick>,
    releases: Vec<u32>,
    burst_slots: Vec<u32>,
    slots: usize,
    max_burst: usize,
}

/// A round's worth of ticks. Every offered flow gets a slot and a
/// release tick whether or not it will be admitted, so the trace does
/// not depend on the program's decisions; flows still live after the
/// last tick are torn down by the round.
pub fn generate_trace(seed: u64, ticks: usize, pairs: usize) -> ServeTrace {
    let model = BurstModel::with_mean_cv(BURST_MEAN, BURST_CV);
    let mut rng = SplitMix64::new(seed);
    let mut held = Holdings::default();
    // Room for a quarter more than the mean offered load: the vectors
    // never regrow, and pages they do not reach are never touched, so
    // peak memory does not depend on where a doubling would have fallen.
    let flows = ticks * BURST_MEAN as usize * 5 / 4;
    let mut trace = ServeTrace {
        ticks: Vec::with_capacity(ticks),
        releases: Vec::with_capacity(flows),
        burst_slots: Vec::with_capacity(flows),
        slots: 0,
        max_burst: 0,
    };
    for tick in 0..ticks as u64 {
        held.release_due(tick, |slot| trace.releases.push(slot));
        let burst = model.sample(rng.range_f64(0.0, 1.0)).max(1) as usize;
        let pair = rng.index(pairs) as u32;
        for _ in 0..burst {
            let slot = held.hold(tick, MEAN_HOLD, &mut rng);
            trace.burst_slots.push(slot);
        }
        trace.max_burst = trace.max_burst.max(burst);
        trace.ticks.push(Tick {
            rel_end: trace.releases.len() as u32,
            slot_end: trace.burst_slots.len() as u32,
            pair,
        });
    }
    trace.slots = held.slots;
    trace
}

/// What one round decided and rendered.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundOutcome {
    pub digest: u64,
    pub offered: u64,
    pub reject_link_full: u64,
    pub reject_policy: u64,
    pub batches: u64,
    pub fallbacks: u64,
    pub single_flow_batches: u64,
    pub scrapes_ok: bool,
    pub render_bytes: u64,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub drained: bool,
    pub occupancy_zero: bool,
}

/// A round is correct when its decisions repeat the reference round's,
/// every scrape rendered the admission counters, the retired
/// generations drained, and teardown left no link occupied.
pub fn round_ok(outcome: &RoundOutcome, reference_digest: u64) -> bool {
    outcome.digest == reference_digest
        && outcome.scrapes_ok
        && outcome.drained
        && outcome.occupancy_zero
}

pub struct ServeLoopMci {
    sc: Scenario,
    paths: Vec<Path>,
    ctrl: AdmissionController,
    slo: SloEngine,
    trace: ServeTrace,
    /// `specs[pair]` is `max_burst` copies of the pair's request, so a
    /// burst of `n` is the slice `[..n]` and the loop builds nothing.
    specs: Vec<Vec<FlowSpec>>,
    slots: Vec<Option<FlowHandle>>,
    /// `try_admit_batch_at` time ÷ flows, per tick of the traced rounds.
    batch_ns_per_flow: Vec<f64>,
    batch_ns: f64,
    batch_flows: f64,
    reference_digest: Option<u64>,
    last: RoundOutcome,
}

impl Workload for ServeLoopMci {
    fn set_up(seed: u64, spans: &mut Spans) -> Self {
        let s = spans.enter("setup.configure");
        let sc = Scenario::from_str(SCENARIO).expect("scenario parses");
        let paths = sp_selection(&sc.graph, &sc.pairs).expect("MCI is connected");
        let routes = route_set(&sc.graph, &paths);
        let cfg = SolveConfig::default();
        let report = uba::delay::verify(&sc.servers, &sc.classes, &sc.alphas, &routes, &cfg);
        assert!(report.safe, "the scenario's alpha must verify");
        spans.exit(s);

        let s = spans.enter("setup.build");
        // As `serve` does: the flight recorder is on.
        uba::obs::trace::global().set_enabled(true);
        let ctrl = AdmissionController::from_generation(generation(&sc, &paths));
        let slo = SloEngine::new(uba::obs::global(), standard_rules(&sc.slo));
        spans.exit(s);

        let s = spans.enter("setup.tracegen");
        let trace = generate_trace(seed, WINDOWS_PER_ROUND * TICKS_PER_WINDOW, sc.pairs.len());
        let specs = sc
            .pairs
            .iter()
            .map(|p| {
                let spec = FlowSpec {
                    class: ClassId(0),
                    src: p.src,
                    dst: p.dst,
                };
                vec![spec; trace.max_burst]
            })
            .collect();
        let slots = (0..trace.slots).map(|_| None).collect();
        spans.exit(s);
        Self {
            sc,
            paths,
            ctrl,
            slo,
            trace,
            specs,
            slots,
            batch_ns_per_flow: Vec::new(),
            batch_ns: 0.0,
            batch_flows: 0.0,
            reference_digest: None,
            last: RoundOutcome::default(),
        }
    }

    fn ops_per_round(&self) -> u64 {
        self.trace.burst_slots.len() as u64
    }

    fn round(&mut self, rec: &mut Recorder) {
        let traced = rec.spans.enabled();
        if traced {
            self.batch_ns_per_flow.reserve(self.trace.ticks.len());
        }
        let mut out = RoundOutcome {
            scrapes_ok: true,
            ..RoundOutcome::default()
        };
        let mut digest = Fnv::new();

        // Fresh generation, t = 0: rounds are decision-identical.
        rec.spans.time("admission.reconfigure", || {
            self.ctrl.reconfigure(generation(&self.sc, &self.paths))
        });
        let mut last_scrape = uba::obs::global().snapshot();

        let (mut rel_start, mut slot_start) = (0usize, 0usize);
        for (w, window) in self.trace.ticks.chunks(TICKS_PER_WINDOW).enumerate() {
            let t0 = Instant::now();
            let flows_before = slot_start;
            let s = rec.spans.enter("admission.batch_window");
            for (i, tick) in window.iter().enumerate() {
                for &slot in &self.trace.releases[rel_start..tick.rel_end as usize] {
                    self.slots[slot as usize] = None;
                }
                rel_start = tick.rel_end as usize;
                let burst = &self.trace.burst_slots[slot_start..tick.slot_end as usize];
                slot_start = tick.slot_end as usize;
                let specs = &self.specs[tick.pair as usize][..burst.len()];
                let t = (w * TICKS_PER_WINDOW + i) as f64 * TICK_S;

                let t1 = traced.then(Instant::now);
                let decided = self.ctrl.try_admit_batch_at(specs, t);
                if let Some(t1) = t1 {
                    let ns = t1.elapsed().as_nanos() as f64;
                    self.batch_ns_per_flow.push(ns / burst.len() as f64);
                    self.batch_ns += ns;
                    self.batch_flows += burst.len() as f64;
                }

                out.batches += 1;
                out.fallbacks += !decided.fast_path as u64;
                out.single_flow_batches += (burst.len() == 1) as u64;
                for (flow, &slot) in decided.flows.into_iter().zip(burst) {
                    match flow {
                        Ok(handle) => {
                            digest.push(0);
                            self.slots[slot as usize] = Some(handle);
                        }
                        Err(Reject::LinkFull { .. }) => {
                            digest.push(1);
                            out.reject_link_full += 1;
                        }
                        Err(Reject::Policy { .. }) => {
                            digest.push(2);
                            out.reject_policy += 1;
                        }
                        Err(Reject::NoRoute) => digest.push(3),
                    }
                }
            }
            rec.spans.exit(s);

            rec.spans
                .time("admission.refresh_gauges", || self.ctrl.refresh_gauges());
            rec.spans.time("obs.flush", || self.ctrl.flush_metrics());
            let snapshot = rec
                .spans
                .time("obs.snapshot", || uba::obs::global().snapshot());

            if w % SCRAPE_EVERY == SCRAPE_EVERY - 1 {
                let delta = rec
                    .spans
                    .time("obs.delta", || snapshot.delta_since(&last_scrape));
                let text = rec
                    .spans
                    .time("obs.render_prometheus", || delta.render_prometheus());
                out.scrapes_ok &= text.contains("admission_admits");
                out.render_bytes = text.len() as u64;
                last_scrape = snapshot.clone();
                let drained = rec
                    .spans
                    .time("obs.trace_drain", || uba::obs::trace::global().drain());
                out.trace_events += drained.events.len() as u64;
                out.trace_dropped += drained.dropped;
            }

            rec.spans
                .time("obs.slo_evaluate", || self.slo.evaluate(snapshot));

            if w % RELOAD_EVERY == RELOAD_EVERY - 1 {
                // The write beside the reads: flows are held.
                let next = rec.spans.time("admission.generation_build", || {
                    generation(&self.sc, &self.paths)
                });
                rec.spans
                    .time("admission.reconfigure", || self.ctrl.reconfigure(next));
                rec.spans.time("admission.drain", || self.ctrl.drain());
            }
            rec.unit(
                t0.elapsed().as_nanos() as u64,
                (slot_start - flows_before) as u64,
            );
        }

        let s = rec.spans.enter("admission.teardown");
        self.slots.iter_mut().for_each(|slot| *slot = None);
        out.drained = self.ctrl.drain().is_drained();
        out.occupancy_zero = self
            .ctrl
            .occupancy_snapshot(ClassId(0))
            .iter()
            .all(|&o| o == 0.0);
        rec.spans.exit(s);

        out.digest = digest.0;
        out.offered = self.ops_per_round();
        let reference = *self.reference_digest.get_or_insert(out.digest);
        rec.check(out.offered, round_ok(&out, reference));
        self.last = out;
    }

    fn probes(&mut self, rec: &mut Recorder) {
        probe_graph(rec, &self.sc.graph, &self.sc.pairs);
        let routes = route_set(&self.sc.graph, &self.paths);
        probe_delay(
            rec,
            &self.sc.servers,
            &self.sc.classes,
            self.sc.alphas[0],
            &routes,
        );
    }

    fn layer_metrics(&self, rec: &Recorder, registry: &Snapshot, out: &mut Metrics) {
        probe_metrics(rec, out);
        let us = |name: &str| rec.span_median_ns(name) / 1e3;
        let last = &self.last;
        let rejects = last.reject_link_full + last.reject_policy;
        out.insert(
            "admission.reject_ratio",
            rejects as f64 / last.offered as f64,
        );
        out.insert("admission.reject_link_full", last.reject_link_full as f64);
        out.insert("admission.reject_policy", last.reject_policy as f64);
        out.insert(
            "admission.batch_ns_per_flow",
            self.batch_ns / self.batch_flows.max(1.0),
        );
        out.insert(
            "admission.batch_p99_ns_per_flow",
            percentile(&self.batch_ns_per_flow, 0.99),
        );
        out.insert(
            "admission.batches",
            registry_sum(registry, "admission.batches"),
        );
        out.insert(
            "admission.batch_fallbacks",
            registry_sum(registry, "admission.batch_fallbacks"),
        );
        out.insert(
            "admission.batch_size_1_share",
            last.single_flow_batches as f64 / last.batches as f64,
        );
        out.insert(
            "admission.generation_build_us",
            us("admission.generation_build"),
        );
        out.insert("admission.reconfigure_us", us("admission.reconfigure"));
        out.insert("admission.drain_us", us("admission.drain"));
        out.insert("obs.flush_us", us("obs.flush"));
        out.insert("obs.snapshot_us", us("obs.snapshot"));
        out.insert("obs.slo_evaluate_us", us("obs.slo_evaluate"));
        out.insert("obs.delta_us", us("obs.delta"));
        out.insert("obs.render_prometheus_us", us("obs.render_prometheus"));
        out.insert("obs.render_bytes", last.render_bytes as f64);
        out.insert("obs.trace_drain_us", us("obs.trace_drain"));
        out.insert("obs.trace_events", last.trace_events as f64);
        out.insert("obs.trace_dropped", last.trace_dropped as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_seed_deterministic_and_releases_only_what_it_offered() {
        let a = generate_trace(1, 4_000, 342);
        let b = generate_trace(1, 4_000, 342);
        let c = generate_trace(2, 4_000, 342);
        assert_eq!(a.burst_slots, b.burst_slots);
        assert_eq!(a.releases, b.releases);
        assert_ne!(a.burst_slots, c.burst_slots);

        let mut live = vec![false; a.slots];
        let (mut rel, mut slot) = (0usize, 0usize);
        for tick in &a.ticks {
            for &s in &a.releases[rel..tick.rel_end as usize] {
                assert!(live[s as usize], "release of a slot that holds nothing");
                live[s as usize] = false;
            }
            rel = tick.rel_end as usize;
            let burst = &a.burst_slots[slot..tick.slot_end as usize];
            assert!(!burst.is_empty() && burst.len() <= a.max_burst);
            for &s in burst {
                assert!(!live[s as usize], "offer into an occupied slot");
                live[s as usize] = true;
            }
            slot = tick.slot_end as usize;
        }
        // Mean burst is 8: the offered load is input-determined.
        let mean = a.burst_slots.len() as f64 / a.ticks.len() as f64;
        assert!((mean - BURST_MEAN).abs() < 1.5, "mean burst {mean}");
    }

    #[test]
    fn round_check_fails_on_each_broken_property() {
        let good = RoundOutcome {
            digest: 9,
            scrapes_ok: true,
            drained: true,
            occupancy_zero: true,
            ..RoundOutcome::default()
        };
        assert!(round_ok(&good, 9));
        assert!(!round_ok(&good, 8));
        assert!(!round_ok(
            &RoundOutcome {
                scrapes_ok: false,
                ..good
            },
            9
        ));
        assert!(!round_ok(
            &RoundOutcome {
                drained: false,
                ..good
            },
            9
        ));
        assert!(!round_ok(
            &RoundOutcome {
                occupancy_zero: false,
                ..good
            },
            9
        ));
    }
}
