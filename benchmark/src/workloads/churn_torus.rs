//! `churn_torus` — run time, the paper's online half.
//!
//! An 8×8 torus with all 4 032 ordered pairs on shortest-path routes.
//! Set-up generates a flat trace of `Admit(pair, slot)` / `Release(slot)`
//! requests; the timed loop only replays it (`try_admit`, or drop the
//! handle). op = one request. `admission` does the work; `routing` and
//! `delay` run only in set-up, `sim` and `obs` rendering never.

use super::{generation, probe_delay, probe_graph, probe_metrics, route_set, Holdings};
use crate::harness::{Metrics, Recorder, Workload};
use crate::spans::Spans;
use crate::stats::{median, percentile, Fnv};
use std::hint::black_box;
use std::time::Instant;
use uba::admission::{AdmissionController, FlowHandle};
use uba::graph::NodeId;
use uba::obs::{Snapshot, SplitMix64};
use uba::prelude::*;
use uba_cli::Scenario;

const SCENARIO: &str = include_str!("../../scenarios/churn_torus.toml");
const ARRIVALS: usize = 1_000_000;
/// Mean holding time, in arrivals: about this many flows are live.
const MEAN_HOLD: f64 = 4_000.0;
const REPLAYS_PER_ROUND: usize = 3;
/// Requests per timed unit.
const BLOCK: usize = 256;
/// Admit-only / release-only probe blocks.
const PROBE_BLOCKS: usize = 2_000;

/// High bit of a request: release the slot instead of admitting into it.
const RELEASE: u32 = 1 << 31;
const SLOT_BITS: u32 = 16;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// A request trace: `pair << 16 | slot` admits a flow of pair `pair`
/// into `slot`; `RELEASE | slot` releases whatever `slot` holds. Every
/// arrival is released exactly once, whether or not it was admitted, so
/// the request count does not depend on the program's decisions.
pub struct ChurnTrace {
    pub requests: Vec<u32>,
    /// Slots the replay needs.
    pub slots: usize,
}

/// One arrival per tick for a uniformly drawn pair, held for an
/// exponential number of ticks (mean `mean_hold`, at least 1); releases
/// due at a tick precede its arrival; slots are recycled; whatever is
/// still live after the last arrival is released in due order.
pub fn generate_trace(seed: u64, arrivals: usize, mean_hold: f64, pairs: usize) -> ChurnTrace {
    assert!(pairs < (1 << (31 - SLOT_BITS)), "pair index must fit");
    let mut rng = SplitMix64::new(seed);
    let mut held = Holdings::default();
    let mut requests = Vec::with_capacity(2 * arrivals);
    for tick in 0..arrivals as u64 {
        held.release_due(tick, |slot| requests.push(RELEASE | slot));
        let pair = rng.index(pairs) as u32;
        let slot = held.hold(tick, mean_hold, &mut rng);
        assert!(slot <= SLOT_MASK, "slot index must fit");
        requests.push(pair << SLOT_BITS | slot);
    }
    held.release_due(u64::MAX, |slot| requests.push(RELEASE | slot));
    ChurnTrace {
        requests,
        slots: held.slots,
    }
}

/// What one replay of the trace decided.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    /// FNV-1a of the accept/reject bit string.
    pub digest: u64,
    pub admits_offered: u64,
    pub rejects: u64,
}

impl Replay {
    pub fn reject_ratio(&self) -> f64 {
        self.rejects as f64 / self.admits_offered.max(1) as f64
    }
}

/// Replays `requests` against `admit`, timing every block of [`BLOCK`]
/// requests into `block(ns, requests)`. The loop draws no random
/// numbers, allocates nothing and keeps no heap; `H` is the program's
/// flow handle, or a stand-in when the no-op system is measured.
fn replay<H>(
    requests: &[u32],
    pairs: &[(NodeId, NodeId)],
    slots: &mut [Option<H>],
    mut admit: impl FnMut(NodeId, NodeId) -> Option<H>,
    mut block: impl FnMut(u64, u64),
) -> Replay {
    let mut digest = Fnv::new();
    let (mut admits_offered, mut rejects) = (0u64, 0u64);
    for chunk in requests.chunks(BLOCK) {
        let t0 = Instant::now();
        for &req in chunk {
            let slot = (req & SLOT_MASK) as usize;
            if req & RELEASE != 0 {
                slots[slot] = None;
            } else {
                let (src, dst) = pairs[(req >> SLOT_BITS) as usize];
                let handle = admit(src, dst);
                digest.push(handle.is_some() as u8);
                admits_offered += 1;
                rejects += handle.is_none() as u64;
                slots[slot] = handle;
            }
        }
        block(t0.elapsed().as_nanos() as u64, chunk.len() as u64);
    }
    Replay {
        digest: digest.0,
        admits_offered,
        rejects,
    }
}

/// A replay is correct when its decisions repeat the reference replay's
/// bit for bit, both the reserve path and the roll-back path ran, and
/// the final releases left no link occupied.
pub fn replay_ok(replay: &Replay, reference_digest: u64, occupancy: &[f64]) -> bool {
    let ratio = replay.reject_ratio();
    replay.digest == reference_digest
        && ratio > 0.05
        && ratio < 0.25
        && occupancy.iter().all(|&o| o == 0.0)
}

pub struct ChurnTorus {
    sc: Scenario,
    routes: RouteSet,
    ctrl: AdmissionController,
    pairs: Vec<(NodeId, NodeId)>,
    trace: ChurnTrace,
    slots: Vec<Option<FlowHandle>>,
    reference_digest: Option<u64>,
    last: Option<Replay>,
}

impl ChurnTorus {
    fn admit(&self, src: NodeId, dst: NodeId) -> Option<FlowHandle> {
        self.ctrl.try_admit(ClassId(0), src, dst).ok()
    }
}

impl Workload for ChurnTorus {
    fn set_up(seed: u64, spans: &mut Spans) -> Self {
        let s = spans.enter("setup.configure");
        let sc = Scenario::from_str(SCENARIO).expect("scenario parses");
        let paths = sp_selection(&sc.graph, &sc.pairs).expect("torus is connected");
        let routes = route_set(&sc.graph, &paths);
        let cfg = SolveConfig::default();
        let report = uba::delay::verify(&sc.servers, &sc.classes, &sc.alphas, &routes, &cfg);
        assert!(report.safe, "the scenario's alpha must verify");
        spans.exit(s);

        let ctrl = spans.time("setup.build", || {
            AdmissionController::from_generation(generation(&sc, &paths))
        });

        let s = spans.enter("setup.tracegen");
        let trace = generate_trace(seed, ARRIVALS, MEAN_HOLD, sc.pairs.len());
        let pairs = sc.pairs.iter().map(|p| (p.src, p.dst)).collect();
        let slots = (0..trace.slots).map(|_| None).collect();
        spans.exit(s);
        Self {
            sc,
            routes,
            ctrl,
            pairs,
            trace,
            slots,
            reference_digest: None,
            last: None,
        }
    }

    fn ops_per_round(&self) -> u64 {
        (REPLAYS_PER_ROUND * self.trace.requests.len()) as u64
    }

    fn round(&mut self, rec: &mut Recorder) {
        let mut ok = true;
        for _ in 0..REPLAYS_PER_ROUND {
            let s = rec.spans.enter("admission.replay");
            let mut slots = std::mem::take(&mut self.slots);
            let outcome = replay(
                &self.trace.requests,
                &self.pairs,
                &mut slots,
                |src, dst| self.admit(src, dst),
                |ns, ops| rec.unit(ns, ops),
            );
            self.slots = slots;
            rec.spans.exit(s);
            let s = rec.spans.enter("harness.check");
            let reference = *self.reference_digest.get_or_insert(outcome.digest);
            ok &= replay_ok(
                &outcome,
                reference,
                &self.ctrl.occupancy_snapshot(ClassId(0)),
            );
            rec.spans.exit(s);
            self.last = Some(outcome);
        }
        rec.check(self.ops_per_round(), ok);
    }

    fn probes(&mut self, rec: &mut Recorder) {
        // Yen over all 4 032 pairs takes seconds; every 12th is enough.
        let sampled: Vec<Pair> = self.sc.pairs.iter().step_by(12).copied().collect();
        probe_graph(rec, &self.sc.graph, &sampled);
        probe_delay(
            rec,
            &self.sc.servers,
            &self.sc.classes,
            self.sc.alphas[0],
            &self.routes,
        );

        // The replay loop against a no-op system: what the harness
        // itself costs per request.
        let mut stand_ins: Vec<Option<(NodeId, NodeId)>> = vec![None; self.trace.slots];
        for _ in 0..5 {
            let s = rec.spans.enter("harness.noop_replay");
            let outcome = replay(
                &self.trace.requests,
                &self.pairs,
                &mut stand_ins,
                |src, dst| Some(black_box((src, dst))),
                |ns, ops| {
                    black_box((ns, ops));
                },
            );
            black_box(outcome);
            rec.spans.exit(s);
        }

        // Admit-only and release-only blocks at steady-state occupancy:
        // replay the first half of the trace, then admit BLOCK further
        // flows and release them again, block after block.
        let (filled, rest) = self.trace.requests.split_at(self.trace.requests.len() / 2);
        let mut slots = std::mem::take(&mut self.slots);
        replay(
            filled,
            &self.pairs,
            &mut slots,
            |s, d| self.admit(s, d),
            |_, _| {},
        );
        let offered: Vec<(NodeId, NodeId)> = rest
            .iter()
            .filter(|&&req| req & RELEASE == 0)
            .map(|&req| self.pairs[(req >> SLOT_BITS) as usize])
            .collect();
        let mut held: Vec<FlowHandle> = Vec::with_capacity(BLOCK);
        for block in offered.chunks_exact(BLOCK).take(PROBE_BLOCKS) {
            let t0 = Instant::now();
            for &(src, dst) in block {
                if let Some(handle) = self.admit(src, dst) {
                    held.push(handle);
                }
            }
            let admit_ns = t0.elapsed().as_nanos() as f64;
            let releases = held.len();
            let t0 = Instant::now();
            held.clear();
            let release_ns = t0.elapsed().as_nanos() as f64;
            rec.sample("admission.admit_ns", admit_ns / BLOCK as f64);
            rec.sample("admission.release_ns", release_ns / releases.max(1) as f64);
        }
        slots.iter_mut().for_each(|s| *s = None);
        self.slots = slots;
    }

    fn layer_metrics(&self, rec: &Recorder, _registry: &Snapshot, out: &mut Metrics) {
        probe_metrics(rec, out);
        let last = self.last.expect("rounds ran");
        out.insert("admission.reject_ratio", last.reject_ratio());
        out.insert("admission.reject_link_full", last.rejects as f64);
        let admit = rec.samples("admission.admit_ns");
        out.insert("admission.admit_p50_ns", median(admit));
        out.insert("admission.admit_p99_ns", percentile(admit, 0.99));
        out.insert(
            "admission.release_p50_ns",
            median(rec.samples("admission.release_ns")),
        );
        out.insert(
            "harness.loop_ns_per_op",
            rec.span_median_ns("harness.noop_replay") / self.trace.requests.len() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_seed_deterministic_and_seeds_differ() {
        let a = generate_trace(1, 20_000, 300.0, 4032);
        let b = generate_trace(1, 20_000, 300.0, 4032);
        let c = generate_trace(2, 20_000, 300.0, 4032);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.slots, b.slots);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn every_arrival_is_released_once_and_never_before_it_is_admitted() {
        let t = generate_trace(7, 50_000, 500.0, 4032);
        assert_eq!(t.requests.len(), 100_000);
        let mut live = vec![false; t.slots];
        for &req in &t.requests {
            let slot = (req & SLOT_MASK) as usize;
            if req & RELEASE != 0 {
                assert!(live[slot], "release of a slot that holds nothing");
                live[slot] = false;
            } else {
                assert!(!live[slot], "admit into an occupied slot");
                assert!(((req >> SLOT_BITS) as usize) < 4032);
                live[slot] = true;
            }
        }
        assert!(live.iter().all(|&l| !l), "the trace ends empty");
        // Recycling keeps the slot count near the mean live population.
        assert!(t.slots < 1_000, "{} slots", t.slots);
    }

    #[test]
    fn replay_check_fails_on_flipped_digest_ratio_or_leftover_occupancy() {
        let good = Replay {
            digest: 0xabcd,
            admits_offered: 1_000,
            rejects: 130,
        };
        assert!(replay_ok(&good, 0xabcd, &[0.0, 0.0]));
        assert!(!replay_ok(&good, 0xabcd ^ 1, &[0.0, 0.0]));
        assert!(!replay_ok(&good, 0xabcd, &[0.0, 0.25]));
        assert!(!replay_ok(&Replay { rejects: 0, ..good }, 0xabcd, &[0.0]));
        assert!(!replay_ok(
            &Replay {
                rejects: 400,
                ..good
            },
            0xabcd,
            &[0.0]
        ));

        // The `fail_ratio` path fires: a flipped digest fails every op of
        // the round and the process exits non-zero.
        let mut rec = Recorder::new(Instant::now());
        rec.check(6_000_000, replay_ok(&good, 0xabcd ^ 1, &[0.0]));
        assert_eq!(rec.failed, 6_000_000);
        assert_ne!(crate::exit_code(&rec), 0);
    }
}
