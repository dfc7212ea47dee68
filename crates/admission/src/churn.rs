//! Deterministic flow-churn workload driver.
//!
//! Generates a reproducible arrival/departure process (Poisson arrivals,
//! exponential holding times, uniform pair choice) and drives any
//! admission policy through it, recording acceptance statistics and
//! decision latency: `uba-cli metrics` and the `voip_network` example
//! offer single arrivals ([`run_churn`]), `uba-cli serve`'s background
//! load offers bursts ([`run_churn_bursty`]). Both are one loop
//! (`churn`); `tests/churn_equiv.rs` pins what each draws and counts.

use uba_graph::NodeId;
use uba_obs::{SplitMix64, Stopwatch};
use uba_traffic::{BurstModel, ClassId};

/// An admission policy under test.
pub trait Policy {
    /// Whatever the policy hands back for an admitted flow; dropping or
    /// releasing it must free the resources.
    type Handle;
    /// Attempts to admit one flow.
    fn admit(&mut self, class: ClassId, src: NodeId, dst: NodeId) -> Option<Self::Handle>;
    /// Attempts to admit a burst of simultaneous requests; the default
    /// admits them one by one. Policies that decide a run of identical
    /// requests in one step (the utilization controller) override this.
    fn admit_burst(
        &mut self,
        class: ClassId,
        reqs: &[(NodeId, NodeId)],
    ) -> Vec<Option<Self::Handle>> {
        reqs.iter()
            .map(|&(src, dst)| self.admit(class, src, dst))
            .collect()
    }
    /// Releases an admitted flow.
    fn release(&mut self, handle: Self::Handle);
}

impl Policy for crate::AdmissionController {
    type Handle = crate::FlowHandle;
    fn admit(&mut self, class: ClassId, src: NodeId, dst: NodeId) -> Option<Self::Handle> {
        self.try_admit(class, src, dst).ok()
    }
    fn admit_burst(
        &mut self,
        class: ClassId,
        reqs: &[(NodeId, NodeId)],
    ) -> Vec<Option<Self::Handle>> {
        let specs: Vec<crate::FlowSpec> = reqs
            .iter()
            .map(|&(src, dst)| crate::FlowSpec { class, src, dst })
            .collect();
        self.try_admit_batch(&specs)
            .flows
            .into_iter()
            .map(Result::ok)
            .collect()
    }
    fn release(&mut self, handle: Self::Handle) {
        drop(handle);
    }
}

impl Policy for &crate::PerFlowAdmission {
    type Handle = crate::baseline::BaselineFlowId;
    fn admit(&mut self, class: ClassId, src: NodeId, dst: NodeId) -> Option<Self::Handle> {
        self.try_admit(class, src, dst)
    }
    fn release(&mut self, handle: Self::Handle) {
        PerFlowAdmissionExt::release(*self, handle);
    }
}

// Disambiguation shim: `PerFlowAdmission::release` by value vs the trait
// method taking `&mut &PerFlowAdmission`.
trait PerFlowAdmissionExt {
    fn release(&self, id: crate::baseline::BaselineFlowId);
}
impl PerFlowAdmissionExt for crate::PerFlowAdmission {
    fn release(&self, id: crate::baseline::BaselineFlowId) {
        crate::PerFlowAdmission::release(self, id)
    }
}

/// Churn parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Total arrival events to generate.
    pub arrivals: usize,
    /// Mean number of concurrently active flows targeted (offered load):
    /// each admitted flow's holding time spans this many subsequent
    /// arrivals on average.
    pub mean_active: f64,
    /// RNG seed — identical seeds give identical request sequences.
    pub seed: u64,
}

/// What the driver measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnStats {
    /// Arrivals offered.
    pub offered: usize,
    /// Arrivals admitted.
    pub accepted: usize,
    /// Peak concurrently active flows.
    pub peak_active: usize,
    /// Total wall time spent inside admit() calls, nanoseconds.
    pub admit_ns: u128,
    /// Mean admit() latency in nanoseconds.
    pub mean_admit_ns: f64,
    /// Bursts offered. Zero for the one-at-a-time driver
    /// ([`run_churn`]); [`run_churn_bursty`] counts every tick's slug
    /// here, including bursts of one.
    pub bursts: usize,
    /// Bursts admitted in full.
    pub bursts_clean: usize,
    /// Bursts partially admitted: at least one request in, at least one
    /// turned away. The interesting failure mode — a conference call
    /// that connected some parties but not all.
    pub bursts_clipped: usize,
    /// Bursts rejected outright (no request admitted).
    pub bursts_dropped: usize,
}

impl ChurnStats {
    /// Blocking probability.
    pub fn blocking(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            1.0 - self.accepted as f64 / self.offered as f64
        }
    }

    /// Classifies one burst outcome: `got` of `n` requests admitted.
    fn tally_burst(&mut self, n: usize, got: usize) {
        self.bursts += 1;
        if got == n {
            self.bursts_clean += 1;
        } else if got == 0 {
            self.bursts_dropped += 1;
        } else {
            self.bursts_clipped += 1;
        }
    }
}

/// Runs the churn process against `policy` over the given candidate
/// pairs.
///
/// Time is measured in "arrival ticks": each arrival picks a uniform
/// pair, attempts admission through [`Policy::admit`], and an admitted
/// flow departs after an exponential number of ticks with mean
/// `mean_active` (so the steady state offers roughly `mean_active`
/// concurrent flows).
pub fn run_churn<P: Policy>(
    policy: &mut P,
    pairs: &[(NodeId, NodeId)],
    class: ClassId,
    cfg: &ChurnConfig,
) -> ChurnStats {
    churn(policy, pairs, class, cfg, None)
}

/// Like [`run_churn`], but arrivals come in bursts: each tick offers a
/// slug of simultaneous requests for one uniformly chosen pair (a
/// "conference call" arrival) admitted through [`Policy::admit_burst`]
/// — for the utilization controller, `try_admit_batch`, one decision
/// per slug — and tallied per burst. The slug's size is drawn from a
/// [`BurstModel`]:
/// mostly single requests with occasional large slugs, or, at `cv = 0`,
/// a constant (`BurstModel::with_mean_cv(n, 0.0)` offers `n` every
/// tick). At the same mean offered rate a high-CV model produces the
/// workload the admission path's arrival telemetry ([`crate::arrival`])
/// is designed to flag; the serve loop's background churn uses it so
/// burst gauges and overuse transitions are visible out of the box.
/// Deterministic for a fixed seed, as always.
pub fn run_churn_bursty<P: Policy>(
    policy: &mut P,
    pairs: &[(NodeId, NodeId)],
    class: ClassId,
    cfg: &ChurnConfig,
    model: &BurstModel,
) -> ChurnStats {
    churn(policy, pairs, class, cfg, Some(model))
}

/// The one loop behind both drivers. Per tick: due departures, burst
/// size, pair, admission, tally, holding times — the RNG is drawn in
/// that order and only where a driver needs the value (`bursts = None`
/// draws no size, offers one request through [`Policy::admit`] and
/// leaves the burst tallies at zero).
fn churn<P: Policy>(
    policy: &mut P,
    pairs: &[(NodeId, NodeId)],
    class: ClassId,
    cfg: &ChurnConfig,
    bursts: Option<&BurstModel>,
) -> ChurnStats {
    assert!(!pairs.is_empty(), "need candidate pairs");
    assert!(cfg.mean_active > 0.0, "mean_active must be positive");
    let mut rng = SplitMix64::new(cfg.seed);
    // Departure queue keyed by tick.
    let mut departures: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    let mut held: Vec<Option<P::Handle>> = Vec::new();
    let mut stats = ChurnStats::default();
    let mut active = 0usize;
    let mut reqs: Vec<(NodeId, NodeId)> = Vec::new();

    let mut tick = 0u64;
    while stats.offered < cfg.arrivals {
        while let Some(&std::cmp::Reverse((due, slot))) = departures.peek() {
            if due > tick {
                break;
            }
            departures.pop();
            if let Some(h) = held[slot].take() {
                policy.release(h);
                active -= 1;
            }
        }
        let n = match bursts {
            Some(model) => {
                let drawn = model.sample(rng.range_f64(0.0, 1.0)) as usize;
                drawn.min(cfg.arrivals - stats.offered).max(1)
            }
            None => 1,
        };
        let (src, dst) = pairs[rng.index(pairs.len())];
        stats.offered += n;
        let admitted = if bursts.is_some() {
            reqs.clear();
            reqs.resize(n, (src, dst));
            let t0 = Stopwatch::start();
            let admitted = policy.admit_burst(class, &reqs);
            stats.admit_ns += t0.elapsed_ns() as u128;
            stats.tally_burst(n, admitted.iter().filter(|h| h.is_some()).count());
            admitted
        } else {
            let t0 = Stopwatch::start();
            let admitted = policy.admit(class, src, dst);
            stats.admit_ns += t0.elapsed_ns() as u128;
            vec![admitted]
        };
        for h in admitted.into_iter().flatten() {
            stats.accepted += 1;
            active += 1;
            stats.peak_active = stats.peak_active.max(active);
            // Exponential holding time in ticks (inverse transform).
            let u: f64 = rng.range_f64(1e-12, 1.0);
            let hold = (-cfg.mean_active * u.ln()).ceil() as u64;
            let slot = held.len();
            held.push(Some(h));
            departures.push(std::cmp::Reverse((tick + hold.max(1), slot)));
        }
        tick += 1;
    }
    // Tear everything down.
    for h in held.into_iter().flatten() {
        policy.release(h);
    }
    stats.mean_admit_ns = if stats.offered > 0 {
        stats.admit_ns as f64 / stats.offered as f64
    } else {
        0.0
    };
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RoutingTable;
    use crate::AdmissionController;
    use uba_graph::{Digraph, Path};
    use uba_traffic::{ClassSet, TrafficClass};

    fn controller(alpha: f64) -> (AdmissionController, Vec<(NodeId, NodeId)>) {
        let mut g = Digraph::with_nodes(3);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let mut table = RoutingTable::new();
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e12]));
        let classes = ClassSet::single(TrafficClass::voip());
        let caps = vec![1e6; g.edge_count()];
        let pairs = vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))];
        (
            AdmissionController::new(table, &classes, &caps, &[alpha]),
            pairs,
        )
    }

    #[test]
    fn light_load_all_accepted() {
        let (mut ctrl, pairs) = controller(0.5);
        let cfg = ChurnConfig {
            arrivals: 200,
            mean_active: 3.0,
            seed: 1,
        };
        let stats = run_churn(&mut ctrl, &pairs, ClassId(0), &cfg);
        assert_eq!(stats.offered, 200);
        assert_eq!(stats.blocking(), 0.0);
        // Everything released at the end.
        assert_eq!(ctrl.reserved(2, ClassId(0)), 0.0);
    }

    #[test]
    fn heavy_load_blocks_some() {
        let (mut ctrl, pairs) = controller(0.1); // 3 flows per link
        let cfg = ChurnConfig {
            arrivals: 500,
            mean_active: 50.0,
            seed: 2,
        };
        let stats = run_churn(&mut ctrl, &pairs, ClassId(0), &cfg);
        assert!(stats.blocking() > 0.0);
        assert!(stats.peak_active <= 6, "peak {}", stats.peak_active);
        assert_eq!(ctrl.reserved(2, ClassId(0)), 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = ChurnConfig {
            arrivals: 300,
            mean_active: 10.0,
            seed: 42,
        };
        let (mut c1, pairs) = controller(0.2);
        let (mut c2, _) = controller(0.2);
        let s1 = run_churn(&mut c1, &pairs, ClassId(0), &cfg);
        let s2 = run_churn(&mut c2, &pairs, ClassId(0), &cfg);
        assert_eq!(s1.accepted, s2.accepted);
        assert_eq!(s1.peak_active, s2.peak_active);
    }

    #[test]
    fn single_arrivals_leave_burst_tallies_empty() {
        let cfg = ChurnConfig {
            arrivals: 400,
            mean_active: 20.0,
            seed: 11,
        };
        let (mut ctrl, pairs) = controller(0.2);
        let stats = run_churn(&mut ctrl, &pairs, ClassId(0), &cfg);
        assert_eq!(stats.offered, 400);
        assert!(stats.accepted > 0 && stats.accepted < stats.offered);
        assert_eq!(
            (
                stats.bursts,
                stats.bursts_clean,
                stats.bursts_clipped,
                stats.bursts_dropped
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn bursty_churn_saturates_and_balances() {
        let (mut ctrl, pairs) = controller(0.1); // 3 flows per link
        let cfg = ChurnConfig {
            arrivals: 480,
            mean_active: 50.0,
            seed: 5,
        };
        let eights = BurstModel::with_mean_cv(8.0, 0.0);
        let stats = run_churn_bursty(&mut ctrl, &pairs, ClassId(0), &cfg, &eights);
        assert_eq!(stats.offered, 480);
        assert!(stats.accepted > 0);
        assert!(stats.blocking() > 0.0);
        assert!(stats.peak_active <= 6, "peak {}", stats.peak_active);
        assert_eq!(ctrl.reserved(2, ClassId(0)), 0.0);
        // Per-burst granularity: every burst lands in exactly one bin,
        // and the saturated budget (3 flows vs bursts of 8) means at
        // least some bursts got a partial fill rather than all-or-none.
        assert_eq!(stats.bursts, 60);
        assert_eq!(
            stats.bursts_clean + stats.bursts_clipped + stats.bursts_dropped,
            stats.bursts
        );
        assert!(stats.bursts_clipped > 0, "no clipped bursts: {stats:?}");
        assert!(stats.bursts_dropped > 0, "no dropped bursts: {stats:?}");
    }

    #[test]
    fn bursty_model_churn_is_deterministic_and_offers_exactly_n() {
        let cfg = ChurnConfig {
            arrivals: 600,
            mean_active: 20.0,
            seed: 9,
        };
        let model = BurstModel::with_mean_cv(8.0, 2.5);
        let (mut c1, pairs) = controller(0.1);
        let (mut c2, _) = controller(0.1);
        let s1 = run_churn_bursty(&mut c1, &pairs, ClassId(0), &cfg, &model);
        let s2 = run_churn_bursty(&mut c2, &pairs, ClassId(0), &cfg, &model);
        assert_eq!(s1.offered, 600);
        assert_eq!(s1.accepted, s2.accepted);
        assert_eq!(s1.peak_active, s2.peak_active);
        assert!(s1.accepted > 0);
        assert!(s1.peak_active <= 6, "peak {}", s1.peak_active);
        assert_eq!(c1.reserved(2, ClassId(0)), 0.0);
    }

    #[test]
    fn baseline_policy_runs_through_driver() {
        let mut g = Digraph::with_nodes(3);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let mut table = RoutingTable::new();
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
        let classes = ClassSet::single(TrafficClass::voip());
        let servers = uba_delay::servers::Servers::uniform(&g, 1e6, 4);
        let baseline = crate::PerFlowAdmission::new(table, classes, servers);
        let cfg = ChurnConfig {
            arrivals: 50,
            mean_active: 5.0,
            seed: 3,
        };
        let mut policy = &baseline;
        let stats = run_churn(&mut policy, &[(NodeId(0), NodeId(2))], ClassId(0), &cfg);
        assert!(stats.accepted > 0);
        assert_eq!(baseline.active_flows(), 0);
    }
}
