//! Deterministic flow-churn workload driver.
//!
//! Generates a reproducible arrival/departure process (Poisson arrivals,
//! exponential holding times, uniform pair choice) and drives an
//! [`AdmissionController`] through it, recording acceptance statistics
//! and decision latency: `uba-cli metrics` and the `voip_network` example
//! offer single arrivals ([`run_churn`]), `uba-cli serve`'s background
//! load offers bursts ([`run_churn_bursty`]). Both are one loop
//! (`churn`); `tests/churn_equiv.rs` pins what each draws and counts.

use crate::{AdmissionController, FlowHandle, FlowSpec};
use uba_graph::NodeId;
use uba_obs::{SplitMix64, Stopwatch};
use uba_traffic::{BurstModel, ClassId};

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

/// Runs the churn process against `ctrl` over the given candidate pairs.
///
/// Time is measured in "arrival ticks": each arrival picks a uniform
/// pair, attempts admission through
/// [`try_admit`](AdmissionController::try_admit), and an admitted flow
/// departs after an exponential number of ticks with mean `mean_active`
/// (so the steady state offers roughly `mean_active` concurrent flows).
/// A departure drops the flow's handle.
pub fn run_churn(
    ctrl: &AdmissionController,
    pairs: &[(NodeId, NodeId)],
    class: ClassId,
    cfg: &ChurnConfig,
) -> ChurnStats {
    churn(ctrl, pairs, class, cfg, None)
}

/// Like [`run_churn`], but arrivals come in bursts: each tick offers a
/// slug of `n` identical requests for one uniformly chosen pair (a
/// "conference call" arrival), admitted as one
/// [`try_admit_batch`](AdmissionController::try_admit_batch) — one
/// decision per slug — and tallied per burst. The slug's size is drawn
/// from a [`BurstModel`]:
/// mostly single requests with occasional large slugs, or, at `cv = 0`,
/// a constant (`BurstModel::with_mean_cv(n, 0.0)` offers `n` every
/// tick). At the same mean offered rate a high-CV model produces the
/// workload the AIMD stage's overuse detector ([`crate::arrival`]) is
/// designed to flag; the serve loop's background churn uses it so the
/// batch path sees bursts out of the box. Deterministic for a fixed
/// seed, as always.
pub fn run_churn_bursty(
    ctrl: &AdmissionController,
    pairs: &[(NodeId, NodeId)],
    class: ClassId,
    cfg: &ChurnConfig,
    model: &BurstModel,
) -> ChurnStats {
    churn(ctrl, pairs, class, cfg, Some(model))
}

/// The one loop behind both drivers. Per tick: due departures, burst
/// size, pair, admission, tally, holding times — the RNG is drawn in
/// that order and only where a driver needs the value (`bursts = None`
/// draws no size, offers one request through `try_admit` and leaves the
/// burst tallies at zero).
fn churn(
    ctrl: &AdmissionController,
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
    let mut held: Vec<Option<FlowHandle>> = Vec::new();
    let mut stats = ChurnStats::default();
    let mut active = 0usize;
    let mut specs: Vec<FlowSpec> = Vec::new();
    let mut admitted: Vec<FlowHandle> = Vec::new();

    let mut tick = 0u64;
    while stats.offered < cfg.arrivals {
        while let Some(&std::cmp::Reverse((due, slot))) = departures.peek() {
            if due > tick {
                break;
            }
            departures.pop();
            if held[slot].take().is_some() {
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
        let t0 = Stopwatch::start();
        if bursts.is_some() {
            specs.clear();
            specs.resize(n, FlowSpec { class, src, dst });
            let outcome = ctrl.try_admit_batch(&specs);
            stats.admit_ns += t0.elapsed_ns() as u128;
            admitted.extend(outcome.into_handles());
            stats.tally_burst(n, admitted.len());
        } else {
            let outcome = ctrl.try_admit(class, src, dst);
            stats.admit_ns += t0.elapsed_ns() as u128;
            admitted.extend(outcome.ok());
        }
        for h in admitted.drain(..) {
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
    drop(held);
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
    use crate::{AdmissionController, ConfigGeneration};
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
            AdmissionController::from_generation(ConfigGeneration::new(
                table,
                &classes,
                &caps,
                &[alpha],
            )),
            pairs,
        )
    }

    #[test]
    fn light_load_all_accepted() {
        let (ctrl, pairs) = controller(0.5);
        let cfg = ChurnConfig {
            arrivals: 200,
            mean_active: 3.0,
            seed: 1,
        };
        let stats = run_churn(&ctrl, &pairs, ClassId(0), &cfg);
        assert_eq!(stats.offered, 200);
        assert_eq!(stats.blocking(), 0.0);
        // Everything released at the end.
        assert_eq!(ctrl.reserved(2, ClassId(0)), 0.0);
    }

    #[test]
    fn heavy_load_blocks_some() {
        let (ctrl, pairs) = controller(0.1); // 3 flows per link
        let cfg = ChurnConfig {
            arrivals: 500,
            mean_active: 50.0,
            seed: 2,
        };
        let stats = run_churn(&ctrl, &pairs, ClassId(0), &cfg);
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
        let (c1, pairs) = controller(0.2);
        let (c2, _) = controller(0.2);
        let s1 = run_churn(&c1, &pairs, ClassId(0), &cfg);
        let s2 = run_churn(&c2, &pairs, ClassId(0), &cfg);
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
        let (ctrl, pairs) = controller(0.2);
        let stats = run_churn(&ctrl, &pairs, ClassId(0), &cfg);
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
        let (ctrl, pairs) = controller(0.1); // 3 flows per link
        let cfg = ChurnConfig {
            arrivals: 480,
            mean_active: 50.0,
            seed: 5,
        };
        let eights = BurstModel::with_mean_cv(8.0, 0.0);
        let stats = run_churn_bursty(&ctrl, &pairs, ClassId(0), &cfg, &eights);
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
        let (c1, pairs) = controller(0.1);
        let (c2, _) = controller(0.1);
        let s1 = run_churn_bursty(&c1, &pairs, ClassId(0), &cfg, &model);
        let s2 = run_churn_bursty(&c2, &pairs, ClassId(0), &cfg, &model);
        assert_eq!(s1.offered, 600);
        assert_eq!(s1.accepted, s2.accepted);
        assert_eq!(s1.peak_active, s2.peak_active);
        assert!(s1.accepted > 0);
        assert!(s1.peak_active <= 6, "peak {}", s1.peak_active);
        assert_eq!(c1.reserved(2, ClassId(0)), 0.0);
    }
}
