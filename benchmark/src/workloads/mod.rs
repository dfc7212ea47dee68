//! The four workloads, and the pieces more than one of them uses.

pub mod churn_torus;
pub mod config_mci;
pub mod serve_loop_mci;
pub mod simulate_mci;

use crate::harness::{Metrics, Recorder};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use uba::admission::{BackendKind, ConfigGeneration, PolicyChain, RoutingTable};
use uba::graph::{dijkstra, k_shortest_paths, Digraph};
use uba::obs::{Snapshot, SnapshotValue, SplitMix64};
use uba::prelude::*;
use uba_cli::Scenario;

/// Repetitions of each probe; the metric is their median.
const PROBE_REPS: usize = 15;

/// A counter's change, or a histogram's summed samples, in a registry
/// window; `0.0` when the name is absent.
pub fn registry_sum(window: &Snapshot, name: &str) -> f64 {
    match window.get(name) {
        Some(SnapshotValue::Counter(v)) => *v as f64,
        Some(SnapshotValue::Histogram { count, mean, .. }) => {
            (mean.unwrap_or(0.0) * *count as f64).round()
        }
        Some(SnapshotValue::Gauge(v)) => *v,
        None => 0.0,
    }
}

/// A seed-chosen subset of `keep` elements, in their original order.
pub fn seeded_subset<T: Clone>(all: &[T], keep: usize, rng: &mut SplitMix64) -> Vec<T> {
    let mut picked = vec![false; all.len()];
    let mut order: Vec<usize> = (0..all.len()).collect();
    for i in 0..keep.min(all.len()) {
        let j = i + rng.index(order.len() - i);
        order.swap(i, j);
        picked[order[i]] = true;
    }
    all.iter()
        .zip(&picked)
        .filter(|(_, &p)| p)
        .map(|(x, _)| x.clone())
        .collect()
}

/// The flows a trace generator holds: each offered flow takes a slot at
/// its arrival tick and gives it back after an exponential holding time,
/// whether or not the program will admit it. Slots are recycled, so a
/// replay needs about as many as flows are live.
#[derive(Default)]
pub struct Holdings {
    due: BinaryHeap<Reverse<(u64, u32)>>,
    free: Vec<u32>,
    /// Slots handed out so far.
    pub slots: usize,
}

impl Holdings {
    /// Hands every slot due at or before `tick` to `release`, in due
    /// order, and frees it.
    pub fn release_due(&mut self, tick: u64, mut release: impl FnMut(u32)) {
        while let Some(&Reverse((at, slot))) = self.due.peek() {
            if at > tick {
                break;
            }
            self.due.pop();
            release(slot);
            self.free.push(slot);
        }
    }

    /// A slot for a flow arriving at `tick`, held for an exponential
    /// number of ticks with mean `mean_hold` (at least one).
    pub fn hold(&mut self, tick: u64, mean_hold: f64, rng: &mut SplitMix64) -> u32 {
        let hold = (-mean_hold * rng.range_f64(1e-12, 1.0).ln()).ceil() as u64;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots += 1;
            self.slots as u32 - 1
        });
        self.due.push(Reverse((tick + hold.max(1), slot)));
        slot
    }
}

/// The route set of one path per pair, all in class 0.
pub fn route_set(g: &Digraph, paths: &[Path]) -> RouteSet {
    let mut routes = RouteSet::new(g.edge_count());
    for p in paths {
        routes.push(Route::from_path(ClassId(0), p));
    }
    routes
}

/// An installable generation of the scenario with `paths` as its
/// routing table, on the atomic backend, with a fresh instance of the
/// scenario's policy chain — what `serve` builds on a reload.
pub fn generation(sc: &Scenario, paths: &[Path]) -> ConfigGeneration {
    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), paths);
    let rates: Vec<f64> = sc.classes.iter().map(|(_, c)| c.bucket.rate).collect();
    let caps: Vec<f64> = (0..sc.servers.len())
        .map(|k| sc.servers.capacity_at(k))
        .collect();
    ConfigGeneration::with_policy(
        table,
        &sc.classes,
        &caps,
        &sc.alphas,
        BackendKind::Atomic,
        PolicyChain::from_config(&sc.policy, &rates),
    )
}

/// Probes of the `graph` layer: Dijkstra from every node, and Yen's
/// eight shortest paths per pair.
pub fn probe_graph(rec: &mut Recorder, g: &Digraph, pairs: &[Pair]) {
    for _ in 0..PROBE_REPS {
        let s = rec.spans.enter("graph.dijkstra_all");
        for n in g.nodes() {
            std::hint::black_box(dijkstra(g, n));
        }
        rec.spans.exit(s);
    }
    rec.sample("graph.yen_pairs", pairs.len() as f64);
    // Yen over hundreds of pairs is slow; a few repetitions suffice.
    for _ in 0..3 {
        let s = rec.spans.enter("graph.yen_k8");
        for p in pairs {
            std::hint::black_box(k_shortest_paths(g, p.src, p.dst, 8));
        }
        rec.spans.exit(s);
    }
}

/// Probes of the `delay` layer on a verified route set: the fixed-point
/// solve without and with the previous fixed point, and Figure 2's
/// `verify`.
pub fn probe_delay(
    rec: &mut Recorder,
    servers: &Servers,
    classes: &ClassSet,
    alpha: f64,
    routes: &RouteSet,
) {
    let (_, class) = classes.iter().next().expect("one class");
    let cfg = SolveConfig::default();
    for _ in 0..PROBE_REPS {
        let cold = rec.spans.time("delay.solve_cold", || {
            solve_two_class(servers, class, alpha, routes, &cfg, None)
        });
        let warm = rec.spans.time("delay.solve_warm", || {
            solve_two_class(servers, class, alpha, routes, &cfg, Some(&cold.delays))
        });
        assert!(cold.outcome.is_safe() && warm.outcome.is_safe());
        let report = rec.spans.time("delay.verify", || {
            uba::delay::verify(servers, classes, &[alpha], routes, &cfg)
        });
        assert!(report.safe);
    }
}

/// The metrics `probe_graph` and `probe_delay` feed.
pub fn probe_metrics(rec: &Recorder, out: &mut Metrics) {
    let us = |name: &str| rec.span_median_ns(name) / 1e3;
    let pairs = rec.samples("graph.yen_pairs")[0];
    out.insert("graph.dijkstra_all_us", us("graph.dijkstra_all"));
    out.insert("graph.yen_k8_us_per_pair", us("graph.yen_k8") / pairs);
    out.insert("delay.solve_cold_us", us("delay.solve_cold"));
    out.insert("delay.solve_warm_us", us("delay.solve_warm"));
    out.insert("delay.verify_us", us("delay.verify"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_subset_keeps_order_and_depends_on_seed() {
        let all: Vec<u32> = (0..342).collect();
        let a = seeded_subset(&all, 308, &mut SplitMix64::new(1));
        let b = seeded_subset(&all, 308, &mut SplitMix64::new(1));
        let c = seeded_subset(&all, 308, &mut SplitMix64::new(2));
        assert_eq!(a.len(), 308);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
