//! Exact-count assertions on process-global instrumentation: the flight
//! recorder is one per process, so this binary holds the one test.

use uba_delay::servers::Servers;
use uba_obs::EventKind;
use uba_routing::{all_ordered_pairs, max_utilization_ray, Demand, HeuristicConfig};
use uba_topology::ring;
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

#[test]
fn a_ray_search_emits_one_search_probe_per_probe() {
    let g = ring(6);
    let servers = Servers::uniform(&g, 100e6, 4);
    let mut classes = ClassSet::single(TrafficClass::voip());
    classes.push(TrafficClass::new(
        "video",
        LeakyBucket::new(64_000.0, 2_000_000.0),
        0.3,
    ));
    let demands: Vec<Demand> = all_ordered_pairs(&g)
        .into_iter()
        .step_by(2)
        .enumerate()
        .map(|(i, pair)| Demand {
            class: ClassId(i % 2),
            pair,
        })
        .collect();
    let solves = &uba_delay::metrics::solver().iterations;
    let solves_before = solves.count();

    let tr = uba_obs::trace::global();
    tr.set_enabled(true);
    let cfg = HeuristicConfig::default();
    let found = max_utilization_ray(&g, &servers, &classes, &[1.0, 2.0], &demands, &cfg, 0.01);
    tr.set_enabled(false);

    // One event per probe, numbered in order, carrying `(t, feasible)`.
    let probes: Vec<(u64, f64, bool)> = tr
        .drain()
        .events
        .iter()
        .filter(|e| e.kind == EventKind::SearchProbe)
        .map(|e| (e.flow, e.a, e.b == 1.0))
        .collect();
    assert!(found.probes.len() >= 5, "{:?}", found.probes);
    assert_eq!(probes.len(), found.probes.len());
    for (i, (&(t, ok), &(seq, x, feasible))) in found.probes.iter().zip(&probes).enumerate() {
        assert_eq!((seq, x.to_bits(), feasible), (i as u64, t.to_bits(), ok));
    }
    // And every candidate it solved is in the `delay.solve.*` series.
    assert!(solves.count() > solves_before);
}
