//! Exact-count assertions on process-global instrumentation: the flight
//! recorder and the registry are one per process, so the tests of this
//! binary take turns.

use std::sync::Mutex;
use uba_delay::servers::Servers;
use uba_obs::EventKind;
use uba_routing::{
    all_ordered_pairs, max_utilization, max_utilization_ray, Demand, HeuristicConfig, Selector,
};
use uba_topology::{mci, ring};
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// `crates/cli/scenarios/paper.toml` through `maximize`: what candidate
/// generation did, to the search. Every spur index of the first seven
/// paths of each of the 342 pairs is either searched or skipped — 8 720
/// of them — and the cache spans the probes, so seven probes cost one
/// generation.
#[test]
fn candidate_generation_on_the_paper_scenario_searches_4184_of_8720_spur_indices() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let g = mci();
    let servers = Servers::uniform(&g, 1e8, 6);
    let metrics = uba_routing::metrics::select();
    let before = (metrics.spur_searches.get(), metrics.spur_skipped.get());
    let solver = uba_delay::metrics::solver();
    let (solves0, timed0) = (solver.iterations.count(), solver.seconds.count());
    let found = max_utilization(
        &g,
        &servers,
        &TrafficClass::voip(),
        &all_ordered_pairs(&g),
        &Selector::Heuristic(HeuristicConfig::default()),
        0.005,
    );
    assert_eq!(found.alpha.to_bits(), 0.5415987127047674f64.to_bits());
    assert_eq!(found.probes.len(), 7);
    let searched = metrics.spur_searches.get() - before.0;
    let skipped = metrics.spur_skipped.get() - before.1;
    assert_eq!((searched, skipped), (4_184, 4_536));
    assert_eq!(searched + skipped, 8_720);
    // Every solve is one `delay.solve.iterations` record; a committed
    // state times its first candidate evaluation and every 64th after it.
    let solves = solver.iterations.count() - solves0;
    let timed = solver.seconds.count() - timed0;
    assert_eq!((solves, timed), (5_356, 88));
}

#[test]
fn a_ray_search_emits_one_search_probe_per_probe() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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
