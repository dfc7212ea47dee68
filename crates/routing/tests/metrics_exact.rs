//! Exact-count assertions on process-global instrumentation: the flight
//! recorder and the registry are one per process, so the tests of this
//! binary take turns.

use std::sync::Mutex;
use uba_delay::servers::Servers;
use uba_graph::NodeId;
use uba_obs::histogram::BUCKETS;
use uba_obs::{EventKind, Histogram};
use uba_routing::{
    all_ordered_pairs, max_utilization, max_utilization_ray, select_routes, Configuration, Demand,
    HeuristicConfig, Selector,
};
use uba_topology::{mci, ring};
use uba_traffic::{ClassId, ClassSet, LeakyBucket, TrafficClass};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The registry series route selection writes: the `routing.select.*`
/// and `delay.solve.*` counters, and the slot counts and micro-unit sums
/// of `delay.solve.{iterations, residual}`.
struct Reading {
    counters: [u64; 6],
    slots: [[u64; BUCKETS]; 2],
    sums: [u64; 2],
}

/// What was written between two [`Reading`]s: the counter deltas, and per
/// histogram one digest of its slot-count and sum deltas.
#[derive(Debug, PartialEq)]
struct Writes {
    /// `routing.select.{candidates, pruned, cycle_checks}`.
    select: [u64; 3],
    /// `delay.solve.{servers_touched, sweeps_skipped, divergence}`.
    solve: [u64; 3],
    /// `delay.solve.{iterations, residual}`.
    histograms: [u64; 2],
}

fn micro_sum(h: &Histogram) -> u64 {
    (h.sum() * 1e6).round() as u64
}

impl Reading {
    fn now() -> Self {
        let (select, solver) = (uba_routing::metrics::select(), uba_delay::metrics::solver());
        Self {
            counters: [
                select.candidates.get(),
                select.pruned.get(),
                select.cycle_checks.get(),
                solver.servers_touched.get(),
                solver.sweeps_skipped.get(),
                solver.divergence.get(),
            ],
            slots: [
                solver.iterations.bucket_counts(),
                solver.residual.bucket_counts(),
            ],
            sums: [micro_sum(&solver.iterations), micro_sum(&solver.residual)],
        }
    }

    fn writes_since(&self, before: &Self) -> Writes {
        let d: Vec<u64> = (self.counters.iter().zip(&before.counters))
            .map(|(a, b)| a - b)
            .collect();
        let histogram = |i: usize| {
            let slots = self.slots[i].iter().zip(&before.slots[i]).enumerate();
            let h = slots
                .filter(|(_, (a, b))| a != b)
                .fold(0xcbf2_9ce4_8422_2325, |h, (slot, (a, b))| {
                    fnv(fnv(h, slot as u64), a - b)
                });
            fnv(h, self.sums[i] - before.sums[i])
        };
        Writes {
            select: [d[0], d[1], d[2]],
            solve: [d[3], d[4], d[5]],
            histograms: [histogram(0), histogram(1)],
        }
    }
}

/// `crates/cli/scenarios/paper.toml` through `maximize`: what candidate
/// generation did, to the search. Every spur index of the first seven
/// paths of each of the 342 pairs is either searched or skipped — 8 720
/// of them — and the cache spans the probes, so seven probes cost one
/// generation.
#[test]
fn candidate_generation_on_the_paper_scenario_searches_930_of_8720_spur_indices() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let g = mci();
    let servers = Servers::uniform(&g, 1e8, 6);
    let metrics = uba_routing::metrics::select();
    let before = (metrics.spur_searches.get(), metrics.spur_skipped.get());
    let solver = uba_delay::metrics::solver();
    let (solves0, timed0) = (solver.iterations.count(), solver.seconds.count());
    let reading = Reading::now();
    let tr = uba_obs::trace::global();
    tr.drain();
    tr.set_enabled(true);
    let found = max_utilization(
        &g,
        &servers,
        &TrafficClass::voip(),
        &all_ordered_pairs(&g),
        &Selector::Heuristic(HeuristicConfig::default()),
        0.005,
    );
    tr.set_enabled(false);
    assert_eq!(found.alpha.to_bits(), 0.5415987127047674f64.to_bits());
    assert_eq!(found.probes.len(), 7);
    let searched = metrics.spur_searches.get() - before.0;
    let skipped = metrics.spur_skipped.get() - before.1;
    assert_eq!((searched, skipped), (930, 7_790));
    assert_eq!(searched + skipped, 8_720);
    // Every solve is one `delay.solve.iterations` record; a committed
    // state times its first candidate evaluation and every 64th after it.
    let solves = solver.iterations.count() - solves0;
    let timed = solver.seconds.count() - timed0;
    assert_eq!((solves, timed), (5_356, 88));
    // And everything else the search wrote to the selection and solver
    // series, to the unit.
    assert_eq!(
        Reading::now().writes_since(&reading),
        Writes {
            select: [13_706, 10_116, 3_700],
            solve: [8_432, 1_289_531, 0],
            histograms: [11_417_398_285_564_998_212, 4_266_083_430_728_000_340],
        }
    );
    // The flight recorder holds every event the search emitted, by kind.
    let drained = tr.drain();
    assert_eq!(drained.dropped, 0);
    let mut kinds = std::collections::BTreeMap::new();
    for e in &drained.events {
        *kinds.entry(e.kind.as_str()).or_insert(0) += 1;
    }
    let expect = [
        ("search_probe", 7),
        ("solve_begin", 5_356),
        ("solve_end", 5_356),
        ("warm_start_accept", 5_356),
    ];
    assert_eq!(kinds.into_iter().collect::<Vec<_>>(), expect);
}

/// `paper.toml` at its `alpha = 0.45`, then the link between routers 2
/// and 5 fails: the general solve of the surviving routes and the
/// re-routing of the 31 pairs that crossed the link, to the unit.
#[test]
fn a_link_failure_on_the_paper_scenario_writes_pinned_series() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let g = mci();
    let servers = Servers::uniform(&g, 1e8, 6);
    let (voip, cfg) = (TrafficClass::voip(), HeuristicConfig::default());
    let sel = select_routes(&g, &servers, &voip, 0.45, &all_ordered_pairs(&g), &cfg).unwrap();
    let mut live = Configuration::from_selection(g, servers, voip, 0.45, cfg, sel);
    let solves = &uba_delay::metrics::solver().iterations;
    let (reading, solves0) = (Reading::now(), solves.count());
    let report = live.fail_link(NodeId(2), NodeId(5)).expect("reroutable");
    assert_eq!(report.rerouted.len(), 31);
    assert_eq!(solves.count() - solves0, 102);
    assert_eq!(
        Reading::now().writes_since(&reading),
        Writes {
            select: [248, 178, 70],
            solve: [613, 82_235, 0],
            histograms: [4_197_682_211_651_827_678, 4_346_019_484_916_981_072],
        }
    );
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
