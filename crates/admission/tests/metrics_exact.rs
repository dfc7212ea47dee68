//! Exact-count assertions on the process-global `AdmissionMetrics`.
//!
//! These counters are shared by every metered controller in the process,
//! and `cargo test` runs a binary's tests on parallel threads: inside the
//! crate's unit-test binary a sibling test's admissions land between the
//! two reads of a delta (`left: 11, right: 1`). This binary holds nothing
//! else, and its single `#[test]` runs the cases one after another, so
//! the deltas are exact.

use uba_admission::metrics::LATENCY_SAMPLE_EVERY;
use uba_admission::{AdmissionController, AdmissionMetrics, Reject, RoutingTable};
use uba_graph::{Digraph, NodeId, Path};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

/// 0 -> 1 -> 2 with routes (0,2) and (1,2); link 1->2 is shared. At
/// alpha 0.32 on 1 Mb/s it carries 10 voip flows.
fn topology() -> (RoutingTable, Vec<f64>) {
    let mut g = Digraph::with_nodes(3);
    let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
    let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
    let mut table = RoutingTable::new();
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
    table.insert(ClassId(0), &Path::from_edges(&g, vec![e12]));
    (table, vec![1e6; g.edge_count()])
}

fn metered() -> AdmissionController {
    let (table, caps) = topology();
    let classes = ClassSet::single(TrafficClass::voip());
    AdmissionController::new(table, &classes, &caps, &[0.32])
}

fn metrics_track_admits_rejects_and_releases() {
    let ctrl = metered();
    let m = AdmissionMetrics::global(1);
    let (admits0, nr0, lf0, rel0) = (
        m.admits.get(),
        m.rejects_no_route.get(),
        m.rejects_link_full.get(),
        m.releases.get(),
    );
    let hops0 = m.path_hops.count();
    {
        let _held: Vec<_> = (0..10)
            .map(|_| ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap())
            .collect();
        assert!(ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)).is_err());
        assert!(ctrl.try_admit(ClassId(0), NodeId(2), NodeId(0)).is_err());
        ctrl.refresh_gauges();
        assert_eq!(m.class_max_share[0].get(), 1.0);
    }
    // Hot-path deltas are thread-buffered; refresh_gauges publishes
    // them (and recomputes the now-empty utilization gauges).
    ctrl.refresh_gauges();
    assert_eq!(m.admits.get() - admits0, 10);
    assert_eq!(m.rejects_no_route.get() - nr0, 1);
    assert_eq!(m.rejects_link_full.get() - lf0, 1);
    assert_eq!(m.releases.get() - rel0, 10);
    assert_eq!(m.path_hops.count() - hops0, 10);
    assert_eq!(m.class_max_share[0].get(), 0.0);
    assert_eq!(m.class_reserved_bps[0].get(), 0.0);
}

fn decision_telemetry_feeds_latency_and_retry_histograms() {
    let ctrl = metered();
    let m = AdmissionMetrics::global(1);
    ctrl.refresh_gauges();
    let (lat0, retry0) = (m.admit_ns.count(), m.retries_per_op.count());
    // Enough decisions (admits + link-full + no-route) to guarantee
    // at least one latency sample on this thread.
    let mut held = Vec::new();
    for _ in 0..2 * LATENCY_SAMPLE_EVERY {
        match ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)) {
            Ok(h) => held.push(h),
            Err(Reject::LinkFull { .. }) => {}
            Err(r) => panic!("unexpected {r:?}"),
        }
    }
    assert!(ctrl.try_admit(ClassId(0), NodeId(2), NodeId(0)).is_err());
    ctrl.refresh_gauges();
    assert!(m.admit_ns.count() > lat0, "latency sampling must fire");
    // Every decision that reaches the reservation state lands in the
    // retry histogram (no-route decisions never get that far).
    assert_eq!(
        m.retries_per_op.count() - retry0,
        2 * u64::from(LATENCY_SAMPLE_EVERY)
    );
}

fn unmetered_controller_admits_identically() {
    let (table, caps) = topology();
    let classes = ClassSet::single(TrafficClass::voip());
    let ctrl = AdmissionController::new_unmetered(table, &classes, &caps, &[0.32]);
    let m = AdmissionMetrics::global(1);
    let admits0 = m.admits.get();
    let h: Vec<_> = (0..10)
        .map(|_| ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap())
        .collect();
    assert!(ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).is_err());
    ctrl.refresh_gauges(); // no-op, must not panic
    drop(h);
    assert_eq!(m.admits.get(), admits0, "unmetered must not record");
}

#[test]
fn global_metric_deltas_are_exact() {
    metrics_track_admits_rejects_and_releases();
    decision_telemetry_feeds_latency_and_retry_histograms();
    unmetered_controller_admits_identically();
}
