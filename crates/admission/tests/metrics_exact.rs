//! Exact-count assertions on the process-global `AdmissionMetrics`.
//!
//! These counters are shared by every metered controller in the process,
//! and `cargo test` runs a binary's tests on parallel threads: inside the
//! crate's unit-test binary a sibling test's admissions land between the
//! two reads of a delta (`left: 11, right: 1`). This binary holds nothing
//! else, and its single `#[test]` runs the cases one after another, so
//! the deltas are exact.

use uba_admission::metrics::LATENCY_SAMPLE_EVERY;
use uba_admission::{
    AdmissionController, AdmissionMetrics, BackendKind, ConfigGeneration, FlowSpec, PolicyChain,
    Reject, RoutingTable, TokenBucketStage,
};
use uba_graph::{Digraph, NodeId, Path};
use uba_obs::trace::{self, EventKind};
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
    AdmissionController::from_generation(ConfigGeneration::new(table, &classes, &caps, &[0.32]))
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
    let ctrl = AdmissionController::from_generation_unmetered(ConfigGeneration::new(
        table,
        &classes,
        &caps,
        &[0.32],
    ));
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

/// What one burst moved: admits, link-full rejects (all classes, class
/// 0), policy rejects by the bucket and by AIMD, releases, `path_hops`
/// and `retries_per_op` sample counts, batches, batch fallbacks.
fn burst_counts(m: &AdmissionMetrics) -> [u64; 10] {
    [
        m.admits.get(),
        m.rejects_link_full.get(),
        m.rejects_link_full_class[0].get(),
        m.rejects_policy[0].get(),
        m.rejects_policy[1].get(),
        m.releases.get(),
        m.path_hops.count(),
        m.retries_per_op.count(),
        m.batches.get(),
        m.batch_fallbacks.get(),
    ]
}

/// A burst decided in one step books what its flows would have booked
/// one by one. Two 12-flow bursts onto the 10-flow shared link, behind a
/// 17-flow bucket that never refills: the first is clipped by the link
/// (the bucket affords all 12; 10 in, 2 link-full), the second, after
/// release, by the bucket (7 tokens left; 7 in, 5 turned away by it).
/// The expected deltas are the ones the per-flow fallback recorded for
/// the same bursts. The trace is coalesced where its schema has a count
/// slot: the admitted prefix is one `admit_batch`, the bucket's tail one
/// `reject_policy`, the link's tail one `reject_link_full` per flow —
/// and every flow keeps the id of its place in the burst, so each
/// `release` still finds its admission.
fn clipped_bursts_book_exact_counts() {
    let (table, caps) = topology();
    let classes = ClassSet::single(TrafficClass::voip());
    let rate = TrafficClass::voip().bucket.rate;
    let mut chain = PolicyChain::static_only();
    chain.push(Box::new(TokenBucketStage::new(0.0, 17.0 * rate, &[rate])));
    let ctrl = AdmissionController::from_generation(ConfigGeneration::with_policy(
        table,
        &classes,
        &caps,
        &[0.32],
        BackendKind::Atomic,
        chain,
    ));
    let m = AdmissionMetrics::global(1);
    let burst = vec![
        FlowSpec {
            class: ClassId(0),
            src: NodeId(1),
            dst: NodeId(2),
        };
        12
    ];
    let tracer = trace::global();
    tracer.set_enabled(true);
    tracer.drain();
    for (what, admitted, expected) in [
        (
            "clipped by the link",
            10,
            [10, 2, 2, 0, 0, 10, 10, 12, 1, 1],
        ),
        ("clipped by the bucket", 7, [7, 0, 0, 5, 0, 7, 7, 7, 1, 1]),
    ] {
        ctrl.refresh_gauges();
        let before = burst_counts(&m);
        let out = ctrl.try_admit_batch_at(&burst, 0.0);
        assert!(!out.fast_path, "{what}");
        assert_eq!(out.admitted(), admitted, "{what}");
        drop(out);
        ctrl.refresh_gauges();
        let after = burst_counts(&m);
        let moved: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(moved, expected, "{what}");
    }
    tracer.set_enabled(false);
    let events: Vec<(EventKind, u64, f64, f64)> = tracer
        .drain()
        .events
        .iter()
        .map(|e| (e.kind, e.flow, e.a, e.b))
        .collect();
    // Flows 1–12 are the first burst, 13–24 the second; the shared link
    // has a 320 kb/s budget; the bucket is stage 0.
    let mut expected = vec![
        (EventKind::AdmitBatch, 1, 10.0, 0.0),
        (EventKind::RejectLinkFull, 11, 320_000.0, 320_000.0),
        (EventKind::RejectLinkFull, 12, 320_000.0, 320_000.0),
    ];
    expected.extend((1..=10).map(|id| (EventKind::Release, id, rate, 1.0)));
    expected.push((EventKind::AdmitBatch, 13, 7.0, 0.0));
    expected.push((EventKind::RejectPolicy, 20, 0.0, 5.0));
    expected.extend((13..=19).map(|id| (EventKind::Release, id, rate, 1.0)));
    assert_eq!(events, expected);
}

/// A slice of several runs that all fit, `[A, A, nowhere, B]`, books and
/// traces run by run what its flows would have one by one: an
/// `admit_batch` per admitted run, the routeless flow's own
/// `reject_no_route`, one retry-histogram entry per decided flow, ids in
/// slice order — and no fallback, since no routed flow was turned away.
fn fitting_multi_run_slice_books_per_run() {
    let ctrl = metered();
    let m = AdmissionMetrics::global(1);
    let spec = |src, dst| FlowSpec {
        class: ClassId(0),
        src: NodeId(src),
        dst: NodeId(dst),
    };
    let (a, nowhere, b) = (spec(0, 2), spec(2, 0), spec(1, 2));
    let generation = ctrl.current_generation();
    let first_hop = |s: FlowSpec| generation.table().route(s.src, s.dst, s.class).unwrap()[0];
    let tracer = trace::global();
    tracer.set_enabled(true);
    tracer.drain();
    ctrl.refresh_gauges();
    let counts = |m: &AdmissionMetrics| {
        [
            m.admits.get(),
            m.rejects_no_route.get(),
            m.batches.get(),
            m.batch_fallbacks.get(),
            m.retries_per_op.count(),
            m.path_hops.count(),
        ]
    };
    let before = counts(&m);
    let out = ctrl.try_admit_batch(&[a, a, nowhere, b]);
    assert!(out.fast_path);
    assert_eq!(out.admitted(), 3);
    ctrl.refresh_gauges();
    let moved: Vec<u64> = counts(&m).iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(moved, [3, 1, 1, 0, 3, 3]);
    tracer.set_enabled(false);
    let events: Vec<_> = tracer
        .drain()
        .events
        .iter()
        .map(|e| (e.kind, e.class, e.flow, e.server, e.a, e.b))
        .collect();
    // Flow ids are per controller: this slice holds 1–4. The routeless
    // flow's payload is its (src, dst).
    assert_eq!(
        events,
        [
            (EventKind::AdmitBatch, 0, 1, first_hop(a), 2.0, 0.0),
            (EventKind::RejectNoRoute, 0, 3, u32::MAX, 2.0, 0.0),
            (EventKind::AdmitBatch, 0, 4, first_hop(b), 1.0, 0.0),
        ]
    );
}

/// A reload may bring classes the first generation lacked: a metered
/// controller built on one class and reconfigured to three meters the
/// new generation for three. Saturating class 2 books its link-full
/// rejects under class 2, and its utilization gauge reads full.
fn a_reload_that_adds_classes_meters_them() {
    let ctrl = metered();
    let mut g = Digraph::with_nodes(2);
    let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
    let mut table = RoutingTable::new();
    let mut classes = ClassSet::new();
    for _ in 0..3 {
        let class = classes.push(TrafficClass::voip());
        table.insert(class, &Path::from_edges(&g, vec![e01]));
    }
    // Half of 192 kb/s: three voip flows per class.
    ctrl.reconfigure(ConfigGeneration::new(table, &classes, &[192e3], &[0.5; 3]));
    let m = AdmissionMetrics::global(3);
    ctrl.refresh_gauges();
    let rejects0 = m.rejects_link_full_class[2].get();
    let admit = || ctrl.try_admit(ClassId(2), NodeId(0), NodeId(1));
    let held: Vec<_> = (0..3).map(|_| admit().unwrap()).collect();
    let rejects = (0..4).filter(|_| admit().is_err()).count() as u64;
    assert_eq!(rejects, 4);
    ctrl.refresh_gauges();
    assert_eq!(m.rejects_link_full_class[2].get() - rejects0, rejects);
    assert_eq!(m.class_max_share[2].get(), 1.0);
    drop(held);
}

#[test]
fn global_metric_deltas_are_exact() {
    metrics_track_admits_rejects_and_releases();
    decision_telemetry_feeds_latency_and_retry_histograms();
    unmetered_controller_admits_identically();
    clipped_bursts_book_exact_counts();
    fitting_multi_run_slice_books_per_run();
    a_reload_that_adds_classes_meters_them();
}
