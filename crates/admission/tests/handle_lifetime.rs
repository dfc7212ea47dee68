//! A flow handle keeps its generation and nothing else, and metering
//! follows the generation.
//!
//! Exact deltas on the process-global `admission.admits` /
//! `admission.releases`, so — like `metrics_exact.rs` — this binary
//! holds one `#[test]` that runs its cases one after another.

use uba_admission::{
    AdmissionController, AdmissionMetrics, BackendKind, ConfigGeneration, RoutingTable,
};
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

fn fresh_generation() -> ConfigGeneration {
    let (table, caps) = topology();
    ConfigGeneration::new(
        table,
        &ClassSet::single(TrafficClass::voip()),
        &caps,
        &[0.32],
        BackendKind::Atomic,
    )
}

/// Flushed `(admits, releases)` of the global metrics.
fn admits_and_releases(m: &AdmissionMetrics) -> (u64, u64) {
    m.flush();
    (m.admits.get(), m.releases.get())
}

/// With the controller reconfigured twice and then dropped, the flow
/// still releases against the generation that admitted it, and the
/// release is booked once, on the metrics that generation was adopted
/// with.
fn a_handle_outlives_its_controller_and_two_reconfigures() {
    let ctrl = AdmissionController::from_generation(fresh_generation());
    let m = AdmissionMetrics::global(1);
    let g0 = ctrl.current_generation();
    let shared = g0.table().route(NodeId(1), NodeId(2), ClassId(0)).unwrap()[0] as usize;
    let h = ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap();
    ctrl.reconfigure(fresh_generation());
    ctrl.reconfigure(fresh_generation());
    drop(ctrl);
    let (admits0, releases0) = admits_and_releases(&m);
    assert_eq!(h.generation(), g0.id());
    assert_eq!(g0.pinned(), 1);
    assert_eq!(g0.backend().reserved(shared, 0), h.rate());
    drop(h);
    assert_eq!(admits_and_releases(&m), (admits0, releases0 + 1));
    assert_eq!(g0.pinned(), 0);
    for server in 0..g0.backend().servers() {
        assert_eq!(g0.backend().reserved(server, 0), 0.0);
    }
}

/// A flow put on a retired generation, or on one another controller
/// adopted, is booked — admit and release alike — where that
/// generation's adopter books, whoever was asked: the two counters can
/// never drift apart.
fn metering_follows_the_generation() {
    let m = AdmissionMetrics::global(1);
    let metered = AdmissionController::from_generation(fresh_generation());
    let unmetered = AdmissionController::from_generation_unmetered(fresh_generation());
    let retired = metered.current_generation();
    metered.reconfigure(fresh_generation());
    for (what, asked, generation, booked) in [
        ("retired, through its adopter", &metered, &retired, 1),
        ("retired, through a stranger", &unmetered, &retired, 1),
        (
            "an unmetered controller's, through a metered one",
            &metered,
            &unmetered.current_generation(),
            0,
        ),
    ] {
        let (admits0, releases0) = admits_and_releases(&m);
        let h = asked
            .try_admit_on(generation, ClassId(0), NodeId(0), NodeId(2))
            .unwrap();
        assert_eq!(h.generation(), generation.id(), "{what}");
        assert_eq!(
            admits_and_releases(&m),
            (admits0 + booked, releases0),
            "{what}"
        );
        drop(h);
        assert_eq!(
            admits_and_releases(&m),
            (admits0 + booked, releases0 + booked),
            "{what}"
        );
        assert_eq!(generation.pinned(), 0, "{what}");
    }
}

#[test]
fn a_flow_is_booked_where_its_generation_is() {
    a_handle_outlives_its_controller_and_two_reconfigures();
    metering_follows_the_generation();
}
