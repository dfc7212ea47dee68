//! Operations-loop integration: configuration changes propagate into a
//! fresh admission plane without disturbing the guarantee machinery.

use uba::admission::{AdmissionController, BackendKind, RoutingTable};
use uba::prelude::*;
use uba::routing::Configuration;

fn stand_up_controller(
    cfg: &Configuration,
    servers: &Servers,
    voip: &TrafficClass,
    alpha: f64,
) -> AdmissionController {
    let mut table = RoutingTable::new();
    for p in cfg.paths() {
        table.insert(ClassId(0), p);
    }
    let caps: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
    AdmissionController::new(table, &ClassSet::single(voip.clone()), &caps, &[alpha])
}

#[test]
fn failure_recovery_keeps_admission_working() {
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let alpha = 0.25;
    let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(4).collect();
    let sel = select_routes(
        &g,
        &servers,
        &voip,
        alpha,
        &pairs,
        &HeuristicConfig::default(),
    )
    .expect("configurable");
    let mut live = Configuration::from_selection(
        g.clone(),
        servers.clone(),
        voip.clone(),
        alpha,
        HeuristicConfig::default(),
        sel,
    );

    // Admission plane v1.
    let ctrl = stand_up_controller(&live, &servers, &voip, alpha);
    let probe = live.pairs()[0];
    let call = ctrl.try_admit(ClassId(0), probe.src, probe.dst).unwrap();
    assert!(!call.route().is_empty());
    drop(call);

    // Incident + recovery.
    let report = live.fail_link(NodeId(1), NodeId(4)).expect("recoverable");
    assert!(live.verify());

    // Admission plane v2 from the recovered configuration: every pair
    // still admissible, and no admitted route crosses the dead link.
    let ctrl2 = stand_up_controller(&live, &servers, &voip, alpha);
    let mut admitted = 0;
    for p in live.pairs() {
        let h = ctrl2
            .try_admit(ClassId(0), p.src, p.dst)
            .unwrap_or_else(|e| panic!("pair {p:?} rejected post-recovery: {e:?}"));
        for e in h.route() {
            assert!(
                !live.failed_links().contains(&uba::graph::EdgeId(*e)),
                "admitted route crosses the failed link"
            );
        }
        admitted += 1;
    }
    assert_eq!(admitted, live.pairs().len());
    assert!(!report.rerouted.is_empty());

    // Restoration makes the link routable again for new demand.
    assert_eq!(live.restore_link(NodeId(1), NodeId(4)), 2);
    assert!(live.verify());
}

#[test]
fn live_reconfigure_follows_link_failure_without_dropping_calls() {
    // Same incident as above, but instead of standing up a second
    // admission plane, the recovered configuration is hot-swapped into
    // the *live* controller: calls admitted before the failure stay up
    // (draining against their own generation) while new calls land on
    // the repaired routes — and on a different backend, since the swap
    // can also migrate backends.
    let g = uba::topology::mci();
    let servers = Servers::uniform(&g, 100e6, 6);
    let voip = TrafficClass::voip();
    let alpha = 0.25;
    let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(4).collect();
    let sel = select_routes(
        &g,
        &servers,
        &voip,
        alpha,
        &pairs,
        &HeuristicConfig::default(),
    )
    .expect("configurable");
    let mut live = Configuration::from_selection(
        g.clone(),
        servers.clone(),
        voip.clone(),
        alpha,
        HeuristicConfig::default(),
        sel,
    );

    let ctrl = AdmissionController::from_generation(live.apply(BackendKind::Atomic));
    let g1 = ctrl.current_generation().id();
    let held: Vec<_> = live
        .pairs()
        .iter()
        .map(|p| ctrl.try_admit(ClassId(0), p.src, p.dst).unwrap())
        .collect();

    live.fail_link(NodeId(1), NodeId(4)).expect("recoverable");
    assert!(live.verify());
    let report = ctrl.reconfigure(live.apply(BackendKind::Atomic));
    assert_eq!(report.previous, g1);
    assert_eq!(report.pinned_previous, held.len() as u64);

    // New calls run against the repaired routes and fresh budgets.
    for p in live.pairs() {
        let h = ctrl
            .try_admit(ClassId(0), p.src, p.dst)
            .unwrap_or_else(|e| panic!("pair {p:?} rejected post-swap: {e:?}"));
        for e in h.route() {
            assert!(
                !live.failed_links().contains(&uba::graph::EdgeId(*e)),
                "admitted route crosses the failed link"
            );
        }
    }

    // The pre-incident calls were never dropped; ending them drains the
    // retired generation completely.
    assert_eq!(held[0].generation(), g1);
    drop(held);
    assert!(ctrl.drain().is_drained());
}

#[test]
fn occupancy_dashboard_reflects_load() {
    let g = uba::topology::ring(6);
    let servers = Servers::uniform(&g, 1e6, 3);
    let voip = TrafficClass::voip();
    let alpha = 0.3;
    let pairs = all_ordered_pairs(&g);
    let paths = sp_selection(&g, &pairs).unwrap();
    let mut table = RoutingTable::new();
    table.insert_all(ClassId(0), paths.iter());
    let caps: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
    let ctrl = AdmissionController::new(table, &ClassSet::single(voip), &caps, &[alpha]);

    // Saturate a single pair's route.
    let p = pairs[0];
    let mut held = Vec::new();
    while let Ok(h) = ctrl.try_admit(ClassId(0), p.src, p.dst) {
        held.push(h);
    }
    let hot = ctrl.hottest_links(ClassId(0), 3);
    // 9 of 9.375 budgeted flows fit: the link is as full as granularity
    // allows (another flow would not fit).
    assert!(hot[0].1 > 0.9, "hottest link occupancy {}", hot[0].1);
    // Releasing everything drains the dashboard.
    drop(held);
    assert!(ctrl
        .occupancy_snapshot(ClassId(0))
        .iter()
        .all(|&o| o == 0.0));
}
