//! Intserv-style per-flow admission — the scalability comparator.
//!
//! What admission control costs *without* the paper's configuration-time
//! safe-utilization machinery: every arrival re-runs the flow-aware
//! general delay analysis (Eq. 2–3) over **all** established flows plus
//! the candidate, and admits only if every flow still meets its deadline.
//! Decision cost grows with the number of established flows — exactly the
//! run-time overhead Section 1.1 attributes to intserv — while
//! [`crate::AdmissionController`] stays O(path length). Experiment S-AC
//! benchmarks the two side by side.

use crate::table::RoutingTable;
use std::sync::Mutex;
use uba_delay::general::{analyze_flows, Flow, GeneralOutcome};
use uba_delay::servers::Servers;
use uba_graph::NodeId;
use uba_traffic::{ClassId, ClassSet};

/// Opaque id of a flow admitted by the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BaselineFlowId(usize);

/// Per-flow (intserv-style) admission control.
#[derive(Debug)]
pub struct PerFlowAdmission {
    servers: Servers,
    table: RoutingTable,
    classes: ClassSet,
    /// Established flows; freed slots are reused.
    slots: Mutex<Slots>,
    /// Fixed-point tolerance for the per-decision analysis.
    tol: f64,
    max_iters: usize,
}

#[derive(Debug, Default)]
struct Slots {
    flows: Vec<Option<Flow>>,
    free: Vec<usize>,
}

impl PerFlowAdmission {
    /// Builds the baseline from the same configuration inputs as the
    /// utilization-based controller.
    pub fn new(table: RoutingTable, classes: ClassSet, servers: Servers) -> Self {
        Self {
            servers,
            table,
            classes,
            slots: Mutex::new(Slots::default()),
            tol: 1e-9,
            max_iters: 1000,
        }
    }

    /// Attempts to admit a flow by re-verifying the whole network.
    ///
    /// Returns the flow id on success. The decision holds the flow table
    /// lock for its full duration — per-flow admission is inherently
    /// serialized, which is part of the cost being measured.
    pub fn try_admit(&self, class: ClassId, src: NodeId, dst: NodeId) -> Option<BaselineFlowId> {
        let route = self.table.route(src, dst, class)?;
        let spec = self.classes.get(class);
        let candidate = Flow {
            class: class.index(),
            bucket: spec.bucket,
            deadline: spec.deadline,
            servers: route.to_vec(),
        };
        let mut slots = self.slots.lock().unwrap();
        // Assemble the full flow set including the candidate.
        let mut all: Vec<Flow> = slots
            .flows
            .iter()
            .filter_map(|f| f.as_ref().cloned())
            .collect();
        all.push(candidate.clone());
        let result = analyze_flows(
            &self.servers,
            &all,
            self.classes.len(),
            self.tol,
            self.max_iters,
        );
        if result.outcome != GeneralOutcome::Feasible {
            return None;
        }
        let id = match slots.free.pop() {
            Some(i) => {
                slots.flows[i] = Some(candidate);
                i
            }
            None => {
                slots.flows.push(Some(candidate));
                slots.flows.len() - 1
            }
        };
        Some(BaselineFlowId(id))
    }

    /// Tears down a previously admitted flow.
    ///
    /// # Panics
    /// Panics on double release or an unknown id.
    pub fn release(&self, id: BaselineFlowId) {
        let mut slots = self.slots.lock().unwrap();
        let slot = slots.flows.get_mut(id.0).expect("unknown baseline flow id");
        assert!(slot.take().is_some(), "double release of baseline flow");
        slots.free.push(id.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_graph::{Digraph, Path};
    use uba_traffic::TrafficClass;

    /// 0 -> 1 -> 2 plus a cross feeder 3 -> 1, voip class, slow links so
    /// small flow counts already matter.
    fn setup(cap: f64) -> (PerFlowAdmission, Digraph) {
        let mut g = Digraph::with_nodes(4);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let (e31, _) = g.add_link(NodeId(3), NodeId(1), 1.0);
        let mut table = RoutingTable::new();
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e31, e12]));
        let servers = Servers::uniform(&g, cap, 4);
        let classes = ClassSet::single(TrafficClass::voip());
        (PerFlowAdmission::new(table, classes, servers), g)
    }

    #[test]
    fn admits_feasible_flows() {
        let (adm, _) = setup(1e6);
        let a = adm.try_admit(ClassId(0), NodeId(0), NodeId(2));
        assert!(a.is_some());
        let b = adm.try_admit(ClassId(0), NodeId(3), NodeId(2));
        assert!(b.is_some());
    }

    #[test]
    fn rejects_when_capacity_exhausted() {
        // 100 kb/s links: 3 voip flows (96 kb/s) fit rate-wise; the 4th
        // cannot.
        let (adm, _) = setup(100_000.0);
        let mut admitted = 0;
        for _ in 0..4 {
            if adm.try_admit(ClassId(0), NodeId(0), NodeId(2)).is_some() {
                admitted += 1;
            }
        }
        assert!(admitted <= 3);
    }

    #[test]
    fn release_restores_admissibility() {
        let (adm, _) = setup(100_000.0);
        let ids: Vec<_> = (0..3)
            .filter_map(|_| adm.try_admit(ClassId(0), NodeId(0), NodeId(2)))
            .collect();
        let blocked = adm.try_admit(ClassId(0), NodeId(0), NodeId(2));
        assert!(blocked.is_none() || ids.len() < 3);
        if let Some(&first) = ids.first() {
            adm.release(first);
            assert!(adm.try_admit(ClassId(0), NodeId(0), NodeId(2)).is_some());
        }
    }

    #[test]
    fn no_route_is_rejection() {
        let (adm, _) = setup(1e6);
        assert!(adm.try_admit(ClassId(0), NodeId(2), NodeId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let (adm, _) = setup(1e6);
        let id = adm.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap();
        adm.release(id);
        adm.release(id);
    }

    #[test]
    fn slot_reuse() {
        let (adm, _) = setup(1e6);
        let a = adm.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap();
        adm.release(a);
        let b = adm.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap();
        // Freed slot is reused.
        assert_eq!(a, b);
    }
}
