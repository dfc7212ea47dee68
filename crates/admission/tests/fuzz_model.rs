//! Model-based fuzzing of the lock-free admission controller: random
//! admit/release sequences must agree decision-for-decision with a
//! straightforward single-threaded reference model (`uba_obs::check`:
//! 64 seeded sequences, the same every run).

use uba_admission::{AdmissionController, ConfigGeneration, RoutingTable};
use uba_graph::{Digraph, NodeId, Path};
use uba_obs::{check, ensure};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

/// Reference: plain per-link accounting with f64s.
struct Reference {
    budget: f64,
    rate: f64,
    reserved: Vec<f64>,
    routes: Vec<Vec<usize>>,
}

impl Reference {
    fn admit(&mut self, route_idx: usize) -> bool {
        let route = &self.routes[route_idx];
        if route
            .iter()
            .all(|&k| self.reserved[k] + self.rate <= self.budget + 1e-6)
        {
            for &k in route {
                self.reserved[k] += self.rate;
            }
            true
        } else {
            false
        }
    }

    fn release(&mut self, route_idx: usize) {
        for &k in &self.routes[route_idx] {
            self.reserved[k] -= self.rate;
        }
    }
}

/// A line topology with three overlapping routes.
fn setup(alpha: f64) -> (AdmissionController, Reference, Vec<(NodeId, NodeId)>) {
    let mut g = Digraph::with_nodes(4);
    let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
    let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
    let (e23, _) = g.add_link(NodeId(2), NodeId(3), 1.0);
    let mut table = RoutingTable::new();
    let paths = [
        Path::from_edges(&g, vec![e01, e12, e23]), // 0 -> 3
        Path::from_edges(&g, vec![e12, e23]),      // 1 -> 3
        Path::from_edges(&g, vec![e23]),           // 2 -> 3
    ];
    for p in &paths {
        table.insert(ClassId(0), p);
    }
    let classes = ClassSet::single(TrafficClass::voip());
    let caps = vec![1e6; g.edge_count()];
    let ctrl = AdmissionController::from_generation(ConfigGeneration::new(
        table,
        &classes,
        &caps,
        &[alpha],
    ));
    let reference = Reference {
        budget: alpha * 1e6,
        rate: 32_000.0,
        reserved: vec![0.0; g.edge_count()],
        routes: paths
            .iter()
            .map(|p| p.edges.iter().map(|e| e.index()).collect())
            .collect(),
    };
    let endpoints = paths
        .iter()
        .map(|p| (p.source().unwrap(), p.target().unwrap()))
        .collect();
    (ctrl, reference, endpoints)
}

/// ops: (route 0..3, action admit/release-oldest).
#[test]
fn controller_agrees_with_reference() {
    check("controller_agrees_with_reference", 64, |rng| {
        let alpha = rng.range_f64(0.05, 0.6);
        let ops: Vec<(usize, bool)> = (0..1 + rng.index(199))
            .map(|_| (rng.index(3), rng.next_u64() & 1 == 1))
            .collect();
        let (ctrl, mut reference, endpoints) = setup(alpha);
        // Held flows per route, parallel in both systems.
        let mut held: Vec<Vec<uba_admission::FlowHandle>> = vec![vec![], vec![], vec![]];
        let mut held_ref: Vec<usize> = vec![0; 3];
        for (route, is_admit) in ops {
            if is_admit {
                let (src, dst) = endpoints[route];
                let got = ctrl.try_admit(ClassId(0), src, dst).is_ok_and(|h| {
                    held[route].push(h);
                    true
                });
                let expect = reference.admit(route);
                ensure!(got == expect, "divergence on admit route {route}");
                if expect {
                    held_ref[route] += 1;
                }
            } else if held_ref[route] > 0 {
                held[route].pop();
                reference.release(route);
                held_ref[route] -= 1;
            }
        }
        // Final per-link accounting matches.
        for k in 0..reference.reserved.len() {
            let got = ctrl.reserved(k, ClassId(0));
            ensure!(
                (got - reference.reserved[k]).abs() < 1e-6,
                "link {k}: {got} vs {}",
                reference.reserved[k]
            );
        }
        // Teardown drains everything.
        drop(held);
        for k in 0..reference.reserved.len() {
            ensure!(ctrl.reserved(k, ClassId(0)) == 0.0);
        }
        Ok(())
    });
}
