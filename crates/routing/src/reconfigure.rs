//! Incremental reconfiguration of a committed configuration.
//!
//! The paper invokes configuration "at system startup or after
//! renegotiation of service level agreements" (Section 4). In operation
//! that renegotiation is rarely a from-scratch rerun: pairs are added
//! one at a time, and links fail. This module maintains a live
//! [`Configuration`] that supports:
//!
//! * [`Configuration::add_pair`] — route one more pair, warm-started from
//!   the committed fixed point (sound: adding a route only grows `Z`);
//! * [`Configuration::fail_link`] — withdraw a physical link and re-route
//!   every affected pair around it, re-verifying safety.
//!
//! Edge (server) ids never change across reconfigurations — failures are
//! expressed as an avoid-set, keeping `Servers`, route sets, and the
//! admission controller's counters stable.

use crate::heuristic::{choose_route, CandidateCache, HeuristicConfig, Selection, SelectionError};
use crate::pairs::{Demand, Pair};
use std::collections::HashSet;
use uba_admission::{BackendKind, ConfigGeneration, RoutingTable};
use uba_delay::committed::CommittedState;
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::RouteSet;
use uba_delay::servers::Servers;
use uba_graph::{Digraph, DynDigraph, EdgeId, NodeId, Path};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

/// A live, incrementally maintained single-class configuration.
#[derive(Clone, Debug)]
pub struct Configuration {
    g: Digraph,
    servers: Servers,
    class: TrafficClass,
    alpha: f64,
    cfg: HeuristicConfig,
    pairs: Vec<Pair>,
    paths: Vec<Path>,
    routes: RouteSet,
    overlay: DynDigraph,
    delays: Vec<f64>,
    route_delays: Vec<f64>,
    failed: HashSet<EdgeId>,
}

/// What a link failure recovery did.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Pairs whose routes crossed the failed link and were re-routed.
    pub rerouted: Vec<Pair>,
    /// Worst route delay after recovery.
    pub worst_route_delay: f64,
}

impl Configuration {
    /// Adopts a bulk [`Selection`] as the starting configuration.
    pub fn from_selection(
        g: Digraph,
        servers: Servers,
        class: TrafficClass,
        alpha: f64,
        cfg: HeuristicConfig,
        sel: Selection,
    ) -> Self {
        let mut overlay = DynDigraph::new(g.edge_count());
        for r in sel.routes.routes() {
            overlay.add_chain(&r.servers);
        }
        Self {
            g,
            servers,
            class,
            alpha,
            cfg,
            pairs: sel.pairs,
            paths: sel.paths,
            routes: sel.routes,
            overlay,
            delays: sel.delays,
            route_delays: sel.route_delays,
            failed: HashSet::new(),
        }
    }

    /// The committed pairs.
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// The committed route of each pair (same order as [`Self::pairs`]).
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Per-route end-to-end delay bounds.
    pub fn route_delays(&self) -> &[f64] {
        &self.route_delays
    }

    /// Links currently marked failed (directed edge ids).
    pub fn failed_links(&self) -> &HashSet<EdgeId> {
        &self.failed
    }

    /// Routes one additional pair; the committed configuration is
    /// untouched on failure.
    pub fn add_pair(&mut self, pair: Pair) -> Result<(), SelectionError> {
        self.route_pairs(&[pair])
    }

    /// Routes `pairs` in order on top of the committed routes, around
    /// the failed links, through the same safety oracle as initial
    /// selection — one [`CommittedState`] built from the committed fixed
    /// point serves them all. Stops at the first pair that cannot be
    /// routed, keeping the ones before it.
    fn route_pairs(&mut self, pairs: &[Pair]) -> Result<(), SelectionError> {
        let mut state = CommittedState::from_fixed_point(
            &self.servers,
            &self.class,
            self.alpha,
            &self.cfg.solver,
            std::mem::take(&mut self.routes),
            std::mem::take(&mut self.delays),
        );
        let mut cache = CandidateCache::new(&self.g, |e| !self.failed.contains(&e));
        let outcome = pairs.iter().try_for_each(|&pair| {
            let demand = Demand {
                class: ClassId(0),
                pair,
            };
            let path = choose_route(&mut state, &mut self.overlay, demand, &self.cfg, &mut cache)?;
            self.pairs.push(pair);
            self.paths.push(path);
            Ok(())
        });
        (self.routes, self.delays, self.route_delays) = state.into_parts();
        outcome
    }

    /// Takes the committed routes marked in `gone` (one flag per route)
    /// out of the pairs, the paths, the route set and the overlay, and
    /// returns their pairs. `delays` and `route_delays` are out of date
    /// until [`Self::solve`].
    fn detach(&mut self, gone: &[bool]) -> Vec<Pair> {
        let pairs = std::mem::take(&mut self.pairs);
        let paths = std::mem::take(&mut self.paths);
        let routes = std::mem::replace(&mut self.routes, RouteSet::new(self.g.edge_count()));
        let mut detached = Vec::new();
        for (i, (pair, path)) in pairs.into_iter().zip(paths).enumerate() {
            let route = &routes.routes()[i];
            if gone[i] {
                self.overlay.remove_chain(&route.servers);
                detached.push(pair);
            } else {
                self.pairs.push(pair);
                self.paths.push(path);
                self.routes.push(route.clone());
            }
        }
        detached
    }

    fn solve(&mut self) {
        let r = solve_two_class(
            &self.servers,
            &self.class,
            self.alpha,
            &self.routes,
            &SolveConfig::default(),
            None,
        );
        debug_assert!(
            r.outcome.is_safe(),
            "shrinking a safe configuration cannot make it unsafe"
        );
        self.delays = r.delays;
        self.route_delays = r.route_delays;
    }

    /// Fails the physical link between routers `a` and `b` (both directed
    /// edges) and re-routes every pair whose committed route crossed it.
    ///
    /// Re-routing goes in decreasing-distance order through the same
    /// safety oracle as initial selection. On `Err`, the configuration is
    /// left with the failure applied and the *unaffected* routes intact;
    /// the offending pair is reported so the operator can shed it.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) -> Result<FailureReport, SelectionError> {
        let mut newly_failed = Vec::new();
        for e in self.g.edges() {
            let (s, t) = (self.g.src(e), self.g.dst(e));
            if (s == a && t == b) || (s == b && t == a) {
                newly_failed.push(e);
            }
        }
        for &e in &newly_failed {
            self.failed.insert(e);
        }

        // Detach affected pairs.
        let gone: Vec<bool> = self
            .paths
            .iter()
            .map(|p| p.edges.iter().any(|e| self.failed.contains(e)))
            .collect();
        let affected = self.detach(&gone);
        self.solve();

        // Re-route, longest pairs first (same ordering heuristic).
        let ordered = crate::pairs::order_pairs_by_distance(&self.g, &affected);
        self.route_pairs(&ordered)?;
        Ok(FailureReport {
            rerouted: ordered,
            worst_route_delay: self.route_delays.iter().cloned().fold(0.0, f64::max),
        })
    }

    /// Restores a previously failed physical link (both directions).
    /// Existing routes are kept (they are verified and stable); the link
    /// simply becomes available again for future routing. Returns how
    /// many directed edges were restored.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) -> usize {
        let mut restored = 0;
        for e in self.g.edges() {
            let (s, t) = (self.g.src(e), self.g.dst(e));
            if ((s == a && t == b) || (s == b && t == a)) && self.failed.remove(&e) {
                restored += 1;
            }
        }
        restored
    }

    /// Materializes the committed configuration as an installable
    /// [`ConfigGeneration`]: the run-time half of the reconfiguration
    /// loop. The routing table freezes the current paths, the budgets
    /// come from the server capacities and the verified `α`, and the
    /// backend is fresh — hand the result to
    /// `AdmissionController::reconfigure` to swap it live, or to
    /// `AdmissionController::from_generation` to start a controller.
    /// `kind` is ignored (see [`BackendKind`]).
    pub fn apply(&self, _kind: BackendKind) -> ConfigGeneration {
        let mut table = RoutingTable::new();
        for p in &self.paths {
            table.insert(ClassId(0), p);
        }
        let capacities: Vec<f64> = (0..self.g.edge_count())
            .map(|k| self.servers.capacity_at(k))
            .collect();
        ConfigGeneration::new(
            table,
            &ClassSet::single(self.class.clone()),
            &capacities,
            &[self.alpha],
        )
    }

    /// Re-verifies the whole committed configuration from scratch.
    pub fn verify(&self) -> bool {
        solve_two_class(
            &self.servers,
            &self.class,
            self.alpha,
            &self.routes,
            &SolveConfig::default(),
            None,
        )
        .outcome
        .is_safe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::select_routes;
    use crate::pairs::all_ordered_pairs;
    use uba_topology::mci;

    fn base_config(alpha: f64, step: usize) -> Configuration {
        let g = mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        let voip = TrafficClass::voip();
        let cfg = HeuristicConfig::default();
        let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(step).collect();
        let sel = select_routes(&g, &servers, &voip, alpha, &pairs, &cfg).unwrap();
        Configuration::from_selection(g, servers, voip, alpha, cfg, sel)
    }

    #[test]
    fn add_pair_extends_configuration() {
        let mut c = base_config(0.3, 20);
        let before = c.pairs().len();
        let extra = Pair {
            src: NodeId(12),
            dst: NodeId(14),
        };
        c.add_pair(extra).unwrap();
        assert_eq!(c.pairs().len(), before + 1);
        assert!(c.verify());
        assert_eq!(*c.pairs().last().unwrap(), extra);
    }

    #[test]
    fn link_failure_reroutes_around() {
        let mut c = base_config(0.25, 6);
        // Fail a core diagonal (SF—Atlanta): heavily used by SP-ish
        // routes.
        let report = c.fail_link(NodeId(0), NodeId(3)).expect("reroutable");
        assert!(c.verify());
        // No surviving route crosses the failed link.
        for p in c.paths() {
            for e in &p.edges {
                assert!(!c.failed_links().contains(e));
            }
        }
        assert!(report.worst_route_delay <= 0.1);
        // Every pair is still served.
        assert!(!report.rerouted.is_empty());
    }

    #[test]
    fn cascading_failures_eventually_unroutable() {
        // Isolating router 12 (single-homed Sacramento) makes its pairs
        // unroutable.
        let mut c = base_config(0.2, 18);
        let has_12 = c
            .pairs()
            .iter()
            .any(|p| p.src == NodeId(12) || p.dst == NodeId(12));
        let r = c.fail_link(NodeId(12), NodeId(0));
        if has_12 {
            assert!(matches!(r, Err(SelectionError::NoRoute(_))), "{r:?}");
        } else {
            assert!(r.is_ok());
        }
    }

    #[test]
    fn restore_link_reopens_routing() {
        let mut c = base_config(0.25, 40);
        c.fail_link(NodeId(0), NodeId(3)).unwrap();
        assert!(!c.failed_links().is_empty());
        assert_eq!(c.restore_link(NodeId(0), NodeId(3)), 2);
        assert!(c.failed_links().is_empty());
        // A pair whose SP uses the diagonal can now take it again.
        let pair = Pair {
            src: NodeId(12),
            dst: NodeId(15),
        };
        if !c.pairs().contains(&pair) {
            c.add_pair(pair).unwrap();
        }
        assert!(c.verify());
        // Restoring an intact link is a no-op.
        assert_eq!(c.restore_link(NodeId(0), NodeId(1)), 0);
    }

    #[test]
    fn apply_installs_and_live_reconfigures_a_controller() {
        use uba_admission::AdmissionController;

        let mut c = base_config(0.25, 6);
        let gen = c.apply(BackendKind::Atomic);
        assert_eq!(gen.alphas(), &[0.25]);
        assert_eq!(gen.table().len(), c.pairs().len());
        let ctrl = AdmissionController::from_generation(gen);
        // Every committed pair is admissible on the fresh budgets; hold
        // the flows across the swap.
        let held: Vec<_> = c
            .pairs()
            .iter()
            .map(|p| {
                ctrl.try_admit(ClassId(0), p.src, p.dst)
                    .expect("committed pair admits")
            })
            .collect();

        // Fail a core link, recompute routes, and install the result
        // live — the very gap this module used to leave open.
        c.fail_link(NodeId(0), NodeId(3)).expect("reroutable");
        let report = ctrl.reconfigure(c.apply(BackendKind::Atomic));
        assert_eq!(report.pinned_previous as usize, held.len());
        // New admissions route around the failure.
        for p in c.pairs() {
            let h = ctrl
                .try_admit(ClassId(0), p.src, p.dst)
                .expect("rerouted pair admits");
            for &s in h.route() {
                assert!(
                    !c.failed_links().contains(&EdgeId(s)),
                    "route crosses failed link"
                );
            }
        }
        // Old flows drain against the displaced generation.
        drop(held);
        assert!(ctrl.drain().is_drained());
    }

    #[test]
    fn failure_then_add_pair_avoids_failed_link() {
        let mut c = base_config(0.25, 40);
        c.fail_link(NodeId(1), NodeId(4)).unwrap();
        let pair = Pair {
            src: NodeId(13),
            dst: NodeId(16),
        };
        if !c.pairs().contains(&pair) {
            c.add_pair(pair).unwrap();
            let p = c.paths().last().unwrap();
            for e in &p.edges {
                assert!(!c.failed_links().contains(e));
            }
        }
    }
}
