//! Verification of a safe utilization assignment (Figure 2).
//!
//! Given the topology's servers, the traffic classes with their
//! utilization assignment `α_i`, and the committed routes, decide whether
//! every route of every class meets its class deadline under the
//! configuration-time delay bounds — i.e. whether the assignment is *safe*
//! to enforce with run-time utilization tests alone.

use crate::fixed_point::{solve_rule, Outcome, SolveConfig};
use crate::routeset::RouteSet;
use crate::rule::{by_class, Theorem5};
use crate::servers::Servers;
use uba_traffic::ClassSet;

/// Detailed verification report (Figure 2's SUCCESS/FAILURE plus the
/// evidence).
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Figure 2's verdict: SUCCESS iff `outcome == Safe`.
    pub safe: bool,
    /// Detailed verdict from the solver.
    pub outcome: Outcome,
    /// `server_delays[class][server]` — the per-server bounds `d_{i,k}`,
    /// one row per class: the solver's cells ([`crate::rule`]) are turned
    /// into rows here and nowhere else.
    pub server_delays: Vec<Vec<f64>>,
    /// Per-route end-to-end delays.
    pub route_delays: Vec<f64>,
    /// Smallest `deadline − route_delay` over all routes (`+∞` if there
    /// are no routes). Negative iff unsafe by deadline.
    pub worst_slack: f64,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

impl VerifyReport {
    /// Worst-case backlog (buffer occupancy) bound per server, in bits:
    /// a work-conserving server of capacity `C` with worst-case delay `d`
    /// never holds more than `C·d` bits, so routers can size class
    /// buffers from the verification output and the no-loss assumption
    /// of the analysis becomes an engineering statement.
    ///
    /// `capacities[k]` must match the servers the report was computed
    /// for. Returns the max over classes per server.
    pub fn backlog_bounds(&self, capacities: &[f64]) -> Vec<f64> {
        let s = self.server_delays.first().map(Vec::len).unwrap_or(0);
        assert_eq!(capacities.len(), s, "capacity per server");
        (0..s)
            .map(|k| {
                let d = self
                    .server_delays
                    .iter()
                    .map(|per_class| per_class[k])
                    .fold(0.0, f64::max);
                d * capacities[k]
            })
            .collect()
    }
}

/// Runs the Figure 2 verification procedure.
///
/// One solve under [`Theorem5`] at `alphas[class]` on every server, whose
/// cells become [`VerifyReport::server_delays`]' rows.
pub fn verify(
    servers: &Servers,
    classes: &ClassSet,
    alphas: &[f64],
    routes: &RouteSet,
    cfg: &SolveConfig,
) -> VerifyReport {
    assert!(!classes.is_empty(), "need at least one real-time class");
    assert_eq!(alphas.len(), classes.len(), "one alpha per class");
    let t0 = uba_obs::Stopwatch::start();

    let rule = Theorem5::new(classes.iter().map(|(_, c)| c), alphas.repeat(servers.len()));
    let r = solve_rule(servers, &rule, routes, cfg, None);
    let outcome = r.outcome;

    let worst_slack = routes
        .routes()
        .iter()
        .zip(&r.route_delays)
        .map(|(r, &rd)| classes.get(r.class).deadline - rd)
        .fold(f64::INFINITY, f64::min);

    let m = crate::metrics::solver();
    m.verify_seconds.record(t0.elapsed_secs());
    if outcome.is_safe() {
        m.verify_safe.inc();
    } else {
        m.verify_unsafe.inc();
    }

    VerifyReport {
        safe: outcome.is_safe(),
        outcome,
        server_delays: by_class(&r.delays, classes.len()),
        route_delays: r.route_delays,
        worst_slack,
        iterations: r.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routeset::Route;
    use uba_graph::{Digraph, NodeId};
    use uba_traffic::{ClassId, LeakyBucket, TrafficClass};

    /// A safe report's rows, lifted by a relative 1e-9 into a witness,
    /// pass the independent checker.
    fn certify(
        servers: &Servers,
        classes: &ClassSet,
        alphas: &[f64],
        routes: &RouteSet,
        rep: &VerifyReport,
    ) {
        const LIFT: f64 = 1e-9;
        let nc = classes.len();
        let d_hat: Vec<f64> = (0..servers.len() * nc)
            .map(|c| rep.server_delays[c % nc][c / nc] * (1.0 + LIFT))
            .collect();
        let cells = alphas.repeat(servers.len());
        let got = crate::certificate::check(servers, classes, &cells, routes, &d_hat);
        assert_eq!(got, Ok(()), "a safe verdict the checker refuses");
    }

    fn ring_setup(n: usize) -> (Servers, RouteSet) {
        let mut g = Digraph::with_nodes(n);
        for i in 0..n {
            g.add_link(NodeId(i as u32), NodeId(((i + 1) % n) as u32), 1.0);
        }
        let servers = Servers::uniform(&g, 100e6, 6);
        // One clockwise route per adjacent pair (forward edges have even
        // ids).
        let mut routes = RouteSet::new(g.edge_count());
        for i in 0..n {
            routes.push(Route {
                class: ClassId(0),
                servers: vec![2 * i as u32],
            });
        }
        (servers, routes)
    }

    #[test]
    fn single_hop_ring_is_safe() {
        let (servers, routes) = ring_setup(6);
        let classes = ClassSet::single(TrafficClass::voip());
        let rep = verify(&servers, &classes, &[0.3], &routes, &SolveConfig::default());
        assert!(rep.safe);
        certify(&servers, &classes, &[0.3], &routes, &rep);
        assert_eq!(rep.outcome, Outcome::Safe);
        assert!(rep.worst_slack > 0.0 && rep.worst_slack < 0.1);
        assert_eq!(rep.server_delays.len(), 1);
        assert_eq!(rep.route_delays.len(), 6);
    }

    #[test]
    fn reported_worst_slack_matches_route_delays() {
        let (servers, routes) = ring_setup(4);
        let classes = ClassSet::single(TrafficClass::voip());
        let rep = verify(&servers, &classes, &[0.2], &routes, &SolveConfig::default());
        certify(&servers, &classes, &[0.2], &routes, &rep);
        let max_rd = rep.route_delays.iter().cloned().fold(0.0, f64::max);
        assert!((rep.worst_slack - (0.1 - max_rd)).abs() < 1e-12);
    }

    #[test]
    fn unsafe_assignment_detected() {
        let (servers, routes) = ring_setup(6);
        let mut tight = TrafficClass::voip();
        tight.deadline = 1e-6;
        let classes = ClassSet::single(tight);
        let rep = verify(&servers, &classes, &[0.3], &routes, &SolveConfig::default());
        assert!(!rep.safe);
        assert!(matches!(rep.outcome, Outcome::DeadlineExceeded { .. }));
        assert!(rep.worst_slack < 0.0);
    }

    #[test]
    fn empty_routes_trivially_safe_with_infinite_slack() {
        let (servers, _) = ring_setup(4);
        let routes = RouteSet::new(servers.len());
        let classes = ClassSet::single(TrafficClass::voip());
        let rep = verify(&servers, &classes, &[0.5], &routes, &SolveConfig::default());
        assert!(rep.safe);
        certify(&servers, &classes, &[0.5], &routes, &rep);
        assert_eq!(rep.worst_slack, f64::INFINITY);
    }

    #[test]
    fn multiclass_dispatch() {
        let (servers, mut routes) = ring_setup(6);
        routes.push(Route {
            class: ClassId(1),
            servers: vec![0, 2],
        });
        let mut classes = ClassSet::new();
        classes.push(TrafficClass::voip());
        classes.push(TrafficClass::new(
            "video",
            LeakyBucket::new(16_000.0, 1_000_000.0),
            0.5,
        ));
        let rep = verify(
            &servers,
            &classes,
            &[0.2, 0.2],
            &routes,
            &SolveConfig::default(),
        );
        assert!(rep.safe, "route delays: {:?}", rep.route_delays);
        certify(&servers, &classes, &[0.2, 0.2], &routes, &rep);
        assert_eq!(rep.server_delays.len(), 2);
    }

    /// Over MCI shortest-path routes in one, two and three classes, the
    /// rows are `by_class` of what `solve_rule` returns under the one
    /// rule, bit for bit, with the same outcome, route delays and
    /// iterations.
    #[test]
    fn server_delays_are_the_rules_cells_by_class() {
        let g = uba_topology::mci();
        let servers = Servers::uniform(&g, 100e6, 6);
        let all = [
            TrafficClass::voip(),
            TrafficClass::new("video", LeakyBucket::new(64_000.0, 2_000_000.0), 0.3),
            TrafficClass::new("bulk-rt", LeakyBucket::new(256_000.0, 5_000_000.0), 1.0),
        ];
        let paths: Vec<_> = (g.nodes())
            .flat_map(|src| {
                let tree = uba_graph::dijkstra(&g, src);
                let g = &g;
                g.nodes()
                    .filter(move |&dst| dst != src)
                    .map(move |dst| tree.path_to(g, dst).expect("MCI is connected"))
            })
            .collect();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|d| d.to_bits()).collect() };
        let row_bits =
            |rows: &[Vec<f64>]| -> Vec<Vec<u64>> { rows.iter().map(|r| bits(r)).collect() };
        let cfg = SolveConfig::default();
        for nc in 1..=3 {
            let mut classes = ClassSet::new();
            let mut routes = RouteSet::new(g.edge_count());
            for class in &all[..nc] {
                let id = classes.push(class.clone());
                for p in &paths {
                    routes.push(Route::from_path(id, p));
                }
            }
            let alphas = &[0.05, 0.15, 0.15][..nc];
            let rep = verify(&servers, &classes, alphas, &routes, &cfg);
            let rule = Theorem5::new(&all[..nc], alphas.repeat(servers.len()));
            let want = solve_rule(&servers, &rule, &routes, &cfg, None);
            assert!(rep.safe, "{nc} classes: {:?}", rep.outcome);
            certify(&servers, &classes, alphas, &routes, &rep);
            assert_eq!(rep.outcome, want.outcome);
            assert_eq!(rep.iterations, want.iterations);
            assert_eq!(bits(&rep.route_delays), bits(&want.route_delays));
            let rows = by_class(&want.delays, nc);
            assert_eq!(
                row_bits(&rep.server_delays),
                row_bits(&rows),
                "{nc} classes"
            );
            // The check sees the layout: the cells cut into rows without
            // transposing them are other rows.
            let untransposed: Vec<Vec<f64>> = (want.delays.chunks(servers.len()))
                .map(<[f64]>::to_vec)
                .collect();
            assert_eq!(rows.len(), untransposed.len());
            if nc > 1 {
                assert_ne!(row_bits(&rows), row_bits(&untransposed), "{nc} classes");
            }
        }
    }

    #[test]
    fn backlog_bounds_are_capacity_times_delay() {
        let (servers, routes) = ring_setup(4);
        let classes = ClassSet::single(TrafficClass::voip());
        let rep = verify(&servers, &classes, &[0.3], &routes, &SolveConfig::default());
        certify(&servers, &classes, &[0.3], &routes, &rep);
        let caps: Vec<f64> = (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
        let backlogs = rep.backlog_bounds(&caps);
        for (k, &b) in backlogs.iter().enumerate() {
            assert!((b - rep.server_delays[0][k] * caps[k]).abs() < 1e-9);
        }
        // Every used server's buffer bound is positive and finite.
        assert!(backlogs.iter().any(|&b| b > 0.0));
        assert!(backlogs.iter().all(|&b| b.is_finite()));
    }

    #[test]
    #[should_panic(expected = "one alpha per class")]
    fn alpha_count_mismatch_panics() {
        let (servers, routes) = ring_setup(4);
        let classes = ClassSet::single(TrafficClass::voip());
        verify(
            &servers,
            &classes,
            &[0.3, 0.1],
            &routes,
            &SolveConfig::default(),
        );
    }
}
