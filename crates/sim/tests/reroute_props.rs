//! The guarantee across a re-route: a live configuration that loses a
//! link either re-routes exactly the pairs that crossed it and stays
//! safe, or refuses and stays as it was.
//!
//! Each case draws a topology of the families `random_differential`
//! simulates, selects routes for every ordered pair with the §5.2
//! heuristic at an α inside Theorem 4's window (a case whose selection
//! fails is skipped and counted), then fails a random link that some
//! route uses. On success the re-routed pairs are those whose path
//! crossed the link, every other pair keeps its path, every path avoids
//! the failed edges and each new one is one of Yen's candidates over the
//! surviving edges, a fresh solve of the paths is safe and passes the
//! independent checker, and a round-robin fill of the routes simulates
//! with zero deadline misses. On refusal every accessor reads as before.

// Shared with the differential suites; this property draws its
// topologies and α from it and uses nothing else.
#[allow(dead_code)]
mod instances;

use instances::{theorem4_alpha, topology, CAPACITY};
use std::collections::HashSet;
use uba_admission::UtilizationState;
use uba_delay::certificate;
use uba_delay::fixed_point::{solve_two_class, SolveConfig};
use uba_delay::routeset::{Route, RouteSet};
use uba_delay::servers::Servers;
use uba_graph::{bfs, k_shortest_paths_filtered, EdgeId, Path};
use uba_obs::{check, ensure};
use uba_routing::{
    all_ordered_pairs, select_routes, Configuration, HeuristicConfig, Pair, SelectionError,
};
use uba_sim::{simulate, FlowSpec, SimConfig, SourceModel};
use uba_traffic::{ClassId, ClassSet, TrafficClass};

/// Cases drawn: about one in five re-routes, the rest refuse (a line or
/// a star cut in two) or fail their first selection.
const CASES: u64 = 96;
const HORIZON: f64 = 0.1;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|d| d.to_bits()).collect()
}

fn key(p: &Pair) -> (u32, u32) {
    (p.src.0, p.dst.0)
}

#[test]
fn a_link_failure_keeps_the_guarantee_or_changes_nothing() {
    let voip = TrafficClass::voip();
    let cfg = HeuristicConfig::default();
    let (mut skipped, mut rerouted, mut refused) = (0, 0, 0);
    check("a_link_failure_keeps_the_guarantee", CASES, |rng| {
        let (family, g) = topology(rng);
        let servers = Servers::from_topology(&g, CAPACITY);
        let diameter = bfs::diameter(&g).expect("non-empty");
        let alpha = theorem4_alpha(rng, &servers, diameter, &voip);
        let pairs = all_ordered_pairs(&g);
        let Ok(sel) = select_routes(&g, &servers, &voip, alpha, &pairs, &cfg) else {
            skipped += 1;
            return Ok(());
        };
        let mut live = Configuration::from_selection(
            g.clone(),
            servers.clone(),
            voip.clone(),
            alpha,
            cfg.clone(),
            sel,
        );
        let (pairs, paths) = (live.pairs().to_vec(), live.paths().to_vec());
        let route_delays = bits(live.route_delays());

        // A random hop of a random route: every path has one.
        let path = &paths[rng.index(paths.len())];
        let e = path.edges[rng.index(path.edges.len())];
        let (a, b) = (g.src(e), g.dst(e));
        let link: HashSet<EdgeId> = g
            .edges()
            .filter(|&f| [(a, b), (b, a)].contains(&(g.src(f), g.dst(f))))
            .collect();
        let crossed = |p: &Path| p.edges.iter().any(|f| link.contains(f));
        let at = format!("{family} at alpha {alpha}, link {a:?}-{b:?}");

        match live.fail_link(a, b) {
            Ok(report) => {
                rerouted += 1;
                let mut want: Vec<Pair> = (pairs.iter().zip(&paths))
                    .filter(|(_, p)| crossed(p))
                    .map(|(&pair, _)| pair)
                    .collect();
                let mut got = report.rerouted.clone();
                want.sort_unstable_by_key(key);
                got.sort_unstable_by_key(key);
                ensure!(got == want, "{at}: re-routed {got:?}, crossing {want:?}");
                ensure!(
                    live.failed_links() == &link,
                    "{at}: failed {:?}",
                    live.failed_links()
                );
                let mut now: Vec<(Pair, &Path)> =
                    live.pairs().iter().copied().zip(live.paths()).collect();
                now.sort_unstable_by_key(|(pair, _)| key(pair));
                let mut then: Vec<(Pair, &Path)> = pairs.iter().copied().zip(&paths).collect();
                then.sort_unstable_by_key(|(pair, _)| key(pair));
                let same = now
                    .iter()
                    .map(|(p, _)| key(p))
                    .eq(then.iter().map(|(p, _)| key(p)));
                ensure!(same, "{at}: the committed pairs changed");
                for ((pair, new), (_, old)) in now.iter().zip(&then) {
                    ensure!(!crossed(new), "{at}: {pair:?} still crosses the link");
                    if !crossed(old) {
                        ensure!(new == old, "{at}: {pair:?} moved without crossing the link");
                        continue;
                    }
                    let yen =
                        k_shortest_paths_filtered(&g, pair.src, pair.dst, cfg.k_candidates, |f| {
                            !link.contains(&f)
                        });
                    ensure!(
                        yen.contains(new),
                        "{at}: {pair:?} took a path no candidate list holds"
                    );
                }

                // A fresh solve of what is committed, certified.
                let mut routes = RouteSet::new(g.edge_count());
                for p in live.paths() {
                    routes.push(Route::from_path(ClassId(0), p));
                }
                let solved = solve_two_class(
                    &servers,
                    &voip,
                    alpha,
                    &routes,
                    &SolveConfig::default(),
                    None,
                );
                ensure!(
                    solved.outcome.is_safe(),
                    "{at}: the re-routed configuration is unsafe"
                );
                let d_hat: Vec<f64> = solved.delays.iter().map(|d| d * (1.0 + 1e-9)).collect();
                let classes = ClassSet::single(voip.clone());
                let alphas = vec![alpha; servers.len()];
                let certified = certificate::check(&servers, &classes, &alphas, &routes, &d_hat);
                ensure!(
                    certified.is_ok(),
                    "{at}: the checker refuses: {certified:?}"
                );

                // Every route filled round-robin to the budget, simulated.
                let capacities: Vec<f64> =
                    (0..servers.len()).map(|k| servers.capacity_at(k)).collect();
                let flows: Vec<FlowSpec> = UtilizationState::new(&capacities, &[alpha])
                    .fill_round_robin(live.paths(), 0, voip.bucket.rate)
                    .into_iter()
                    .map(|i| FlowSpec {
                        class: 0,
                        ingress: live.pairs()[i].src.0,
                        route: live.paths()[i].edges.iter().map(|e| e.0).collect(),
                        source: SourceModel::voip_greedy(0.0),
                    })
                    .collect();
                let report = simulate(
                    &capacities,
                    &flows,
                    &SimConfig::new(HORIZON, vec![voip.deadline]),
                );
                ensure!(
                    report.total_misses() == 0,
                    "{at}, {} flows: {} deadline misses",
                    flows.len(),
                    report.total_misses()
                );
            }
            Err(e) => {
                refused += 1;
                let (SelectionError::NoRoute(stuck) | SelectionError::NoSafeRoute(stuck)) = e;
                let stranded =
                    (pairs.iter().zip(&paths)).any(|(&p, path)| p == stuck && crossed(path));
                ensure!(
                    stranded,
                    "{at}: {e:?} names a pair that did not cross the link"
                );
                ensure!(live.pairs() == pairs, "{at}: {e:?} changed the pairs");
                ensure!(live.paths() == paths, "{at}: {e:?} changed the paths");
                ensure!(
                    bits(live.route_delays()) == route_delays,
                    "{at}: {e:?} changed the delays"
                );
                ensure!(
                    live.failed_links().is_empty(),
                    "{at}: {e:?} kept the failed link"
                );
            }
        }
        Ok(())
    });
    // Skipped cases check nothing; both outcomes must be seen.
    assert!(
        skipped <= CASES / 2 && rerouted >= CASES / 8 && refused > 0,
        "{skipped} skipped, {rerouted} re-routed, {refused} refused of {CASES}"
    );
}
