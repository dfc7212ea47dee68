//! Route-structure census: the quantities that drive the fixed point.
//!
//! Under the paper's analysis (uniform `N`, one class), every server's
//! delay is the same function of its upstream-jitter term `Y_k`, and
//! `Y_k` is a max over *route prefixes*. The structure that decides how
//! much utilization verifies is therefore: how long are routes, and how
//! deep are the prefixes feeding each server ("mixing depth"). This
//! module measures both — it is the tool behind the EXPERIMENTS.md §T1
//! explanation of why SP's achievable α differs between MCI renderings.

use uba_delay::routeset::RouteSet;

/// Per-server route-structure statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCensus {
    /// Deepest upstream prefix (hops already traveled) among arrivals.
    pub max_prefix_hops: usize,
}

/// Whole-route-set census.
#[derive(Clone, Debug, Default)]
pub struct RouteCensus {
    /// Per-server statistics (dense, by raw server index).
    pub per_server: Vec<ServerCensus>,
    /// `route_lengths[h]` = number of routes with `h` hops.
    pub route_lengths: Vec<usize>,
    /// For each route: the mean over its hops of the *server-level*
    /// `max_prefix_hops` — the route's mixing depth. The worst route's
    /// mixing depth predicts where the binding deadline constraint sits.
    pub route_mixing_depth: Vec<f64>,
}

impl RouteCensus {
    /// Mixing depth of the deepest route (0 for an empty set).
    pub fn worst_mixing_depth(&self) -> f64 {
        self.route_mixing_depth.iter().cloned().fold(0.0, f64::max)
    }

    /// Longest route length in hops.
    pub fn max_route_length(&self) -> usize {
        self.route_lengths
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(h, _)| h)
            .unwrap_or(0)
    }
}

/// Computes the census for a route set (all classes together — prefix
/// structure is what the fixed point sees).
pub fn census(routes: &RouteSet) -> RouteCensus {
    let s = routes.server_count();
    let mut max_prefix = vec![0usize; s];
    let mut route_lengths = Vec::new();
    for r in routes.routes() {
        let len = r.servers.len();
        if route_lengths.len() <= len {
            route_lengths.resize(len + 1, 0);
        }
        route_lengths[len] += 1;
        for (p, &k) in r.servers.iter().enumerate() {
            let k = k as usize;
            max_prefix[k] = max_prefix[k].max(p);
        }
    }
    let per_server: Vec<ServerCensus> = (0..s)
        .map(|k| ServerCensus {
            max_prefix_hops: max_prefix[k],
        })
        .collect();
    let route_mixing_depth = routes
        .routes()
        .iter()
        .map(|r| {
            if r.servers.is_empty() {
                0.0
            } else {
                r.servers
                    .iter()
                    .map(|&k| per_server[k as usize].max_prefix_hops as f64)
                    .sum::<f64>()
                    / r.servers.len() as f64
            }
        })
        .collect();
    RouteCensus {
        per_server,
        route_lengths,
        route_mixing_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_delay::routeset::Route;
    use uba_traffic::ClassId;

    fn rs(server_count: usize, routes: &[&[u32]]) -> RouteSet {
        let mut set = RouteSet::new(server_count);
        for servers in routes {
            set.push(Route {
                class: ClassId(0),
                servers: servers.to_vec(),
            });
        }
        set
    }

    #[test]
    fn single_route_census() {
        let set = rs(4, &[&[0, 1, 2, 3]]);
        let c = census(&set);
        assert_eq!(c.per_server[0].max_prefix_hops, 0);
        assert_eq!(c.per_server[3].max_prefix_hops, 3);
        assert_eq!(c.route_lengths[4], 1);
        assert_eq!(c.max_route_length(), 4);
        // Mixing depth of the route: (0+1+2+3)/4 = 1.5.
        assert!((c.worst_mixing_depth() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn crossing_routes_raise_prefixes() {
        // Route B arrives at server 2 with a 2-hop prefix; route A's
        // first hop there now sits behind depth-2 mixing.
        let set = rs(4, &[&[2, 3], &[0, 1, 2]]);
        let c = census(&set);
        assert_eq!(c.per_server[2].max_prefix_hops, 2);
        // Route A's mixing depth: (2 + 1)/2 = 1.5 (server 3 sees prefix 1
        // from route A itself).
        assert!((c.route_mixing_depth[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_set() {
        let c = census(&RouteSet::new(3));
        assert_eq!(c.worst_mixing_depth(), 0.0);
        assert_eq!(c.max_route_length(), 0);
        assert!(c.per_server.iter().all(|s| s.max_prefix_hops == 0));
    }
}
