//! # uba — Utilization-Based Admission Control for Real-Time Networks
//!
//! A from-scratch reproduction of *"Utilization-Based Admission Control
//! for Real-Time Applications"* (Xuan, Li, Bettati, Chen, Zhao — ICPP
//! 2000): hard end-to-end delay guarantees in a diffserv network with
//! admission control reduced to per-link utilization tests.
//!
//! ## The pipeline
//!
//! 1. **Configure** (offline): pick routes and verify a safe per-link
//!    utilization `α` for each class ([`routing`], [`delay`]).
//! 2. **Admit** (online): accept a flow iff every link on its route has
//!    `α·C` headroom ([`admission`]) — O(path length), no per-flow state
//!    in the core.
//! 3. **Forward**: class-based static priority ([`sim`] models it and
//!    validates the analytic bounds by discrete-event simulation).
//!
//! ## Quick start
//!
//! ```
//! use uba::prelude::*;
//!
//! // The paper's Section 6 setting: MCI backbone, VoIP class.
//! let g = uba::topology::mci();
//! let servers = Servers::uniform(&g, 100e6, 6);
//! let voip = TrafficClass::voip();
//!
//! // Configuration: Theorem 4 bounds and a safe route selection.
//! let (lb, ub) = utilization_bounds(6, 4, &voip);
//! assert!(lb > 0.29 && ub < 0.62);
//!
//! let pairs: Vec<Pair> = all_ordered_pairs(&g).into_iter().step_by(30).collect();
//! let sel = select_routes(&g, &servers, &voip, lb, &pairs, &HeuristicConfig::default())
//!     .expect("the Theorem 4 lower bound is safe");
//! assert_eq!(sel.paths.len(), pairs.len());
//! ```
//!
//! See `examples/` for full scenarios and `crates/bench` for the
//! regeneration of every table and figure of the paper's evaluation.
#![forbid(unsafe_code)]

pub use uba_admission as admission;
pub use uba_delay as delay;
pub use uba_graph as graph;
pub use uba_obs as obs;
pub use uba_routing as routing;
pub use uba_sim as sim;
pub use uba_stat as stat;
pub use uba_topology as topology;
pub use uba_traffic as traffic;

/// The most common imports in one place.
pub mod prelude {
    pub use uba_delay::fixed_point::{solve_two_class, Outcome, SolveConfig};
    pub use uba_delay::routeset::{Route, RouteSet};
    pub use uba_delay::servers::Servers;
    pub use uba_delay::verify::{verify, VerifyReport};
    pub use uba_graph::{Digraph, EdgeId, NodeId, Path};
    pub use uba_routing::bounds::utilization_bounds;
    pub use uba_routing::heuristic::{select_routes, HeuristicConfig, Selection};
    pub use uba_routing::pairs::{all_ordered_pairs, order_pairs_by_distance, Pair};
    pub use uba_routing::search::{max_utilization, MaxUtilResult, Selector};
    pub use uba_routing::sp::sp_selection;
    pub use uba_traffic::{ClassId, ClassSet, Envelope, LeakyBucket, TrafficClass};
}
