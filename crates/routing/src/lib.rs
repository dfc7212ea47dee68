//! Route selection for utilization-based admission control (Sections
//! 5.2–5.3 of the paper).
//!
//! * [`bounds`] — Theorem 4's topology-independent bounds on the maximum
//!   assignable utilization `α*`.
//! * [`pairs`] — source/destination pair enumeration and the
//!   decreasing-distance ordering (heuristic (1) of Section 5.2).
//! * [`sp`] — the shortest-path baseline selector the paper compares
//!   against.
//! * [`heuristic`] — the safe route selection heuristic: candidate routes
//!   from Yen's algorithm, acyclicity preference on the route-dependency
//!   graph, minimum-delay choice, no backtracking. Every sub-heuristic is
//!   individually switchable for the ablation experiment A-RS. Candidates
//!   are verified against one persistent committed fixed point
//!   ([`uba_delay::committed::CommittedState`]), not by a solve each.
//!   Every selection step, one class or several, returns one
//!   [`Selection`], its delays in the delay rule's cells.
//! * [`metrics`] — `routing.select.{candidates, pruned, cycle_checks}`.
//! * [`search`] — the Section 5.3 binary search for the maximum safe
//!   utilization, seeded with the Theorem 4 bounds.
//! * [`multiclass`] — Section 5.4's "variations": the same greedy and the
//!   same bisection under the Theorem 5 oracle, along a ray `α = t·w`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod census;
pub mod heuristic;
pub mod metrics;
pub mod multiclass;
pub mod pairs;
pub mod reconfigure;
pub mod search;
pub mod sp;

pub use bounds::{alpha_lower_bound, alpha_upper_bound, utilization_bounds};
pub use heuristic::{select_routes, HeuristicConfig, Selection, SelectionError};
pub use multiclass::{max_utilization_ray, select_routes_multiclass, Demand, RaySearchResult};
pub use pairs::{all_ordered_pairs, order_pairs_by_distance, Pair};
pub use reconfigure::{Configuration, FailureReport};
pub use search::{max_utilization, MaxUtilResult, Selector};
pub use sp::sp_selection;
