//! Graph substrate for the `uba` workspace.
//!
//! The paper models a diffserv network as a graph `G = (S, E)` of *link
//! servers* (Section 3): routers are vertices, and every directed link is a
//! server where packets queue for the output capacity. This crate provides
//! the graph machinery every other crate builds on:
//!
//! * [`Digraph`] — a compact adjacency-list directed multigraph whose edges
//!   double as link-server identities ([`EdgeId`]).
//! * [`mod@dijkstra`] — weighted single-source shortest paths with path
//!   reconstruction and node/edge filtering (needed by Yen's algorithm).
//! * [`bfs`] — unweighted hop distances, eccentricities and the network
//!   diameter `L` used by Theorem 4.
//! * [`yen`] — Yen's k-shortest loopless paths, the candidate-route
//!   generator of the Section 5.2 heuristic, on a workspace that serves
//!   many pairs and lets a per-destination distance tree skip and prune
//!   spur searches.
//! * [`cycle`] — a dynamic overlay digraph with reference-counted edges and
//!   cycle queries, used to prefer candidate routes that keep the
//!   route-dependency graph acyclic (heuristic (2) of Section 5.2): flat
//!   adjacency, a maintained transitive closure (one bit row per vertex)
//!   that answers a query in one AND per chain vertex, and a latched
//!   answer once the graph is cyclic.
//!
//! Everything is implemented from scratch on `std`; no external crates
//! are used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod cycle;
pub mod digraph;
pub mod dijkstra;
pub mod yen;

pub use cycle::DynDigraph;
pub use digraph::{Digraph, EdgeId, NodeId, Path};
pub use dijkstra::{dijkstra, dijkstra_filtered, ShortestPaths};
pub use yen::{k_shortest_paths, k_shortest_paths_filtered};
