//! Network topologies for the `uba` workspace.
//!
//! * [`mod@mci`] — a 19-router approximation of the MCI ISP backbone used in
//!   the paper's Section 6 experiment (Figure 4), constructed to match the
//!   figure's stated invariants exactly: diameter `L = 4` and maximum
//!   router degree `N = 6`. See `DESIGN.md` §3 for the substitution note.
//! * [`generators`] — parametric families (line, ring, star, grid, torus,
//!   full mesh, Waxman-style random) for tests, ablations, and scaling
//!   benches.
//!
//! All generators return router-level [`uba_graph::Digraph`]s whose directed edges
//! are the link servers; every physical link is bidirectional and has unit
//! weight (hop-count routing, as in the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod mci;
pub mod nsfnet;

pub use generators::{dumbbell, fat_tree, full_mesh, grid, line, ring, star, torus, waxman};
pub use mci::mci;
pub use nsfnet::nsfnet;
