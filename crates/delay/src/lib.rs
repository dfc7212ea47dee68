//! Configuration-time worst-case delay analysis (Section 5.1 of the paper).
//!
//! This crate turns the paper's delay theory into executable form:
//!
//! * [`servers`] — per-link-server parameters: capacity `C` and fan-in `N`.
//! * [`routeset`] — the set of committed routes, with the per-server
//!   upstream-delay maximization `Y_k` of Eq. (6).
//! * [`bound`] — the flow-independent per-server delay bounds: Theorem 1's
//!   jittered envelope `H_k`, Lemma 1/2's `τ`, and Theorem 3's closed form
//!   (Eq. 10), kept as the reference Theorem 5's one-class case is tested
//!   against.
//! * [`fixed_point`] — the iterative solution of the vector equation
//!   `d = Z(d)` (Eq. 11–14) — the general solver `solve_rule`, the math as
//!   written, one loop for any rule — with warm starting and sound early
//!   divergence detection; `solve_two_class` is its one-class (Theorem 3)
//!   shorthand for one `α` on every server.
//! * [`committed`] — the §5.2 candidate loop's evaluator: one persistent
//!   committed fixed point, a tentative route evaluated by touching only
//!   what it can move, journalled and undone on reject — the general
//!   solver's iterates, bit for bit. Built under any rule, empty or from
//!   a fixed point.
//! * [`rule`] — the per-server delay rule both of those are generic over,
//!   the one thing a solve or a configuration step varies on: one rule,
//!   Theorem 5 at a share per server and class, and the one delay layout,
//!   cells (`server · classes + class`).
//! * [`multiclass`] — the Theorem 5 formula (Section 5.4) without its
//!   subtraction: monotone bit for bit, and Theorem 3 bit for bit with one
//!   class; every solve is [`fixed_point::solve_rule`] under
//!   [`rule::Theorem5`].
//! * [`certificate`] — an independent check of a safe verdict: a witness
//!   `d̂` with `Z(d̂) ≤ d̂` at every used cell and every route's `Σ d̂`
//!   within its deadline, re-derived from `DESIGN.md` §2 with every
//!   operation rounded outward; it calls none of the modules above.
//! * [`general`] — the *flow-aware* general delay formula (Eq. 2–3 and
//!   Eq. 24): exact given the current flow set, usable only at run time;
//!   serves as the intserv-style baseline and as the reference the
//!   configuration-time bounds are property-tested against.
//! * [`mod@verify`] — the Figure 2 procedure: verification of a safe
//!   utilization assignment, producing a detailed report — the one place
//!   cells become `delays[class][server]` rows.
//! * [`metrics`] — solver instrumentation (iteration/residual/wall-time
//!   histograms, divergence and verification counters) recorded into the
//!   [`uba_obs`] registry at the end of each solve.
//!
//! # Formula provenance
//!
//! The OCR'd paper text corrupts parts of Theorem 5; the closed forms used
//! here are re-derived in `DESIGN.md` §2 and validated against the paper's
//! own Table 1 numbers plus degeneracy checks (Theorem 5 with one class
//! is Theorem 3 bit for bit, and the subtraction-free form matches the
//! printed quotient to 1e-12 — enforced by unit tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod certificate;
pub mod committed;
pub mod fixed_point;
pub mod general;
pub mod metrics;
pub mod multiclass;
pub mod routeset;
pub mod rule;
pub mod servers;
pub mod verify;

pub use bound::theorem3_delay;
pub use committed::CommittedState;
pub use fixed_point::{solve_two_class, Outcome, SolveConfig, SolveResult};
pub use routeset::{Route, RouteSet};
pub use servers::Servers;
pub use verify::{verify, VerifyReport};
