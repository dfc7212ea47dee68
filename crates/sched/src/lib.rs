//! Classical utilization-based schedulability — the results Section 1.2
//! cites as the foundation of utilization-based admission control:
//!
//! > "A variety of WCAU's for different settings have been found, e.g.,
//! > 69% and 100% for preemptive scheduling of periodic tasks on a single
//! > server using rate-monotonic and earliest-deadline-first scheduling,
//! > respectively \[2\], or 33% bandwidth utilization for scheduling
//! > synchronous traffic over FDDI networks \[3\]."
//!
//! The crate implements those single-server tests — the Liu & Layland
//! rate-monotonic bound, the EDF bound, the (tighter) hyperbolic bound,
//! exact response-time analysis, and the timed-token synchronous-traffic
//! bound — so the paper's network-level contribution can be seen as the
//! same *"compare utilization against a precomputed safe level"* pattern
//! lifted from one CPU/token-ring to a network of link servers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rta;
pub mod task;
pub mod token_ring;
pub mod wcau;

pub use rta::{response_times, rta_schedulable};
pub use task::{Task, TaskSet};
pub use token_ring::timed_token_wcau;
pub use wcau::{edf_schedulable, hyperbolic_schedulable, rm_bound, rm_schedulable_by_bound};
