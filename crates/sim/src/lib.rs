//! Discrete-event packet simulator for class-based static-priority
//! networks.
//!
//! The configuration-time analysis promises that *no admissible packet
//! ever exceeds its class deadline*. This crate checks that promise
//! empirically: it simulates the network at packet granularity — per-class
//! FIFO queues, non-preemptive class-based static priority at every output
//! link (Section 4's packet-forwarding module), leaky-bucket-conforming
//! sources — and reports observed end-to-end delays to compare against the
//! analytic bounds (experiment V-SIM).
//!
//! Modeling notes:
//!
//! * **Access shapers.** Sources do not inject into the first link server
//!   instantaneously; each (ingress router → first server) pair gets a
//!   virtual access link of the same capacity that serializes locally
//!   originated traffic, matching the paper's model where flows enter
//!   through real input links. End-to-end delay is measured from the
//!   packet's arrival at its first *real* link server, because source
//!   policing delay is outside the guarantee.
//! * **Fluid vs. packets.** The analysis is fluid; packetization adds at
//!   most a few packet transmission times per hop (non-preemption), which
//!   is orders of magnitude below the bounds for the paper's parameters.
//!   The validation tests allow exactly that slack.
//!
//! One entry point, [`simulate`], runs a fixed route set to the end; its
//! [`SimConfig`] carries the horizon, the deadlines, the optional
//! policers and the [`Discipline`] (static priority, the paper's
//! forwarding, unless set otherwise). Its [`SimReport`] gives each class
//! an exact max and mean delay and a delay distribution in `uba_obs`'s
//! one histogram layout (a [`uba_obs::Tally`] at base 1 µs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod report;
pub mod sched;
pub mod source;

pub use engine::{simulate, FlowSpec, SimConfig};
pub use report::{check_bounds, BoundCheck, ClassStats, Reading, SimReport};
pub use sched::Discipline;
pub use source::SourceModel;
