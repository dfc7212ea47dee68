//! Traffic models for utilization-based admission control.
//!
//! Implements Section 3 of the paper:
//!
//! * [`LeakyBucket`] — the source policer `(T, ρ)`: traffic in any interval
//!   of length `I` is bounded by `min(C·I, T + ρ·I)`.
//! * [`TrafficClass`] / [`ClassSet`] — diffserv classes with per-class
//!   leaky-bucket parameters, end-to-end deadline `D_i`, and static
//!   priority order.
//! * [`Envelope`] — piecewise-linear *concave* traffic-constraint functions
//!   (Definition 2) with the algebra needed by the delay formulas: sums,
//!   integer scaling, jitter shifts `F(I + Y)`, capping by the link rate,
//!   and the busy-period maximization `max_{I>0}(F(I) − C·I)` of Eq. (3).
//! * [`BurstModel`] — an RNG-agnostic on/off batch-size distribution with
//!   exact mean and coefficient of variation, for driving bursty churn
//!   workloads against the admission path.
//! * [`Mmpp`] — a continuous-time two-state Markov-modulated Poisson
//!   source, the flow-arrival driver behind the policy-pipeline burst
//!   benchmark.
//!
//! All quantities are in bits, seconds, and bits/second.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod bucket;
pub mod burst;
pub mod class;
pub mod envelope;

pub use arrivals::Mmpp;
pub use bucket::LeakyBucket;
pub use burst::BurstModel;
pub use class::{ClassId, ClassSet, TrafficClass};
pub use envelope::Envelope;
