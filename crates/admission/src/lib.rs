//! Run-time admission control (Section 4, component 2).
//!
//! After configuration has fixed routes and verified a safe utilization
//! assignment, admitting a flow reduces to: *does every link server on the
//! flow's route have `α_i·C` headroom left for its class?* This crate
//! implements that test so it is cheap, concurrent, exact, and — because
//! configurations change under load — *versioned*:
//!
//! * [`state`] — per-(server, class) reserved-rate counters as lock-free
//!   atomics with CAS reservation ([`UtilizationState`]): one walk
//!   reserves up to `n` identical flows along a route (a single flow is
//!   `n = 1`, all or nothing), one CAS per cell, and the class budget is
//!   never exceeded even under concurrent admissions. This is the one
//!   reservation state of a generation (DESIGN.md §8 records the
//!   striped second implementation that was tried and deleted).
//! * [`generation`] — immutable [`ConfigGeneration`] snapshots (routing
//!   table + alphas + budgets + fresh reservation state), the
//!   installable unit of config-time output.
//! * [`table`] — the configured routing table mapping (src, dst, class)
//!   to the committed route.
//! * [`controller`] — the utilization-based admission controller with
//!   RAII flow handles (dropping a handle releases its bandwidth),
//!   batched admission ([`AdmissionController::try_admit_batch`]: a
//!   slice is its flows in order, one closed-form decision per run of
//!   identical flows) and
//!   live reconfiguration: generations swap behind an epoch pointer
//!   without pausing admission, and in-flight flows drain against the
//!   generation they were admitted under. A rejection's [`Reject`] is
//!   the decision's own record of why — the first link without
//!   headroom, with the class's reserved rate and budget there, or the
//!   policy stage that refused — and the one diagnosis `uba-cli explain`
//!   renders.
//! * [`baseline`] — an intserv-style comparator that re-runs the
//!   flow-aware general delay analysis over *all* established flows on
//!   every admission: the O(flows) cost the paper's design eliminates
//!   (experiment S-AC).
//! * [`churn`] — a deterministic flow-churn workload driver for
//!   exercising the controller under a reproducible request sequence: one
//!   loop behind [`run_churn`] (single arrivals) and
//!   [`run_churn_bursty`] (slugs sized by a
//!   [`uba_traffic::BurstModel`], through the batched path).
//! * [`arrival`] — the per-class EWMA arrival-rate estimator and
//!   GCC-style overuse detector the AIMD policy stage gates on.
//! * [`policy`] — the composable admission-policy pipeline
//!   ([`PolicyChain`]): zero or more shaping stages (per-class integer
//!   token bucket, AIMD rate controller with its own [`arrival`]
//!   estimator and detector per class) evaluated before the backend
//!   reservation, with consume-before-reserve semantics and exact
//!   refund on any downstream reject. The empty (`Static`) chain is the pre-pipeline
//!   controller, bit for bit (`tests/policy_equiv.rs`).
//! * [`metrics`] — admission-path instrumentation (counters for
//!   admits/rejects/CAS retries, a path-length histogram, per-class
//!   utilization gauges) recorded into the [`uba_obs`] registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod baseline;
pub mod churn;
pub mod controller;
pub mod generation;
pub mod metrics;
pub mod policy;
pub mod state;
pub mod table;

pub use arrival::{ArrivalEstimator, OveruseDetector, OveruseState};
pub use baseline::PerFlowAdmission;
pub use churn::{run_churn, run_churn_bursty, ChurnConfig, ChurnStats};
pub use controller::{
    AdmissionController, BatchOutcome, DrainStatus, FlowHandle, FlowSpec, ReconfigReport, Reject,
};
pub use generation::{BackendKind, ConfigGeneration};
pub use metrics::AdmissionMetrics;
pub use policy::{
    AimdParams, AimdStage, ChainKind, PolicyChain, PolicyConfig, PolicyStage, TokenBucketStage,
    STAGE_NAMES,
};
pub use state::{PathGrant, PathReject, UtilizationState};
pub use table::RoutingTable;
