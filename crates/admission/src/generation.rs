//! Immutable configuration generations.
//!
//! The paper splits the system into a config-time half (prove a safe
//! utilization assignment) and a run-time half (admit against it). A
//! [`ConfigGeneration`] is one *installable unit* of config-time output:
//! the routing table, the per-class utilization shares, and the budgets
//! they induce, frozen together with a fresh reservation state. The
//! controller swaps an `Arc<ConfigGeneration>` behind an epoch pointer
//! (see [`AdmissionController::reconfigure`]), so a generation is never
//! mutated after installation — in-flight flows admitted under it keep
//! their `Arc` and release against *its* budgets even after it has been
//! superseded.
//!
//! [`AdmissionController::reconfigure`]: crate::AdmissionController::reconfigure

use crate::metrics::AdmissionMetrics;
use crate::policy::PolicyChain;
use crate::state::{to_millibits, UtilizationState};
use crate::table::RoutingTable;
use uba_obs::sync::atomic::{AtomicU64, Ordering};
use uba_traffic::ClassSet;

/// Vestigial: there is one reservation state ([`UtilizationState`]) and
/// nothing left to select. The enum and the ignored `kind` parameter of
/// [`ConfigGeneration::with_policy`] / `Configuration::apply` survive
/// only because the frozen `benchmark/` sources name
/// `BackendKind::Atomic`; the next PR that may edit the benchmark drops
/// both (DESIGN.md §8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// One CAS counter per (server, class) — the only reservation state.
    #[default]
    Atomic,
}

/// Generation ids are unique across the whole process (not per
/// controller): a thread-local generation cache can then key on the id
/// alone, and trace events from different controllers never collide.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One immutable (routing table, alphas, budgets) snapshot plus its
/// reservation state.
#[derive(Debug)]
pub struct ConfigGeneration {
    id: u64,
    table: RoutingTable,
    /// Per-class flow rate `ρ_i`, bits/s.
    rates: Vec<f64>,
    /// `rates` in the reservation state's integer millibits/s, converted
    /// (and range-checked) once here so no admission or release converts.
    rate_millibits: Vec<u64>,
    /// Per-class utilization share `α_i` this generation was verified at.
    alphas: Vec<f64>,
    backend: UtilizationState,
    /// Shaping stages evaluated before the backend reservation (see
    /// [`PolicyChain`]). Frozen with the generation: a reconfigure
    /// installs fresh policy state alongside the fresh budgets.
    policy: PolicyChain,
    /// Live flows admitted under this generation (incremented on admit,
    /// decremented when their handle drops) — what `drain` reports.
    pinned: AtomicU64,
    /// Where decisions against this generation, the releases of its
    /// flows and the adopting controller's own records are kept:
    /// registered for this generation's classes by a metered controller
    /// when it adopts it (`None` until then, and under an unmetered
    /// controller). Metering follows the generation, so a flow's admit
    /// and release land on the same instance whoever asked and whatever
    /// was reconfigured since.
    metrics: Option<AdmissionMetrics>,
}

impl ConfigGeneration {
    /// Freezes a configuration: the committed routing table, the class
    /// set (for per-flow rates), per-server capacities, and the verified
    /// utilization assignment, with fresh (all-zero) reservation state.
    pub fn new(
        table: RoutingTable,
        classes: &ClassSet,
        capacities: &[f64],
        alphas: &[f64],
    ) -> Self {
        Self::with_policy(
            table,
            classes,
            capacities,
            alphas,
            BackendKind::Atomic,
            PolicyChain::static_only(),
        )
    }

    /// Like [`new`](Self::new) but with an explicit admission policy
    /// chain evaluated before the utilization check. The chain is part
    /// of the frozen snapshot: its token/AIMD state is fresh at install
    /// time and retires with the generation.
    ///
    /// # Panics
    /// If a class rate is negative, not finite, or beyond the exact
    /// range of integer millibit accounting (2^53 mb/s): a generation
    /// that cannot account its flows exactly is refused here, not at its
    /// first admission.
    pub fn with_policy(
        table: RoutingTable,
        classes: &ClassSet,
        capacities: &[f64],
        alphas: &[f64],
        _kind: BackendKind,
        policy: PolicyChain,
    ) -> Self {
        assert_eq!(alphas.len(), classes.len(), "one alpha per class");
        let rates: Vec<f64> = classes.iter().map(|(_, c)| c.bucket.rate).collect();
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            table,
            rate_millibits: rates.iter().map(|&r| to_millibits(r)).collect(),
            rates,
            alphas: alphas.to_vec(),
            backend: UtilizationState::new(capacities, alphas),
            policy,
            pinned: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Process-unique generation id (monotone in creation order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The frozen routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Per-class flow rates `ρ_i`, bits/s.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Per-class flow rates in millibits/s, as the reservation state
    /// accounts them.
    pub(crate) fn rate_millibits(&self) -> &[u64] {
        &self.rate_millibits
    }

    /// The metrics this generation's decisions and releases record into.
    pub(crate) fn metrics(&self) -> Option<&AdmissionMetrics> {
        self.metrics.as_ref()
    }

    /// Registers this generation's metrics for its own class count;
    /// called by a metered controller adopting it by value, before
    /// anything can admit against it.
    pub(crate) fn meter(&mut self) {
        self.metrics = Some(AdmissionMetrics::global(self.rates.len()));
    }

    /// The utilization assignment this generation was verified at.
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// The reservation state holding this generation's budgets.
    pub fn backend(&self) -> &UtilizationState {
        &self.backend
    }

    /// The shaping stages evaluated before the backend reservation. A
    /// default-constructed generation carries the empty `Static` chain
    /// (utilization check only).
    pub fn policy(&self) -> &PolicyChain {
        &self.policy
    }

    /// Live flows still holding reservations in this generation.
    pub fn pinned(&self) -> u64 {
        // ordering: SeqCst — Acquire pairs with the AcqRel unpin (seeing
        // `pinned() == 0` means seeing every drained flow's backend
        // release); SeqCst for the pin/epoch handshake (DESIGN.md §9.3).
        self.pinned.load(Ordering::SeqCst)
    }

    /// Pins `n` newly admitted flows with one RMW — a single admission
    /// pins one, a batch run its whole admitted prefix.
    pub(crate) fn pin_n(&self, n: u64) {
        // ordering: SeqCst — the admitter's half of the pin/epoch
        // handshake (DESIGN.md §9.3); the count alone would do Relaxed.
        self.pinned.fetch_add(n, Ordering::SeqCst);
    }

    pub(crate) fn unpin(&self) {
        // ordering: AcqRel — the release half publishes the flow's
        // backend release before the drop to zero that lets drain()
        // retire this generation.
        let prev = self.pinned.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "unpin without a matching pin");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_traffic::TrafficClass;

    fn generation() -> ConfigGeneration {
        ConfigGeneration::new(
            RoutingTable::new(),
            &ClassSet::single(TrafficClass::voip()),
            &[1e6, 1e6],
            &[0.5],
        )
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = generation();
        let b = generation();
        assert!(b.id() > a.id());
    }

    #[test]
    fn freezes_budgets_rates_and_alphas() {
        let g = generation();
        assert_eq!(g.backend().budget(0, 0), 500_000.0);
        assert_eq!(g.backend().reserved(0, 0), 0.0);
        assert_eq!(g.rates(), &[32_000.0]);
        assert_eq!(g.rate_millibits(), &[32_000_000]);
        assert_eq!(g.alphas(), &[0.5]);
    }

    fn generation_at_rate(rate: f64) -> ConfigGeneration {
        let mut class = TrafficClass::voip();
        class.bucket.rate = rate;
        ConfigGeneration::new(
            RoutingTable::new(),
            &ClassSet::single(class),
            &[1e6],
            &[0.5],
        )
    }

    #[test]
    #[should_panic(expected = "exceeds exact millibit accounting range")]
    fn rate_beyond_exact_millibits_is_refused_at_build() {
        // 1e16 bits/s -> 1e19 millibits, past f64's exact-integer range.
        generation_at_rate(1e16);
    }

    #[test]
    #[should_panic(expected = "rate must be >= 0")]
    fn infinite_rate_is_refused_at_build() {
        generation_at_rate(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "rate must be >= 0")]
    fn nan_rate_is_refused_at_build() {
        generation_at_rate(f64::NAN);
    }

    /// Admission, batched admission and release read the millibits
    /// frozen at build and convert nothing: with the `f64` rates
    /// poisoned *after* the build (only this module can), every
    /// admit-time path still runs, and accounts the frozen rate.
    #[test]
    fn no_admit_time_path_converts_a_rate() {
        use crate::{AdmissionController, FlowSpec};
        use uba_graph::{Digraph, NodeId, Path};
        use uba_traffic::ClassId;
        let mut g = Digraph::with_nodes(2);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let mut table = RoutingTable::new();
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e01]));
        let mut generation = ConfigGeneration::new(
            table,
            &ClassSet::single(TrafficClass::voip()),
            &[1e6, 1e6],
            &[0.064],
        );
        generation.rates[0] = f64::NAN;
        let ctrl = AdmissionController::from_generation_unmetered(generation);
        let spec = FlowSpec {
            class: ClassId(0),
            src: NodeId(0),
            dst: NodeId(1),
        };
        let one = ctrl.try_admit(spec.class, spec.src, spec.dst).unwrap();
        let batch = ctrl.try_admit_batch(&[spec; 3]);
        // 64 kb/s carries two 32 kb/s flows: the batch got the second.
        assert_eq!(batch.admitted(), 1);
        assert_eq!(ctrl.reserved(e01.index(), ClassId(0)), 64_000.0);
        drop((one, batch));
        assert_eq!(ctrl.reserved(e01.index(), ClassId(0)), 0.0);
    }

    #[test]
    fn pin_counting() {
        let g = generation();
        assert_eq!(g.pinned(), 0);
        g.pin_n(1);
        g.pin_n(1);
        assert_eq!(g.pinned(), 2);
        g.unpin();
        assert_eq!(g.pinned(), 1);
        g.pin_n(3);
        assert_eq!(g.pinned(), 4);
    }
}
