//! The utilization-based admission controller.
//!
//! Admission of a flow = walk its configured route and reserve its class
//! rate on every link server through the generation's backend; roll back
//! on the first full link. O(path length) work, no global locks, no
//! per-flow state anywhere but at the edge (the returned [`FlowHandle`]).
//! This is the paper's entire run-time mechanism — the safety of the
//! utilization levels was proven offline, so no delay computation
//! happens here. A generation may additionally carry a
//! [`PolicyChain`](crate::PolicyChain) of shaping stages (token bucket,
//! AIMD overuse gating) evaluated between the route lookup and the
//! reservation walk; the default `Static` chain has no stages and the
//! decision path reduces to exactly the utilization predicate.
//!
//! There is one decision, for `n` identical flows arriving together:
//! one route lookup, the chain grants up to `n`, the links place up to
//! what it granted, the admitted prefix is pinned and traced at once and
//! the rest meet one `Reject`. A single admission is that decision for
//! `n = 1`, traced as `admit`; a batch makes it once per run of
//! identical specs, traced as `admit_batch`.
//!
//! Configuration is *versioned*: the controller holds the current
//! [`ConfigGeneration`] behind an epoch pointer, and
//! [`reconfigure`](AdmissionController::reconfigure) installs a new one
//! without pausing admission. The admit path resolves the pointer with a
//! thread-local generation cache validated by one atomic epoch load and
//! runs inside the cache's borrow, so the steady-state cost over a
//! fixed-configuration controller is a load and a compare — no refcount
//! (the `reconfig_overhead` bench in `uba-bench` holds this under a few
//! percent). What a flow then costs is its hops: one CAS per link, the
//! generation's pin and the one `Arc` its handle keeps, and the same
//! three on release (cost table in DESIGN.md §8).
//!
//! **Transition semantics.** New admits see the new generation's fresh
//! budgets immediately; flows admitted earlier keep an `Arc` to their
//! own generation and release against *its* budgets. Until those flows
//! drain, both generations hold reservations — the per-generation budget
//! invariant always holds, but the *physical* link carries the union, so
//! operators watching [`drain`](AdmissionController::drain) (or the
//! `admission.generations.retired_pinned` gauge) should treat the new
//! budgets as fully in force only once retired generations empty.

use crate::generation::ConfigGeneration;
use crate::metrics::AdmissionMetrics;
use crate::state::PathGrant;
use crate::table::RouteRef;
use std::cell::RefCell;
use uba_graph::NodeId;
use uba_obs::sync::atomic::{AtomicU64, Ordering};
use uba_obs::sync::{Arc, Mutex};
use uba_obs::trace::{self, EventKind};
use uba_traffic::ClassId;

/// Why a flow was rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reject {
    /// Configuration installed no route for this (src, dst, class).
    NoRoute,
    /// Some link on the route has no headroom left for the class. The
    /// saturated server, the class, and its observed-vs-budget
    /// utilization at rejection time are reported for diagnostics.
    LinkFull {
        /// Raw server index of the saturated link.
        server: u32,
        /// The class whose budget was exhausted.
        class: ClassId,
        /// Rate of `class` reserved on the server when the flow was
        /// turned away, bits/s.
        reserved_bps: f64,
        /// Configured budget `α_i · C` of `class` on the server, bits/s.
        budget_bps: f64,
    },
    /// A policy stage of the generation's chain turned the flow away
    /// before the backend reservation was attempted (see
    /// [`PolicyChain`](crate::PolicyChain)). Only non-`Static` chains
    /// can produce this.
    Policy {
        /// Name of the rejecting stage (one of
        /// [`STAGE_NAMES`](crate::STAGE_NAMES)).
        stage: &'static str,
        /// The class whose shaping budget was exhausted.
        class: ClassId,
    },
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::NoRoute => write!(f, "no configured route for this (src, dst, class)"),
            Reject::LinkFull {
                server,
                class,
                reserved_bps,
                budget_bps,
            } => {
                let pct = if *budget_bps > 0.0 {
                    reserved_bps / budget_bps * 100.0
                } else {
                    100.0
                };
                write!(
                    f,
                    "link server {server} full for class {}: reserved {:.1} kb/s of \
                     {:.1} kb/s budget ({pct:.1}% utilized)",
                    class.index(),
                    reserved_bps / 1e3,
                    budget_bps / 1e3,
                )
            }
            Reject::Policy { stage, class } => {
                write!(
                    f,
                    "policy stage {stage} rejected class {} before the utilization check",
                    class.index(),
                )
            }
        }
    }
}

/// One flow of a batched admission request (see
/// [`AdmissionController::try_admit_batch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Traffic class of the flow.
    pub class: ClassId,
    /// Ingress node.
    pub src: NodeId,
    /// Egress node.
    pub dst: NodeId,
}

/// What [`AdmissionController::try_admit_batch`] decided, per flow and
/// in aggregate.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-flow results, in request order. Dropping an `Ok` handle
    /// releases that flow exactly as if it had been admitted alone.
    pub flows: Vec<Result<FlowHandle, Reject>>,
    /// `true` when every flow with a configured route was admitted —
    /// each run cost one reservation per link and nothing was turned
    /// away by a link or by the policy chain; `false` when some run was
    /// clipped (its tail carries the per-flow reject detail). Flows
    /// without a route never clear it.
    pub fast_path: bool,
}

impl BatchOutcome {
    /// Number of admitted flows.
    pub fn admitted(&self) -> usize {
        self.flows.iter().filter(|f| f.is_ok()).count()
    }

    /// Number of rejected flows.
    pub fn rejected(&self) -> usize {
        self.flows.len() - self.admitted()
    }

    /// Consumes the outcome, keeping only the admitted handles.
    pub fn into_handles(self) -> Vec<FlowHandle> {
        self.flows.into_iter().filter_map(Result::ok).collect()
    }
}

/// What [`AdmissionController::reconfigure`] did.
#[derive(Clone, Copy, Debug)]
pub struct ReconfigReport {
    /// Id of the generation now current.
    pub generation: u64,
    /// Id of the generation that was displaced.
    pub previous: u64,
    /// Flows that were still pinned to the displaced generation at swap
    /// time (they drain against its budgets; see
    /// [`drain`](AdmissionController::drain)).
    pub pinned_previous: u64,
}

/// Flows still pinned to retired generations, as reported by
/// [`AdmissionController::drain`].
#[derive(Clone, Debug, Default)]
pub struct DrainStatus {
    /// `(generation id, live flows)` for every retired generation that
    /// still holds reservations, oldest first.
    pub retired: Vec<(u64, u64)>,
}

impl DrainStatus {
    /// True when no retired generation holds reservations any more —
    /// the current generation's budgets are fully in force.
    pub fn is_drained(&self) -> bool {
        self.retired.is_empty()
    }

    /// Total flows still pinned to retired generations.
    pub fn pinned_flows(&self) -> u64 {
        self.retired.iter().map(|&(_, n)| n).sum()
    }
}

/// The run-time admission controller (shared-state handle; cheap to
/// clone via `Arc` inside).
#[derive(Clone, Debug)]
pub struct AdmissionController {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// The current generation. Written only by `reconfigure`; the admit
    /// path reads it through the thread-local cache below, touching this
    /// mutex only when the epoch moved.
    current: Mutex<Arc<ConfigGeneration>>,
    /// Id of the current generation — the cache-validation epoch.
    epoch: AtomicU64,
    /// Displaced generations that still hold pinned flows, oldest first
    /// (see [`keep_retired`](AdmissionController::keep_retired)).
    retired: Mutex<Vec<Arc<ConfigGeneration>>>,
    /// Audit-trail flow ids, assigned only while the flight recorder is
    /// enabled so disabled tracing stays off the hot path entirely.
    flow_seq: AtomicU64,
}

thread_local! {
    /// Last generation this thread admitted against. Generation ids are
    /// process-unique, so one cache serves any number of controllers:
    /// an id match against the owning controller's epoch can never be a
    /// false positive.
    static GEN_CACHE: RefCell<Option<Arc<ConfigGeneration>>> = const { RefCell::new(None) };
}

/// An admitted flow. Dropping the handle releases its bandwidth on every
/// link of its route (RAII teardown = the paper's flow tear-down
/// message) — against the generation it was admitted under, even if the
/// controller has been reconfigured, or dropped, since: the generation
/// is all a handle keeps alive, and its metrics are where the release is
/// recorded.
#[derive(Debug)]
pub struct FlowHandle {
    generation: Arc<ConfigGeneration>,
    class: usize,
    /// The route, by its place in `generation`'s immutable routing
    /// table: the handle keeps the table alive, so it need not copy it.
    route: RouteRef,
    /// Audit-trail id (0 when tracing was disabled at admit time).
    flow: u64,
}

/// What [`AdmissionController::decide`] made of a run of identical
/// flows: the first `admitted` were admitted, each of the rest met
/// `reject`.
struct Run {
    class: usize,
    /// The run's route (`None` when none is configured).
    route: Option<RouteRef>,
    /// Flows admitted, from the front of the run.
    admitted: u64,
    /// Audit-trail id of the run's first flow; flow `i` has
    /// `first_id + i` (all 0 while the flight recorder is off).
    first_id: u64,
    /// What each flow after the admitted prefix met; `None` when the
    /// whole run was admitted.
    reject: Option<Reject>,
}

impl Run {
    /// The handle of the run's admitted flow `i`.
    fn handle(&self, generation: &Arc<ConfigGeneration>, i: u64) -> FlowHandle {
        FlowHandle {
            generation: Arc::clone(generation),
            class: self.class,
            route: self.route.expect("an admitted flow has a route"),
            flow: if self.first_id == 0 {
                0
            } else {
                self.first_id + i
            },
        }
    }
}

impl AdmissionController {
    /// Adopts a generation (e.g. from `ConfigGeneration::new` or
    /// `uba_routing::Configuration::apply`) as the initial configuration,
    /// metered: it and every generation [`reconfigure`](Self::reconfigure)
    /// installs record into the process-global [`uba_obs`] registry, each
    /// for its own classes (see [`AdmissionMetrics`] for the names).
    pub fn from_generation(mut generation: ConfigGeneration) -> Self {
        generation.meter();
        Self::from_generation_unmetered(generation)
    }

    /// [`from_generation`](Self::from_generation) without
    /// instrumentation: nothing this controller adopts is metered — the
    /// baseline the `obs_overhead` benchmark compares against.
    pub fn from_generation_unmetered(generation: ConfigGeneration) -> Self {
        // Only `from_generation` hands over a metered generation.
        if let Some(m) = generation.metrics() {
            m.generation.set(generation.id() as f64);
        }
        Self {
            inner: Arc::new(Inner {
                epoch: AtomicU64::new(generation.id()),
                current: Mutex::new(Arc::new(generation)),
                retired: Mutex::new(Vec::new()),
                flow_seq: AtomicU64::new(0),
            }),
        }
    }

    /// The generation new admissions currently run against. The `Arc`
    /// stays valid (and releasable-against) even after later
    /// reconfigurations.
    pub fn current_generation(&self) -> Arc<ConfigGeneration> {
        self.with_current(Arc::clone)
    }

    /// Runs `f` on the generation new admissions currently run against,
    /// borrowed from this thread's cache: a hit costs the epoch load and
    /// a compare, and takes no reference — the cache's own keeps the
    /// generation alive while `f` runs.
    #[inline]
    fn with_current<R>(&self, f: impl FnOnce(&Arc<ConfigGeneration>) -> R) -> R {
        // ordering: Acquire pairs with the Release epoch store in
        // `reconfigure` — a thread that reads the new epoch is
        // guaranteed to find the new generation pointer under the lock.
        let epoch = self.inner.epoch.load(Ordering::Acquire);
        GEN_CACHE.with(|slot| {
            {
                // Shared borrows nest (a policy stage may call back into
                // a controller from inside `f`); the one exclusive borrow,
                // in `refill`, ends before any caller's code runs.
                let cached = slot.borrow();
                if let Some(g) = cached.as_ref().filter(|g| g.id() == epoch) {
                    return f(g);
                }
            }
            self.refill(slot, f)
        })
    }

    /// The cache miss of [`with_current`](Self::with_current): the epoch
    /// moved, or this thread last used another controller.
    #[cold]
    fn refill<R>(
        &self,
        slot: &RefCell<Option<Arc<ConfigGeneration>>>,
        f: impl FnOnce(&Arc<ConfigGeneration>) -> R,
    ) -> R {
        let fresh = Arc::clone(&self.inner.current.lock().unwrap());
        // A caller further up this thread's stack may be running inside
        // the cache's borrow (a policy stage that reconfigures and then
        // admits): the cache then stays as it is and this call runs on
        // the generation the lock handed out.
        let stale = match slot.try_borrow_mut() {
            Ok(mut cached) => cached.replace(Arc::clone(&fresh)),
            Err(_) => None,
        };
        // Outside the borrow: the last reference to a generation drops
        // its policy stages, which are the caller's code.
        drop(stale);
        f(&fresh)
    }

    /// Attempts to admit one flow of `class` from `src` to `dst` against
    /// the current generation.
    ///
    /// On success the flow's rate is reserved on every link server of the
    /// configured route and a [`FlowHandle`] is returned; on failure
    /// nothing is left reserved.
    pub fn try_admit(
        &self,
        class: ClassId,
        src: NodeId,
        dst: NodeId,
    ) -> Result<FlowHandle, Reject> {
        self.with_current(|generation| self.admit_one(generation, class, src, dst, None))
    }

    /// Like [`try_admit`](Self::try_admit) but on an explicit decision
    /// clock: `t` is seconds on the caller's timeline, fed to the
    /// shaping stages of a non-`Static` policy chain (token-bucket
    /// refill, AIMD detector updates). Simulations and benches drive
    /// virtual time through this; [`try_admit`](Self::try_admit) uses
    /// the process clock instead — and only reads it when the chain
    /// actually has stages.
    pub fn try_admit_at(
        &self,
        class: ClassId,
        src: NodeId,
        dst: NodeId,
        t: f64,
    ) -> Result<FlowHandle, Reject> {
        self.with_current(|generation| self.admit_one(generation, class, src, dst, Some(t)))
    }

    /// Like [`try_admit`](Self::try_admit) but against an explicitly
    /// pinned generation — batch admission under one configuration
    /// snapshot, and the fixed-configuration baseline of the
    /// `reconfig_overhead` benchmark. The handle releases against
    /// `generation` regardless of later reconfigurations.
    pub fn try_admit_on(
        &self,
        generation: &Arc<ConfigGeneration>,
        class: ClassId,
        src: NodeId,
        dst: NodeId,
    ) -> Result<FlowHandle, Reject> {
        self.admit_one(generation, class, src, dst, None)
    }

    /// One flow is a run of one: decided by [`decide`](Self::decide) and
    /// traced, when admitted, as `admit`.
    #[inline]
    fn admit_one(
        &self,
        generation: &Arc<ConfigGeneration>,
        class: ClassId,
        src: NodeId,
        dst: NodeId,
        now: Option<f64>,
    ) -> Result<FlowHandle, Reject> {
        let spec = FlowSpec { class, src, dst };
        let run = self.decide(generation, spec, 1, now, EventKind::Admit);
        match run.reject {
            None => Ok(run.handle(generation, 0)),
            Some(reject) => Err(reject),
        }
    }

    /// Admits a whole slice of flows against the current generation: the
    /// flows of the slice, in slice order.
    ///
    /// The slice is read as **runs** of consecutive identical specs — a
    /// burst of calls to one destination is one run, `[A, A, B, A]` is
    /// three — and each run is decided in one step, exactly as a single
    /// [`try_admit`](Self::try_admit) is decided: one route lookup, the
    /// chain grants as many of the run's flows as it can afford, the
    /// links as many of those as every cell of the route has room for
    /// ([`try_reserve_path_up_to`](crate::UtilizationState::try_reserve_path_up_to)),
    /// that prefix is admitted and the rest of the run receives the one
    /// `Reject` each of its flows would have met. The fixed per-decision
    /// overheads (the generation epoch load, the route lookup, the policy
    /// consult, the pin RMW, the tracepoint publish, one CAS round-trip
    /// per link) are thus paid per run or per batch, never per flow. The
    /// decisions, the reject diagnostics and the state left in the links
    /// and the chain are exactly those of putting the flows to
    /// [`try_admit`](Self::try_admit) one by one, under every chain
    /// (`tests/burst_equiv.rs` pins them).
    ///
    /// Flows with no configured route are rejected and never block the
    /// rest of the batch. A non-`Static` chain is consulted on the
    /// process clock, read once per run — not once per flow — so the
    /// flows of a run share one decision time, as they share one
    /// arrival.
    pub fn try_admit_batch(&self, specs: &[FlowSpec]) -> BatchOutcome {
        self.with_current(|generation| self.batch_inner(generation, specs, None))
    }

    /// Like [`try_admit_batch`](Self::try_admit_batch) on an explicit
    /// decision clock (the batched counterpart of
    /// [`try_admit_at`](Self::try_admit_at)).
    pub fn try_admit_batch_at(&self, specs: &[FlowSpec], t: f64) -> BatchOutcome {
        self.with_current(|generation| self.batch_inner(generation, specs, Some(t)))
    }

    fn batch_inner(
        &self,
        generation: &Arc<ConfigGeneration>,
        specs: &[FlowSpec],
        now: Option<f64>,
    ) -> BatchOutcome {
        let mut flows = Vec::with_capacity(specs.len());
        let mut fast_path = true;
        let mut rest = specs;
        while let Some(&spec) = rest.first() {
            let n = rest.iter().take_while(|next| **next == spec).count();
            let run = self.decide(generation, spec, n as u64, now, EventKind::AdmitBatch);
            flows.extend((0..run.admitted).map(|i| Ok(run.handle(generation, i))));
            if let Some(reject) = run.reject {
                fast_path &= reject == Reject::NoRoute;
                flows.extend((run.admitted..n as u64).map(|_| Err(reject)));
            }
            rest = &rest[n..];
        }
        if let Some(m) = generation.metrics() {
            m.batches.inc();
            if !fast_path {
                m.batch_fallbacks.inc();
            }
        }
        BatchOutcome { flows, fast_path }
    }

    /// The admission decision — the only place the policy chain is
    /// consulted and the reservation state walked for one. Decides a run
    /// of `n` flows of `spec` in one step, exactly as `n` single
    /// decisions would: one route lookup, the chain grants what it can
    /// afford, the links what they have room for, and the admitted
    /// prefix is pinned under one RMW with one flow-id block (flow `i`
    /// keeps the id the one-by-one walk gave it). The rest of the run
    /// meets the one `Reject` each of its flows would have met (see
    /// [`PolicyChain::admit_up_to`] for why it is the same for all of
    /// them).
    ///
    /// The admitted prefix is traced as `admitted_as`: `Admit` (rate,
    /// hops) for a single flow, `AdmitBatch` (count) for every run of a
    /// batch. Rejects are traced as a single flow's would be — one
    /// `reject_link_full` or `reject_no_route` per flow, one
    /// `reject_policy` with a count for the tail. `now` is the chain's
    /// clock: `Some(t)` from the `_at` entry points, `None` to read the
    /// process clock — which a `Static` chain never does.
    fn decide(
        &self,
        generation: &Arc<ConfigGeneration>,
        spec: FlowSpec,
        n: u64,
        now: Option<f64>,
        admitted_as: EventKind,
    ) -> Run {
        let class = spec.class;
        let c = class.index();
        let metrics = generation.metrics();
        // Sampled decision latency: 1 in LATENCY_SAMPLE_EVERY decisions
        // reads the clock; the rest pay one thread-local decrement.
        let timer = metrics.and_then(AdmissionMetrics::admit_timer);
        // Flow ids are only minted while tracing is on, so a disabled
        // recorder costs a decision a single relaxed load.
        let tr = trace::global();
        let traced = tr.enabled();
        let first_id = if traced {
            self.inner.flow_seq.fetch_add(n, Ordering::Relaxed) + 1
        } else {
            0
        };
        let mut run = Run {
            class: c,
            route: None,
            admitted: 0,
            first_id,
            reject: Some(Reject::NoRoute),
        };
        let Some(route) = generation.table().lookup(spec.src, spec.dst, class) else {
            if let Some(m) = metrics {
                m.rejects_no_route.add(n);
                m.record_admit_ns(timer);
            }
            if traced {
                for id in first_id..first_id + n {
                    tr.emit(
                        EventKind::RejectNoRoute,
                        c,
                        id,
                        u32::MAX,
                        spec.src.0 as f64,
                        spec.dst.0 as f64,
                    );
                }
            }
            return run;
        };
        run.route = Some(route);
        let servers = generation.table().servers(route);
        let backend = generation.backend();
        let want = generation.rate_millibits()[c];
        // Shaping stages run after the route lookup (a routeless flow is
        // a config error, not demand) and before the reservation walk.
        let chain = generation.policy();
        let t = match now {
            Some(t) => t,
            None if chain.is_static() => 0.0,
            None => uba_obs::process_secs(),
        };
        // Stays empty when the chain grants nothing to place.
        let mut links = PathGrant::default();
        let (admitted, stage) = chain.admit_up_to(c, n, t, |granted| {
            links = backend.try_reserve_path_up_to_millibits(servers, c, want, granted);
            links.flows
        });
        run.admitted = admitted;
        let id = |i: u64| if traced { first_id + i } else { 0 };
        if admitted > 0 {
            generation.pin_n(admitted);
            // ordering: SeqCst — the pin/epoch handshake (DESIGN.md §9.3):
            // with the SeqCst pin, epoch store and `pinned()` load, either
            // the swap counted this pin or this load sees its new epoch.
            if self.inner.epoch.load(Ordering::SeqCst) != generation.id() {
                self.keep_retired(generation);
            }
            let (a, b) = if admitted_as == EventKind::Admit {
                (generation.rates()[c], servers.len() as f64)
            } else {
                (admitted as f64, 0.0)
            };
            let first_server = servers.first().copied().unwrap_or(u32::MAX);
            tr.emit(admitted_as, c, first_id, first_server, a, b);
        }
        let turned_away = n - admitted;
        let mut link_rejects = 0;
        let reject = if turned_away == 0 {
            None
        } else if let Some(at) = stage {
            let stage = chain.stages()[at].name();
            if let Some(m) = metrics {
                m.record_policy_reject(stage, turned_away);
            }
            // The kind has a count slot: one event for the whole tail.
            tr.emit(
                EventKind::RejectPolicy,
                c,
                id(admitted),
                u32::MAX,
                at as f64,
                turned_away as f64,
            );
            Some(Reject::Policy { stage, class })
        } else {
            let server = links
                .full
                .expect("links that place fewer flows than asked name the full server");
            let reserved_bps = backend.reserved(server as usize, c);
            let budget_bps = backend.budget(server as usize, c);
            link_rejects = turned_away;
            if let Some(m) = metrics {
                m.rejects_link_full.add(turned_away);
                m.rejects_link_full_class[c].add(turned_away);
            }
            // This kind has none: one event per flow, under its own id.
            if traced {
                for i in admitted..n {
                    tr.emit(
                        EventKind::RejectLinkFull,
                        c,
                        id(i),
                        server,
                        reserved_bps,
                        budget_bps,
                    );
                }
            }
            Some(Reject::LinkFull {
                server,
                class,
                reserved_bps,
                budget_bps,
            })
        };
        if let Some(m) = metrics {
            if links.retries > 0 {
                m.cas_retries.add(u64::from(links.retries));
            }
            let decisions = admitted + link_rejects;
            m.record_run(servers.len(), admitted, decisions, links.retries);
            m.record_admit_ns(timer);
        }
        run.reject = reject;
        run
    }

    /// Installs `next` as the current generation without pausing
    /// admission. Admissions racing the swap land on whichever
    /// generation they resolved — either way their budgets are enforced
    /// and their release goes to the same generation.
    ///
    /// The displaced generation is retired; flows admitted under it keep
    /// draining against its budgets (see [`drain`](Self::drain) and the
    /// transition-semantics note in the module docs).
    pub fn reconfigure(&self, mut next: ConfigGeneration) -> ReconfigReport {
        // A metered controller meters every generation it adopts, for
        // that generation's own classes.
        if self.with_current(|g| g.metrics().is_some()) {
            next.meter();
        }
        let sw = uba_obs::Stopwatch::start();
        let next = Arc::new(next);
        let next_id = next.id();
        let old = {
            let mut cur = self.inner.current.lock().unwrap();
            let old = std::mem::replace(&mut *cur, Arc::clone(&next));
            // Publish the epoch only after the pointer, still under the
            // lock.
            // ordering: SeqCst — Release for the Acquire load in
            // `with_current` (a reader of the new epoch finds the new
            // pointer under the lock), SeqCst for the pin/epoch handshake.
            self.inner.epoch.store(next_id, Ordering::SeqCst);
            old
        };
        let swap_ns = sw.elapsed_ns();
        let previous = old.id();
        let pinned_previous = old.pinned();
        let tr = trace::global();
        if pinned_previous > 0 {
            self.keep_retired(&old);
        } else {
            tr.emit(
                EventKind::GenerationRetired,
                0,
                previous,
                u32::MAX,
                0.0,
                0.0,
            );
        }
        tr.emit(
            EventKind::ReconfigApplied,
            0,
            next_id,
            u32::MAX,
            previous as f64,
            pinned_previous as f64,
        );
        if let Some(m) = next.metrics() {
            m.reconfigures.inc();
            m.reconfigure_ns.record(swap_ns);
            m.generation.set(next_id as f64);
        }
        ReconfigReport {
            generation: next_id,
            previous,
            pinned_previous,
        }
    }

    /// Reports retired generations that still hold reservations, pruning
    /// (and trace-marking `GenerationRetired`) the ones that fully
    /// drained since the last call.
    pub fn drain(&self) -> DrainStatus {
        let mut retired = self.inner.retired.lock().unwrap();
        let tr = trace::global();
        retired.retain(|g| {
            if g.pinned() == 0 {
                tr.emit(EventKind::GenerationRetired, 0, g.id(), u32::MAX, 0.0, 0.0);
                false
            } else {
                true
            }
        });
        let status = DrainStatus {
            retired: retired.iter().map(|g| (g.id(), g.pinned())).collect(),
        };
        drop(retired);
        self.with_current(|g| {
            if let Some(m) = g.metrics() {
                m.retired_pinned.set(status.pinned_flows() as f64);
            }
        });
        status
    }

    /// Keeps a displaced `generation` on the retired list (once, in id
    /// order) until its flows drain. Called by the swap that saw it
    /// pinned, and by a decision that pinned it after the swap: the swap,
    /// or a `drain` since, may have read its pin count before that pin
    /// and let it go.
    #[cold]
    fn keep_retired(&self, generation: &Arc<ConfigGeneration>) {
        let mut retired = self.inner.retired.lock().unwrap();
        let at = retired.partition_point(|g| g.id() < generation.id());
        if retired.get(at).map(|g| g.id()) != Some(generation.id()) {
            retired.insert(at, Arc::clone(generation));
        }
    }

    /// Reserved rate of `class` on a server in the current generation,
    /// bits/s.
    pub fn reserved(&self, server: usize, class: ClassId) -> f64 {
        self.with_current(|g| g.backend().reserved(server, class.index()))
    }

    /// Fraction of the class budget in use on a server (current
    /// generation).
    pub fn occupancy(&self, server: usize, class: ClassId) -> f64 {
        self.with_current(|g| g.backend().occupancy(server, class.index()))
    }

    /// Upper bound on concurrently admissible flows of `class` on one
    /// link: `⌊α_i·C / ρ_i⌋`.
    pub fn per_link_flow_capacity(&self, server: usize, class: ClassId) -> usize {
        self.with_current(|g| {
            (g.backend().budget(server, class.index()) / g.rates()[class.index()]) as usize
        })
    }

    /// Snapshot of every server's class occupancy (fraction of its
    /// budget in use) — the operator's utilization dashboard.
    pub fn occupancy_snapshot(&self, class: ClassId) -> Vec<f64> {
        self.with_current(|g| {
            let backend = g.backend();
            (0..backend.servers())
                .map(|k| backend.occupancy(k, class.index()))
                .collect()
        })
    }

    /// Recomputes the per-class utilization gauges
    /// (`admission.class<i>.max_share`, `admission.class<i>.reserved_bps`)
    /// from the live reservation state, and the generation-drain gauge.
    /// O(servers × classes) — called on demand (snapshot/report time),
    /// never from the admit path. A no-op on an unmetered controller.
    pub fn refresh_gauges(&self) {
        let metered = self.with_current(|g| {
            let Some(m) = g.metrics() else {
                return false;
            };
            m.flush();
            let backend = g.backend();
            for class in 0..backend.classes() {
                let mut max_share = 0.0f64;
                let mut total_bps = 0.0f64;
                for server in 0..backend.servers() {
                    max_share = max_share.max(backend.occupancy(server, class));
                    total_bps += backend.reserved(server, class);
                }
                m.class_max_share[class].set(max_share);
                m.class_reserved_bps[class].set(total_bps);
            }
            true
        });
        if metered {
            self.drain();
        }
    }

    /// Publishes this thread's buffered hot-path metric deltas (see
    /// [`AdmissionMetrics::flush`]). A no-op on an unmetered controller.
    pub fn flush_metrics(&self) {
        self.with_current(|g| {
            if let Some(m) = g.metrics() {
                m.flush();
            }
        });
    }

    /// The `top` most-loaded servers for a class, as
    /// `(server index, occupancy)`, most loaded first.
    pub fn hottest_links(&self, class: ClassId, top: usize) -> Vec<(usize, f64)> {
        let mut occ: Vec<(usize, f64)> = self
            .occupancy_snapshot(class)
            .into_iter()
            .enumerate()
            .collect();
        occ.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        occ.truncate(top);
        occ
    }
}

impl FlowHandle {
    /// The route the flow was admitted on (raw server indices).
    pub fn route(&self) -> &[u32] {
        self.generation.table().servers(self.route)
    }

    /// The flow's reserved rate in bits/s.
    pub fn rate(&self) -> f64 {
        self.generation.rates()[self.class]
    }

    /// Id of the generation the flow was admitted under (and will
    /// release against).
    pub fn generation(&self) -> u64 {
        self.generation.id()
    }
}

impl Drop for FlowHandle {
    fn drop(&mut self) {
        let generation = &*self.generation;
        let servers = generation.table().servers(self.route);
        generation.backend().release_path_millibits(
            servers,
            self.class,
            generation.rate_millibits()[self.class],
        );
        generation.unpin();
        if let Some(m) = generation.metrics() {
            m.record_release();
        }
        trace::global().emit(
            EventKind::Release,
            self.class,
            self.flow,
            servers.first().copied().unwrap_or(u32::MAX),
            generation.rates()[self.class],
            servers.len() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::BackendKind;
    use crate::policy::{AimdParams, ChainKind, PolicyChain, PolicyConfig};
    use crate::table::RoutingTable;
    use uba_graph::{Digraph, Path};
    use uba_traffic::{ClassSet, TrafficClass};

    /// 0 -> 1 -> 2 with routes (0,2) and (1,2); link 1->2 is shared.
    fn topology() -> (RoutingTable, usize, usize) {
        let mut g = Digraph::with_nodes(3);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let mut table = RoutingTable::new();
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e12]));
        (table, e12.index(), g.edge_count())
    }

    fn setup(alpha: f64) -> (AdmissionController, usize) {
        let (table, shared, edges) = topology();
        let classes = ClassSet::single(TrafficClass::voip());
        let caps = vec![1e6; edges];
        let ctrl = AdmissionController::from_generation(ConfigGeneration::new(
            table,
            &classes,
            &caps,
            &[alpha],
        ));
        (ctrl, shared)
    }

    fn fresh_generation(alpha: f64) -> ConfigGeneration {
        let (table, _, edges) = topology();
        ConfigGeneration::new(
            table,
            &ClassSet::single(TrafficClass::voip()),
            &vec![1e6; edges],
            &[alpha],
        )
    }

    #[test]
    fn admits_until_shared_link_full() {
        // alpha 0.32 on 1 Mb/s => 10 voip flows on the shared link.
        let (ctrl, shared) = setup(0.32);
        let mut handles = Vec::new();
        for i in 0..10 {
            let h = ctrl
                .try_admit(ClassId(0), NodeId(0), NodeId(2))
                .unwrap_or_else(|e| panic!("flow {i} rejected: {e:?}"));
            handles.push(h);
        }
        let r = ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2));
        match r {
            Err(Reject::LinkFull {
                server,
                class,
                reserved_bps,
                budget_bps,
            }) => {
                assert_eq!(server, shared as u32);
                assert_eq!(class, ClassId(0));
                assert_eq!(reserved_bps, 320_000.0);
                assert_eq!(budget_bps, 320_000.0);
            }
            other => panic!("expected LinkFull, got {other:?}"),
        }
        assert_eq!(ctrl.per_link_flow_capacity(shared, ClassId(0)), 10);
    }

    #[test]
    fn rollback_leaves_no_residue() {
        let (ctrl, shared) = setup(0.32);
        // Saturate the shared link via the short route.
        let _held: Vec<_> = (0..10)
            .map(|_| ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)).unwrap())
            .collect();
        // Long route must fail on its second hop and roll back the first.
        let before = ctrl.reserved(0, ClassId(0));
        let r = ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2));
        assert!(matches!(r, Err(Reject::LinkFull { .. })));
        assert_eq!(ctrl.reserved(0, ClassId(0)), before);
        assert_eq!(ctrl.occupancy(shared, ClassId(0)), 1.0);
    }

    #[test]
    fn drop_releases_bandwidth() {
        let (ctrl, shared) = setup(0.32);
        {
            let _h: Vec<_> = (0..10)
                .map(|_| ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap())
                .collect();
            assert_eq!(ctrl.occupancy(shared, ClassId(0)), 1.0);
        }
        assert_eq!(ctrl.reserved(shared, ClassId(0)), 0.0);
        assert!(ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).is_ok());
    }

    #[test]
    fn occupancy_snapshot_and_hottest_links() {
        let (ctrl, shared) = setup(0.32);
        let _h: Vec<_> = (0..5)
            .map(|_| ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap())
            .collect();
        let snap = ctrl.occupancy_snapshot(ClassId(0));
        assert_eq!(snap.len(), 4);
        assert!((snap[shared] - 0.5).abs() < 1e-9);
        let hot = ctrl.hottest_links(ClassId(0), 2);
        assert_eq!(hot.len(), 2);
        assert!(hot[0].1 >= hot[1].1);
        // The shared link and the first hop are the two loaded servers.
        assert!((hot[0].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reject_display_names_link_class_and_utilization() {
        let r = Reject::LinkFull {
            server: 7,
            class: ClassId(2),
            reserved_bps: 320_000.0,
            budget_bps: 320_000.0,
        };
        let msg = r.to_string();
        assert!(msg.contains("server 7"), "{msg}");
        assert!(msg.contains("class 2"), "{msg}");
        assert!(msg.contains("320.0 kb/s"), "{msg}");
        assert!(msg.contains("100.0% utilized"), "{msg}");
        let partial = Reject::LinkFull {
            server: 0,
            class: ClassId(0),
            reserved_bps: 288_000.0,
            budget_bps: 320_000.0,
        };
        let msg = partial.to_string();
        assert!(
            msg.contains("reserved 288.0 kb/s of 320.0 kb/s budget"),
            "{msg}"
        );
        assert!(msg.contains("90.0% utilized"), "{msg}");
        assert_eq!(
            Reject::NoRoute.to_string(),
            "no configured route for this (src, dst, class)"
        );
    }

    #[test]
    fn no_route_rejected() {
        let (ctrl, _) = setup(0.32);
        assert_eq!(
            ctrl.try_admit(ClassId(0), NodeId(2), NodeId(0)).err(),
            Some(Reject::NoRoute)
        );
    }

    #[test]
    fn concurrent_admission_respects_budget() {
        let (ctrl, shared) = setup(0.32);
        let mut threads = Vec::new();
        for _ in 0..8 {
            let ctrl = ctrl.clone();
            threads.push(std::thread::spawn(move || {
                let mut held = Vec::new();
                for _ in 0..5 {
                    if let Ok(h) = ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)) {
                        held.push(h);
                    }
                }
                // Keep the handles alive until the main thread has counted
                // them, so freed capacity cannot be re-admitted mid-test.
                held
            }));
        }
        let all: Vec<Vec<FlowHandle>> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let admitted: usize = all.iter().map(Vec::len).sum();
        assert_eq!(admitted, 10, "exactly the link capacity must be admitted");
        drop(all);
        assert_eq!(ctrl.reserved(shared, ClassId(0)), 0.0);
    }

    #[test]
    fn reconfigure_swaps_generation_without_dropping_flows() {
        let (ctrl, shared) = setup(0.32);
        let g0 = ctrl.current_generation().id();
        let held: Vec<_> = (0..10)
            .map(|_| ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)).unwrap())
            .collect();
        assert!(ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)).is_err());

        // Install a half-alpha generation: 5 flows per link from now on.
        let report = ctrl.reconfigure(fresh_generation(0.16));
        assert_eq!(report.previous, g0);
        assert_eq!(report.pinned_previous, 10);
        assert_eq!(ctrl.current_generation().id(), report.generation);
        // Old flows keep their generation and still drain against it.
        assert_eq!(held[0].generation(), g0);
        let status = ctrl.drain();
        assert_eq!(status.retired, vec![(g0, 10)]);
        assert_eq!(status.pinned_flows(), 10);

        // New admissions run against the new (empty) budgets.
        let new_held: Vec<_> = (0..5)
            .map(|_| ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)).unwrap())
            .collect();
        assert!(ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)).is_err());
        assert_eq!(ctrl.reserved(shared, ClassId(0)), 5.0 * 32_000.0);

        // Draining the old flows balances the old generation to zero and
        // prunes it from the retired list.
        drop(held);
        let status = ctrl.drain();
        assert!(status.is_drained(), "{status:?}");
        drop(new_held);
        assert_eq!(ctrl.reserved(shared, ClassId(0)), 0.0);
    }

    #[test]
    fn reconfigure_identical_config_is_a_semantic_noop() {
        // Decision function before == after on a quiescent controller:
        // saturate, record decisions, release, reconfigure to an
        // identical generation, repeat — the sequences must match.
        let (ctrl, _) = setup(0.32);
        let run = |ctrl: &AdmissionController| {
            let mut held = Vec::new();
            let decisions: Vec<bool> = (0..12)
                .map(|_| match ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)) {
                    Ok(h) => {
                        held.push(h);
                        true
                    }
                    Err(_) => false,
                })
                .collect();
            drop(held);
            decisions
        };
        let before = run(&ctrl);
        let report = ctrl.reconfigure(fresh_generation(0.32));
        assert_eq!(report.pinned_previous, 0);
        assert!(ctrl.drain().is_drained());
        let after = run(&ctrl);
        assert_eq!(before, after);
    }

    #[test]
    fn try_admit_on_pins_the_given_generation() {
        let (ctrl, _) = setup(0.32);
        let g0 = ctrl.current_generation();
        ctrl.reconfigure(fresh_generation(0.32));
        // Admitting on the displaced generation still works and releases
        // against it.
        let h = ctrl
            .try_admit_on(&g0, ClassId(0), NodeId(0), NodeId(2))
            .unwrap();
        assert_eq!(h.generation(), g0.id());
        assert_eq!(g0.pinned(), 1);
        assert_eq!(g0.backend().reserved(2, 0), 32_000.0);
        assert_eq!(ctrl.reserved(2, ClassId(0)), 0.0, "current gen untouched");
        drop(h);
        assert_eq!(g0.pinned(), 0);
        assert_eq!(g0.backend().reserved(2, 0), 0.0);
    }

    #[test]
    fn batch_fast_path_admits_everything_that_fits() {
        let (ctrl, shared) = setup(0.32);
        let specs = vec![
            FlowSpec {
                class: ClassId(0),
                src: NodeId(0),
                dst: NodeId(2),
            };
            10
        ];
        let out = ctrl.try_admit_batch(&specs);
        assert!(out.fast_path);
        assert_eq!(out.admitted(), 10);
        assert_eq!(ctrl.occupancy(shared, ClassId(0)), 1.0);
        assert_eq!(ctrl.current_generation().pinned(), 10);
        let handles = out.into_handles();
        assert_eq!(handles[0].route().len(), 2);
        drop(handles);
        assert_eq!(ctrl.reserved(shared, ClassId(0)), 0.0);
        assert_eq!(ctrl.current_generation().pinned(), 0);
    }

    #[test]
    fn batch_fallback_matches_sequential_decisions() {
        // 12 flows against a 10-flow link: the aggregate cannot fit,
        // so the batch falls back and admits exactly the prefix the
        // sequential path would.
        let (ctrl, shared) = setup(0.32);
        let specs = vec![
            FlowSpec {
                class: ClassId(0),
                src: NodeId(1),
                dst: NodeId(2),
            };
            12
        ];
        let out = ctrl.try_admit_batch(&specs);
        assert!(!out.fast_path);
        assert_eq!(out.admitted(), 10);
        assert_eq!(out.rejected(), 2);
        // Request order is preserved: the prefix admits, the tail
        // rejects with full link diagnostics.
        assert!(out.flows[..10].iter().all(Result::is_ok));
        for r in &out.flows[10..] {
            match r {
                Err(Reject::LinkFull { server, .. }) => {
                    assert_eq!(*server, shared as u32)
                }
                other => panic!("expected LinkFull, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_routes_unroutable_flows_around_the_fast_path() {
        let (ctrl, _) = setup(0.32);
        let good = FlowSpec {
            class: ClassId(0),
            src: NodeId(0),
            dst: NodeId(2),
        };
        let unroutable = FlowSpec {
            class: ClassId(0),
            src: NodeId(2),
            dst: NodeId(0),
        };
        let out = ctrl.try_admit_batch(&[good, unroutable, good]);
        assert!(out.fast_path, "no-route flows must not force a fallback");
        assert_eq!(out.admitted(), 2);
        assert_eq!(out.flows[1].as_ref().err(), Some(&Reject::NoRoute));
        // Empty batches are a no-op.
        let out = ctrl.try_admit_batch(&[]);
        assert!(out.fast_path);
        assert_eq!(out.flows.len(), 0);
    }

    fn policy_ctrl(alpha: f64, cfg: PolicyConfig) -> AdmissionController {
        let (table, _, edges) = topology();
        let classes = ClassSet::single(TrafficClass::voip());
        let caps = vec![1e6; edges];
        let chain = PolicyChain::from_config(&cfg, &[32_000.0]);
        AdmissionController::from_generation(ConfigGeneration::with_policy(
            table,
            &classes,
            &caps,
            &[alpha],
            BackendKind::Atomic,
            chain,
        ))
    }

    #[test]
    fn token_bucket_chain_clips_bursts_and_refills_with_time() {
        let cfg = PolicyConfig {
            chain: ChainKind::TokenBucket,
            bucket_rate_bps: 32_000.0,
            bucket_burst_bits: 3.0 * 32_000.0,
            ..PolicyConfig::default()
        };
        let ctrl = policy_ctrl(0.32, cfg);
        let _held: Vec<_> = (0..3)
            .map(|_| {
                ctrl.try_admit_at(ClassId(0), NodeId(0), NodeId(2), 0.0)
                    .unwrap()
            })
            .collect();
        match ctrl.try_admit_at(ClassId(0), NodeId(0), NodeId(2), 0.0) {
            Err(Reject::Policy { stage, class }) => {
                assert_eq!(stage, "token_bucket");
                assert_eq!(class, ClassId(0));
            }
            other => panic!("expected a policy reject, got {other:?}"),
        }
        // One flow-cost refills per second on the virtual clock.
        assert!(ctrl
            .try_admit_at(ClassId(0), NodeId(0), NodeId(2), 1.0)
            .is_ok());
    }

    #[test]
    fn utilization_reject_refunds_the_chain() {
        // Utilization admits one flow (alpha 0.032 on 1 Mb/s = one voip
        // flow); the non-refilling bucket starts with two tokens.
        let cfg = PolicyConfig {
            chain: ChainKind::TokenBucket,
            bucket_rate_bps: 0.0,
            bucket_burst_bits: 2.0 * 32_000.0,
            ..PolicyConfig::default()
        };
        let ctrl = policy_ctrl(0.032, cfg);
        let h = ctrl
            .try_admit_at(ClassId(0), NodeId(1), NodeId(2), 0.0)
            .unwrap();
        // Link full: the token the chain consumed must come back.
        assert!(matches!(
            ctrl.try_admit_at(ClassId(0), NodeId(1), NodeId(2), 0.0),
            Err(Reject::LinkFull { .. })
        ));
        drop(h);
        // The refunded token covers this admit (without the refund the
        // bucket would be empty and reject it).
        let _h2 = ctrl
            .try_admit_at(ClassId(0), NodeId(1), NodeId(2), 0.0)
            .unwrap();
        // Both tokens now spent: the chain rejects before the backend
        // even gets asked.
        assert!(matches!(
            ctrl.try_admit_at(ClassId(0), NodeId(1), NodeId(2), 0.0),
            Err(Reject::Policy {
                stage: "token_bucket",
                ..
            })
        ));
        assert_eq!(
            Reject::Policy {
                stage: "token_bucket",
                class: ClassId(0)
            }
            .to_string(),
            "policy stage token_bucket rejected class 0 before the utilization check"
        );
    }

    #[test]
    fn batch_with_policy_clips_to_the_sequential_prefix() {
        let cfg = PolicyConfig {
            chain: ChainKind::TokenBucket,
            bucket_rate_bps: 0.0,
            bucket_burst_bits: 2.0 * 32_000.0,
            ..PolicyConfig::default()
        };
        let ctrl = policy_ctrl(0.32, cfg);
        let specs = vec![
            FlowSpec {
                class: ClassId(0),
                src: NodeId(0),
                dst: NodeId(2),
            };
            3
        ];
        let out = ctrl.try_admit_batch_at(&specs, 0.0);
        assert!(!out.fast_path, "a clipped batch must fall back per flow");
        assert_eq!(out.admitted(), 2, "burst-clipped, not burst-dropped");
        assert!(matches!(
            out.flows[2],
            Err(Reject::Policy {
                stage: "token_bucket",
                ..
            })
        ));
        // A batch the bucket can cover stays on the fast path.
        let ctrl = policy_ctrl(0.32, cfg);
        let out = ctrl.try_admit_batch_at(&specs[..2], 0.0);
        assert!(out.fast_path);
        assert_eq!(out.admitted(), 2);
    }

    /// An adaptive chain whose AIMD ceiling is pinned at two flows a
    /// second, 1 000 flows put to it one at a time through `try_admit_at`
    /// and through `try_admit_batch_at`: two flows of depth and one for
    /// the half second of credit the clock passes through, whether it
    /// gets there monotonically, alternating between 0 and 0.5 s, or with
    /// a NaN reading between every two.
    #[test]
    fn a_clock_that_steps_back_is_not_credited_twice() {
        let cfg = PolicyConfig {
            chain: ChainKind::Adaptive,
            bucket_rate_bps: 1e9,
            bucket_burst_bits: 1e9,
            aimd: AimdParams {
                min_rate_bps: 64_000.0,
                max_rate_bps: 64_000.0,
                decrease: 0.5,
                increase_bps: 32_000.0,
            },
        };
        let spec = FlowSpec {
            class: ClassId(0),
            src: NodeId(0),
            dst: NodeId(2),
        };
        type Clock = fn(u32) -> f64;
        let clocks: [(&str, Clock); 3] = [
            ("monotone", |i| f64::from(i) * 1e-3),
            ("alternating", |i| if i % 2 == 0 { 0.0 } else { 0.5 }),
            ("NaN between", |i| {
                if i % 2 == 0 {
                    f64::from(i) * 1e-3
                } else {
                    f64::NAN
                }
            }),
        ];
        for (what, clock) in clocks {
            for batched in [false, true] {
                let ctrl = policy_ctrl(0.32, cfg);
                // Each admitted flow is released at once: the links never
                // bind, the chain decides.
                let admitted = (0..1_000)
                    .filter(|&i| {
                        if batched {
                            ctrl.try_admit_batch_at(&[spec], clock(i)).admitted() == 1
                        } else {
                            ctrl.try_admit_at(spec.class, spec.src, spec.dst, clock(i))
                                .is_ok()
                        }
                    })
                    .count();
                assert_eq!(admitted, 3, "{what} clock, batched: {batched}");
            }
        }
    }

    #[test]
    fn a_handle_is_one_arc_and_three_words() {
        assert!(std::mem::size_of::<FlowHandle>() <= 40);
    }

    /// A stage that calls back into the controller it shapes: it always
    /// asks for the current generation, and once armed it first installs
    /// a new one and then admits a flow of its own.
    #[derive(Debug, Default)]
    struct Reentrant {
        ctrl: std::sync::Mutex<Option<AdmissionController>>,
        armed: std::sync::atomic::AtomicBool,
        seen: std::sync::Mutex<Vec<(u64, Option<FlowHandle>)>>,
    }

    impl crate::PolicyStage for std::sync::Arc<Reentrant> {
        fn name(&self) -> &'static str {
            "token_bucket"
        }

        fn admit_n(&self, _class: usize, _n: u64, _t: f64) -> bool {
            let ctrl = self.ctrl.lock().unwrap().clone().unwrap();
            let armed = self.armed.swap(false, std::sync::atomic::Ordering::Relaxed);
            let own = armed.then(|| {
                ctrl.reconfigure(fresh_generation(0.32));
                ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap()
            });
            let seen = (ctrl.current_generation().id(), own);
            self.seen.lock().unwrap().push(seen);
            true
        }

        fn refund_n(&self, _class: usize, _n: u64) {}

        fn would_admit(&self, _class: usize, _n: u64, _t: f64) -> bool {
            true
        }
    }

    #[test]
    fn a_stage_may_call_back_into_its_controller_across_a_reconfigure() {
        let (table, _, edges) = topology();
        let stage = std::sync::Arc::new(Reentrant::default());
        let mut chain = PolicyChain::static_only();
        chain.push(Box::new(std::sync::Arc::clone(&stage)));
        let ctrl = AdmissionController::from_generation(ConfigGeneration::with_policy(
            table,
            &ClassSet::single(TrafficClass::voip()),
            &vec![1e6; edges],
            &[0.32],
            BackendKind::Atomic,
            chain,
        ));
        *stage.ctrl.lock().unwrap() = Some(ctrl.clone());
        let g0 = ctrl.current_generation().id();
        // Warm: the decision runs inside the cache's borrow from now on,
        // and the stage's own look at the generation nests in it.
        let warm = ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap();
        assert_eq!(stage.seen.lock().unwrap()[0].0, g0);
        // Armed: the epoch moves under the borrowed cache. The stage's
        // calls must find the new generation, not panic on the cache.
        stage
            .armed
            .store(true, std::sync::atomic::Ordering::Relaxed);
        let outer = ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap();
        let (g1, own) = stage.seen.lock().unwrap().pop().unwrap();
        let own = own.unwrap();
        assert_ne!(g1, g0);
        assert_eq!(own.generation(), g1, "the stage's flow is on the new one");
        assert_eq!(outer.generation(), g0, "the decision it interrupted is not");
        assert_eq!(ctrl.current_generation().id(), g1);
        // The same through the batched entry point, already on `g1`
        // (whose chain is static, so nothing re-enters): just the cache.
        assert_eq!(ctrl.try_admit_batch(&[]).flows.len(), 0);
        drop((warm, outer, own));
        assert!(ctrl.drain().is_drained());
        stage.ctrl.lock().unwrap().take();
    }

    #[test]
    fn generation_cache_follows_controller_switches() {
        // Two controllers used alternately from one thread: the
        // process-unique ids keep the thread-local cache correct.
        let (a, _) = setup(0.32);
        let (b, _) = setup(0.32);
        for _ in 0..3 {
            assert_eq!(
                a.current_generation().id(),
                a.inner.epoch.load(Ordering::Relaxed)
            );
            assert_eq!(
                b.current_generation().id(),
                b.inner.epoch.load(Ordering::Relaxed)
            );
        }
        a.reconfigure(fresh_generation(0.32));
        assert_eq!(
            a.current_generation().id(),
            a.inner.epoch.load(Ordering::Relaxed)
        );
        assert_eq!(
            b.current_generation().id(),
            b.inner.epoch.load(Ordering::Relaxed)
        );
    }
}
