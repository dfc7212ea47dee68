//! Delay-analysis instrumentation.
//!
//! Recorded into the process-global [`uba_obs`] registry — nothing in the
//! iteration loop, so the solver's per-iteration cost is untouched. A
//! general solve or a verification is published at the *end* of its call:
//! one histogram record per call. A
//! [`CommittedState`](crate::committed::CommittedState) evaluates
//! thousands of §5.2 candidates per configuration pass, so it keeps its
//! candidates' records in plain fields (a [`SolveTally`]: iteration counts
//! per value, since they are whole numbers, residuals in a
//! [`uba_obs::Tally`], the registry histogram's layout without atomics,
//! and the few timed samples as read) and publishes them when it drops — or hands them back
//! ([`CommittedState::take_tally`](crate::committed::CommittedState::take_tally))
//! for its owner to publish later or drop — in one flush that adds
//! exactly what one record per evaluation would have. It reads the clock
//! for only the first of its evaluations and every [`TIME_EVERY`]th after
//! (the 1-in-64 sampling of `admission.admit_ns`).
//!
//! Metric names:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `delay.solve.iterations` | histogram | fixed-point iterations to convergence |
//! | `delay.solve.residual` | histogram | final sup-norm residual (s) |
//! | `delay.solve.seconds` | histogram | wall time per solve: every general solve, one in [`TIME_EVERY`] candidate evaluations per committed state |
//! | `delay.solve.divergence` | counter | solves that hit the iteration cap |
//! | `delay.solve.sweeps_skipped` | counter | route `Y`-sweeps candidate evaluation avoided vs. a full rebuild |
//! | `delay.solve.servers_touched` | counter | delay-rule evaluations performed, one per `(class, server)` cell |
//! | `delay.verify.seconds` | histogram | wall time per Figure-2 verification |
//! | `delay.verify.safe` | counter | verifications that returned SUCCESS |
//! | `delay.verify.unsafe` | counter | verifications that returned FAILURE |

use std::sync::{Arc, OnceLock};
use uba_obs::{Counter, Histogram, Tally};

/// A committed state times its first candidate evaluation and every
/// `TIME_EVERY`th after it.
pub const TIME_EVERY: u64 = 64;

/// First slot boundary of `delay.solve.residual`, seconds.
const RESIDUAL_BASE: f64 = 1e-15;

/// Handles to the delay-analysis metrics.
#[derive(Debug)]
pub struct SolverMetrics {
    /// Fixed-point iterations per solve.
    pub iterations: Arc<Histogram>,
    /// Final sup-norm residual per solve, seconds.
    pub residual: Arc<Histogram>,
    /// Wall time per solve, seconds (candidate evaluations sampled, see
    /// [`TIME_EVERY`]).
    pub seconds: Arc<Histogram>,
    /// Solves that hit the iteration cap (treated as unsafe).
    pub divergence: Arc<Counter>,
    /// Route `Y`-sweeps avoided relative to rebuilding every `Y_k`
    /// (per-iteration routes-not-reswept). Candidate evaluation only:
    /// the general solver rebuilds all of them and adds 0.
    pub sweeps_skipped: Arc<Counter>,
    /// Delay-rule evaluations actually performed, one per `(class, server)` cell.
    pub servers_touched: Arc<Counter>,
    /// Wall time per verification, seconds.
    pub verify_seconds: Arc<Histogram>,
    /// Verifications that returned SUCCESS.
    pub verify_safe: Arc<Counter>,
    /// Verifications that returned FAILURE.
    pub verify_unsafe: Arc<Counter>,
}

/// The process-global solver metrics (registered on first use).
pub fn solver() -> &'static SolverMetrics {
    static METRICS: OnceLock<SolverMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = uba_obs::global();
        SolverMetrics {
            iterations: r.histogram("delay.solve.iterations", 1.0),
            residual: r.histogram("delay.solve.residual", RESIDUAL_BASE),
            seconds: r.histogram("delay.solve.seconds", 1e-6),
            divergence: r.counter("delay.solve.divergence"),
            sweeps_skipped: r.counter("delay.solve.sweeps_skipped"),
            servers_touched: r.counter("delay.solve.servers_touched"),
            verify_seconds: r.histogram("delay.verify.seconds", 1e-6),
            verify_safe: r.counter("delay.verify.safe"),
            verify_unsafe: r.counter("delay.verify.unsafe"),
        }
    })
}

impl SolverMetrics {
    /// Publishes one solve in the `delay.solve.*` series.
    pub(crate) fn record(&self, rec: &SolveRecord) {
        self.iterations.record(rec.iterations as f64);
        self.residual.record(rec.residual);
        if let Some(secs) = rec.seconds {
            self.seconds.record(secs);
        }
        if rec.iteration_limit {
            self.divergence.inc();
        }
        self.sweeps_skipped.add(rec.sweeps_skipped);
        self.servers_touched.add(rec.servers_touched);
    }
}

/// What one fixed-point solve did, for [`trace_solve`]'s caller to meter.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SolveRecord {
    pub iterations: usize,
    /// Final sup-norm residual (0 when no sweep completed).
    pub residual: f64,
    /// Ended on the iteration cap.
    pub iteration_limit: bool,
    /// Route `Y`-sweeps avoided vs. a full rebuild (0 from the general
    /// solver).
    pub sweeps_skipped: u64,
    /// Delay-rule evaluations performed.
    pub servers_touched: u64,
    /// Wall time, when the solve was timed.
    pub seconds: Option<f64>,
    /// Some iterate decreased a delay: the warm start sat above the least
    /// fixed point (the committed-state evaluator then rebuilds `Y` over
    /// every route; the general solver sweeps them all anyway).
    pub decreased: bool,
}

/// Runs one solve between its `SolveBegin` / `SolveEnd` tracepoints,
/// its wall time read when `timed`, and hands back what it did for the
/// caller to meter: at once for a general solve
/// ([`SolverMetrics::record`]), in a committed state's [`SolveTally`] for
/// a candidate evaluation.
pub(crate) fn trace_solve<T>(
    servers: usize,
    routes: usize,
    warm: bool,
    timed: bool,
    solve: impl FnOnce() -> (T, SolveRecord),
) -> (T, SolveRecord) {
    use uba_obs::EventKind;
    let tr = uba_obs::trace::global();
    let servers = servers as u32;
    let warm_flag = if warm { 1.0 } else { 0.0 };
    tr.emit(
        EventKind::SolveBegin,
        0,
        0,
        servers,
        routes as f64,
        warm_flag,
    );
    let t0 = timed.then(uba_obs::Stopwatch::start);
    let (out, mut rec) = solve();
    rec.seconds = t0.map(|t0| t0.elapsed_secs());
    let iterations = rec.iterations as f64;
    tr.emit(EventKind::SolveEnd, 0, 0, servers, rec.residual, iterations);
    if warm {
        let kind = if rec.decreased {
            EventKind::WarmStartFallback
        } else {
            EventKind::WarmStartAccept
        };
        tr.emit(kind, 0, 0, servers, iterations, 0.0);
    }
    (out, rec)
}

/// A committed state's `delay.solve.*` records in plain fields, published
/// when the state drops or by whoever took them from it: what
/// `SolverMetrics::record` once per evaluation would have added, in one
/// flush. Iteration counts are whole numbers, counted per value and
/// published with `record_n`; residuals go into a [`Tally`] that
/// [`Histogram::merge`] publishes; the timed samples, one in
/// [`TIME_EVERY`], are kept as read and recorded one by one.
///
/// Two tallies are equal when they hold the same records and the same
/// number of timed samples: what the clock read is not compared.
#[derive(Debug)]
pub struct SolveTally {
    /// Evaluations by iteration count.
    iterations: Vec<u64>,
    residual: Tally,
    /// The timed evaluations' wall times, seconds.
    seconds: Vec<f64>,
    divergence: u64,
    sweeps_skipped: u64,
    /// Evaluations' cells plus the shared first-iteration step's.
    pub(crate) servers_touched: u64,
}

impl Default for SolveTally {
    fn default() -> Self {
        Self {
            iterations: Vec::new(),
            residual: Tally::with_base(RESIDUAL_BASE),
            seconds: Vec::new(),
            divergence: 0,
            sweeps_skipped: 0,
            servers_touched: 0,
        }
    }
}

impl PartialEq for SolveTally {
    fn eq(&self, other: &Self) -> bool {
        self.iterations == other.iterations
            && self.residual == other.residual
            && self.seconds.len() == other.seconds.len()
            && self.divergence == other.divergence
            && self.sweeps_skipped == other.sweeps_skipped
            && self.servers_touched == other.servers_touched
    }
}

impl SolveTally {
    /// Adds one evaluation.
    pub(crate) fn add(&mut self, rec: &SolveRecord) {
        if rec.iterations >= self.iterations.len() {
            self.iterations.resize(rec.iterations + 1, 0);
        }
        self.iterations[rec.iterations] += 1;
        self.residual.record(rec.residual);
        self.seconds.extend(rec.seconds);
        self.divergence += u64::from(rec.iteration_limit);
        self.sweeps_skipped += rec.sweeps_skipped;
        self.servers_touched += rec.servers_touched;
    }

    /// Adds everything to the registry (nothing, registering nothing,
    /// when nothing was recorded).
    pub fn publish(&self) {
        if self.iterations.is_empty() && self.servers_touched == 0 {
            return;
        }
        let m = solver();
        for (i, &n) in self.iterations.iter().enumerate() {
            m.iterations.record_n(i as f64, n);
        }
        m.residual.merge(&self.residual);
        for &secs in &self.seconds {
            m.seconds.record(secs);
        }
        m.divergence.add(self.divergence);
        m.sweeps_skipped.add(self.sweeps_skipped);
        m.servers_touched.add(self.servers_touched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_metrics_registered_globally() {
        let m = solver();
        m.iterations.record(12.0);
        let snap = uba_obs::global().snapshot();
        assert!(snap.get("delay.solve.iterations").is_some());
        assert!(snap.get("delay.verify.safe").is_some());
        assert!(snap.get("delay.solve.sweeps_skipped").is_some());
        assert!(snap.get("delay.solve.servers_touched").is_some());
    }
}
