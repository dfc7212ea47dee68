//! The run shape every workload shares: three segments of set-up →
//! warm-up rounds → measured rounds of fixed work with a burst of the
//! reference kernel between them, then probes (traced run only).

use crate::reference::{speed_factors, Reference};
use crate::spans::Spans;
use crate::stats::median;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;
use uba::obs::Snapshot;

/// Set-ups per run; `setup_s` is their median. They are spread through
/// the run, each followed by a third of the measured rounds: this box
/// has slow phases of several seconds, and three set-ups in a row all
/// fall into one. The first also pays for process start.
pub const SETUPS: usize = 3;
/// Warm-up rounds inside every set-up. Round 1 fixes the reference the
/// measured rounds are checked against.
pub const WARMUP_ROUNDS: usize = 2;
/// `--seconds` is turned into a round *count* (a round with the burst
/// of the reference kernel that follows it is sized to about this long on
/// the sizing box), never into a time budget: two commits given the same
/// `--seconds` do exactly the same work.
pub const NOMINAL_ROUND_S: f64 = 0.725;

pub type Metrics = BTreeMap<&'static str, f64>;

/// What the rounds of a run record.
pub struct Recorder {
    pub spans: Spans,
    /// One entry per timed unit: unit wall time ÷ ops in the unit, ns;
    /// `run` brings them to the reference speed once the rounds are over.
    pub unit_ns_per_op: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Fine-grained timings taken on traced rounds and in probes only.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            spans: Spans::new(epoch),
            unit_ns_per_op: Vec::new(),
            attempted: 0,
            failed: 0,
            samples: BTreeMap::new(),
        }
    }

    #[inline]
    pub fn unit(&mut self, ns: u64, ops: u64) {
        self.unit_ns_per_op.push(ns as f64 / ops as f64);
    }

    /// Tallies a check over `ops` operations: a failed check fails
    /// every op it covers.
    pub fn check(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration of the spans called `name`, ns.
    pub fn span_median_ns(&self, name: &str) -> f64 {
        median(&self.spans.durations_ns(name))
    }
}

pub trait Workload: Sized {
    /// Builds everything the rounds need from `seed`: scenario,
    /// configuration, controller, generated inputs. Records the
    /// `setup.*` spans.
    fn set_up(seed: u64, spans: &mut Spans) -> Self;

    /// Ops in one round. Input-determined: a faster program cannot
    /// change it.
    fn ops_per_round(&self) -> u64;

    /// One round of fixed work: times its units into `rec`, checks the
    /// program's outputs, and records spans while `rec.spans` is on.
    /// The first round ever run on a value fixes its reference outputs.
    fn round(&mut self, rec: &mut Recorder);

    /// Replays single layers on the inputs the rounds used. Traced run
    /// only, after the measured rounds.
    fn probes(&mut self, rec: &mut Recorder);

    /// This workload's per-layer metrics. `registry` is the change of
    /// `uba::obs::global()` over the last traced round.
    fn layer_metrics(&self, rec: &Recorder, registry: &Snapshot, out: &mut Metrics);
}

/// A run's results. Every time in it — the set-ups, the rounds and
/// `rec.unit_ns_per_op` — is wall time ÷ the box's speed factor beside
/// it (see `reference.rs`): time at the reference speed.
pub struct Outcome {
    pub rounds: usize,
    pub ops_per_round: u64,
    pub setup_s: Vec<f64>,
    /// The measured rounds run without spans.
    pub plain_round_s: Vec<f64>,
    /// The measured rounds run with spans (traced run).
    pub traced_round_s: Vec<f64>,
    /// The speed factor beside every measured round.
    pub speed_factor: Vec<f64>,
    /// Wall time of the measured rounds run without spans, as the clock
    /// read it.
    pub raw_plain_round_s: Vec<f64>,
    pub rec: Recorder,
    pub layer: Metrics,
}

/// What a run timed, in order.
enum Timed {
    Burst,
    SetUp,
    Round {
        traced: bool,
        /// Its entries of `Recorder::unit_ns_per_op`.
        units: Range<usize>,
    },
}

pub fn rounds_for(seconds: u64) -> usize {
    ((seconds as f64 / NOMINAL_ROUND_S).round() as usize).max(2)
}

/// Runs workload `W` as [`SETUPS`] segments: a set-up with its warm-up
/// rounds, then that segment's share of the measured rounds, with a burst
/// of the reference kernel before each round and after the last. `started`
/// is the process start, so the first set-up is charged for it. With
/// `trace`, odd measured rounds record spans and even ones do not: their
/// medians give the tracing overhead from one process.
pub fn run<W: Workload>(seed: u64, rounds: usize, trace: bool, started: Instant) -> Outcome {
    let mut rec = Recorder::new(started);
    let mut timeline: Vec<(Timed, f64)> = Vec::with_capacity(2 * rounds + 2 * SETUPS);
    let mut registry = Snapshot::default();
    let mut workload: Option<W> = None;
    let mut reference: Option<Reference> = None;
    for segment in 0..SETUPS {
        // One instance alive at a time, so `peak_rss_mb` is one set-up's.
        drop(workload.take());
        rec.spans.set_enabled(trace);
        rec.spans.set_phase(-1, false);
        let t0 = if segment == 0 {
            started
        } else {
            Instant::now()
        };
        let mut w = W::set_up(seed, &mut rec.spans);
        let mut scratch = Recorder::new(started);
        let warm = rec.spans.enter("setup.warmup");
        for _ in 0..WARMUP_ROUNDS {
            w.round(&mut scratch);
        }
        rec.spans.exit(warm);
        timeline.push((Timed::SetUp, t0.elapsed().as_secs_f64()));
        if segment == 0 {
            // The timed loops must not grow harness state.
            rec.unit_ns_per_op
                .reserve(scratch.unit_ns_per_op.len() / WARMUP_ROUNDS * rounds);
        }
        // Built after the first set-up so that `setup_s` is the program's.
        let reference = reference.get_or_insert_with(Reference::new);

        for r in segment * rounds / SETUPS..(segment + 1) * rounds / SETUPS {
            timeline.push((Timed::Burst, reference.burst_s()));
            let traced = trace && r % 2 == 1;
            rec.spans.set_enabled(traced);
            rec.spans.set_phase(r as i32, false);
            let before = traced.then(|| uba::obs::global().snapshot());
            let first_unit = rec.unit_ns_per_op.len();
            let t0 = Instant::now();
            let root = rec.spans.enter("harness.round");
            w.round(&mut rec);
            rec.spans.exit(root);
            let wall = t0.elapsed().as_secs_f64();
            if let Some(before) = before {
                registry = uba::obs::global().snapshot().delta_since(&before);
            }
            let units = first_unit..rec.unit_ns_per_op.len();
            timeline.push((Timed::Round { traced, units }, wall));
        }
        timeline.push((Timed::Burst, reference.burst_s()));
        workload = Some(w);
    }

    // Everything timed is brought to the reference speed.
    let bursts: Vec<Option<f64>> = timeline
        .iter()
        .map(|(what, wall)| matches!(what, Timed::Burst).then_some(*wall))
        .collect();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut plain_round_s = Vec::with_capacity(rounds);
    let mut traced_round_s = Vec::with_capacity(rounds);
    let mut speed_factor = Vec::with_capacity(rounds);
    let mut raw_plain_round_s = Vec::with_capacity(rounds);
    for ((what, wall), factor) in timeline.into_iter().zip(speed_factors(&bursts)) {
        match what {
            Timed::Burst => {}
            Timed::SetUp => setup_s.push(wall / factor),
            Timed::Round { traced, units } => {
                for unit in &mut rec.unit_ns_per_op[units] {
                    *unit /= factor;
                }
                speed_factor.push(factor);
                if traced {
                    traced_round_s.push(wall / factor);
                } else {
                    plain_round_s.push(wall / factor);
                    raw_plain_round_s.push(wall);
                }
            }
        }
    }
    let mut w = workload.expect("SETUPS >= 1");

    let mut layer = Metrics::new();
    if trace {
        rec.spans.set_enabled(true);
        rec.spans.set_phase(-1, true);
        w.probes(&mut rec);
        for (span, metric) in [
            ("setup.configure", "setup.configure_s"),
            ("setup.build", "setup.build_s"),
            ("setup.prefill", "setup.prefill_s"),
            ("setup.tracegen", "setup.tracegen_s"),
            ("setup.warmup", "setup.warmup_s"),
        ] {
            layer.insert(metric, rec.span_median_ns(span) / 1e9);
        }
        w.layer_metrics(&rec, &registry, &mut layer);
        layer.insert(
            "trace.overhead_ratio",
            median(&traced_round_s) / median(&plain_round_s) - 1.0,
        );
        layer.insert(
            "harness.fail_ratio",
            rec.failed as f64 / rec.attempted.max(1) as f64,
        );
        layer.insert("harness.speed_factor", median(&speed_factor));
    }
    Outcome {
        rounds,
        ops_per_round: w.ops_per_round(),
        setup_s,
        plain_round_s,
        traced_round_s,
        speed_factor,
        raw_plain_round_s,
        rec,
        layer,
    }
}
