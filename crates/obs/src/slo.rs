//! Declarative SLO rules with hysteresis, evaluated over snapshot
//! windows, driving a firing→resolved alert state machine.
//!
//! Metrics (PR 1), traces (PR 3), and windowed snapshots (PR 6) record
//! what the system did; nothing so far *watches* those signals and says
//! "the deadline-miss ratio is violating its objective". This module is
//! that watcher, kept deliberately passive: an [`SloEngine`] owns a set
//! of [`SloRule`]s, and every call to [`SloEngine::evaluate`] reads each
//! rule's [`SloSignal`] out of the window between the new [`Snapshot`]
//! and the previous one — a counter-delta ratio, a windowed rate, a live
//! gauge, or a window quantile from the diffed histogram slots. Each
//! signal reads only its own series, through [`Snapshot::window`], the
//! same per-series body [`Snapshot::delta_since`] maps over every entry,
//! so a rule reads what the full window would hold.
//!
//! Breaches do not alert immediately. Each rule carries **hysteresis**:
//! `for_windows` consecutive breaching windows move the rule
//! `ok → pending → firing`, and once firing it takes `clear_windows`
//! consecutive clear windows to resolve — a flapping signal that never
//! sustains a breach never alerts, and a firing alert does not resolve
//! on one lucky window. Windows with **no data** (a ratio whose
//! denominator saw no traffic, a quantile over an empty window) hold
//! the state machine: absence of traffic is evidence of neither breach
//! nor health.
//!
//! Every transition into firing/resolved appends to a bounded alert log
//! (rendered by [`SloEngine::alerts_json_lines`], the `/alerts`
//! endpoint) and emits an [`EventKind::AlertFire`] /
//! [`EventKind::AlertResolve`] event into the global flight recorder.
//! Rule states are also published as `slo.<rule>.state` /
//! `slo.<rule>.value` gauges so dashboards and the metrics manifest see
//! the SLO surface like any other metric. Time comes only from
//! [`Snapshot::at`] — the engine never reads a clock of its own, so
//! tests can pin window stamps and replay transitions deterministically.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::histogram::quantiles_of_slots;
use crate::json;
use crate::metrics::{Counter, Gauge};
use crate::registry::{Registry, Snapshot, SnapshotValue, Window};
use crate::trace::{self, EventKind};

/// Resolved alerts retained for the "recent" section of the alert log.
pub const RECENT_ALERTS: usize = 64;

/// What a rule measures, read out of one snapshot window.
#[derive(Clone, Debug, PartialEq)]
pub enum SloSignal {
    /// `numerator_delta / denominator_delta` over the window (e.g.
    /// deadline misses per delivered packet). No data when the
    /// denominator counter did not move.
    Ratio {
        /// Counter name of the numerator.
        numerator: String,
        /// Counter name of the denominator.
        denominator: String,
    },
    /// `counter_delta / window_secs` (events per second). No data when
    /// the window is degenerate (zero-width).
    Rate {
        /// Counter name.
        counter: String,
    },
    /// The gauge's current value (gauges pass through a window at their
    /// latest reading). No data when the gauge is not registered yet.
    GaugeValue {
        /// Gauge name.
        gauge: String,
    },
    /// The `q`-quantile of the histogram's samples *within the window*
    /// (from the diffed slot counts). No data when the window recorded
    /// no samples.
    Quantile {
        /// Histogram name.
        histogram: String,
        /// Quantile in `(0, 1]`.
        q: f64,
    },
}

impl SloSignal {
    /// Reads the signal out of a snapshot window: the same value it would
    /// read out of that window's `delta_since` snapshot. `None` means the
    /// window carries no evidence for this rule.
    pub fn read(&self, window: &Window<'_>) -> Option<f64> {
        let counter = |name: &str| match window.get(name) {
            Some(SnapshotValue::Counter(v)) => Some(v),
            _ => None,
        };
        match self {
            SloSignal::Ratio {
                numerator,
                denominator,
            } => {
                let den = counter(denominator)?;
                if den == 0 {
                    return None;
                }
                Some(counter(numerator)? as f64 / den as f64)
            }
            SloSignal::Rate { counter: name } => {
                let secs = match window.get("snapshot.window_secs") {
                    Some(SnapshotValue::Gauge(w)) if w > 0.0 => w,
                    _ => return None,
                };
                Some(counter(name)? as f64 / secs)
            }
            SloSignal::GaugeValue { gauge } => match window.get(gauge) {
                Some(SnapshotValue::Gauge(v)) => Some(v),
                _ => None,
            },
            SloSignal::Quantile { histogram, q } => match window.get(histogram) {
                Some(SnapshotValue::Histogram {
                    count,
                    base,
                    buckets,
                    ..
                }) if count > 0 => {
                    let total = buckets.iter().map(|&(_, c)| c).sum();
                    let [v] = quantiles_of_slots(base, &buckets, total, [*q]);
                    v
                }
                _ => None,
            },
        }
    }
}

/// One declarative service-level objective.
#[derive(Clone, Debug)]
pub struct SloRule {
    /// Rule name (lower-snake identifier; becomes the `slo.<name>.*`
    /// gauge names and the alert-log key).
    pub name: String,
    /// What the rule measures each window.
    pub signal: SloSignal,
    /// Breach threshold: a window whose value exceeds it breaches.
    pub threshold: f64,
    /// Consecutive breaching windows required to fire (≥ 1).
    pub for_windows: u32,
    /// Consecutive clear windows required to resolve (≥ 1).
    pub clear_windows: u32,
}

impl SloRule {
    /// The one constructor for production rules.
    ///
    /// # Panics
    /// Panics on an empty name or one with characters outside
    /// `[a-z0-9_]` (the names become metric names and JSON keys).
    pub fn named(
        name: &str,
        signal: SloSignal,
        threshold: f64,
        for_windows: u32,
        clear_windows: u32,
    ) -> Self {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "SLO rule name must be lower-snake ascii: {name:?}"
        );
        Self {
            name: name.to_string(),
            signal,
            threshold,
            for_windows: for_windows.max(1),
            clear_windows: clear_windows.max(1),
        }
    }
}

/// Thresholds and hysteresis for the standard rule set (the `[slo]`
/// scenario section parses into this).
#[derive(Clone, Debug, PartialEq)]
pub struct SloConfig {
    /// `deadline_miss_ratio` threshold: windowed
    /// `sim.deadline_misses / sim.packets` above this breaches.
    pub miss_ratio: f64,
    /// `reject_rate` threshold: windowed `admission.rejects.link_full`
    /// per second above this breaches.
    pub reject_per_sec: f64,
    /// `budget_headroom` threshold: the worst per-class share of a link
    /// budget (`admission.class0.max_share`) above this breaches —
    /// i.e. less than `1 - max_share` headroom is left somewhere.
    pub max_share: f64,
    /// `admit_p99_ns` threshold: windowed p99 of `admission.admit_ns`
    /// above this breaches.
    pub admit_p99_ns: f64,
    /// Consecutive breaching windows before any rule fires.
    pub for_windows: u32,
    /// Consecutive clear windows before a firing rule resolves.
    pub clear_windows: u32,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            miss_ratio: 0.01,
            reject_per_sec: 10_000.0,
            max_share: 0.95,
            admit_p99_ns: 250_000.0,
            for_windows: 2,
            clear_windows: 2,
        }
    }
}

/// The standard rule set over the workspace's existing telemetry:
/// deadline-miss ratio (simulator), link-full rejection rate and p99
/// admit latency (admission), and per-link budget headroom (the
/// per-class max-share gauge).
pub fn standard_rules(cfg: &SloConfig) -> Vec<SloRule> {
    vec![
        SloRule::named(
            "deadline_miss_ratio",
            SloSignal::Ratio {
                numerator: "sim.deadline_misses".into(),
                denominator: "sim.packets".into(),
            },
            cfg.miss_ratio,
            cfg.for_windows,
            cfg.clear_windows,
        ),
        SloRule::named(
            "reject_rate",
            SloSignal::Rate {
                counter: "admission.rejects.link_full".into(),
            },
            cfg.reject_per_sec,
            cfg.for_windows,
            cfg.clear_windows,
        ),
        SloRule::named(
            "budget_headroom",
            SloSignal::GaugeValue {
                gauge: "admission.class0.max_share".into(),
            },
            cfg.max_share,
            cfg.for_windows,
            cfg.clear_windows,
        ),
        SloRule::named(
            "admit_p99_ns",
            SloSignal::Quantile {
                histogram: "admission.admit_ns".into(),
                q: 0.99,
            },
            cfg.admit_p99_ns,
            cfg.for_windows,
            cfg.clear_windows,
        ),
    ]
}

/// Alert lifecycle position of a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleState {
    /// Objective met (or never evaluated with data).
    Ok,
    /// Breaching, but for fewer than `for_windows` consecutive windows.
    Pending,
    /// Alert active.
    Firing,
}

impl RuleState {
    /// Stable lower-snake name used in the JSON exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleState::Ok => "ok",
            RuleState::Pending => "pending",
            RuleState::Firing => "firing",
        }
    }

    /// Gauge encoding: `0` ok, `1` pending, `2` firing.
    fn as_gauge(self) -> f64 {
        match self {
            RuleState::Ok => 0.0,
            RuleState::Pending => 1.0,
            RuleState::Firing => 2.0,
        }
    }
}

/// One fired alert, active until resolved, then retained in the
/// bounded recent log.
#[derive(Clone, Debug)]
pub struct Alert {
    /// Name of the rule that fired.
    pub rule: String,
    /// Snapshot-clock seconds when the rule fired.
    pub fired_at: f64,
    /// Snapshot-clock seconds when it resolved (`None` while active).
    pub resolved_at: Option<f64>,
    /// Observed value at the firing (or resolving) transition.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

impl Alert {
    fn to_json_line(&self) -> String {
        let state = if self.resolved_at.is_none() {
            "firing"
        } else {
            "resolved"
        };
        format!(
            "{{\"rule\":\"{}\",\"state\":\"{state}\",\"fired_at\":{:?},\"resolved_at\":{},\
             \"value\":{},\"threshold\":{}}}",
            self.rule,
            self.fired_at,
            self.resolved_at
                .map(|t| format!("{t:?}"))
                .unwrap_or_else(|| "null".into()),
            json::number(self.value),
            json::number(self.threshold),
        )
    }
}

/// One rule plus its runtime state machine and published gauges.
#[derive(Debug)]
struct RuleRuntime {
    rule: SloRule,
    state: RuleState,
    breach_streak: u32,
    clear_streak: u32,
    /// Windows spent in `Pending` over the rule's lifetime — lets an
    /// observer confirm a firing passed through pending even when it
    /// cannot poll fast enough to catch the transient state.
    pending_windows: u64,
    fired: u64,
    resolved: u64,
    last_value: Option<f64>,
    state_gauge: Arc<Gauge>,
    value_gauge: Arc<Gauge>,
}

/// The evaluator: owns the rules, the previous snapshot, and the alert
/// log. Not a hot-path object — `evaluate` reads a window between two
/// registry snapshots; call it on a polling cadence (the serve background loop runs it
/// once per churn batch).
#[derive(Debug)]
pub struct SloEngine {
    rules: Vec<RuleRuntime>,
    prev: Option<Snapshot>,
    active: Vec<Alert>,
    recent: VecDeque<Alert>,
    evaluations: Arc<Counter>,
    fired_total: Arc<Counter>,
    resolved_total: Arc<Counter>,
}

impl SloEngine {
    /// An engine publishing `slo.<rule>.state` / `slo.<rule>.value`
    /// gauges and its own evaluation counters into `registry`.
    pub fn new(registry: &Registry, rules: Vec<SloRule>) -> Self {
        let rules = rules
            .into_iter()
            .map(|rule| {
                let name = &rule.name;
                RuleRuntime {
                    state_gauge: registry.gauge(&format!("slo.{name}.state")),
                    value_gauge: registry.gauge(&format!("slo.{name}.value")),
                    rule,
                    state: RuleState::Ok,
                    breach_streak: 0,
                    clear_streak: 0,
                    pending_windows: 0,
                    fired: 0,
                    resolved: 0,
                    last_value: None,
                }
            })
            .collect();
        Self {
            rules,
            prev: None,
            active: Vec::new(),
            recent: VecDeque::new(),
            evaluations: registry.counter("slo.evaluations"),
            fired_total: registry.counter("slo.alerts_fired"),
            resolved_total: registry.counter("slo.alerts_resolved"),
        }
    }

    /// Closes one evaluation window: reads each rule's signal over the
    /// window from the previous snapshot to `snap`, feeds every rule's
    /// state machine, publishes the state gauges, and emits
    /// fire/resolve trace events. The first call only anchors the window
    /// and evaluates nothing. Returns how many rules are firing
    /// afterwards.
    pub fn evaluate(&mut self, snap: Snapshot) -> usize {
        let Some(prev) = self.prev.take() else {
            self.prev = Some(snap);
            return 0;
        };
        self.read_window(&snap.window(&prev), snap.at);
        self.prev = Some(snap);
        self.rules
            .iter()
            .filter(|r| r.state == RuleState::Firing)
            .count()
    }

    /// Feeds one window, closed at `now`, to every rule.
    fn read_window(&mut self, window: &Window<'_>, now: f64) {
        self.evaluations.inc();
        for (idx, r) in self.rules.iter_mut().enumerate() {
            let Some(value) = r.rule.signal.read(window) else {
                // No data: hold streaks and state (see module docs).
                continue;
            };
            r.last_value = Some(value);
            r.value_gauge.set(value);
            if value > r.rule.threshold {
                r.breach_streak += 1;
                r.clear_streak = 0;
                if r.state != RuleState::Firing {
                    if r.breach_streak >= r.rule.for_windows {
                        r.state = RuleState::Firing;
                        r.fired += 1;
                        self.fired_total.inc();
                        self.active.push(Alert {
                            rule: r.rule.name.clone(),
                            fired_at: now,
                            resolved_at: None,
                            value,
                            threshold: r.rule.threshold,
                        });
                        trace::global().emit(
                            EventKind::AlertFire,
                            0,
                            idx as u64,
                            u32::MAX,
                            value,
                            r.rule.threshold,
                        );
                    } else {
                        r.state = RuleState::Pending;
                        r.pending_windows += 1;
                    }
                }
            } else {
                r.clear_streak += 1;
                r.breach_streak = 0;
                match r.state {
                    RuleState::Firing => {
                        if r.clear_streak >= r.rule.clear_windows {
                            r.state = RuleState::Ok;
                            r.resolved += 1;
                            self.resolved_total.inc();
                            if let Some(pos) =
                                self.active.iter().position(|a| a.rule == r.rule.name)
                            {
                                let mut alert = self.active.remove(pos);
                                alert.resolved_at = Some(now);
                                alert.value = value;
                                if self.recent.len() == RECENT_ALERTS {
                                    self.recent.pop_front();
                                }
                                self.recent.push_back(alert);
                            }
                            trace::global().emit(
                                EventKind::AlertResolve,
                                0,
                                idx as u64,
                                u32::MAX,
                                value,
                                r.rule.threshold,
                            );
                        }
                    }
                    RuleState::Pending => r.state = RuleState::Ok,
                    RuleState::Ok => {}
                }
            }
            r.state_gauge.set(r.state.as_gauge());
        }
    }

    /// Current state of `rule`, if the engine has it.
    pub fn state_of(&self, rule: &str) -> Option<RuleState> {
        self.rules
            .iter()
            .find(|r| r.rule.name == rule)
            .map(|r| r.state)
    }

    /// Lifetime windows `rule` spent pending (breaching below its `for`
    /// hysteresis).
    pub fn pending_windows(&self, rule: &str) -> Option<u64> {
        self.rules
            .iter()
            .find(|r| r.rule.name == rule)
            .map(|r| r.pending_windows)
    }

    /// Active alerts (rules currently firing), oldest first.
    pub fn active_alerts(&self) -> &[Alert] {
        &self.active
    }

    /// Recently resolved alerts, oldest first (bounded to
    /// [`RECENT_ALERTS`]).
    pub fn recent_alerts(&self) -> impl Iterator<Item = &Alert> {
        self.recent.iter()
    }

    /// JSON-lines rule-state rendering (the `/slo` endpoint): one object
    /// per rule with its state, latest value, threshold, streaks, and
    /// lifetime transition counts.
    pub fn states_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.rules.len() * 160);
        for r in &self.rules {
            writeln!(
                out,
                "{{\"rule\":\"{}\",\"state\":\"{}\",\"value\":{},\"threshold\":{},\
                 \"breach_streak\":{},\"clear_streak\":{},\"for_windows\":{},\
                 \"clear_windows\":{},\"pending_windows\":{},\"fired\":{},\"resolved\":{}}}",
                r.rule.name,
                r.state.as_str(),
                r.last_value
                    .map(json::number)
                    .unwrap_or_else(|| "null".into()),
                json::number(r.rule.threshold),
                r.breach_streak,
                r.clear_streak,
                r.rule.for_windows,
                r.rule.clear_windows,
                r.pending_windows,
                r.fired,
                r.resolved,
            )
            .unwrap();
        }
        out
    }

    /// JSON-lines alert-log rendering (the `/alerts` endpoint): active
    /// alerts, then recent resolved ones, then a
    /// `{"kind":"alerts_meta",...}` trailer with the counts.
    pub fn alerts_json_lines(&self) -> String {
        let mut out = String::with_capacity((self.active.len() + self.recent.len()) * 128 + 64);
        for a in &self.active {
            out.push_str(&a.to_json_line());
            out.push('\n');
        }
        for a in &self.recent {
            out.push_str(&a.to_json_line());
            out.push('\n');
        }
        writeln!(
            out,
            "{{\"kind\":\"alerts_meta\",\"active\":{},\"recent\":{}}}",
            self.active.len(),
            self.recent.len()
        )
        .unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry with one counter pair driving a miss-ratio rule, plus
    /// a helper producing snapshots with hand-pinned window stamps so
    /// every transition is deterministic.
    struct Harness {
        registry: Registry,
        engine: SloEngine,
        t: f64,
    }

    impl Harness {
        fn new(for_windows: u32, clear_windows: u32) -> Self {
            let registry = Registry::new();
            registry.counter("misses");
            registry.counter("packets");
            let rule = SloRule::named(
                "miss_ratio",
                SloSignal::Ratio {
                    numerator: "misses".into(),
                    denominator: "packets".into(),
                },
                0.1,
                for_windows,
                clear_windows,
            );
            let mut engine = SloEngine::new(&registry, vec![rule]);
            let mut snap = registry.snapshot();
            snap.at = 0.0;
            engine.evaluate(snap); // anchor window
            Self {
                registry,
                engine,
                t: 0.0,
            }
        }

        /// One window delivering `misses` out of `packets`, then an
        /// evaluation. Returns the rule state afterwards.
        fn window(&mut self, misses: u64, packets: u64) -> RuleState {
            self.registry.counter("misses").add(misses);
            self.registry.counter("packets").add(packets);
            self.t += 1.0;
            let mut snap = self.registry.snapshot();
            snap.at = self.t;
            self.engine.evaluate(snap);
            self.engine.state_of("miss_ratio").unwrap()
        }
    }

    #[test]
    fn fires_after_for_windows_and_resolves_after_clear_windows() {
        let mut h = Harness::new(2, 2);
        assert_eq!(h.window(50, 100), RuleState::Pending);
        assert_eq!(h.window(50, 100), RuleState::Firing);
        assert_eq!(h.engine.active_alerts().len(), 1);
        assert_eq!(h.engine.active_alerts()[0].rule, "miss_ratio");
        assert!(h.engine.active_alerts()[0].resolved_at.is_none());
        // One clear window is not enough to resolve…
        assert_eq!(h.window(0, 100), RuleState::Firing);
        // …two consecutive are.
        assert_eq!(h.window(0, 100), RuleState::Ok);
        assert!(h.engine.active_alerts().is_empty());
        let recent: Vec<&Alert> = h.engine.recent_alerts().collect();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].resolved_at, Some(4.0));
        assert_eq!(recent[0].fired_at, 2.0);
        assert_eq!(h.engine.pending_windows("miss_ratio"), Some(1));
    }

    #[test]
    fn flapping_breaches_never_fire() {
        // for_windows = 3: two breaches then a clear, repeatedly — the
        // breach streak never reaches 3, so the rule never fires.
        let mut h = Harness::new(3, 1);
        for _ in 0..5 {
            assert_eq!(h.window(50, 100), RuleState::Pending);
            assert_eq!(h.window(50, 100), RuleState::Pending);
            assert_eq!(h.window(0, 100), RuleState::Ok);
        }
        assert_eq!(h.engine.active_alerts().len(), 0);
        assert!(h.engine.recent_alerts().next().is_none());
        assert_eq!(h.engine.pending_windows("miss_ratio"), Some(10));
    }

    #[test]
    fn one_clear_window_does_not_resolve_a_flapping_firing_rule() {
        // clear_windows = 2: once firing, breach/clear alternation keeps
        // the alert active — the clear streak never reaches 2.
        let mut h = Harness::new(1, 2);
        assert_eq!(h.window(50, 100), RuleState::Firing);
        for _ in 0..4 {
            assert_eq!(h.window(0, 100), RuleState::Firing);
            assert_eq!(h.window(50, 100), RuleState::Firing);
        }
        assert_eq!(h.engine.active_alerts().len(), 1);
    }

    #[test]
    fn no_data_windows_hold_the_state_machine() {
        let mut h = Harness::new(2, 2);
        assert_eq!(h.window(50, 100), RuleState::Pending);
        // A window with no packets is no evidence either way: the breach
        // streak survives it and the next breach fires.
        assert_eq!(h.window(0, 0), RuleState::Pending);
        assert_eq!(h.window(50, 100), RuleState::Firing);
        // Same while firing: silence does not resolve an alert.
        for _ in 0..5 {
            assert_eq!(h.window(0, 0), RuleState::Firing);
        }
        assert_eq!(h.window(0, 100), RuleState::Firing);
        assert_eq!(h.window(0, 100), RuleState::Ok);
    }

    #[test]
    fn state_and_value_gauges_track_transitions() {
        let mut h = Harness::new(2, 1);
        let state = h.registry.gauge("slo.miss_ratio.state");
        let value = h.registry.gauge("slo.miss_ratio.value");
        h.window(50, 100);
        assert_eq!(state.get(), 1.0, "pending");
        assert!((value.get() - 0.5).abs() < 1e-12);
        h.window(50, 100);
        assert_eq!(state.get(), 2.0, "firing");
        h.window(0, 100);
        assert_eq!(state.get(), 0.0, "ok");
        assert_eq!(value.get(), 0.0);
        assert_eq!(h.registry.counter("slo.alerts_fired").get(), 1);
        assert_eq!(h.registry.counter("slo.alerts_resolved").get(), 1);
        assert_eq!(h.registry.counter("slo.evaluations").get(), 3);
    }

    #[test]
    fn rate_gauge_and_quantile_signals_read_windows() {
        let registry = Registry::new();
        let c = registry.counter("ops");
        let g = registry.gauge("share");
        let hist = registry.histogram("lat", 1.0);
        let rules = vec![
            SloRule::named(
                "ops_rate",
                SloSignal::Rate {
                    counter: "ops".into(),
                },
                10.0,
                1,
                1,
            ),
            SloRule::named(
                "high_share",
                SloSignal::GaugeValue {
                    gauge: "share".into(),
                },
                0.75,
                1,
                1,
            ),
            SloRule::named(
                "lat_p99",
                SloSignal::Quantile {
                    histogram: "lat".into(),
                    q: 0.99,
                },
                100.0,
                1,
                1,
            ),
        ];
        let mut engine = SloEngine::new(&registry, rules);
        let mut snap = registry.snapshot();
        snap.at = 0.0;
        engine.evaluate(snap);
        // Window 1: 40 ops over 2s (rate 20 > 10 breaches), share 0.5
        // (not above 0.75), p99 from in-window samples only.
        c.add(40);
        g.set(0.5);
        for _ in 0..100 {
            hist.record(300.0);
        }
        let mut snap = registry.snapshot();
        snap.at = 2.0;
        assert_eq!(engine.evaluate(snap), 2, "ops_rate and lat_p99 fire");
        assert_eq!(engine.state_of("ops_rate"), Some(RuleState::Firing));
        assert_eq!(engine.state_of("high_share"), Some(RuleState::Ok));
        assert_eq!(engine.state_of("lat_p99"), Some(RuleState::Firing));
        // Window 2: quiet counters, share climbs, latencies fast — the
        // quantile must see only this window's mass (2.0-ish), not the
        // lifetime 300s.
        g.set(0.9);
        for _ in 0..100 {
            hist.record(2.0);
        }
        let mut snap = registry.snapshot();
        snap.at = 4.0;
        assert_eq!(engine.evaluate(snap), 1, "only high_share remains");
        assert_eq!(engine.state_of("ops_rate"), Some(RuleState::Ok));
        assert_eq!(engine.state_of("high_share"), Some(RuleState::Firing));
        assert_eq!(engine.state_of("lat_p99"), Some(RuleState::Ok));
    }

    #[test]
    fn json_renderings_are_parseable_and_complete() {
        let mut h = Harness::new(1, 1);
        h.window(50, 100); // fire
        h.window(0, 100); // resolve
        h.window(30, 100); // fire again (still active)
        let states = h.engine.states_json_lines();
        let line = crate::json::parse(states.lines().next().unwrap()).unwrap();
        assert_eq!(
            line.get("rule").and_then(crate::json::JsonValue::as_str),
            Some("miss_ratio")
        );
        assert_eq!(
            line.get("state").and_then(crate::json::JsonValue::as_str),
            Some("firing")
        );
        assert_eq!(
            line.get("fired")
                .and_then(crate::json::JsonValue::as_number),
            Some(2.0)
        );
        let alerts = h.engine.alerts_json_lines();
        let lines: Vec<&str> = alerts.lines().collect();
        assert_eq!(lines.len(), 3, "active + recent + trailer: {alerts}");
        let active = crate::json::parse(lines[0]).unwrap();
        assert_eq!(
            active.get("state").and_then(crate::json::JsonValue::as_str),
            Some("firing")
        );
        assert_eq!(
            active.get("resolved_at"),
            Some(&crate::json::JsonValue::Null)
        );
        let resolved = crate::json::parse(lines[1]).unwrap();
        assert_eq!(
            resolved
                .get("state")
                .and_then(crate::json::JsonValue::as_str),
            Some("resolved")
        );
        let meta = crate::json::parse(lines[2]).unwrap();
        assert_eq!(
            meta.get("active")
                .and_then(crate::json::JsonValue::as_number),
            Some(1.0)
        );
    }

    #[test]
    fn standard_rules_cover_the_advertised_set() {
        let rules = standard_rules(&SloConfig::default());
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "deadline_miss_ratio",
                "reject_rate",
                "budget_headroom",
                "admit_p99_ns"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "lower-snake")]
    fn hostile_rule_names_are_rejected() {
        let _ = SloRule::named(
            "bad\"name",
            SloSignal::Rate {
                counter: "x".into(),
            },
            1.0,
            1,
            1,
        );
    }

    #[test]
    fn alert_fire_and_resolve_emit_trace_events() {
        // The global tracer is shared across tests; enable, drive one
        // fire/resolve cycle, and look for our rule's payload.
        let tracer = trace::global();
        tracer.set_enabled(true);
        let mut h = Harness::new(1, 1);
        h.window(90, 100);
        h.window(0, 100);
        let drained = tracer.drain();
        tracer.set_enabled(false);
        // A sibling test's harness may fire the same threshold while the
        // tracer is on; ours is the one that saw 90 of 100.
        let fire = drained
            .events
            .iter()
            .find(|e| e.kind == EventKind::AlertFire && e.b == 0.1 && (e.a - 0.9).abs() < 1e-12);
        let resolve = drained
            .events
            .iter()
            .find(|e| e.kind == EventKind::AlertResolve && e.b == 0.1);
        assert!(fire.is_some(), "missing alert_fire: {drained:?}");
        assert!(resolve.is_some(), "missing alert_resolve: {drained:?}");
    }
}
