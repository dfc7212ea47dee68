//! Per-decision admission diagnosis ("why was this flow rejected?").
//!
//! [`Reject`](crate::Reject) carries what the admit path learned at the
//! instant of rejection; an [`Explain`] is the richer, *non-mutating*
//! version an operator asks for after the fact: the path that would be
//! tried, the first link that cannot fit the flow, and the
//! observed-vs-budget utilization and headroom on that link. The dry run
//! uses the same exact integer-millibit predicate as the real admission
//! test ([`UtilizationState::would_fit`](crate::UtilizationState::would_fit)), so
//! against an unchanged state the diagnosis can never disagree with what
//! [`try_admit`](crate::AdmissionController::try_admit) would do —
//! the explainability contract SDN delay-guarantee controllers expose as
//! a control-plane artifact.

use crate::AdmissionController;
use std::fmt;
use uba_graph::NodeId;
use uba_traffic::ClassId;

/// What the dry run concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExplainVerdict {
    /// The flow would be admitted right now.
    Admissible,
    /// No route is configured for the (src, dst, class).
    NoRoute,
    /// Some link on the path cannot fit the flow's rate.
    LinkFull,
    /// A shaping stage of the generation's policy chain would turn the
    /// flow away before the utilization check (see
    /// [`Explain::rejected_stage`]).
    PolicyReject,
}

impl ExplainVerdict {
    /// Stable lower-snake name used in the JSON rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            ExplainVerdict::Admissible => "admissible",
            ExplainVerdict::NoRoute => "no_route",
            ExplainVerdict::LinkFull => "link_full",
            ExplainVerdict::PolicyReject => "policy_reject",
        }
    }
}

/// One policy stage's verdict inside an [`Explain`] (the stages are
/// dry-run independently, so a diagnosis names *every* stage that would
/// reject, not just the first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageVerdict {
    /// The stage would admit the flow.
    Pass,
    /// The stage would reject the flow.
    Reject,
    /// The stage was not evaluated (the terminal utilization stage when
    /// no route exists to walk).
    Skipped,
}

impl StageVerdict {
    /// Stable lower-snake name used in the JSON rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            StageVerdict::Pass => "pass",
            StageVerdict::Reject => "reject",
            StageVerdict::Skipped => "skipped",
        }
    }
}

/// A per-flow admission diagnosis produced by
/// [`AdmissionController::explain`].
#[derive(Clone, Debug, PartialEq)]
pub struct Explain {
    /// The class the flow belongs to.
    pub class: ClassId,
    /// Flow source router.
    pub src: NodeId,
    /// Flow destination router.
    pub dst: NodeId,
    /// The conclusion.
    pub verdict: ExplainVerdict,
    /// The configured path's link servers (empty on `NoRoute`).
    pub path: Vec<u32>,
    /// The per-flow rate `ρ_i` that was tested, bits/s.
    pub flow_rate_bps: f64,
    /// The diagnosed link: first failing link on `LinkFull`, the
    /// tightest-headroom link on `Admissible`, `None` on `NoRoute`.
    pub link: Option<u32>,
    /// Reserved rate of the class on the diagnosed link, bits/s.
    pub reserved_bps: f64,
    /// Budget `α_i · C` of the class on the diagnosed link, bits/s.
    pub budget_bps: f64,
    /// Every policy stage's verdict in chain order, the terminal
    /// `"utilization"` stage last. A `Static` chain reports only the
    /// utilization entry.
    pub stages: Vec<(&'static str, StageVerdict)>,
    /// First shaping stage that would reject (`None` unless the verdict
    /// is [`ExplainVerdict::PolicyReject`]).
    pub rejected_stage: Option<&'static str>,
}

impl Explain {
    /// Observed utilization of the diagnosed link as a fraction of the
    /// class budget (`0.0` when there is no diagnosed link).
    pub fn observed_utilization(&self) -> f64 {
        if self.budget_bps > 0.0 {
            self.reserved_bps / self.budget_bps
        } else {
            0.0
        }
    }

    /// Remaining class headroom on the diagnosed link, bits/s.
    pub fn headroom_bps(&self) -> f64 {
        (self.budget_bps - self.reserved_bps).max(0.0)
    }

    /// One-line JSON rendering (workspace JSON-lines idiom).
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut path = String::new();
        for (i, s) in self.path.iter().enumerate() {
            if i > 0 {
                path.push(',');
            }
            write!(path, "{s}").unwrap();
        }
        let link = self.link.map_or_else(|| "null".into(), |l| l.to_string());
        let mut stages = String::new();
        for (i, (name, verdict)) in self.stages.iter().enumerate() {
            if i > 0 {
                stages.push(',');
            }
            write!(
                stages,
                "{{\"stage\":\"{name}\",\"verdict\":\"{}\"}}",
                verdict.as_str()
            )
            .unwrap();
        }
        let rejected_stage = self
            .rejected_stage
            .map_or_else(|| "null".into(), |s| format!("\"{s}\""));
        let num = uba_obs::json::number;
        format!(
            "{{\"class\":{},\"src\":{},\"dst\":{},\"verdict\":\"{}\",\"path\":[{path}],\
             \"flow_rate_bps\":{},\"link\":{link},\"reserved_bps\":{},\
             \"budget_bps\":{},\"utilization\":{},\"headroom_bps\":{},\
             \"stages\":[{stages}],\"rejected_stage\":{rejected_stage}}}",
            self.class.index(),
            self.src.0,
            self.dst.0,
            self.verdict.as_str(),
            num(self.flow_rate_bps),
            num(self.reserved_bps),
            num(self.budget_bps),
            num(self.observed_utilization()),
            num(self.headroom_bps()),
        )
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "class {} {}->{}: ",
            self.class.index(),
            self.src.0,
            self.dst.0
        )?;
        match self.verdict {
            ExplainVerdict::NoRoute => write!(f, "no configured route"),
            ExplainVerdict::Admissible => write!(
                f,
                "admissible over {} hops; tightest link {} at {:.1}% \
                 ({:.1} kb/s headroom)",
                self.path.len(),
                self.link.unwrap_or(u32::MAX),
                self.observed_utilization() * 100.0,
                self.headroom_bps() / 1e3,
            ),
            ExplainVerdict::LinkFull => write!(
                f,
                "link {} full: reserved {:.1} of {:.1} kb/s budget \
                 ({:.1}% utilized, {:.1} kb/s headroom < {:.1} kb/s flow)",
                self.link.unwrap_or(u32::MAX),
                self.reserved_bps / 1e3,
                self.budget_bps / 1e3,
                self.observed_utilization() * 100.0,
                self.headroom_bps() / 1e3,
                self.flow_rate_bps / 1e3,
            ),
            ExplainVerdict::PolicyReject => write!(
                f,
                "policy stage {} would reject before the utilization check",
                self.rejected_stage.unwrap_or("?"),
            ),
        }
    }
}

impl AdmissionController {
    /// Diagnoses — without reserving anything — what
    /// [`try_admit`](Self::try_admit) would do for one flow of `class`
    /// from `src` to `dst` right now, and why.
    ///
    /// The diagnosis resolves the configuration generation once and runs
    /// entirely against that snapshot, so it stays self-consistent even
    /// if a `reconfigure` lands mid-call. On a would-be `LinkFull` the
    /// diagnosed link is the *first* link along the path whose class
    /// headroom cannot fit the flow rate (matching the walk order of the
    /// real admit path); on a would-be admission it is the
    /// tightest-headroom link, which is the one that will fail first as
    /// load grows.
    pub fn explain(&self, class: ClassId, src: NodeId, dst: NodeId) -> Explain {
        let generation = self.current_generation();
        let rate = generation.rates()[class.index()];
        let mut ex = Explain {
            class,
            src,
            dst,
            verdict: ExplainVerdict::NoRoute,
            path: Vec::new(),
            flow_rate_bps: rate,
            link: None,
            reserved_bps: 0.0,
            budget_bps: 0.0,
            stages: Vec::new(),
            rejected_stage: None,
        };
        let state = generation.backend();
        let c = class.index();
        let mut tightest: Option<(u32, f64)> = None;
        if let Some(route) = generation.table().route(src, dst, class) {
            ex.path = route.to_vec();
            ex.verdict = ExplainVerdict::Admissible;
            for &server in route {
                let s = server as usize;
                if !state.would_fit(s, c, rate) {
                    ex.verdict = ExplainVerdict::LinkFull;
                    ex.link = Some(server);
                    ex.reserved_bps = state.reserved(s, c);
                    ex.budget_bps = state.budget(s, c);
                    break;
                }
                let headroom = state.budget(s, c) - state.reserved(s, c);
                if tightest.is_none_or(|(_, h)| headroom < h) {
                    tightest = Some((server, headroom));
                }
            }
            if ex.verdict == ExplainVerdict::Admissible {
                if let Some((server, _)) = tightest {
                    ex.link = Some(server);
                    ex.reserved_bps = state.reserved(server as usize, c);
                    ex.budget_bps = state.budget(server as usize, c);
                }
            }
        }
        // Policy stages are dry-run independently (no consumption, no
        // short-circuit), so the diagnosis names every stage that would
        // reject — richer than the real admit path, which stops at the
        // first. A `Static` chain skips the clock read entirely.
        let chain = generation.policy();
        if !chain.is_static() {
            let t = uba_obs::process_secs();
            for (name, ok) in chain.dry_run(c, 1, t) {
                let v = if ok {
                    StageVerdict::Pass
                } else {
                    StageVerdict::Reject
                };
                if !ok && ex.rejected_stage.is_none() {
                    ex.rejected_stage = Some(name);
                }
                ex.stages.push((name, v));
            }
        }
        ex.stages.push((
            "utilization",
            match ex.verdict {
                ExplainVerdict::NoRoute => StageVerdict::Skipped,
                ExplainVerdict::LinkFull => StageVerdict::Reject,
                _ => StageVerdict::Pass,
            },
        ));
        // Verdict precedence mirrors the admit path: no_route first,
        // then the shaping stages, then the utilization walk.
        if ex.verdict != ExplainVerdict::NoRoute && ex.rejected_stage.is_some() {
            ex.verdict = ExplainVerdict::PolicyReject;
        } else {
            ex.rejected_stage = None;
        }
        ex
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingTable;
    use uba_graph::{Digraph, Path};
    use uba_traffic::{ClassSet, TrafficClass};

    /// 0 -> 1 -> 2 with routes (0,2) and (1,2); link 1->2 is shared.
    fn setup(alpha: f64) -> (AdmissionController, u32) {
        let mut g = Digraph::with_nodes(3);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let mut table = RoutingTable::new();
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e12]));
        let classes = ClassSet::single(TrafficClass::voip());
        let caps = vec![1e6; g.edge_count()];
        let ctrl = AdmissionController::new_unmetered(table, &classes, &caps, &[alpha]);
        (ctrl, e12.index() as u32)
    }

    #[test]
    fn explain_matches_try_admit_on_every_state() {
        let (ctrl, shared) = setup(0.32);
        let mut held = Vec::new();
        // At every occupancy level the dry run and the real decision
        // must agree.
        for _ in 0..10 {
            let ex = ctrl.explain(ClassId(0), NodeId(0), NodeId(2));
            assert_eq!(ex.verdict, ExplainVerdict::Admissible);
            held.push(ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap());
        }
        let ex = ctrl.explain(ClassId(0), NodeId(1), NodeId(2));
        assert_eq!(ex.verdict, ExplainVerdict::LinkFull);
        assert_eq!(ex.link, Some(shared));
        assert_eq!(ex.reserved_bps, 320_000.0);
        assert_eq!(ex.budget_bps, 320_000.0);
        assert_eq!(ex.observed_utilization(), 1.0);
        assert_eq!(ex.headroom_bps(), 0.0);
        assert!(ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)).is_err());
        // The dry run reserved nothing: releasing one flow restores
        // admissibility.
        held.pop();
        assert_eq!(
            ctrl.explain(ClassId(0), NodeId(1), NodeId(2)).verdict,
            ExplainVerdict::Admissible
        );
    }

    #[test]
    fn explain_no_route_and_tightest_link() {
        let (ctrl, shared) = setup(0.32);
        let ex = ctrl.explain(ClassId(0), NodeId(2), NodeId(0));
        assert_eq!(ex.verdict, ExplainVerdict::NoRoute);
        assert!(ex.path.is_empty());
        assert_eq!(ex.link, None);
        // Load only the shared link (via the short route): the long
        // route's tightest link must be the shared one.
        let _h: Vec<_> = (0..5)
            .map(|_| ctrl.try_admit(ClassId(0), NodeId(1), NodeId(2)).unwrap())
            .collect();
        let ex = ctrl.explain(ClassId(0), NodeId(0), NodeId(2));
        assert_eq!(ex.verdict, ExplainVerdict::Admissible);
        assert_eq!(ex.link, Some(shared));
        assert!((ex.observed_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn explain_json_and_display() {
        let (ctrl, shared) = setup(0.32);
        let _h: Vec<_> = (0..10)
            .map(|_| ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap())
            .collect();
        let ex = ctrl.explain(ClassId(0), NodeId(1), NodeId(2));
        let line = ex.to_json_line();
        let v = uba_obs::json::parse(&line).expect("explain JSON must parse");
        use uba_obs::json::JsonValue;
        assert_eq!(
            v.get("verdict").and_then(JsonValue::as_str),
            Some("link_full")
        );
        assert_eq!(
            v.get("link").and_then(JsonValue::as_number),
            Some(shared as f64)
        );
        assert_eq!(
            v.get("reserved_bps").and_then(JsonValue::as_number),
            Some(320_000.0)
        );
        assert_eq!(
            v.get("utilization").and_then(JsonValue::as_number),
            Some(1.0)
        );
        let msg = ex.to_string();
        assert!(msg.contains(&format!("link {shared} full")), "{msg}");
        assert!(msg.contains("320.0"), "{msg}");
    }

    #[test]
    fn explain_json_round_trips_every_verdict() {
        // Every field of every verdict shape must survive
        // serialize -> uba_obs::json::parse -> compare.
        let (ctrl, _) = setup(0.32);
        let _h: Vec<_> = (0..10)
            .map(|_| ctrl.try_admit(ClassId(0), NodeId(0), NodeId(2)).unwrap())
            .collect();
        let cases = [
            ctrl.explain(ClassId(0), NodeId(2), NodeId(0)), // no_route
            ctrl.explain(ClassId(0), NodeId(0), NodeId(2)), // link_full
        ];
        let (released, _) = setup(0.32);
        let admissible = released.explain(ClassId(0), NodeId(0), NodeId(2));
        use uba_obs::json::JsonValue;
        for ex in cases.iter().chain(std::iter::once(&admissible)) {
            let line = ex.to_json_line();
            let v = uba_obs::json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let num = |k: &str| v.get(k).and_then(JsonValue::as_number);
            assert_eq!(num("class"), Some(ex.class.index() as f64), "{line}");
            assert_eq!(num("src"), Some(ex.src.0 as f64), "{line}");
            assert_eq!(num("dst"), Some(ex.dst.0 as f64), "{line}");
            assert_eq!(
                v.get("verdict").and_then(JsonValue::as_str),
                Some(ex.verdict.as_str()),
                "{line}"
            );
            let path: Vec<f64> = match v.get("path") {
                Some(JsonValue::Array(items)) => {
                    items.iter().map(|i| i.as_number().unwrap()).collect()
                }
                other => panic!("path must be an array, got {other:?}: {line}"),
            };
            let expect: Vec<f64> = ex.path.iter().map(|&s| s as f64).collect();
            assert_eq!(path, expect, "{line}");
            assert_eq!(num("flow_rate_bps"), Some(ex.flow_rate_bps), "{line}");
            match ex.link {
                Some(l) => assert_eq!(num("link"), Some(l as f64), "{line}"),
                None => assert_eq!(v.get("link"), Some(&JsonValue::Null), "{line}"),
            }
            assert_eq!(num("reserved_bps"), Some(ex.reserved_bps), "{line}");
            assert_eq!(num("budget_bps"), Some(ex.budget_bps), "{line}");
            assert_eq!(
                num("utilization"),
                Some(ex.observed_utilization()),
                "{line}"
            );
            assert_eq!(num("headroom_bps"), Some(ex.headroom_bps()), "{line}");
            assert_stages_round_trip(ex, &v, &line);
        }
    }

    fn assert_stages_round_trip(ex: &Explain, v: &uba_obs::json::JsonValue, line: &str) {
        use uba_obs::json::JsonValue;
        let stages = match v.get("stages") {
            Some(JsonValue::Array(items)) => items,
            other => panic!("stages must be an array, got {other:?}: {line}"),
        };
        assert_eq!(stages.len(), ex.stages.len(), "{line}");
        for (item, (name, verdict)) in stages.iter().zip(&ex.stages) {
            assert_eq!(
                item.get("stage").and_then(JsonValue::as_str),
                Some(*name),
                "{line}"
            );
            assert_eq!(
                item.get("verdict").and_then(JsonValue::as_str),
                Some(verdict.as_str()),
                "{line}"
            );
        }
        match ex.rejected_stage {
            Some(s) => assert_eq!(
                v.get("rejected_stage").and_then(JsonValue::as_str),
                Some(s),
                "{line}"
            ),
            None => assert_eq!(v.get("rejected_stage"), Some(&JsonValue::Null), "{line}"),
        }
    }

    #[test]
    fn explain_policy_stages_round_trip_in_json() {
        use crate::generation::{BackendKind, ConfigGeneration};
        use crate::policy::{ChainKind, PolicyChain, PolicyConfig};
        let mut g = Digraph::with_nodes(3);
        let (e01, _) = g.add_link(NodeId(0), NodeId(1), 1.0);
        let (e12, _) = g.add_link(NodeId(1), NodeId(2), 1.0);
        let mut table = RoutingTable::new();
        table.insert(ClassId(0), &Path::from_edges(&g, vec![e01, e12]));
        let classes = ClassSet::single(TrafficClass::voip());
        let caps = vec![1e6; g.edge_count()];
        // Adaptive chain with a one-flow, non-refilling bucket: after one
        // admit the token bucket must read as the rejecting stage.
        let cfg = PolicyConfig {
            chain: ChainKind::Adaptive,
            bucket_rate_bps: 0.0,
            bucket_burst_bits: 32_000.0,
            ..PolicyConfig::default()
        };
        let chain = PolicyChain::from_config(&cfg, &[32_000.0]);
        let ctrl = AdmissionController::from_generation(ConfigGeneration::with_policy(
            table,
            &classes,
            &caps,
            &[0.32],
            BackendKind::Atomic,
            chain,
        ));
        let before = ctrl.explain(ClassId(0), NodeId(0), NodeId(2));
        assert_eq!(before.verdict, ExplainVerdict::Admissible);
        assert_eq!(
            before.stages,
            vec![
                ("token_bucket", StageVerdict::Pass),
                ("aimd", StageVerdict::Pass),
                ("utilization", StageVerdict::Pass),
            ]
        );
        let _h = ctrl
            .try_admit_at(ClassId(0), NodeId(0), NodeId(2), 0.0)
            .unwrap();
        let after = ctrl.explain(ClassId(0), NodeId(0), NodeId(2));
        assert_eq!(after.verdict, ExplainVerdict::PolicyReject);
        assert_eq!(after.rejected_stage, Some("token_bucket"));
        assert_eq!(after.stages[0], ("token_bucket", StageVerdict::Reject));
        assert_eq!(after.stages[2], ("utilization", StageVerdict::Pass));
        assert!(after.to_string().contains("policy stage token_bucket"));
        // The stage verdicts and rejected stage survive the JSON
        // round-trip, for both shapes.
        for ex in [&before, &after] {
            let line = ex.to_json_line();
            let v = uba_obs::json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(
                v.get("verdict").and_then(uba_obs::json::JsonValue::as_str),
                Some(ex.verdict.as_str()),
                "{line}"
            );
            assert_stages_round_trip(ex, &v, &line);
        }
        // The dry run consumed nothing: the real admit path sees the
        // same single remaining decision it would have without explain.
        assert!(matches!(
            ctrl.try_admit_at(ClassId(0), NodeId(0), NodeId(2), 0.0),
            Err(crate::Reject::Policy {
                stage: "token_bucket",
                ..
            })
        ));
    }
}
