//! `docs/metrics-manifest.txt` ↔ live registry agreement, both ways.
//!
//! Replays the canonical manifest scenario (`scenarios/ring_small.toml`
//! — single-class, so it exercises the delay solver, admission churn +
//! saturation, and the packet simulator) through `cmd_metrics`, then
//! diffs the metric names the process-global registry actually holds
//! against the manifest. This is the check for names built at run time
//! (SLO gauges, policy-stage reject counters, trace kinds), which the
//! xtask linter's literal scan cannot see:
//!
//! * every live registry name must appear in the manifest (a metric was
//!   added without regenerating the file), and
//! * every metric line in the manifest must come back from the registry
//!   (a metric was renamed or removed and the manifest went stale).
//!
//! `trace.*` lines are tracepoint kinds, not registry entries; they are
//! checked against `EventKind` names separately below.

use std::collections::BTreeSet;
use std::path::Path;

use uba_cli::commands::{cmd_metrics, render_global_metrics};
use uba_cli::Scenario;

fn manifest_lines() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/metrics-manifest.txt");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

fn live_registry_names() -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/ring_small.toml");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let sc = Scenario::from_str(&text).expect("canonical scenario parses");
    cmd_metrics(&sc, true).expect("canonical scenario runs");
    render_global_metrics(true)
        .lines()
        .map(|line| {
            uba::obs::json::parse(line)
                .expect("registry emits valid JSON lines")
                .get("name")
                .and_then(|v| v.as_str().map(str::to_owned))
                .expect("every metric line has a name")
        })
        .collect()
}

#[test]
fn manifest_and_registry_agree_in_both_directions() {
    let manifest = manifest_lines();
    let metric_lines: BTreeSet<String> = manifest
        .iter()
        .filter(|l| !l.starts_with("trace."))
        .cloned()
        .collect();
    let live = live_registry_names();

    let unmanifested: Vec<_> = live.difference(&metric_lines).collect();
    assert!(
        unmanifested.is_empty(),
        "registry metrics missing from docs/metrics-manifest.txt \
         (regenerate it — see the file header): {unmanifested:?}"
    );

    let stale: Vec<_> = metric_lines.difference(&live).collect();
    assert!(
        stale.is_empty(),
        "manifest lines no longer produced by the canonical scenario \
         (regenerate docs/metrics-manifest.txt): {stale:?}"
    );
}

#[test]
fn manifest_trace_kinds_match_event_kinds() {
    let manifest_traces: BTreeSet<String> = manifest_lines()
        .into_iter()
        .filter(|l| l.starts_with("trace."))
        .collect();
    let live: BTreeSet<String> = uba::obs::EventKind::ALL
        .iter()
        .map(|k| format!("trace.{}", k.as_str()))
        .collect();
    assert_eq!(
        manifest_traces, live,
        "trace.* manifest lines must mirror EventKind::as_str"
    );
}
