//! `uba-cli metrics paper.toml`, pinned: every report line above the
//! registry dump, that is verification, solver economy, route selection,
//! the churn counts, saturation, the packet simulation and the SLO
//! summary. The churn line's mean admit time is a wall-clock reading and
//! is cut off.
//!
//! The solver and route-selection counts are deltas of process-global
//! counters, so this binary holds one `#[test]`: nothing else solves or
//! selects while it runs.

use uba_cli::commands::cmd_metrics;
use uba_cli::Scenario;

const PINNED: &str = "\
verification: SUCCESS (29 iterations)
solver sweep economy: 0 route sweeps skipped, 1682 server evaluations
route selection: SUCCESS (2630 candidates, 2048 pruned unsolved, 604 cycle checks)
churn: 2000 offered, 2000 accepted, blocking 0.0%
saturation: 19167 flows held; first rejection at server 0, class 0 (voip), reserved 44992.0/45000.0 kb/s (100.0% of budget)
simulation: 48 packets, 0 deadline misses
slo: 4 rules evaluated, 0 firing, 0 active alerts
";

#[test]
fn metrics_on_the_paper_scenario_reports_the_pinned_lines() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/paper.toml");
    let out = cmd_metrics(&Scenario::from_path(path).unwrap(), false).unwrap();
    let mut summary = String::new();
    for line in out.lines().take_while(|l| !l.is_empty()) {
        let line = line.split(", mean admit ").next().unwrap();
        summary.push_str(line);
        summary.push('\n');
    }
    assert_eq!(summary, PINNED, "full report:\n{out}");
}
