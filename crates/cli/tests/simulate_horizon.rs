//! `uba-cli simulate <scenario> <horizon>` at the process boundary: a
//! horizon that is not a finite, non-negative number of seconds is an
//! error with a message, never a hang, a silent default or a vacuous
//! pass.

use std::process::{Command, Output};

fn simulate(horizon: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uba-cli"))
        .args(["simulate", "scenarios/ring_small.toml", horizon])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("uba-cli runs")
}

#[test]
fn unparsable_horizon_is_a_usage_error() {
    let out = simulate("soon");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("horizon") && err.contains("'soon'"), "{err}");
    assert!(out.stdout.is_empty(), "nothing was simulated");
}

#[test]
fn non_finite_or_negative_horizon_is_a_scenario_error() {
    for bad in ["inf", "nan", "-1"] {
        let out = simulate(bad);
        assert_eq!(out.status.code(), Some(1), "horizon {bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("horizon must be a finite"), "{bad}: {err}");
        assert!(out.stdout.is_empty(), "horizon {bad} simulated something");
    }
}

#[test]
fn a_good_horizon_still_simulates() {
    let out = simulate("0.05");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("deadline misses: 0"), "{stdout}");
}
