//! Multi-class `maximize` at the process boundary: the scenario's class
//! alphas are the trade-off ray's weights. Each is a utilization share,
//! so a negative, NaN, infinite or above-one weight does not load (exit
//! 2, the key named on stderr); a vector that loads but names no
//! direction — all zeros — is a scenario error (exit 1, the weights
//! named on stderr). Neither panics or runs a search that quietly
//! reports `t = 0`. So is a selector the multi-class search does not
//! have.

use std::process::{Command, Output};

fn scenario(alphas: [&str; 2]) -> String {
    format!(
        "[topology]\nkind = \"ring\"\nn = 5\n[network]\nfan_in = 3\n\
         [[class]]\nname = \"voip\"\nburst = 640\nrate = 32000\ndeadline = 0.1\nalpha = {}\n\
         [[class]]\nname = \"video\"\nburst = 64000\nrate = 2e6\ndeadline = 0.3\nalpha = {}\n\
         [pairs]\nmode = \"all\"\nstep = 2\n",
        alphas[0], alphas[1]
    )
}

fn maximize(name: &str, alphas: [&str; 2], selector: Option<&str>) -> Output {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, scenario(alphas)).unwrap();
    Command::new(env!("CARGO_BIN_EXE_uba-cli"))
        .arg("maximize")
        .arg(&path)
        .args(selector)
        .output()
        .expect("uba-cli runs")
}

#[test]
fn a_weight_vector_with_no_direction_is_a_scenario_error() {
    for (i, (alphas, code, names)) in [
        (["-1.0", "1.0"], 2, "class.alpha"),
        (["nan", "1.0"], 2, "class.alpha"),
        (["inf", "1.0"], 2, "class.alpha"),
        (["1e308", "1e308"], 2, "class.alpha"),
        (["0.0", "0.0"], 1, "weights"),
    ]
    .into_iter()
    .enumerate()
    {
        let out = maximize(&format!("weights_{i}.toml"), alphas, None);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{alphas:?}: {err}");
        assert!(err.contains(names), "{alphas:?}: {err}");
        assert!(!err.contains("panicked"), "{alphas:?}: {err}");
        assert!(out.stdout.is_empty(), "{alphas:?}: reported a search");
    }
}

#[test]
fn a_usable_vector_still_searches_and_the_selector_is_checked_first() {
    let ok = maximize("weights_ok.toml", ["0.5", "1.0"], None);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert_eq!(ok.status.code(), Some(0));
    assert!(stdout.contains("maximum safe scale"), "{stdout}");
    assert!(!stdout.contains("probes: 0"), "{stdout}");

    for (selector, names) in [("magic", "unknown selector"), ("sp", "heuristic")] {
        let out = maximize("weights_ok.toml", ["0.5", "1.0"], Some(selector));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{selector}: {err}");
        assert!(err.contains(names), "{selector}: {err}");
        assert!(out.stdout.is_empty(), "{selector}: ran a search");
    }
}
