//! Multi-class `maximize` at the process boundary: the scenario's class
//! alphas are the trade-off ray's weights, and a vector that names no
//! direction — a negative, NaN or infinite weight, all zeros, a sum that
//! overflows — is a scenario error (exit 1, the weights named on stderr),
//! never a panic and never a search that quietly reports `t = 0`. So is a
//! selector the multi-class search does not have.

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
    for (i, alphas) in [
        ["-1.0", "2.0"],
        ["nan", "2.0"],
        ["0.0", "0.0"],
        ["inf", "2.0"],
        ["1e308", "1e308"],
    ]
    .into_iter()
    .enumerate()
    {
        let out = maximize(&format!("weights_{i}.toml"), alphas, None);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{alphas:?}: {err}");
        assert!(err.contains("weights"), "{alphas:?}: {err}");
        assert!(!err.contains("panicked"), "{alphas:?}: {err}");
        assert!(out.stdout.is_empty(), "{alphas:?}: reported a search");
    }
}

#[test]
fn a_usable_vector_still_searches_and_the_selector_is_checked_first() {
    let ok = maximize("weights_ok.toml", ["1.0", "2.0"], None);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert_eq!(ok.status.code(), Some(0));
    assert!(stdout.contains("maximum safe scale"), "{stdout}");
    assert!(!stdout.contains("probes: 0"), "{stdout}");

    for (selector, names) in [("magic", "unknown selector"), ("sp", "heuristic")] {
        let out = maximize("weights_ok.toml", ["1.0", "2.0"], Some(selector));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{selector}: {err}");
        assert!(err.contains(names), "{selector}: {err}");
        assert!(out.stdout.is_empty(), "{selector}: ran a search");
    }
}
