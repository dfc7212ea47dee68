//! Degenerate scenario values at the process boundary: a scenario file
//! whose sizes break a generator's precondition, or whose rates and
//! shares fall outside what admission accounts exactly, is a usage error
//! (exit 2, a message naming the key), never a panic or a run that does
//! not return.

use std::process::Command;

/// Runs `uba-cli <args[0]> <scenario> <args[1..]>` on `body`; returns
/// the exit code, stdout and stderr.
fn run(args: &[&str], name: &str, body: &str) -> (Option<i32>, String, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.toml"));
    std::fs::write(&path, body).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_uba-cli"))
        .arg(args[0])
        .arg(&path)
        .args(&args[1..])
        .output()
        .expect("uba-cli runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs `uba-cli <cmd>` on `body` and asserts exit 2 naming `key`.
fn exits_2_naming(cmd: &str, name: &str, body: &str, key: &str) {
    let (code, out, err) = run(&[cmd], name, body);
    assert_eq!(code, Some(2), "{cmd} {body}: {err}");
    assert!(err.contains(key), "{cmd} {body}: {err}");
    assert!(!err.contains("panicked"), "{cmd} {body}: {err}");
    assert!(out.is_empty(), "{cmd} {body}: computed something");
}

#[test]
fn degenerate_sizes_exit_2_without_panicking() {
    for (i, topology) in [
        "kind = \"ring\"\nn = 0",
        "kind = \"ring\"\nn = 2",
        "kind = \"line\"\nn = 1",
        "kind = \"line\"\nn = 1e12",
        "kind = \"line\"\nn = -3",
        "kind = \"line\"\nn = 2.5",
        "kind = \"torus\"\nw = 2\nh = 8",
        "kind = \"grid\"\nw = 1\nh = 1",
        "kind = \"grid\"\nw = 1000\nh = 1000",
        "kind = \"star\"\nn = 0",
        "kind = \"mesh\"\nn = 1",
        "kind = \"dumbbell\"\nleaves = 0",
        "kind = \"fat_tree\"\npods = 1",
    ]
    .iter()
    .enumerate()
    {
        let body = format!("[topology]\n{topology}\n");
        exits_2_naming("bounds", &format!("degenerate_{i}"), &body, "topology");
    }
}

/// `metrics` and `explain` used to panic on these (exit 101) while
/// `verify` passed them.
#[test]
fn out_of_range_rates_and_shares_exit_2_naming_the_key() {
    let class = "[[class]]\nburst = 640\ndeadline = 0.1\n";
    for (i, (body, key)) in [
        (format!("{class}rate = 32000\nalpha = 1.5"), "class.alpha"),
        (format!("{class}rate = 32000\nalpha = -0.2"), "class.alpha"),
        (format!("{class}rate = 32000\nalpha = nan"), "class.alpha"),
        (format!("{class}rate = 1e20"), "class.rate"),
        ("[network]\ncapacity = 1e300".into(), "network.capacity"),
        (
            "[policy]\nchain = \"token_bucket\"\nbucket_rate_bps = 1e20".into(),
            "policy.bucket_rate_bps",
        ),
    ]
    .iter()
    .enumerate()
    {
        for cmd in ["metrics", "explain", "verify"] {
            let body = format!("[topology]\nkind = \"ring\"\nn = 4\n{body}\n");
            exits_2_naming(cmd, &format!("out_of_range_{i}_{cmd}"), &body, key);
        }
    }
}

/// A count read with a cast took `2.7` as 2 and `-3` or `0.5` as
/// "automatic"; every one is a usage error naming its key.
#[test]
fn non_integer_counts_exit_2_naming_the_key() {
    for (i, (body, key)) in [
        ("[network]\nfan_in = 2.7", "network.fan_in"),
        ("[network]\nfan_in = -3", "network.fan_in"),
        ("[network]\nfan_in = 0.5", "network.fan_in"),
        ("[network]\nfan_in = 0", "network.fan_in"),
        ("[pairs]\nmode = \"all\"\nstep = 0.5", "pairs.step"),
        ("[pairs]\nmode = \"all\"\nstep = -1", "pairs.step"),
        ("[pairs]\nmode = \"all\"\nstep = nan", "pairs.step"),
    ]
    .iter()
    .enumerate()
    {
        let body = format!("[topology]\nkind = \"ring\"\nn = 4\n{body}\n");
        exits_2_naming("bounds", &format!("non_integer_{i}"), &body, key);
    }
}

/// A fan-in of 1 (a two-router line, or `network.fan_in = 1`) used to
/// panic `maximize` on Theorem 4's `N >= 2` while `bounds` printed the
/// `N = 2` window. Both now search and print that same window.
#[test]
fn a_fan_in_of_one_maximizes_in_the_window_bounds_prints() {
    for (i, body) in [
        "[topology]\nkind = \"line\"\nn = 2\n",
        "[topology]\nkind = \"ring\"\nn = 6\n[network]\nfan_in = 1\n",
    ]
    .iter()
    .enumerate()
    {
        let (code, bounds, err) = run(&["bounds"], &format!("fan_in_one_{i}"), body);
        assert_eq!(code, Some(0), "bounds {body}: {err}");
        assert!(bounds.contains("fan-in N = 2"), "{bounds}");
        let (code, maximize, err) = run(&["maximize", "sp"], &format!("fan_in_one_{i}"), body);
        assert_eq!(code, Some(0), "maximize {body}: {err}");
        let window = |text: &str, open: &str| {
            let rest = &text[text.find(open).expect("a window") + open.len()..];
            rest[..rest.find(']').expect("a closed window")].to_string()
        };
        assert_eq!(
            window(&maximize, "theorem 4 window: ["),
            window(&bounds, "alpha* in ["),
            "{bounds}{maximize}"
        );
    }
}

/// An alpha outside (0, 1) is outside the delay analysis's domain:
/// `simulate` names the domain instead of asking for a lower alpha.
#[test]
fn simulate_names_the_alpha_domain() {
    let body = "[topology]\nkind = \"ring\"\nn = 4\n[[class]]\nburst = 640\nrate = 32000\n\
                deadline = 0.1\nalpha = 0\n";
    let (code, out, err) = run(&["simulate"], "alpha_zero", body);
    assert_eq!(code, Some(1), "{out}{err}");
    assert!(err.contains("(0, 1)"), "{err}");
    assert!(!err.contains("lower it"), "{err}");
}
