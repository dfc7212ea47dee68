//! Degenerate scenario values at the process boundary: a scenario file
//! whose sizes break a generator's precondition, or whose rates and
//! shares fall outside what admission accounts exactly, is a usage error
//! (exit 2, a message naming the key), never a panic or a run that does
//! not return.

use std::process::Command;

/// Runs `uba-cli <cmd>` on `body` and asserts exit 2 naming `key`.
fn exits_2_naming(cmd: &str, name: &str, body: &str, key: &str) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.toml"));
    std::fs::write(&path, body).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_uba-cli"))
        .arg(cmd)
        .arg(&path)
        .output()
        .expect("uba-cli runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{cmd} {body}: {err}");
    assert!(err.contains(key), "{cmd} {body}: {err}");
    assert!(!err.contains("panicked"), "{cmd} {body}: {err}");
    assert!(out.stdout.is_empty(), "{cmd} {body}: computed something");
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
