//! Flags nobody knows, at the process boundary. `main` extracts the flags
//! it has; most commands never look at the positionals left over, so a
//! misspelt `--jsno` would otherwise run the command without its flag and
//! exit 0. A leftover `--` argument is a usage error: exit 2, the flag
//! named on stderr, nothing on stdout.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uba-cli"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("uba-cli runs")
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let lines: [&[&str]; 4] = [
        &["metrics", "scenarios/ring_small.toml", "--jsno"],
        &["verify", "scenarios/paper.toml", "--bogus", "7"],
        &["maximize", "scenarios/paper.toml", "--thread", "4"],
        &["maximize", "scenarios/paper.toml", "--threads", "4"],
    ];
    for args in lines {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown flag '{}'", args[2]);
        assert!(err.contains(&want), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran the command");
    }
}

#[test]
fn known_flags_are_still_taken_anywhere() {
    let out = run(&["--metrics", "verify", "scenarios/ring_small.toml", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("delay.verify.safe"), "{stdout}");
}
