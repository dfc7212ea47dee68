//! README ⊆ usage: every `uba-cli` command line the docs show — README.md's
//! `uba-cli -- <cmd> …` examples and the synopsis in `main.rs`'s module
//! doc — names a command and flags the binary's own usage text lists, so
//! a flag removed from the binary cannot survive in the docs.

use std::process::Command;

/// The command and `--flags` of the `uba-cli` invocation on `line`, if
/// it holds one after `marker`.
fn invocation<'a>(line: &'a str, marker: &str) -> Option<(&'a str, Vec<&'a str>)> {
    let rest = &line[line.find(marker)? + marker.len()..];
    let mut words = rest
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
        .filter(|w| !w.is_empty());
    let command = words.next()?;
    Some((command, words.filter(|w| w.starts_with("--")).collect()))
}

#[test]
fn documented_commands_and_flags_appear_in_the_usage_text() {
    let out = Command::new(env!("CARGO_BIN_EXE_uba-cli"))
        .output()
        .expect("uba-cli runs");
    assert_eq!(out.status.code(), Some(2), "no arguments is a usage error");
    let usage = String::from_utf8_lossy(&out.stderr);

    let root = env!("CARGO_MANIFEST_DIR");
    let readme = std::fs::read_to_string(format!("{root}/../../README.md")).unwrap();
    let main_rs = std::fs::read_to_string(format!("{root}/src/main.rs")).unwrap();
    let documented: Vec<(&str, Vec<&str>)> = readme
        .lines()
        .filter_map(|l| invocation(l, "uba-cli -- "))
        .chain(
            main_rs
                .lines()
                .filter_map(|l| invocation(l, "//! uba-cli ")),
        )
        .collect();
    assert!(documented.len() >= 18, "only {} lines", documented.len());
    let listed = |word: &str| {
        usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .any(|w| w == word)
    };
    for (command, flags) in &documented {
        assert!(listed(command), "command '{command}' not in usage");
        for flag in flags {
            assert!(listed(flag), "'{command} {flag}' documented, not in usage");
        }
    }
}
