//! `--metrics` after a command that admits flows dumps what that command
//! did: the registry's `admission.admits` equals the flows the report
//! says were admitted, for `explain` and for `reconfigure`.

use std::process::Command;

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_uba-cli"))
        .args(args)
        .arg("--metrics")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("uba-cli runs");
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// The count that follows `prefix` on the first line that starts with it.
fn count_after(out: &str, prefix: &str) -> u64 {
    let rest = out
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no line starting {prefix:?} in:\n{out}"));
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|e| panic!("{e}: {prefix:?}{rest}"))
}

#[test]
fn explain_dumps_the_admits_of_its_replay() {
    let out = run(&["explain", "scenarios/ring_small.toml"]);
    // The report opens "N flows admitted before saturation; …".
    assert!(out.contains(" flows admitted before saturation"), "{out}");
    let admitted = count_after(&out, "");
    assert!(admitted > 0, "{out}");
    assert_eq!(count_after(&out, "admission.admits "), admitted, "{out}");
}

#[test]
fn reconfigure_dumps_the_admits_it_held() {
    let out = run(&[
        "reconfigure",
        "scenarios/ring_small.toml",
        "scenarios/paper.toml",
    ]);
    let admitted = count_after(&out, "flows held under old configuration:");
    assert!(admitted > 0, "{out}");
    assert_eq!(count_after(&out, "admission.admits "), admitted, "{out}");
}
