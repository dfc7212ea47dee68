//! Degenerate topology sizes at the process boundary: a scenario file
//! whose sizes break a generator's precondition is a usage error (exit
//! 2, a message naming the key), never a panic or a run that does not
//! return.

use std::process::Command;

#[test]
fn degenerate_sizes_exit_2_without_panicking() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
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
        let path = dir.join(format!("degenerate_{i}.toml"));
        std::fs::write(&path, format!("[topology]\n{topology}\n")).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_uba-cli"))
            .arg("bounds")
            .arg(&path)
            .output()
            .expect("uba-cli runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{topology}: {err}");
        assert!(err.contains("topology"), "{topology}: {err}");
        assert!(!err.contains("panicked"), "{topology}: {err}");
        assert!(out.stdout.is_empty(), "{topology}: computed something");
    }
}
