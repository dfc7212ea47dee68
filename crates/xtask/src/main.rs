//! Repo tooling: the invariant linter (`check`, see its module docs and
//! DESIGN.md §9) and the mutant table (`mutants`, see its module docs).
#![forbid(unsafe_code)]

mod check;
mod mutants;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workspace root: two levels above this crate's manifest.
fn root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| {
            std::path::Path::new(&d)
                .parent()
                .and_then(|p| p.parent())
                .expect("xtask lives two levels below the workspace root")
                .to_path_buf()
        })
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("check") => match check::run(&root()) {
            Ok(stats) => {
                println!(
                    "xtask check: ok ({} files, {} justified orderings, {} metric names, \
                     {} loom-covered modules)",
                    stats.files,
                    stats.justified_orderings,
                    stats.metric_names,
                    stats.loom_covered_modules
                );
                ExitCode::SUCCESS
            }
            Err(violations) => {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("xtask check: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        },
        Some("mutants") => {
            let root = root();
            match mutants::run(&root) {
                Ok(outcomes) => {
                    let out = root.join("results/mutants.txt");
                    if let Err(e) = std::fs::write(&out, mutants::render(&outcomes)) {
                        eprintln!("xtask mutants: {}: {e}", out.display());
                        return ExitCode::FAILURE;
                    }
                    let survived = outcomes.iter().filter(|o| o.verdict == "survived").count();
                    println!(
                        "xtask mutants: {} rows, {survived} survived (recorded, not gated); \
                         results/mutants.txt written",
                        outcomes.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("xtask mutants: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- check | mutants\n  (got: {:?})",
                other
            );
            ExitCode::FAILURE
        }
    }
}
