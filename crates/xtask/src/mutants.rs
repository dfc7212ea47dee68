//! The `xtask mutants` table: do the tests still kill the bugs they were
//! written for?
//!
//! `crates/xtask/mutants.txt` lists mutants, one block of `key: value`
//! lines each, blocks separated by blank lines, `#` lines ignored:
//!
//! * `id` — a unique name;
//! * `source` — where the bug or the reading comes from (a CHANGES.md PR,
//!   DESIGN.md §2);
//! * `file` — a path from the workspace root;
//! * `find` — text that must occur exactly once in `file`, `\n` standing
//!   for a newline and `\\` for a backslash;
//! * `replace` — what replaces it, with the same escapes;
//! * `test` — the arguments to `cargo test` that name the target that
//!   must fail (`-p crate --test name [filter]`, `-p crate --lib filter`).
//!
//! The run copies the tracked and unignored files of the workspace
//! (`git ls-files`) to `mutants/tree` under the cargo target directory
//! (`$CARGO_TARGET_DIR`, else `target/`), checks that every row's text
//! occurs once there and that every named target passes on the copy as
//! it is, then applies one row at a time, runs its target with one
//! shared target directory (`mutants/target`), and puts the file back.
//! A row is *killed* when its target fails, *survived* when it passes;
//! each row's output is kept in `mutants/logs/<id>.log`. The workspace
//! itself is never edited; only `results/mutants.txt` is written.
//! Survivors are recorded, not gated: the run fails only on a table that
//! no longer applies — a text gone or repeated, a mutant that does not
//! build, a target that fails unmutated.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Longest a mutant's target may run before it counts as killed: a
/// mutant may turn a loop into one that never ends.
const TIMEOUT: Duration = Duration::from_secs(300);

/// One row of the table.
#[derive(Debug, Default, PartialEq)]
pub struct Row {
    pub id: String,
    pub source: String,
    pub file: String,
    pub find: String,
    pub replace: String,
    pub test: String,
}

/// What one row came to.
pub struct Outcome {
    pub id: String,
    pub verdict: &'static str,
    pub seconds: f64,
    pub test: String,
}

/// `\n` → newline and `\\` → backslash; any other backslash is kept.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Closes the row being read, if any: complete, it joins `rows`.
fn finish(row: &mut Row, fields: &mut usize, rows: &mut Vec<Row>) -> Result<(), String> {
    if *fields == 0 {
        return Ok(());
    }
    let missing: Vec<&str> = [
        ("id", &row.id),
        ("source", &row.source),
        ("file", &row.file),
        ("find", &row.find),
        ("test", &row.test),
    ]
    .iter()
    .filter(|(_, v)| v.is_empty())
    .map(|(k, _)| *k)
    .collect();
    if !missing.is_empty() {
        return Err(format!("row `{}` lacks {}", row.id, missing.join(", ")));
    }
    rows.push(std::mem::take(row));
    *fields = 0;
    Ok(())
}

/// Parses the table, every row complete and every id unique.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let mut row = Row::default();
    let mut fields = 0;
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            finish(&mut row, &mut fields, &mut rows)?;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            return Err(format!("line {}: not `key: value`", n + 1));
        };
        let value = value.strip_prefix(' ').unwrap_or(value);
        let slot = match key {
            "id" => &mut row.id,
            "source" => &mut row.source,
            "file" => &mut row.file,
            "find" => &mut row.find,
            "replace" => &mut row.replace,
            "test" => &mut row.test,
            _ => return Err(format!("line {}: unknown key `{key}`", n + 1)),
        };
        *slot = if matches!(key, "find" | "replace") {
            unescape(value)
        } else {
            value.trim().to_string()
        };
        fields += 1;
    }
    finish(&mut row, &mut fields, &mut rows)?;
    let mut seen = HashSet::new();
    for r in &rows {
        if !seen.insert(r.id.as_str()) {
            return Err(format!("id `{}` appears twice", r.id));
        }
    }
    Ok(rows)
}

/// `find` replaced in `source`, which must hold it exactly once.
pub fn apply(source: &str, row: &Row) -> Result<String, String> {
    match source.matches(row.find.as_str()).count() {
        1 => Ok(source.replacen(row.find.as_str(), &row.replace, 1)),
        n => Err(format!(
            "row `{}`: its text occurs {n} times in {}, not once",
            row.id, row.file
        )),
    }
}

/// Runs `cargo test --offline -q <args>` (with `--no-run` to build only)
/// in `tree`, its output appended to `log`, and kills the whole process
/// group after [`TIMEOUT`]. `None` on a timeout.
fn cargo_test(
    tree: &Path,
    target: &Path,
    args: &str,
    no_run: bool,
    log: &Path,
) -> Result<Option<ExitStatus>, String> {
    use std::os::unix::process::CommandExt;
    let out = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("{}: {e}", log.display()))?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(tree)
        .env("CARGO_TARGET_DIR", target)
        .args(["test", "--offline", "-q"]);
    if no_run {
        cmd.arg("--no-run");
    }
    let mut child = cmd
        .args(args.split_whitespace())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err))
        .process_group(0)
        .spawn()
        .map_err(|e| format!("cargo: {e}"))?;
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(Some(status));
        }
        if start.elapsed() > TIMEOUT {
            // The test binary runs under cargo: end the whole group.
            let group = format!("-{}", child.id());
            let _ = Command::new("kill").args(["-KILL", "--", &group]).status();
            let _ = child.wait();
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The workspace files a fresh checkout would hold, plus untracked ones
/// not ignored.
fn tree_files(root: &Path) -> Result<Vec<String>, String> {
    let out = Command::new("git")
        .current_dir(root)
        .args([
            "ls-files",
            "-z",
            "--cached",
            "--others",
            "--exclude-standard",
        ])
        .output()
        .map_err(|e| format!("git ls-files: {e}"))?;
    if !out.status.success() {
        return Err("git ls-files failed".into());
    }
    let listed = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    Ok(listed
        .split('\0')
        .filter(|f| !f.is_empty() && root.join(f).is_file())
        .map(String::from)
        .collect())
}

/// Copies the workspace to `tree`, afresh.
fn copy_tree(root: &Path, tree: &Path) -> Result<(), String> {
    if tree.exists() {
        fs::remove_dir_all(tree).map_err(|e| format!("{}: {e}", tree.display()))?;
    }
    for f in tree_files(root)? {
        let to = tree.join(&f);
        if let Some(dir) = to.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        fs::copy(root.join(&f), &to).map_err(|e| format!("{f}: {e}"))?;
    }
    Ok(())
}

/// Runs every row of `root`'s table on a copy of the workspace; prints
/// each verdict as it comes.
pub fn run(root: &Path) -> Result<Vec<Outcome>, String> {
    let table = root.join("crates/xtask/mutants.txt");
    let text = fs::read_to_string(&table).map_err(|e| format!("{}: {e}", table.display()))?;
    let rows = parse(&text)?;
    let target_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map_or_else(|| root.join("target"), |d| root.join(d));
    let work = target_dir.join("mutants");
    let (tree, target, logs) = (work.join("tree"), work.join("target"), work.join("logs"));
    copy_tree(root, &tree)?;
    if logs.exists() {
        fs::remove_dir_all(&logs).map_err(|e| e.to_string())?;
    }
    fs::create_dir_all(&logs).map_err(|e| e.to_string())?;

    // Every row applies, and every target passes as the tree stands.
    let mut originals = Vec::new();
    for row in &rows {
        let path = tree.join(&row.file);
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("row `{}`: {}: {e}", row.id, row.file))?;
        apply(&source, row)?;
        originals.push((path, source));
    }
    let mut targets: Vec<&str> = Vec::new();
    for row in &rows {
        if !targets.contains(&row.test.as_str()) {
            targets.push(&row.test);
        }
    }
    let baseline = logs.join("unmutated.log");
    for args in targets {
        let status = cargo_test(&tree, &target, args, false, &baseline)?;
        if !status.is_some_and(|s| s.success()) {
            return Err(format!(
                "`cargo test {args}` fails on the unmutated tree; see {}",
                baseline.display()
            ));
        }
    }

    let mut outcomes = Vec::new();
    for (row, (path, source)) in rows.iter().zip(&originals) {
        let log = logs.join(format!("{}.log", row.id));
        fs::write(path, apply(source, row)?).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let verdict = (|| {
            match cargo_test(&tree, &target, &row.test, true, &log)? {
                Some(s) if !s.success() => {
                    return Err(format!(
                        "row `{}` does not build; see {}",
                        row.id,
                        log.display()
                    ))
                }
                None => return Ok("killed (timeout)"),
                Some(_) => {}
            }
            Ok(match cargo_test(&tree, &target, &row.test, false, &log)? {
                Some(s) if s.success() => "survived",
                Some(_) => "killed",
                None => "killed (timeout)",
            })
        })();
        let seconds = start.elapsed().as_secs_f64();
        fs::write(path, source).map_err(|e| e.to_string())?;
        let verdict = verdict?;
        println!("{:<32} {verdict:<16} {seconds:>7.1} s", row.id);
        outcomes.push(Outcome {
            id: row.id.clone(),
            verdict,
            seconds,
            test: row.test.clone(),
        });
    }
    Ok(outcomes)
}

/// The outcomes as `results/mutants.txt` holds them.
pub fn render(outcomes: &[Outcome]) -> String {
    let mut s = String::from(
        "# cargo run -p xtask -- mutants: each row of crates/xtask/mutants.txt applied alone\n\
         # to a copy of the tree, then its target run (dev profile); killed = the target\n\
         # failed. Seconds are the row's rebuild plus its run.\n",
    );
    s.push_str(&format!(
        "{:<32} {:<16} {:>8}  target\n",
        "id", "result", "seconds"
    ));
    for o in outcomes {
        s.push_str(&format!(
            "{:<32} {:<16} {:>8.1}  {}\n",
            o.id, o.verdict, o.seconds, o.test
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_table_parses_with_escapes_and_comments() {
        let text = "# a comment\n\nid: a\nsource: PR 1\nfile: x.rs\nfind: a\\nb \\\\n\nreplace: c\ntest: -p x --lib\n\n\nid: b\nsource: s\nfile: y.rs\nfind: z\nreplace:\ntest: -p y\n";
        let rows = parse(text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].find, "a\nb \\n");
        assert_eq!(rows[0].test, "-p x --lib");
        assert_eq!(rows[1].replace, "");
    }

    #[test]
    fn a_bad_table_is_refused() {
        assert!(parse("id: a\nfile: x\n").unwrap_err().contains("lacks"));
        assert!(parse("id: a\nwhat: x\n")
            .unwrap_err()
            .contains("unknown key"));
        let row = "id: a\nsource: s\nfile: f\nfind: x\ntest: t\n";
        assert!(parse(&format!("{row}\n{row}"))
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn a_row_applies_only_where_its_text_occurs_once() {
        let row = Row {
            id: "r".into(),
            find: "b".into(),
            replace: "B".into(),
            ..Row::default()
        };
        assert_eq!(apply("abc", &row).unwrap(), "aBc");
        assert!(apply("abcb", &row).is_err());
        assert!(apply("ac", &row).is_err());
    }

    #[test]
    fn the_committed_table_parses() {
        let text = include_str!("../mutants.txt");
        assert!(parse(text).unwrap().len() >= 7);
    }
}
