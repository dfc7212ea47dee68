//! The `xtask check` invariant linter.
//!
//! Walks every `.rs` file in the workspace and enforces, syntactically,
//! the concurrency and observability invariants the codebase depends on
//! (rationale for each rule: DESIGN.md §9):
//!
//! 1. **ordering-justification** — every atomic `Ordering::` stronger
//!    than `Relaxed` (`Acquire`, `Release`, `AcqRel`, `SeqCst`) must
//!    carry a `// ordering:` comment on the same line or within the few
//!    lines above it (`JUSTIFICATION_WINDOW`), explaining the
//!    happens-before edge it buys.
//! 2. **shim-purity** — the modules ported onto the one loom `sync`
//!    shim (`uba_obs::sync`) must not import `std::sync::atomic` /
//!    `std::sync::Mutex` / `std::thread` directly; everything goes
//!    through the shim so `--cfg loom` swaps the whole module onto the
//!    model checker.
//! 3. **unsafe-allowlist** — `unsafe` appears only in files listed in
//!    `crates/xtask/unsafe-allowlist.txt` (currently empty: the
//!    workspace is 100% safe Rust and every crate root carries
//!    `#![forbid(unsafe_code)]`).
//! 4. **metric-manifest** — every metric name registered via
//!    `.counter("…")` / `.gauge("…")` / `.histogram("…", _)` must appear
//!    in `docs/metrics-manifest.txt`, so dashboards cannot silently
//!    drift from the code. `format!`-built names are matched as globs
//!    (`{…}` → `*`) against the manifest's concrete entries.
//! 5. **clock-discipline** — `Instant::now` / `SystemTime` only inside
//!    `uba-obs` (which owns the `Stopwatch` timer) and
//!    `uba-bench`; everything else must take time through obs so tests
//!    and models stay deterministic.
//! 6. **parser-unwrap** — the hand-rolled parsers (`toml_lite`, obs
//!    `json`) must stay panic-free on arbitrary input: no `.unwrap()` /
//!    `.expect("…")` in their non-test code.
//! 7. **bench-smoke-wiring** — every `uba-bench` binary that implements
//!    a `"smoke"` mode must be invoked (as `--bin <name>`) by
//!    `scripts/verify.sh`, so a perf gate cannot be added and then
//!    silently left out of the verification lane. Paper-regeneration
//!    binaries without a smoke mode are exempt.
//! 8. **shared-array-padding** — a raw `AtomicU64` array indexed
//!    per-shard or per-thread (`Vec<AtomicU64>`, `Box<[AtomicU64]>`,
//!    `[AtomicU64; N]`) invites false sharing: neighbouring slots land
//!    on one cache line and every CAS bounces it between cores. Such
//!    fields must either wrap their slots in the `CachePadded` shim or
//!    carry a `// padding:` waiver comment nearby explaining why
//!    sharing is acceptable (e.g. sparse writes, or cells that are
//!    all-thread-shared by design).
//!
//! Numbers 9 and 10 are unused: names built at run time — SLO gauges,
//! policy-stage reject counters, trace kinds — are checked against the
//! manifest by the live registry in `crates/cli/tests/metrics_manifest.rs`.
//!
//! 11. **loom-model-coverage** — every module carrying a `// ordering:`
//!     justification (rule 1) must be mapped in `docs/loom-models.txt`
//!     to a `#![cfg(loom)]` model file that checks it under the
//!     weak-memory model checker. Rule 1 makes the author *write down*
//!     the happens-before claim; this rule makes a machine check of
//!     that claim exist — under a checker where a too-weak ordering
//!     actually fails instead of being silently upgraded. The map is
//!     verified in both directions: a justified module with no entry
//!     fails, and so does a stale entry whose module no longer has
//!     justifications (or whose model file is missing its `cfg(loom)`
//!     gate), so the map cannot drift from the code.
//!
//! The linter is line-based on purpose: it runs in milliseconds with no
//! dependencies, and every rule is about *local* textual discipline
//! (a justification comment, a banned import, a name literal) rather
//! than semantics. String literals and comments are stripped before
//! code-pattern rules run, so `"delay.verify.unsafe"` is not an
//! `unsafe` block and a doc-comment mentioning `std::thread` is not an
//! import. `#[cfg(test)]` modules and `tests/` / `benches/` trees are
//! exempt from every rule except **unsafe-allowlist**.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Summary counters printed on success.
#[derive(Debug, Default)]
pub struct Stats {
    /// Files scanned.
    pub files: usize,
    /// Non-`Relaxed` orderings found with a justification.
    pub justified_orderings: usize,
    /// Metric/trace names checked against the manifest.
    pub metric_names: usize,
    /// Modules whose ordering justifications are backed by a loom model
    /// (rule 11).
    pub loom_covered_modules: usize,
}

/// One rule violation, displayed `path:line: [rule] message`.
#[derive(Debug)]
pub struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Modules ported onto the `sync` shim (rule 2). Keep in lockstep with
/// the module list in the doc of the one shim, `uba_obs::sync`.
const SHIMMED: &[&str] = &[
    "crates/admission/src/state.rs",
    "crates/admission/src/generation.rs",
    "crates/admission/src/controller.rs",
    "crates/admission/src/policy.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/histogram.rs",
];

/// Hand-rolled parsers that must stay panic-free (rule 6).
const PARSERS: &[&str] = &["crates/cli/src/toml_lite.rs", "crates/obs/src/json.rs"];

/// The model checker and this linter are exempt from the ordering and
/// clock rules: uba-loom *implements* the atomics (its scheduler turns
/// the `Ordering` arguments into vector-clock semantics rather than
/// performing synchronizing accesses of its own) and xtask's source
/// spells out the patterns it scans for.
fn is_checker_infra(rel: &str) -> bool {
    rel.starts_with("crates/loom/") || rel.starts_with("crates/xtask/")
}

fn clock_allowed(rel: &str) -> bool {
    rel.starts_with("crates/obs/") || rel.starts_with("crates/bench/") || is_checker_infra(rel)
}

/// Test-only code: integration tests and benches get a pass on every
/// rule except the unsafe allowlist.
fn is_test_tree(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/")
}

/// Runs every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Stats, Vec<String>> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("src"), &mut files);
    files.sort();

    let manifest = Manifest::load(&root.join("docs/metrics-manifest.txt"));
    let allowlist = load_allowlist(&root.join("crates/xtask/unsafe-allowlist.txt"));

    let mut stats = Stats::default();
    let mut violations: Vec<Violation> = Vec::new();
    if manifest.is_none() {
        violations.push(Violation {
            file: "docs/metrics-manifest.txt".into(),
            line: 0,
            rule: "metric-manifest",
            msg: "manifest file missing (regenerate with `uba-cli metrics --json`, see README)"
                .into(),
        });
    }
    let manifest = manifest.unwrap_or_default();

    let verify_sh = fs::read_to_string(root.join("scripts/verify.sh")).unwrap_or_default();
    let mut justified_modules: Vec<String> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = fs::read_to_string(path) else {
            continue;
        };
        stats.files += 1;
        lint_file(
            &rel,
            &source,
            &manifest,
            &allowlist,
            &mut violations,
            &mut stats,
        );
        // Rule 7: bench smoke gates must be wired into the verify lane.
        if let Some(v) = check_bench_wiring(&rel, &source, &verify_sh) {
            violations.push(v);
        }
        if has_ordering_notes(&rel, &source) {
            justified_modules.push(rel);
        }
    }

    // Rule 11: ordering justifications must be backed by loom models.
    let loom_map = LoomMap::load(&root.join("docs/loom-models.txt"));
    let coverage = check_loom_coverage(&justified_modules, &loom_map, &mut stats, |model| {
        fs::read_to_string(root.join(model))
            .ok()
            .map(|src| src.contains("cfg(loom)"))
    });
    violations.extend(coverage);

    if violations.is_empty() {
        Ok(stats)
    } else {
        Err(violations.iter().map(|v| v.to_string()).collect())
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn load_allowlist(path: &Path) -> BTreeSet<String> {
    fs::read_to_string(path)
        .map(|text| {
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        })
        .unwrap_or_default()
}

/// The checked-in metric-name manifest: one concrete name per line,
/// `#` comments and blanks ignored.
#[derive(Debug, Default)]
pub struct Manifest {
    names: Vec<String>,
}

impl Manifest {
    fn load(path: &Path) -> Option<Self> {
        let text = fs::read_to_string(path).ok()?;
        Some(Self::from_text(&text))
    }

    /// Parses manifest text (used directly by tests).
    pub fn from_text(text: &str) -> Self {
        Self {
            names: text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect(),
        }
    }

    /// Whether `pattern` (a metric name, possibly with `*` globs from a
    /// `format!` template) matches at least one manifest entry.
    pub fn covers(&self, pattern: &str) -> bool {
        self.names.iter().any(|n| glob_match(pattern, n))
    }
}

/// `*` matches any (possibly empty) substring; everything else literal.
fn glob_match(pattern: &str, text: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == text,
        Some((prefix, rest)) => {
            if !text.starts_with(prefix) {
                return false;
            }
            let tail = &text[prefix.len()..];
            (0..=tail.len()).any(|i| glob_match(rest, &tail[i..]))
        }
    }
}

/// The checked-in `docs/loom-models.txt` map for rule 11: one
/// `<module> -> <model file>` pair per line, `#` comments and blanks
/// ignored. `None` means the file itself is missing.
#[derive(Debug, Default)]
pub struct LoomMap {
    entries: Vec<(String, String)>,
    present: bool,
}

impl LoomMap {
    fn load(path: &Path) -> Self {
        fs::read_to_string(path)
            .map(|text| Self::from_text(&text))
            .unwrap_or_default()
    }

    /// Parses map text (used directly by tests).
    pub fn from_text(text: &str) -> Self {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (module, model) = l.split_once("->")?;
                Some((module.trim().to_string(), model.trim().to_string()))
            })
            .collect();
        Self {
            entries,
            present: true,
        }
    }

    fn model_for(&self, module: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(m, _)| m == module)
            .map(|(_, model)| model.as_str())
    }
}

/// Whether a module's non-test code carries at least one `// ordering:`
/// justification — the trigger for rule 11. Checker infrastructure and
/// test trees are exempt, mirroring rule 1.
fn has_ordering_notes(rel: &str, source: &str) -> bool {
    if is_checker_infra(rel) || is_test_tree(rel) {
        return false;
    }
    let lines = strip(source);
    let boundary = test_boundary(&lines);
    lines[..boundary]
        .iter()
        .any(|l| l.comment.contains("ordering:"))
}

/// Rule 11 proper, factored over an injectable model-file probe (tests
/// substitute a closure for the filesystem): `probe(model)` returns
/// `Some(has_cfg_loom_gate)` if the model file exists. Checks both
/// directions — justified modules must be mapped to a live `cfg(loom)`
/// model, and every map entry must still correspond to a justified
/// module.
fn check_loom_coverage(
    justified: &[String],
    map: &LoomMap,
    stats: &mut Stats,
    probe: impl Fn(&str) -> Option<bool>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if !map.present && !justified.is_empty() {
        violations.push(Violation {
            file: "docs/loom-models.txt".into(),
            line: 0,
            rule: "loom-model-coverage",
            msg: format!(
                "map file missing but {} module(s) carry `// ordering:` justifications",
                justified.len()
            ),
        });
        return violations;
    }
    for module in justified {
        match map.model_for(module) {
            None => violations.push(Violation {
                file: module.clone(),
                line: 0,
                rule: "loom-model-coverage",
                msg: "module has `// ordering:` justifications but no model entry in \
                      docs/loom-models.txt"
                    .into(),
            }),
            Some(model) => match probe(model) {
                None => violations.push(Violation {
                    file: "docs/loom-models.txt".into(),
                    line: 0,
                    rule: "loom-model-coverage",
                    msg: format!("model file `{model}` (covering `{module}`) does not exist"),
                }),
                Some(false) => violations.push(Violation {
                    file: model.to_string(),
                    line: 0,
                    rule: "loom-model-coverage",
                    msg: format!(
                        "model file for `{module}` has no `cfg(loom)` gate — it never runs \
                         under the checker"
                    ),
                }),
                Some(true) => stats.loom_covered_modules += 1,
            },
        }
    }
    for (module, _) in &map.entries {
        if !justified.iter().any(|j| j == module) {
            violations.push(Violation {
                file: "docs/loom-models.txt".into(),
                line: 0,
                rule: "loom-model-coverage",
                msg: format!(
                    "stale entry: `{module}` no longer exists or carries no `// ordering:` \
                     justifications"
                ),
            });
        }
    }
    violations
}

/// A source line split into executable code and comment text, with
/// string/char literal contents blanked out of `code`.
#[derive(Debug, Default, Clone)]
struct Line {
    code: String,
    comment: String,
}

/// Strips comments and literal contents, preserving line structure.
/// Handles `//`, nested `/* */`, `"…"` with escapes, raw strings up to
/// `r###"…"###`, and char literals (without mis-eating lifetimes).
fn strip(source: &str) -> Vec<Line> {
    let b: Vec<char> = source.chars().collect();
    let mut lines = vec![Line::default()];
    let mut i = 0;
    let push = |lines: &mut Vec<Line>| lines.push(Line::default());

    #[derive(PartialEq)]
    enum Mode {
        Code,
        Str,
        RawStr(usize),
        LineComment,
        BlockComment(usize),
    }
    let mut mode = Mode::Code;

    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            push(&mut lines);
            i += 1;
            continue;
        }
        let last = lines.last_mut().expect("lines never empty");
        match mode {
            Mode::Code => {
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    mode = Mode::LineComment;
                    i += 2;
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    mode = Mode::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    last.code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if c == 'r' && matches!(b.get(i + 1), Some('"') | Some('#')) {
                    // Possible raw string: r"…" or r#"…"# (any # count).
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        last.code.push_str("r\"");
                        mode = Mode::RawStr(hashes);
                        i = j + 1;
                    } else {
                        last.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal iff it closes as one; else a lifetime.
                    let is_char = match b.get(i + 1) {
                        Some('\\') => true,
                        Some(_) => b.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        last.code.push_str("' '");
                        if b.get(i + 1) == Some(&'\\') {
                            // Skip to the closing quote of the escape.
                            let mut j = i + 2;
                            while j < b.len() && b[j] != '\'' {
                                j += 1;
                            }
                            i = j + 1;
                        } else {
                            i += 3;
                        }
                    } else {
                        last.code.push('\'');
                        i += 1;
                    }
                } else {
                    last.code.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    // A string-continuation backslash escapes the
                    // newline itself; the line still has to be counted.
                    if b.get(i + 1) == Some(&'\n') {
                        push(&mut lines);
                    }
                    i += 2;
                } else if c == '"' {
                    last.code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let closed = (1..=hashes).all(|k| b.get(i + k) == Some(&'#'));
                    if closed {
                        last.code.push('"');
                        mode = Mode::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
            }
            Mode::LineComment => {
                last.comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && b.get(i + 1) == Some(&'/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    last.comment.push(c);
                    i += 1;
                }
            }
        }
    }
    lines
}

/// Index of the first `#[cfg(test)]` line (everything below is
/// unit-test code), or `len` when there is none. The `all(test, …)`
/// form covers modules additionally gated off the loom build
/// (`#[cfg(all(test, not(loom)))]`).
fn test_boundary(lines: &[Line]) -> usize {
    lines
        .iter()
        .position(|l| {
            let code = l.code.trim_start();
            code.starts_with("#[cfg(test)]") || code.starts_with("#[cfg(all(test,")
        })
        .unwrap_or(lines.len())
}

fn word_at(hay: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(pat) {
        let at = from + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':');
        let after = at + pat.len();
        let after_ok = !hay[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            out.push(at);
        }
        from = after;
    }
    out
}

/// How many lines above a strong ordering its `// ordering:` note may
/// sit (inclusive of the ordering's own line). Wide enough for a
/// several-line justification above a multi-line `compare_exchange`
/// call; narrow enough that an unrelated note cannot vouch for a
/// distant ordering.
const JUSTIFICATION_WINDOW: usize = 8;

/// Lints one file; used directly by the fixture tests below.
#[cfg(test)]
pub fn lint_source(rel: &str, source: &str, manifest: &Manifest) -> Vec<String> {
    let mut violations = Vec::new();
    let mut stats = Stats::default();
    lint_file(
        rel,
        source,
        manifest,
        &BTreeSet::new(),
        &mut violations,
        &mut stats,
    );
    violations.iter().map(|v| v.to_string()).collect()
}

fn lint_file(
    rel: &str,
    source: &str,
    manifest: &Manifest,
    allowlist: &BTreeSet<String>,
    violations: &mut Vec<Violation>,
    stats: &mut Stats,
) {
    let lines = strip(source);
    let raw: Vec<&str> = source.lines().collect();
    let boundary = if is_test_tree(rel) {
        0
    } else {
        test_boundary(&lines)
    };
    let vio = |violations: &mut Vec<Violation>, line: usize, rule: &'static str, msg: String| {
        violations.push(Violation {
            file: rel.to_string(),
            line: line + 1,
            rule,
            msg,
        });
    };

    // Rule 3 (whole file, tests included): unsafe only where allowlisted.
    for (idx, line) in lines.iter().enumerate() {
        if !word_at(&line.code, "unsafe").is_empty() && !allowlist.contains(rel) {
            vio(
                violations,
                idx,
                "unsafe-allowlist",
                "`unsafe` outside crates/xtask/unsafe-allowlist.txt".into(),
            );
        }
    }

    let code_lines = &lines[..boundary];

    for (idx, line) in code_lines.iter().enumerate() {
        // Rule 1: strong orderings need a written justification.
        if !is_checker_infra(rel) {
            for strong in ["Acquire", "Release", "AcqRel", "SeqCst"] {
                let needle = format!("Ordering::{strong}");
                for _ in word_at(&line.code, &needle) {
                    let lo = idx.saturating_sub(JUSTIFICATION_WINDOW);
                    let justified = lines[lo..=idx]
                        .iter()
                        .any(|l| l.comment.contains("ordering:"));
                    if justified {
                        stats.justified_orderings += 1;
                    } else {
                        vio(
                            violations,
                            idx,
                            "ordering-justification",
                            format!(
                                "`Ordering::{strong}` without an `// ordering:` comment within \
                                 {JUSTIFICATION_WINDOW} lines"
                            ),
                        );
                    }
                }
            }
        }

        // Rule 2: shimmed modules must import through `uba_obs::sync`.
        if SHIMMED.contains(&rel) {
            for banned in ["std::sync::atomic", "core::sync::atomic", "std::thread"] {
                if line.code.contains(banned) {
                    vio(
                        violations,
                        idx,
                        "shim-purity",
                        format!("`{banned}` in a loom-shimmed module; use `uba_obs::sync`"),
                    );
                }
            }
            if line.code.contains("std::sync::Mutex") || line.code.contains("std::sync::{") {
                vio(
                    violations,
                    idx,
                    "shim-purity",
                    "std::sync import in a loom-shimmed module; use `uba_obs::sync`".into(),
                );
            }
        }

        // Rule 5: clocks only in obs and bench.
        if !clock_allowed(rel) {
            for clock in ["Instant::now", "SystemTime"] {
                if line.code.contains(clock) {
                    vio(
                        violations,
                        idx,
                        "clock-discipline",
                        format!("`{clock}` outside uba-obs/uba-bench; use `uba_obs::Stopwatch`"),
                    );
                }
            }
        }

        // Rule 6: parsers stay panic-free. `.expect(` is matched only in
        // its literal-message form so a parser's own `fn expect(b'{')`
        // combinator does not trip the rule.
        if PARSERS.contains(&rel) {
            for panicky in [".unwrap()", ".expect(\""] {
                if line.code.contains(panicky) {
                    vio(
                        violations,
                        idx,
                        "parser-unwrap",
                        format!("`{panicky}` in a parser; return a parse error instead"),
                    );
                }
            }
        }

        // Rule 8: raw shared atomic arrays must be padded or waived.
        // (A `CachePadded`-wrapped slot type never matches the raw
        // patterns, so only genuinely unpadded arrays are flagged.)
        if !is_checker_infra(rel) {
            for pat in ["Vec<AtomicU64>", "Box<[AtomicU64]>", "[AtomicU64;"] {
                if line.code.contains(pat) {
                    let lo = idx.saturating_sub(JUSTIFICATION_WINDOW);
                    let waived = lines[lo..=idx]
                        .iter()
                        .any(|l| l.comment.contains("padding:"));
                    if !waived {
                        vio(
                            violations,
                            idx,
                            "shared-array-padding",
                            format!(
                                "`{pat}` without `CachePadded` slots or a `// padding:` waiver \
                                 within {JUSTIFICATION_WINDOW} lines"
                            ),
                        );
                    }
                }
            }
        }

        // Rule 4: registered metric names must be manifested.
        for reg in [".counter(", ".gauge(", ".histogram("] {
            let mut from = 0;
            while let Some(pos) = line.code[from..].find(reg) {
                let at = from + pos;
                from = at + reg.len();
                // The stripped line tells us a call happened; the raw
                // line still has the name literal.
                if let Some(name) = extract_metric_name(raw.get(idx).copied().unwrap_or(""), reg) {
                    stats.metric_names += 1;
                    if !manifest.covers(&name) {
                        vio(
                            violations,
                            idx,
                            "metric-manifest",
                            format!("metric `{name}` not in docs/metrics-manifest.txt"),
                        );
                    }
                }
            }
        }
    }
}

/// Rule 7: a `uba-bench` binary whose source implements a `"smoke"`
/// mode (the marker every verify-lane gate carries) must be invoked as
/// `--bin <name>` somewhere in `scripts/verify.sh`. Returns the
/// violation, if any.
fn check_bench_wiring(rel: &str, source: &str, verify_sh: &str) -> Option<Violation> {
    let stem = rel
        .strip_prefix("crates/bench/src/bin/")?
        .strip_suffix(".rs")?;
    if !source.contains("\"smoke\"") {
        return None; // paper regenerator with no smoke lane — exempt
    }
    let wired = verify_sh.contains(&format!("--bin {stem}"));
    (!wired).then(|| Violation {
        file: rel.to_string(),
        line: 0,
        rule: "bench-smoke-wiring",
        msg: format!(
            "binary `{stem}` has a smoke mode but scripts/verify.sh never runs `--bin {stem}`"
        ),
    })
}

/// Pulls the metric name out of a registration call on `raw_line`:
/// either a direct literal or a `format!` template (whose `{…}` holes
/// become `*` globs).
fn extract_metric_name(raw_line: &str, reg: &str) -> Option<String> {
    let after = &raw_line[raw_line.find(reg)? + reg.len()..];
    let lit = between(after, "\"", "\"")?;
    let mut name = String::with_capacity(lit.len());
    let mut chars = lit.chars();
    while let Some(c) = chars.next() {
        if c == '{' {
            for c2 in chars.by_ref() {
                if c2 == '}' {
                    break;
                }
            }
            name.push('*');
        } else {
            name.push(c);
        }
    }
    (!name.is_empty()).then_some(name)
}

fn between<'a>(hay: &'a str, open: &str, close: &str) -> Option<&'a str> {
    let start = hay.find(open)? + open.len();
    let end = hay[start..].find(close)? + start;
    Some(&hay[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::from_text(
            "# comment\nadmission.admits\nadmission.rejects.link_full.class0\n\
             admission.rejects.link_full.class1\ntrace.admit\n",
        )
    }

    #[test]
    fn strip_removes_strings_and_comments() {
        let lines = strip("let x = \"unsafe Ordering::Acquire\"; // ordering: note\n'a'.len();\nlet l: &'static str = r#\"std::thread\"#;");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("ordering:"));
        assert!(lines[1].code.contains(".len()"));
        assert!(!lines[2].code.contains("std::thread"));
        assert!(lines[2].code.contains("&'static str"));
    }

    #[test]
    fn unjustified_acquire_fails_and_justified_passes() {
        let bad = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }";
        let v = lint_source("crates/admission/src/lib.rs", bad, &manifest());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("ordering-justification"), "{v:?}");

        let good = "// ordering: pairs with the Release store in publish()\n\
                    fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }";
        assert!(lint_source("crates/admission/src/lib.rs", good, &manifest()).is_empty());

        // Relaxed never needs a note.
        let relaxed = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }";
        assert!(lint_source("crates/admission/src/lib.rs", relaxed, &manifest()).is_empty());
    }

    #[test]
    fn justification_window_is_bounded() {
        let blanks = "\n".repeat(JUSTIFICATION_WINDOW + 1);
        let too_far = format!(
            "// ordering: too far away{blanks}fn f(a: &AtomicU64) -> u64 {{ a.load(Ordering::Acquire) }}"
        );
        let v = lint_source("crates/admission/src/lib.rs", &too_far, &manifest());
        assert_eq!(v.len(), 1, "{v:?}");
        // Inside the window (even across a multi-line call) it counts.
        let near = "// ordering: close enough, pairs with the Release in g()\n\
                    fn f(a: &AtomicU64) -> bool {\n\
                    a.compare_exchange(\n0,\n1,\nOrdering::Acquire,\nOrdering::Relaxed,\n)\n.is_ok()\n}";
        assert!(lint_source("crates/admission/src/lib.rs", near, &manifest()).is_empty());
    }

    #[test]
    fn strip_counts_lines_across_string_continuations() {
        // A `\`-continued string must not swallow the newline: the
        // violation below sits on (1-indexed) line 4.
        let src = "fn f(a: &AtomicU64) -> u64 {\n    let _m = \"two \\\n line string\";\n    a.load(Ordering::SeqCst)\n}";
        let v = lint_source("crates/admission/src/lib.rs", src, &manifest());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains(":4:"), "line number drifted: {v:?}");
    }

    #[test]
    fn std_atomic_import_in_shimmed_module_fails() {
        let bad = "use std::sync::atomic::{AtomicU64, Ordering};";
        let v = lint_source("crates/admission/src/state.rs", bad, &manifest());
        assert!(
            v.iter().any(|m| m.contains("shim-purity")),
            "expected shim-purity violation: {v:?}"
        );
        // The same import is fine outside the shimmed list.
        assert!(lint_source("crates/admission/src/churn.rs", bad, &manifest()).is_empty());
        // Going through the shim is fine inside it.
        let good = "use uba_obs::sync::atomic::{AtomicU64, Ordering};";
        assert!(lint_source("crates/admission/src/state.rs", good, &manifest()).is_empty());
    }

    #[test]
    fn unmanifested_metric_name_fails() {
        let bad = r#"let c = registry.counter("admission.bogus_counter");"#;
        let v = lint_source("crates/admission/src/metrics.rs", bad, &manifest());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("metric-manifest"), "{v:?}");
        assert!(v[0].contains("admission.bogus_counter"), "{v:?}");

        let good = r#"let c = registry.counter("admission.admits");"#;
        assert!(lint_source("crates/admission/src/metrics.rs", good, &manifest()).is_empty());
    }

    #[test]
    fn format_metric_names_glob_against_manifest() {
        let good = r#"let c = registry.counter(&format!("admission.rejects.link_full.class{i}"));"#;
        assert!(lint_source("crates/admission/src/metrics.rs", good, &manifest()).is_empty());
        let bad = r#"let c = registry.counter(&format!("admission.rejects.queue{i}"));"#;
        let v = lint_source("crates/admission/src/metrics.rs", bad, &manifest());
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn clock_outside_obs_and_bench_fails() {
        let bad = "let t0 = std::time::Instant::now();";
        let v = lint_source("crates/sim/src/engine.rs", bad, &manifest());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("clock-discipline"), "{v:?}");
        assert!(lint_source("crates/obs/src/stopwatch.rs", bad, &manifest()).is_empty());
        assert!(lint_source("crates/bench/src/bin/t.rs", bad, &manifest()).is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist_fails_even_in_tests() {
        let bad =
            "#[cfg(test)]\nmod tests { fn f() { unsafe { core::hint::unreachable_unchecked() } } }";
        let v = lint_source("crates/sim/src/lib.rs", bad, &manifest());
        assert!(v.iter().any(|m| m.contains("unsafe-allowlist")), "{v:?}");
        // …but the word inside a string or metric name is not a block.
        let s = r#"let c = registry.counter("admission.admits"); let m = "unsafe";"#;
        assert!(lint_source("crates/admission/src/metrics.rs", s, &manifest()).is_empty());
    }

    #[test]
    fn parser_unwrap_fails() {
        let bad = "fn parse() { doc.tables.get_mut(name).unwrap(); }";
        let v = lint_source("crates/cli/src/toml_lite.rs", bad, &manifest());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("parser-unwrap"), "{v:?}");
        // Unit tests in the same file may unwrap.
        let test_only = "#[cfg(test)]\nmod tests { fn t() { parse(\"x\").unwrap(); } }";
        assert!(lint_source("crates/cli/src/toml_lite.rs", test_only, &manifest()).is_empty());
    }

    #[test]
    fn test_modules_and_test_trees_are_exempt_from_code_rules() {
        let in_tests = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }";
        assert!(lint_source(
            "crates/admission/tests/loom_models.rs",
            in_tests,
            &manifest()
        )
        .is_empty());
        let below_cfg = "#[cfg(test)]\nmod tests { use std::sync::atomic::AtomicU64; }";
        assert!(lint_source("crates/admission/src/state.rs", below_cfg, &manifest()).is_empty());
    }

    #[test]
    fn bench_smoke_binaries_must_be_wired_into_verify() {
        let smoke_src =
            r#"fn main() { let smoke = std::env::args().nth(1).as_deref() == Some("smoke"); }"#;
        let verify = "cargo run --offline --release -p uba-bench --bin obs_overhead -- smoke\n";
        // Wired: no violation.
        assert!(
            check_bench_wiring("crates/bench/src/bin/obs_overhead.rs", smoke_src, verify).is_none()
        );
        // Smoke mode but never run by verify.sh: violation.
        let v = check_bench_wiring("crates/bench/src/bin/new_gate.rs", smoke_src, verify)
            .expect("unwired smoke gate must be flagged");
        assert!(v.to_string().contains("bench-smoke-wiring"), "{v}");
        assert!(v.to_string().contains("new_gate"), "{v}");
        // No smoke mode (paper regenerator): exempt.
        assert!(
            check_bench_wiring("crates/bench/src/bin/table1.rs", "fn main() {}", verify).is_none()
        );
        // Non-bench files never match.
        assert!(check_bench_wiring("crates/cli/src/main.rs", smoke_src, verify).is_none());
    }

    #[test]
    fn unpadded_atomic_array_fails_and_waiver_passes() {
        for pat in [
            "reserved: Vec<AtomicU64>,",
            "slots: Box<[AtomicU64]>,",
            "buckets: [AtomicU64; 64],",
        ] {
            let bad = format!("struct S {{\n    {pat}\n}}");
            let v = lint_source("crates/admission/src/lib.rs", &bad, &manifest());
            assert_eq!(v.len(), 1, "{pat}: {v:?}");
            assert!(v[0].contains("shared-array-padding"), "{v:?}");

            let waived = format!(
                "struct S {{\n    // padding: sparse writes, sharing acceptable\n    {pat}\n}}"
            );
            assert!(
                lint_source("crates/admission/src/lib.rs", &waived, &manifest()).is_empty(),
                "waiver must silence {pat}"
            );
        }
        // CachePadded slots never match the raw patterns.
        let padded = "struct S {\n    slots: Vec<CachePadded<Shard>>,\n}";
        assert!(lint_source("crates/admission/src/lib.rs", padded, &manifest()).is_empty());
        // Unit-test code is exempt like every code rule.
        let in_tests = "#[cfg(test)]\nmod tests { struct S { a: Vec<AtomicU64> } }";
        assert!(lint_source("crates/admission/src/state.rs", in_tests, &manifest()).is_empty());
    }

    #[test]
    fn loom_coverage_requires_mapped_cfg_loom_models() {
        let map = LoomMap::from_text(
            "# comment\ncrates/admission/src/state.rs -> crates/admission/tests/loom_models.rs\n",
        );
        let justified = vec!["crates/admission/src/state.rs".to_string()];
        let probe_ok = |m: &str| (m == "crates/admission/tests/loom_models.rs").then_some(true);

        // Mapped to an existing cfg(loom) model: clean, and counted.
        let mut stats = Stats::default();
        assert!(check_loom_coverage(&justified, &map, &mut stats, probe_ok).is_empty());
        assert_eq!(stats.loom_covered_modules, 1);

        // Justified module with no entry: flagged.
        let orphan = ["crates/admission/src/policy.rs".to_string()];
        let both: Vec<String> = justified.iter().chain(orphan.iter()).cloned().collect();
        let v = check_loom_coverage(&both, &map, &mut Stats::default(), probe_ok);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].to_string().contains("loom-model-coverage"), "{v:?}");
        assert!(v[0].to_string().contains("policy.rs"), "{v:?}");

        // Model file missing: flagged against the map.
        let v = check_loom_coverage(&justified, &map, &mut Stats::default(), |_| None);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].to_string().contains("does not exist"), "{v:?}");

        // Model file without a cfg(loom) gate: flagged against the model.
        let v = check_loom_coverage(&justified, &map, &mut Stats::default(), |_| Some(false));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].to_string().contains("cfg(loom)"), "{v:?}");

        // Stale entry (module lost its justifications): flagged.
        let v = check_loom_coverage(&[], &map, &mut Stats::default(), probe_ok);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].to_string().contains("stale entry"), "{v:?}");

        // Missing map file with justified modules: one summary violation.
        let v = check_loom_coverage(
            &justified,
            &LoomMap::default(),
            &mut Stats::default(),
            probe_ok,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].to_string().contains("map file missing"), "{v:?}");
        // Missing map file with nothing justified: nothing to enforce.
        assert!(
            check_loom_coverage(&[], &LoomMap::default(), &mut Stats::default(), probe_ok)
                .is_empty()
        );
    }

    #[test]
    fn ordering_notes_detection_respects_exemptions() {
        let src = "// ordering: pairs with the Release in publish()\nfn f() {}";
        assert!(has_ordering_notes("crates/admission/src/state.rs", src));
        // Checker infra and test trees never demand models.
        assert!(!has_ordering_notes("crates/loom/src/scheduler.rs", src));
        assert!(!has_ordering_notes("crates/admission/tests/x.rs", src));
        // A note inside a #[cfg(test)] module does not count.
        let test_only = "#[cfg(test)]\nmod tests {\n// ordering: scratch\n}";
        assert!(!has_ordering_notes(
            "crates/admission/src/state.rs",
            test_only
        ));
        // The word in code (a string) is not a justification comment.
        let in_string = "fn f() -> &'static str { \"ordering: nope\" }";
        assert!(!has_ordering_notes(
            "crates/admission/src/state.rs",
            in_string
        ));
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("a.class*", "a.class0"));
        assert!(glob_match("a.*.b", "a.x.b"));
        assert!(glob_match("exact", "exact"));
        assert!(!glob_match("a.class*", "b.class0"));
        assert!(!glob_match("a.*x", "a.y"));
    }
}
