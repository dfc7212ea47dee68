//! A small TOML-subset parser, implemented from scratch so the workspace
//! stays within its vetted dependency set.
//!
//! Supported grammar (enough for scenario files, nothing more):
//!
//! ```text
//! # comment
//! [section]             — table header
//! [[section]]           — array-of-tables element
//! key = 1.5             — float/integer (also 1e6, 0.5, -3)
//! key = "text"          — string (no escapes beyond \" and \\)
//! key = true | false    — boolean
//! key = [v, v, ...]     — homogeneous array of the above scalars
//! ```
//!
//! Dotted keys, inline tables, multi-line strings, and dates are not
//! supported and produce errors, not silent misparses.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed scalar or array value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Any number (TOML integers are folded into `f64`; scenario
    /// quantities are physical anyway).
    Number(f64),
    /// A quoted string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// A homogeneous array.
    Array(Vec<Value>),
}

impl Value {
    /// The number, if this is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// One `[section]` (or one `[[section]]` element): key → value.
pub type Table = BTreeMap<String, Value>;

/// A parsed document.
#[derive(Clone, Debug, Default)]
pub struct Document {
    /// Keys before any section header.
    pub root: Table,
    /// `[name]` sections (last definition wins; duplicates are an error).
    pub tables: BTreeMap<String, Table>,
    /// `[[name]]` arrays of tables, in file order.
    pub arrays: BTreeMap<String, Vec<Table>>,
}

impl Document {
    /// Looks up a `[section]`.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Looks up the `[[section]]` list (empty slice if absent).
    pub fn array(&self, name: &str) -> &[Table] {
        self.arrays.get(name).map(|v| &v[..]).unwrap_or(&[])
    }
}

/// A parse error with a 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn valid_key(k: &str) -> bool {
    !k.is_empty()
        && k.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_scalar(s: &str, line: usize) -> Result<Value, ParseError> {
    let s = s.trim();
    if s.starts_with('"') {
        if !s.ends_with('"') || s.len() < 2 {
            return Err(err(line, "unterminated string"));
        }
        let inner = &s[1..s.len() - 1];
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '"' {
                return Err(err(line, "unescaped quote inside string"));
            }
            if c == '\\' {
                match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    other => return Err(err(line, format!("bad escape {other:?}"))),
                }
            } else {
                out.push(c);
            }
        }
        return Ok(Value::Str(out));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    s.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| err(line, format!("cannot parse value '{s}'")))
}

fn parse_value(s: &str, line: usize) -> Result<Value, ParseError> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err(err(line, "unterminated array"));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::Array(Vec::new()));
        }
        // Split at top level commas; strings may contain commas.
        let mut items = Vec::new();
        let mut depth_str = false;
        let mut start = 0usize;
        let bytes = inner.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'"' if i == 0 || bytes[i - 1] != b'\\' => {
                    // Toggle unless escaped.
                    depth_str = !depth_str;
                }
                b',' if !depth_str => {
                    items.push(&inner[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        items.push(&inner[start..]);
        let parsed: Result<Vec<Value>, _> =
            items.into_iter().map(|x| parse_scalar(x, line)).collect();
        let parsed = parsed?;
        // Homogeneity check.
        if parsed
            .windows(2)
            .any(|w| std::mem::discriminant(&w[0]) != std::mem::discriminant(&w[1]))
        {
            return Err(err(line, "mixed-type array"));
        }
        return Ok(Value::Array(parsed));
    }
    parse_scalar(s, line)
}

/// Strips a trailing comment that is outside any string.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a document.
///
/// Keys accumulate into one scratch [`Table`] that is committed to its
/// destination when the next section header (or the end of input)
/// arrives — the parser never reaches back into the document for a
/// "current" table, so there is no panic-capable lookup on the parse
/// path (xtask's parser-unwrap rule keeps it that way).
pub fn parse(input: &str) -> Result<Document, ParseError> {
    enum Target {
        Root,
        Table(String),
        ArrayElem(String),
    }
    fn commit(doc: &mut Document, target: Target, table: Table) {
        match target {
            Target::Root => doc.root = table,
            Target::Table(name) => {
                doc.tables.insert(name, table);
            }
            Target::ArrayElem(name) => {
                doc.arrays.entry(name).or_default().push(table);
            }
        }
    }
    let mut doc = Document::default();
    let mut target = Target::Root;
    let mut current = Table::new();
    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix("[[") {
            let Some(name) = h.strip_suffix("]]") else {
                return Err(err(lineno, "malformed [[header]]"));
            };
            let name = name.trim();
            if !valid_key(name) {
                return Err(err(lineno, format!("bad section name '{name}'")));
            }
            let prev = std::mem::replace(&mut target, Target::ArrayElem(name.to_string()));
            commit(&mut doc, prev, std::mem::take(&mut current));
            continue;
        }
        if let Some(h) = line.strip_prefix('[') {
            let Some(name) = h.strip_suffix(']') else {
                return Err(err(lineno, "malformed [header]"));
            };
            let name = name.trim();
            if !valid_key(name) {
                return Err(err(lineno, format!("bad section name '{name}'")));
            }
            let prev = std::mem::replace(&mut target, Target::Table(name.to_string()));
            commit(&mut doc, prev, std::mem::take(&mut current));
            if doc.tables.contains_key(name) {
                return Err(err(lineno, format!("duplicate section '{name}'")));
            }
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(err(lineno, "expected 'key = value'"));
        };
        let key = line[..eq].trim();
        if !valid_key(key) {
            return Err(err(lineno, format!("bad key '{key}'")));
        }
        let value = parse_value(&line[eq + 1..], lineno)?;
        if current.insert(key.to_string(), value).is_some() {
            return Err(err(lineno, format!("duplicate key '{key}'")));
        }
    }
    commit(&mut doc, target, current);
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_sections() {
        let doc = parse(
            r#"
            top = 1
            [net]
            capacity = 1e8     # bits per second
            name = "backbone"
            enabled = true
            "#,
        )
        .unwrap();
        assert_eq!(doc.root["top"], Value::Number(1.0));
        let net = doc.table("net").unwrap();
        assert_eq!(net["capacity"], Value::Number(1e8));
        assert_eq!(net["name"].as_str(), Some("backbone"));
        assert_eq!(net["enabled"], Value::Bool(true));
    }

    #[test]
    fn array_of_tables() {
        let doc = parse(
            r#"
            [[class]]
            name = "voip"
            rate = 32000
            [[class]]
            name = "video"
            rate = 2e6
            "#,
        )
        .unwrap();
        let classes = doc.array("class");
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0]["name"].as_str(), Some("voip"));
        assert_eq!(classes[1]["rate"].as_number(), Some(2e6));
    }

    #[test]
    fn arrays() {
        let doc = parse(r#"xs = [1, 2.5, -3] "#).unwrap();
        let xs = doc.root["xs"].as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_number(), Some(-3.0));
        let doc = parse(r#"ss = ["a,b", "c"]"#).unwrap();
        assert_eq!(doc.root["ss"].as_array().unwrap()[0].as_str(), Some("a,b"));
        assert_eq!(parse("e = []").unwrap().root["e"], Value::Array(vec![]));
    }

    #[test]
    fn strings_with_escapes_and_hashes() {
        let doc = parse(r#"s = "a \"q\" # not comment" # real comment"#).unwrap();
        assert_eq!(doc.root["s"].as_str(), Some(r#"a "q" # not comment"#));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("x = [1, \"a\"]")
            .unwrap_err()
            .message
            .contains("mixed"));
        assert!(parse("[dup]\n[dup]")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(parse("[t]\nk = 1\nk = 2")
            .unwrap_err()
            .message
            .contains("duplicate key"));
        assert!(parse("k = \"unterminated").is_err());
        assert!(parse("[bad name]").is_err());
    }

    #[test]
    fn numbers_in_many_shapes() {
        for (s, v) in [("1", 1.0), ("-2", -2.0), ("1e6", 1e6), ("0.25", 0.25)] {
            let doc = parse(&format!("x = {s}")).unwrap();
            assert_eq!(doc.root["x"].as_number(), Some(v), "{s}");
        }
    }

    /// Every way we know of for input to be malformed: the parser must
    /// return `Err` (never panic) on each. The corpus is the regression
    /// net for the accumulate-and-commit rewrite of `parse` — several
    /// entries (keys after `[[`-headers, headers with trailing junk)
    /// would have hit the old panic-capable table lookups on a buggy
    /// commit path.
    #[test]
    fn malformed_corpus_errors_without_panicking() {
        let corpus: &[&str] = &[
            "",
            "=",
            "= 1",
            "k =",
            "k",
            "[",
            "]",
            "[]",
            "[[",
            "[[]]",
            "[[x]",
            "[x]]",
            "[x] junk",
            "[ spaced name ]",
            "[\"quoted\"]",
            "[[class]\nname = 1",
            "k = [1, [2]]",
            "k = [1,",
            "k = \"\\q\"",
            "k = 'single'",
            "k = tru",
            "k = nan_but_not",
            "k = 1 2",
            "k = @",
            "k.sub = 1",
            "0bad = 1", // digit-leading bare keys are legal TOML
            "k = \"unterminated\nnext = 2",
            "[t]\nk = 1\n[t]\nk = 2",
            "[[a]]\n[a]\nk = 1\nk = 1",
            "\u{0}k = 1",
            "k\u{0} = 1",
        ];
        for (i, src) in corpus.iter().enumerate() {
            match parse(src) {
                Err(_) => {}
                Ok(doc) => {
                    // A handful of entries are *valid* (empty input,
                    // odd-but-legal shapes); they must at least not
                    // panic and must round through Document cleanly.
                    let _ = (doc.root.len(), doc.tables.len(), doc.arrays.len());
                    assert!(
                        matches!(i, 0 | 25),
                        "corpus entry {i} ({src:?}) unexpectedly parsed"
                    );
                }
            }
        }
    }

    /// Commit-on-header semantics: keys land in the section whose header
    /// most recently preceded them, empty sections still exist, and the
    /// root table keeps only pre-header keys.
    #[test]
    fn sections_commit_exactly_where_they_started() {
        let doc =
            parse("root_key = 1\n[empty]\n[t]\nk = 2\n[[a]]\nx = 3\n[[a]]\nx = 4\n[u]\nk = 5\n")
                .unwrap();
        assert_eq!(doc.root.len(), 1);
        assert_eq!(doc.root["root_key"], Value::Number(1.0));
        assert_eq!(doc.table("empty"), Some(&Table::new()));
        assert_eq!(doc.table("t").unwrap()["k"], Value::Number(2.0));
        assert_eq!(doc.table("u").unwrap()["k"], Value::Number(5.0));
        let a = doc.array("a");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0]["x"], Value::Number(3.0));
        assert_eq!(a[1]["x"], Value::Number(4.0));
    }
}
