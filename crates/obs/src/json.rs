//! A minimal JSON parser (hand-rolled, no dependencies), and the one
//! number formatter every JSON writer in the workspace shares.
//!
//! Exists so metric snapshots emitted by
//! [`Snapshot::render_json_lines`](crate::Snapshot::render_json_lines)
//! can be parsed back — by tests asserting round-trips and by any
//! tooling that wants structured access without external crates. Covers
//! the full JSON grammar, including `\uXXXX` escapes with UTF-16
//! surrogate pairs for astral-plane characters.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order not preserved; keys sorted).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The number, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The object, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// A parse error with byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Formats an `f64` as a JSON number token that [`parse`] (or any
/// standard parser) reads back bit for bit: `{:?}` always keeps a
/// decimal point or an exponent, so the token stays a float. A
/// non-finite value, which JSON cannot spell, becomes `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let a body of `[`s
/// overflow the stack and abort the process.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error, and so
/// is nesting arrays and objects more than 128 deep.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// A value inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            match code {
                                // High surrogate: must be followed by
                                // `\uDC00..=\uDFFF`; the pair decodes to
                                // one astral-plane scalar (RFC 8259 §7).
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\')
                                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                                    {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(scalar)
                                            .ok_or_else(|| self.err("bad surrogate pair"))?,
                                    );
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err("unpaired low surrogate"));
                                }
                                _ => out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("bad \\u escape"))?,
                                ),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8
                    // because the parser takes &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    /// Reads the four hex digits of a `\uXXXX` escape and advances past
    /// them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("short \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // The scanned range is ASCII (digits, sign, dot, exponent), so
        // this cannot fail — but the parser stays textually panic-free
        // (xtask's parser-unwrap rule), so route it through the error.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError {
                offset: start,
                message: format!("bad number '{text}'"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -1.5e3 ").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(
            parse(r#""a\nbA""#).unwrap(),
            JsonValue::String("a\nbA".into())
        );
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":false}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        match v.get("a") {
            Some(JsonValue::Array(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0].as_number(), Some(1.0));
                assert_eq!(items[2].get("b"), Some(&JsonValue::Bool(false)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_carry_position() {
        let e = parse("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(parse("[1,2").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let body = "[".repeat(100_000);
        let e = parse(&body).unwrap_err();
        assert_eq!(
            (e.offset, e.message.as_str()),
            (MAX_DEPTH, "nesting too deep")
        );
        // The limit itself still parses, arrays and objects alike.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
        assert!(parse(&format!("[{objects}]")).is_err());
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(
            parse("\"héllo → wörld\"").unwrap(),
            JsonValue::String("héllo → wörld".into())
        );
    }

    #[test]
    fn unicode_escapes_basic_plane() {
        assert_eq!(
            parse(r#""\u0041\u00e9\u2192""#).unwrap(),
            JsonValue::String("Aé→".into())
        );
        // Escaped and literal forms parse to the same string.
        assert_eq!(parse(r#""\u2192""#).unwrap(), parse("\"→\"").unwrap());
    }

    #[test]
    fn surrogate_pairs_decode_astral_characters() {
        // U+1F600 (😀) = D83D DE00, U+10348 (𐍈) = D800 DF48.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            JsonValue::String("😀".into())
        );
        assert_eq!(
            parse(r#""\uD800\uDF48""#).unwrap(),
            JsonValue::String("𐍈".into())
        );
        // Pair surrounded by other content, and mixed with a literal
        // astral character.
        assert_eq!(
            parse(r#""a\ud83d\ude00z😀""#).unwrap(),
            JsonValue::String("a😀z😀".into())
        );
    }

    #[test]
    fn astral_round_trip_through_snapshot_rendering() {
        // A metric name holding an astral-plane character survives
        // render_json_lines -> parse intact (the renderer passes it
        // through literally; the parser must accept either form).
        let r = crate::Registry::new();
        r.counter("astral.𐍈.😀").add(1);
        let line = r.snapshot().render_json_lines();
        let v = parse(line.trim()).unwrap();
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("astral.𐍈.😀")
        );
    }

    #[test]
    fn lone_surrogates_are_rejected_not_panicking() {
        // Unpaired high surrogate (end of string, or followed by a
        // non-escape / wrong escape), and a bare low surrogate.
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\ud83d\n""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
        // Truncated escapes at end of input.
        assert!(parse(r#""\ud83d\ude0"#).is_err());
        assert!(parse(r#""\u00"#).is_err());
    }
}
