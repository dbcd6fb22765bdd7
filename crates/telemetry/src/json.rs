//! Minimal JSON emission, parsing and validation helpers.
//!
//! The exporters build JSON by hand (this crate takes no external
//! dependencies), so the escaping rules and a parser live here.
//! [`validate`] is a strict syntax check used by tests and
//! `cppe validate-trace` to guarantee every emitted document is
//! well-formed; [`parse`] returns the document as a [`Value`] tree —
//! the orchestrator's result store uses it to read its JSONL journal
//! and snapshot back on `--resume`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for embedding inside JSON quotes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A quoted, escaped JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// One parsed JSON value.
///
/// Numbers keep their raw source text ([`Value::Num`]) so 64-bit
/// counters round-trip bit-exactly — `u64::MAX` survives a
/// journal-write/journal-read cycle that an `f64` representation would
/// silently round.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text (e.g. `"-3e2"`, `"42"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order normalised).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup (`None` for non-objects / missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64` (exact — integer source text only).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True for `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Parse one well-formed JSON document into a [`Value`].
///
/// # Errors
/// Returns a description (with byte offset) of the first syntax error.
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Validate that `s` is one well-formed JSON value.
///
/// # Errors
/// Returns a description (with byte offset) of the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}", pos = *pos)),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_literal(b, pos, b"true").map(|()| Value::Bool(true)),
        Some(b'f') => parse_literal(b, pos, b"false").map(|()| Value::Bool(false)),
        Some(b'n') => parse_literal(b, pos, b"null").map(|()| Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // {
    skip_ws(b, pos);
    let mut map = BTreeMap::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // [
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"') => {
                    out.push('"');
                    *pos += 2;
                }
                Some(b'\\') => {
                    out.push('\\');
                    *pos += 2;
                }
                Some(b'/') => {
                    out.push('/');
                    *pos += 2;
                }
                Some(b'b') => {
                    out.push('\u{8}');
                    *pos += 2;
                }
                Some(b'f') => {
                    out.push('\u{c}');
                    *pos += 2;
                }
                Some(b'n') => {
                    out.push('\n');
                    *pos += 2;
                }
                Some(b'r') => {
                    out.push('\r');
                    *pos += 2;
                }
                Some(b't') => {
                    out.push('\t');
                    *pos += 2;
                }
                Some(b'u') => {
                    let hex = b
                        .get(*pos + 2..*pos + 6)
                        .ok_or_else(|| format!("truncated \\u escape at byte {pos}", pos = *pos))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos}", pos = *pos));
                    }
                    // Safe: all-hex ASCII checked above.
                    let code = u32::from_str_radix(std::str::from_utf8(hex).unwrap(), 16).unwrap();
                    // Our own escaper only emits \u00xx control codes;
                    // lone surrogates from foreign documents degrade to
                    // the replacement character rather than erroring.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
            },
            c if c < 0x20 => {
                return Err(format!(
                    "unescaped control byte in string at {pos}",
                    pos = *pos
                ))
            }
            _ => {
                // Consume one full UTF-8 scalar (input is a &str, so
                // the byte stream is valid UTF-8 by construction).
                let start = *pos;
                *pos += 1;
                while b.get(*pos).is_some_and(|&nb| nb & 0xC0 == 0x80) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).unwrap());
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(b, pos);
    if int_digits == 0 {
        return Err(format!("expected digits at byte {pos}", pos = *pos));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(b, pos) == 0 {
            return Err(format!(
                "expected fraction digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(b, pos) == 0 {
            return Err(format!("expected exponent digits at byte {start}"));
        }
    }
    // Safe: the slice is ASCII digits/sign/dot/exponent by construction.
    Ok(Value::Num(
        std::str::from_utf8(&b[start..*pos]).unwrap().to_string(),
    ))
}

fn eat_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(string("x"), "\"x\"");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn accepts_well_formed_documents() {
        validate("{}").unwrap();
        validate("[]").unwrap();
        validate("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":null},\"d\":\"x\\ny\"}").unwrap();
        validate("  [true, false, null]  ").unwrap();
        validate(&string("quote \" backslash \\")).unwrap();
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate("{\"a\":1,}").is_err());
        assert!(validate("{'a':1}").is_err());
        assert!(validate("[1] trailing").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("01abc").is_err());
        assert!(validate("1.").is_err());
    }

    #[test]
    fn parses_typed_values() {
        let v = parse("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":null},\"d\":true}").unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert!((arr[1].as_f64().unwrap() - 2.5).abs() < 1e-12);
        assert!((arr[2].as_f64().unwrap() + 300.0).abs() < 1e-12);
        assert!(v.get("b").unwrap().get("c").unwrap().is_null());
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn u64_round_trips_exactly() {
        let doc = format!("{{\"n\":{}}}", u64::MAX);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX));
        // f64 would have rounded this; the raw-text path must not.
        assert_eq!(v.get("n").unwrap().as_f64(), Some(u64::MAX as f64));
    }

    #[test]
    fn strings_unescape_through_parse() {
        let v = parse(&string("tab\there \"q\" back\\slash \u{1}")).unwrap();
        assert_eq!(v.as_str(), Some("tab\there \"q\" back\\slash \u{1}"));
        let uni = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(uni.as_str(), Some("Aé"));
    }

    #[test]
    fn multibyte_strings_survive() {
        let v = parse("\"héllo → wörld\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → wörld"));
    }
}
