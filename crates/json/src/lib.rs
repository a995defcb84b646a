//! # smartmem-json
//!
//! The one JSON grammar of the workspace: a value-level parser and the
//! matching writer helpers. The container is offline (no serde), and
//! three formats are JSON — the graph interchange format
//! (`smartmem_ir::import`), Chrome `trace_event` files
//! (`smartmem_telemetry::{parse_chrome, render_chrome}`) and the flat
//! bench records (`smartmem_bench::json`). Each of those maps its own
//! schema over [`Json`]; none tokenizes.
//!
//! The parser reads untrusted bytes, so it never panics and never
//! recurses past [`MAX_DEPTH`]: every malformed input is a
//! [`ParseError`] carrying the byte offset of the failure. Numbers must
//! be finite (`1e999` is rejected, JSON has no `NaN`), strings decode
//! `\uXXXX` escapes including surrogate pairs, and objects keep
//! insertion order with the first of any duplicate keys winning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts (guards the recursive
/// descent's stack against `[[[[…` bombs).
pub const MAX_DEPTH: usize = 64;

/// Parsed JSON value. Objects keep insertion order; duplicate keys keep
/// the first occurrence ([`Json::get`] scans front to back).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as `(key, value)` pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key` when `self` is an object holding it.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when `self` is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A malformed document: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What the parser expected or found.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, msg: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect("null").map(|_| Json::Null),
            Some(b't') => self.expect("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.bump(); // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `]` in array"));
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.bump(); // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bump() != Some(b':') {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected `:` after object key"));
            }
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `}` in object"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => s.push(self.unicode_escape()?),
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(c) if c < 0x80 => s.push(c as char),
                Some(c) => {
                    // Re-decode the UTF-8 sequence starting at `c`.
                    let start = self.pos - 1;
                    let width = match c {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid UTF-8 in string")),
                    };
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8 in string"))?;
                    let text = std::str::from_utf8(chunk)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    s.push_str(text);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let first = self.hex4()?;
        if (0xd800..0xdc00).contains(&first) {
            // High surrogate: must be followed by `\uDC00`–`\uDFFF`.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.err("lone high surrogate in \\u escape"));
            }
            let second = self.hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.err("invalid low surrogate in \\u escape"));
            }
            let cp = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
            char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xdc00..0xe000).contains(&first) {
            Err(self.err("lone low surrogate in \\u escape"))
        } else {
            char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let digit = self.bump().and_then(|c| char::from(c).to_digit(16));
            v = v * 16 + digit.ok_or_else(|| self.err("expected 4 hex digits after \\u"))?;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number chars");
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

/// Parses one JSON document (a single top-level value, surrounding
/// whitespace allowed).
///
/// # Errors
///
/// Any malformed input — truncation, nesting beyond [`MAX_DEPTH`], a
/// non-finite number, a bad escape, trailing data — is a [`ParseError`];
/// this function never panics on untrusted input.
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after top-level value"));
    }
    Ok(v)
}

/// Escapes `s` for the inside of a JSON string literal (quotes,
/// backslashes, control characters); [`parse`] decodes it back exactly.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Formats a finite `f64` or `f32` as the shortest decimal that parses
/// back to the same value. JSON has no Inf/NaN: a non-finite value
/// renders as `null`, which a schema expecting a number rejects loudly
/// instead of the file being silently invalid.
pub fn fmt_value<T: Copy + fmt::Display + Into<f64>>(v: T) -> String {
    if v.into().is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind_with_any_whitespace() {
        let doc = "\r\n {\"a\": [1, -2.5e1, true, false, null],\t\"b\": {\"c\": \"d\"}} \n";
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Bool(true),
                Json::Bool(false),
                Json::Null
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Json::str), Some("d"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(2.0).num(), Some(2.0));
        assert_eq!(Json::Null.num(), None);
    }

    #[test]
    fn first_duplicate_key_wins_and_order_is_kept() {
        let v = parse(r#"{"z": 1, "a": 2, "z": 3}"#).unwrap();
        assert_eq!(v.get("z"), Some(&Json::Num(1.0)));
        let Json::Obj(pairs) = v else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "z"]);
    }

    #[test]
    fn string_escapes_decode() {
        let v = parse(r#""\" \\ \/ \b \f \n \r \t \u00e9 \ud83d\ude00 é 😀""#).unwrap();
        assert_eq!(v.str(), Some("\" \\ / \u{8} \u{c} \n \r \t é 😀 é 😀"));
    }

    #[test]
    fn malformed_documents_are_errors_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{a: 1}",
            "\"open",
            "\"raw\ncontrol\"",
            r#""\x""#,
            r#""\u12""#,
            r#""\ud800""#,
            r#""\ud800A""#,
            r#""\udc00""#,
            "nul",
            "1e999",
            "-1e999",
            "NaN",
            "-",
            "1.2.3",
            "[] trailing",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.offset <= bad.len(), "{bad:?}: offset {} out of range", err.offset);
            assert!(err.to_string().contains("byte"), "{err}");
        }
        assert_eq!(parse("[1 2]").unwrap_err().offset, 3);
    }

    #[test]
    fn nesting_is_capped_without_touching_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH + 1)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 2)).is_err());
        let bomb = "[".repeat(2_000_000);
        assert_eq!(parse(&bomb).unwrap_err().msg, "nesting too deep");
        let bomb = "{\"k\":".repeat(100_000);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let mut nasty: String = (0u8..0x20).map(char::from).collect();
        nasty.push_str("\"\\/ plain é \u{1f600}");
        let doc = format!("\"{}\"", escape(&nasty));
        assert!(doc.bytes().all(|b| b >= 0x20), "no raw control byte survives escaping");
        assert_eq!(parse(&doc).unwrap(), Json::Str(nasty));
    }

    #[test]
    fn fmt_value_is_shortest_roundtrip_for_both_widths() {
        assert_eq!(fmt_value(0.1f64), "0.1");
        assert_eq!(fmt_value(0.1f32), "0.1");
        assert_eq!(fmt_value(1234.0f64), "1234");
        assert_eq!(fmt_value(-0.5f32), "-0.5");
        for v in [f64::MIN_POSITIVE, f64::MAX, 1.0 / 3.0, 1.234e-7, 41.45] {
            assert_eq!(parse(&fmt_value(v)).unwrap(), Json::Num(v));
        }
        for v in [f32::MIN_POSITIVE, f32::MAX, 1.0f32 / 3.0] {
            let Json::Num(back) = parse(&fmt_value(v)).unwrap() else { panic!("number") };
            assert_eq!(back as f32, v);
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(fmt_value(v), "null");
        }
        assert_eq!(fmt_value(f32::NAN), "null");
    }
}
