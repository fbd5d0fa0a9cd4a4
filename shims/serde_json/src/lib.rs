//! A minimal, dependency-free, API-compatible subset of [`serde_json`],
//! vendored locally so the workspace builds in offline environments.
//!
//! Provides [`from_str`], [`to_string`], [`to_string_pretty`] (2-space
//! indent, like upstream) and an [`Error`] type, all routed through the
//! local `serde` shim's [`Value`] data model.
//!
//! [`serde_json`]: https://crates.io/crates/serde_json

#![forbid(unsafe_code)]

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// A parse or shape error, with byte offset for syntax errors.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Deserializes an instance of `T` from a JSON string.
///
/// # Errors
///
/// An [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = Parser::new(text).parse_document()?;
    Ok(T::from_value(&value)?)
}

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

// ----------------------------------------------------------------- writer

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    // Keep a decimal point so the value reads back as float.
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&f.to_string());
                }
            } else {
                // JSON has no Inf/NaN; upstream errors, we emit null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

/// Writes `s` as a JSON string literal. Each run of bytes that needs no
/// escape is copied with one `push_str`; every escaped byte is ASCII, so
/// the runs split `s` at char boundaries.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..at]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ----------------------------------------------------------------- parser

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn parse_document(mut self) -> Result<Value, Error> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid keyword"))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are rejected rather than combined
                            // (no occurrences in this workspace's data).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => {
                    // Take the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid UTF-8");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v: Value = from_str(r#"{"a": [1, -2, 3.5, true, null, "x\ny"]}"#).unwrap();
        let items = v.get_field("a").unwrap().as_array().unwrap();
        assert_eq!(items[0], Value::UInt(1));
        assert_eq!(items[1], Value::Int(-2));
        assert_eq!(items[2], Value::Float(3.5));
        assert_eq!(items[3], Value::Bool(true));
        assert_eq!(items[4], Value::Null);
        assert_eq!(items[5], Value::Str("x\ny".to_string()));
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_str::<Value>("{nope").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn roundtrips_compact_and_pretty() {
        let v: Value = from_str(r#"{"k": [1, {"x": "y"}], "empty": []}"#).unwrap();
        let compact = to_string(&v).unwrap();
        assert_eq!(compact, r#"{"k":[1,{"x":"y"}],"empty":[]}"#);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"k\": ["));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    /// The per-char string writer this crate used before it copied plain
    /// runs whole: the reference the run writer must match byte for byte.
    fn per_char_write_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn strings_roundtrip_byte_identically_to_the_per_char_writer() {
        let mut cases: Vec<String> = vec![
            String::new(),
            "plain ascii run".to_string(),
            "\"\\/\n\r\t\u{8}\u{c}".to_string(),
            (0u8..0x20).map(char::from).collect(),
            "\u{7f}é日🦀 mixed \"quoted\" runs\\ and\ttabs\n".to_string(),
            "🦀".repeat(5) + "\u{0}" + &"日本".repeat(3) + "\"",
        ];
        // Every run length around each kind of break.
        for piece in ["\"", "\\", "\n", "\u{1}", "é", "🦀"] {
            for n in 0..4 {
                cases.push(format!("{}{piece}{}", "ab".repeat(n), "x".repeat(3 - n)));
            }
        }
        for s in &cases {
            let (mut runs, mut per_char) = (String::new(), String::new());
            write_string(s, &mut runs);
            per_char_write_string(s, &mut per_char);
            assert_eq!(runs, per_char, "{s:?}");
            let back = Parser::new(&runs).parse_string().unwrap();
            assert_eq!(&back, s);
        }
        // The parser also reads every escape the writer never emits.
        let parsed = Parser::new(r#""a\/b\bc\fd\u00e9\u65e5e""#)
            .parse_string()
            .unwrap();
        assert_eq!(parsed, "a/b\u{8}c\u{c}d\u{e9}\u{65e5}e");
        for bad in [r#""open"#, r#""bad \q""#, r#""\u12""#, r#""\ud800""#] {
            assert!(Parser::new(bad).parse_string().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn typed_roundtrip() {
        let xs: Vec<u64> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(xs, vec![1, 2, 3]);
        assert_eq!(to_string(&xs).unwrap(), "[1,2,3]");
        let err = from_str::<Vec<u64>>(r#"["a"]"#).unwrap_err();
        assert!(err.to_string().contains("expected"));
    }
}
