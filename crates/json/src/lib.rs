//! A minimal JSON value model, parser and printer.
//!
//! The build environment is fully offline, so the workspace cannot pull
//! `serde`/`serde_json` from a registry. The interchange needs of this
//! project are small — PUM descriptions, RTOS models and benchmark records —
//! and are served by this zero-dependency crate instead.
//!
//! Design points:
//!
//! - [`Value::Object`] preserves insertion order, so printed output is
//!   deterministic and diffs cleanly across runs (important for the
//!   `BENCH_estimation.json` perf trajectory tracked PR-over-PR);
//! - numbers are stored as `f64` with an exact-integer fast path in the
//!   printer, which covers every value the estimator exchanges;
//! - the parser is a strict (RFC 8259) recursive-descent JSON parser with
//!   position information in errors. It reads its input in one linear
//!   pass: a string's plain characters are copied as whole runs sliced
//!   out of the input `&str`, never re-validated;
//! - the parser is safe on **untrusted input**: [`ParseLimits`] bounds the
//!   input size and the nesting depth (the recursion budget), so a
//!   malicious document returns a [`JsonError`] instead of exhausting
//!   memory or overflowing the stack. `tlm-serve` feeds this parser raw
//!   network bytes, so [`parse`] enforces conservative defaults and
//!   [`parse_with_limits`] lets servers tighten them per endpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as an `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n)
                if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object entries, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Renders the value as pretty JSON with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Number(f64::from(v))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Number(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Number(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

/// Convenience builder for objects that keeps call sites terse.
#[derive(Debug, Default, Clone)]
pub struct ObjectBuilder {
    entries: Vec<(String, Value)>,
}

impl ObjectBuilder {
    /// Starts an empty object.
    pub fn new() -> ObjectBuilder {
        ObjectBuilder::default()
    }

    /// Adds a field.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> ObjectBuilder {
        self.entries.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Object(self.entries)
    }
}

/// A rate-table (`u32 → f64`) rendered as an object with numeric-string
/// keys, the shape the PUM interchange format uses.
pub fn map_u32_f64_to_value(map: &BTreeMap<u32, f64>) -> Value {
    Value::Object(map.iter().map(|(k, v)| (k.to_string(), Value::Number(*v))).collect())
}

/// Parses an object with numeric-string keys back into a `u32 → f64` map.
///
/// # Errors
///
/// Returns [`JsonError`] if the value is not an object or a key/entry does
/// not fit the map's types.
pub fn value_to_map_u32_f64(value: &Value) -> Result<BTreeMap<u32, f64>, JsonError> {
    let entries =
        value.as_object().ok_or_else(|| JsonError::shape("expected an object of numeric keys"))?;
    let mut map = BTreeMap::new();
    for (k, v) in entries {
        let key: u32 = k.parse().map_err(|_| JsonError::shape(format!("bad numeric key `{k}`")))?;
        let rate = v
            .as_f64()
            .ok_or_else(|| JsonError::shape(format!("value of `{k}` is not a number")))?;
        map.insert(key, rate);
    }
    Ok(map)
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
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
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; clamp to null like serde_json would
        // reject. The estimator never produces these, so this is defensive.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // `{:?}` prints the shortest representation that round-trips.
        out.push_str(&format!("{n:?}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse or shape error with byte position (parse errors only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input, when known.
    pub position: Option<usize>,
}

impl JsonError {
    fn parse(message: impl Into<String>, position: usize) -> JsonError {
        JsonError { message: message.into(), position: Some(position) }
    }

    /// An error about an unexpected JSON shape (post-parse).
    pub fn shape(message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), position: None }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.position {
            Some(pos) => write!(f, "{} at byte {pos}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl Error for JsonError {}

/// Bounds enforced while parsing untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum input size in bytes; longer documents are rejected before
    /// any parsing happens.
    pub max_bytes: usize,
    /// Maximum container nesting depth. The parser recurses once per open
    /// array/object, so this bounds stack use; scalars cost no depth.
    pub max_depth: usize,
}

impl ParseLimits {
    /// The defaults [`parse`] enforces: 16 MiB and 128 levels — far above
    /// anything the estimator exchanges, far below stack-overflow range.
    pub const DEFAULT: ParseLimits = ParseLimits { max_bytes: 16 << 20, max_depth: 128 };
}

impl Default for ParseLimits {
    fn default() -> ParseLimits {
        ParseLimits::DEFAULT
    }
}

/// Parses a JSON document under [`ParseLimits::DEFAULT`].
///
/// # Errors
///
/// Returns [`JsonError`] with a byte position on malformed input,
/// trailing garbage, or a document exceeding the default limits.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    parse_with_limits(text, ParseLimits::DEFAULT)
}

/// Parses a JSON document with explicit [`ParseLimits`], for callers
/// handling untrusted bytes (e.g. the `tlm-serve` request path).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input, trailing garbage, an input
/// longer than `limits.max_bytes`, or nesting deeper than
/// `limits.max_depth`.
pub fn parse_with_limits(text: &str, limits: ParseLimits) -> Result<Value, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(JsonError::shape(format!(
            "input of {} bytes exceeds the {}-byte limit",
            text.len(),
            limits.max_bytes
        )));
    }
    let mut p =
        Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0, max_depth: limits.max_depth };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::parse("trailing characters", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    /// The input; strings and numbers are sliced out of it, so nothing is
    /// validated as UTF-8 a second time.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::parse(format!("expected `{}`", byte as char), self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(JsonError::parse(format!("unexpected `{}`", c as char), self.pos)),
            None => Err(JsonError::parse("unexpected end of input", self.pos)),
        }
    }

    /// Charges one nesting level; call on entering an array or object.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(JsonError::parse(
                format!("nesting deeper than {} levels", self.max_depth),
                self.pos,
            ));
        }
        Ok(())
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::parse(format!("expected `{word}`"), self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(JsonError::parse("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::parse("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next `"` or `\`
            // in one step. Both stop bytes are ASCII, so the run ends on a
            // character boundary of the input and the slice is valid `str`.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(JsonError::parse("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.parse_escape(&mut out)?,
            }
        }
    }

    /// Decodes one escape sequence; `self.pos` is on its backslash.
    fn parse_escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.parse_hex4()?;
                let c = if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: must pair with \uXXXX low.
                    if self.peek() != Some(b'\\') {
                        return Err(JsonError::parse("lone surrogate", self.pos));
                    }
                    self.pos += 1;
                    self.expect(b'u')?;
                    let low = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(JsonError::parse("bad low surrogate", self.pos));
                    }
                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00))
                } else {
                    char::from_u32(cp)
                };
                // parse_hex4 already advanced past the digits.
                let c = c.ok_or_else(|| JsonError::parse("invalid code point", self.pos))?;
                out.push(c);
                return Ok(());
            }
            _ => return Err(JsonError::parse("bad escape", self.pos)),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// Reads exactly four hex digits (no sign, no prefix).
    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(JsonError::parse("truncated \\u escape", self.pos));
        };
        let mut cp = 0;
        for &b in hex {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| JsonError::parse("bad \\u escape", self.pos))?;
            cp = cp << 4 | digit;
        }
        self.pos += 4;
        Ok(cp)
    }

    /// Advances over a run of ASCII digits and returns its length.
    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Scans the run of number-like bytes, then holds it to the RFC 8259
    /// grammar `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    /// Any violation is `bad number` at the number's first byte.
    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.skip_digits();
        let mut strict = int_digits == 1 || (int_digits > 1 && self.bytes[int_start] != b'0');
        if self.peek() == Some(b'.') {
            self.pos += 1;
            strict &= self.skip_digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            strict &= self.skip_digits() > 0;
        }
        let text = &self.text[start..self.pos];
        let bad = || JsonError::parse(format!("bad number `{text}`"), start);
        if !strict {
            return Err(bad());
        }
        text.parse::<f64>().map(Value::Number).map_err(|_| bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Value::Number(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Value::String("a\"b\\c\nd\te\u{8}\u{1f600}".into());
        let text = original.to_compact();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("\u{1f600}".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn numbers_round_trip() {
        for n in [0.0, 1.0, -1.0, 0.5, 1e-9, 123456789.25, 1e18, -2.25] {
            let text = Value::Number(n).to_compact();
            assert_eq!(parse(&text).unwrap().as_f64(), Some(n), "{text}");
        }
    }

    #[test]
    fn pretty_output_is_parseable_and_ordered() {
        let v = ObjectBuilder::new()
            .field("zeta", 1u32)
            .field("alpha", "first")
            .field("list", Value::Array(vec![Value::Bool(true), Value::Null]))
            .build();
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n"));
        // Insertion order preserved: zeta before alpha.
        assert!(pretty.find("zeta").unwrap() < pretty.find("alpha").unwrap());
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["{", "[1,", "tru", "{\"a\" 1}", "1 2", "{'a': 1}", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rate_table_round_trips() {
        let mut map = BTreeMap::new();
        map.insert(1024u32, 0.875);
        map.insert(8192, 0.96875);
        let v = map_u32_f64_to_value(&map);
        assert_eq!(value_to_map_u32_f64(&v).unwrap(), map);
    }

    #[test]
    fn depth_limit_rejects_instead_of_overflowing() {
        // A million unmatched brackets would overflow the stack of a naive
        // recursive parser; the limit turns it into an ordinary error.
        let hostile = "[".repeat(1_000_000);
        let err = parse(&hostile).expect_err("depth-bombed input is rejected");
        assert!(err.message.contains("nesting"), "{err}");

        let objects = "{\"a\":".repeat(1_000_000);
        assert!(parse(&objects).is_err(), "object depth bomb rejected");
    }

    #[test]
    fn depth_exactly_at_limit_parses() {
        let limits = ParseLimits { max_bytes: 1 << 20, max_depth: 8 };
        let ok = format!("{}1{}", "[".repeat(8), "]".repeat(8));
        assert!(parse_with_limits(&ok, limits).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(9), "]".repeat(9));
        assert!(parse_with_limits(&too_deep, limits).is_err());
    }

    #[test]
    fn size_limit_rejects_before_parsing() {
        let limits = ParseLimits { max_bytes: 16, max_depth: 128 };
        assert!(parse_with_limits("[1,2,3]", limits).is_ok());
        let err = parse_with_limits("\"0123456789abcdef0\"", limits).expect_err("too big");
        assert!(err.message.contains("exceeds"), "{err}");
    }

    #[test]
    fn scalars_cost_no_depth() {
        let limits = ParseLimits { max_bytes: 1 << 20, max_depth: 1 };
        // A wide but shallow array is fine at depth 1.
        let wide = format!("[{}]", vec!["0"; 1000].join(","));
        assert!(parse_with_limits(&wide, limits).is_ok());
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn i64_accessor_accepts_negatives_rejects_fractions() {
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("7").unwrap().as_i64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_i64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_i64(), None);
    }

    /// A seeded xorshift64* stream, so property failures replay exactly.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }
    }

    /// A random character from one of five classes: printable ASCII (with
    /// `"`, `\` and `/` over-weighted), ASCII control, and 2-, 3- and
    /// 4-byte UTF-8 (surrogate code points are not `char`s, so skipped).
    fn random_char(rng: &mut XorShift) -> char {
        loop {
            let cp = match rng.below(6) {
                0 => [u32::from(b'"'), u32::from(b'\\'), u32::from(b'/')][rng.below(3) as usize],
                1 => 0x20 + rng.below(0x5f),
                2 => rng.below(0x20),
                3 => 0x80 + rng.below(0x800 - 0x80),
                4 => 0x800 + rng.below(0x1_0000 - 0x800),
                _ => 0x1_0000 + rng.below(0x11_0000 - 0x1_0000),
            };
            if let Some(c) = char::from_u32(cp) {
                return c;
            }
        }
    }

    /// Encodes `s` as a JSON string literal choosing, per character and at
    /// random, among every legal spelling: raw, its short escape, `\uXXXX`
    /// in either hex case, or a surrogate pair for astral characters.
    fn random_encoding(s: &str, rng: &mut XorShift) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
            match (rng.below(3), short) {
                (0, _) if !must_escape => out.push(c),
                (1, Some(short)) => out.push_str(short),
                _ => {
                    let upper = rng.below(2) == 0;
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        let hex = if upper { format!("{unit:04X}") } else { format!("{unit:04x}") };
                        out.push_str("\\u");
                        out.push_str(&hex);
                    }
                }
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn string_decoding_round_trips_random_strings() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for case in 0..2000 {
            let len = rng.below(40) as usize;
            let s: String = (0..len).map(|_| random_char(&mut rng)).collect();
            let value = Value::String(s.clone());
            assert_eq!(parse(&value.to_compact()), Ok(value.clone()), "case {case}: {s:?}");
            let encoded = random_encoding(&s, &mut rng);
            assert_eq!(parse(&encoded), Ok(value), "case {case}: {encoded}");
        }
    }

    /// Malformed strings and the exact error each gets. The table was
    /// recorded from the character-at-a-time parser this one replaced, and
    /// must stay byte-identical.
    const MALFORMED_STRINGS: &[(&str, &str, usize)] = &[
        ("\"abc", "unterminated string", 4),
        ("{\"key", "unterminated string", 5),
        ("\"\u{e9}", "unterminated string", 3),
        ("\"ok\\u00e9", "unterminated string", 9),
        ("\"a\\x\"", "bad escape", 3),
        ("\"\\", "bad escape", 2),
        ("\"\\'\"", "bad escape", 2),
        ("\"\\u12", "truncated \\u escape", 3),
        ("\"\\u12\"", "truncated \\u escape", 3),
        ("\"\\u", "truncated \\u escape", 3),
        ("\"\\uZZZZ\"", "bad \\u escape", 3),
        ("\"\\u00g0\"", "bad \\u escape", 3),
        ("\"\\u00\u{e9}\"", "bad \\u escape", 3),
        ("\"\\ud83d\"", "lone surrogate", 7),
        ("\"\\ud83dx\"", "lone surrogate", 7),
        ("\"\\ud83d", "lone surrogate", 7),
        ("\"\\ud83d\\n\"", "expected `u`", 8),
        ("\"\\ud83d\\u0041\"", "bad low surrogate", 13),
        ("\"\\ud83d\\ud83d\"", "bad low surrogate", 13),
        ("\"\\ud83d\\u12\"", "truncated \\u escape", 9),
        ("\"\\ud83d\\uZZZZ\"", "bad \\u escape", 9),
        ("\"\\udc00\"", "invalid code point", 7),
        ("[\"a\", \"b\\q\"]", "bad escape", 9),
    ];

    #[test]
    fn malformed_strings_keep_their_errors() {
        for &(input, message, position) in MALFORMED_STRINGS {
            let err = parse(input).expect_err(input);
            assert_eq!(
                (err.message.as_str(), err.position),
                (message, Some(position)),
                "{input:?}"
            );
        }
    }

    #[test]
    fn four_mib_string_parses_in_linear_time() {
        // One string as large as a legal request body. A parser that
        // re-validates the rest of the input per character takes hours on
        // this in a debug build.
        let line = "int x; /* \u{e9}\u{4e2d}\u{1f600} */\n";
        let body = line.repeat((4 << 20) / line.len() + 1);
        let doc = Value::String(body.clone()).to_compact();
        assert!(doc.len() >= 4 << 20);
        let started = std::time::Instant::now();
        let parsed = parse(&doc).expect("parses");
        let elapsed = started.elapsed();
        assert_eq!(parsed.as_str(), Some(body.as_str()));
        assert!(elapsed < std::time::Duration::from_secs(10), "took {elapsed:?}");
    }

    #[test]
    fn hex_escape_requires_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#), Ok(Value::String("A\u{e9}".into())));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u0x41""#] {
            let err = parse(bad).expect_err(bad);
            assert_eq!((err.message.as_str(), err.position), ("bad \\u escape", Some(3)), "{bad}");
        }
        let err = parse(r#""\ud83d\u+c00""#).expect_err("signed low surrogate");
        assert_eq!((err.message.as_str(), err.position), ("bad \\u escape", Some(9)));
    }

    #[test]
    fn numbers_follow_rfc8259() {
        for (ok, n) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5e-3", -0.0005),
            ("1E+2", 100.0),
        ] {
            assert_eq!(parse(ok), Ok(Value::Number(n)), "{ok}");
        }
        for (bad, text, position) in [
            ("1.", "1.", 0),
            ("-.5", "-.5", 0),
            ("01", "01", 0),
            ("-01", "-01", 0),
            ("00.5", "00.5", 0),
            ("1.e5", "1.e5", 0),
            ("1e", "1e", 0),
            ("1e+", "1e+", 0),
            ("-", "-", 0),
            ("-e5", "-e5", 0),
            ("[1, 2.]", "2.", 4),
            ("{\"a\": 012}", "012", 6),
        ] {
            let err = parse(bad).expect_err(bad);
            let message = format!("bad number `{text}`");
            assert_eq!((err.message.as_str(), err.position), (message.as_str(), Some(position)));
        }
    }
}
