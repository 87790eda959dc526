#![forbid(unsafe_code)]
//! Shared hand-rolled JSON reader/writer.
//!
//! The workspace is offline (no serde), so every JSON surface — the
//! `vdsms-lint --json` emitter and the robustness-floor parser in
//! `vdsms-workload` — goes through this one module so the reader and
//! writer cannot drift.
//!
//! Guarantees:
//! - Objects preserve key order (a `Vec`, not a map), so output is
//!   byte-stable across runs given the same input.
//! - The writer emits integers without a fractional part whenever the
//!   value is integral and exactly representable, so `3` round-trips as
//!   `3`, not `3.0`.
//! - `parse(write(v)) == v` for every finite value this module can
//!   produce.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document. Trailing non-whitespace is an
    /// error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor: an integer value.
    pub fn num(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Serialize compactly (no whitespace). Deterministic: object key
    /// order is preserved as built.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        out
    }

    /// Serialize with 2-space indentation and a space after `:`.
    /// Deterministic for the same value.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out
    }
}

/// Append `s` to `out` as a JSON string literal (quotes included).
/// Escapes `"` `\\`, the common control characters, and everything else
/// below 0x20 as `\u00XX`.
pub fn escape_into(s: &str, out: &mut String) {
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

/// `s` as a quoted, escaped JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::new();
    escape_into(s, &mut out);
    out
}

/// Format a number the way the writer does: integral values in the
/// exactly-representable range print without a fractional part.
pub fn format_num(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; null is the least-surprising spelling.
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_value(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => out.push_str(&format_num(*n)),
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Fast path: a run of plain bytes closed by a quote needs one
        // validation and one allocation, no per-character loop.
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' || b == b'\\' {
                break;
            }
            self.pos += 1;
        }
        if self.peek() == Some(b'"') {
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "invalid UTF-8")?;
            self.pos += 1;
            return Ok(run.to_string());
        }
        self.pos = start;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("unsupported escape '\\{}'", other as char))
                        }
                    }
                }
                Some(_) => {
                    // Consume a maximal run of plain bytes with a single
                    // UTF-8 validation. A multi-byte scalar can never
                    // contain a quote or backslash byte (continuation
                    // bytes are >= 0x80), so the byte-wise scan cannot
                    // split a character.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8")?;
                    out.push_str(run);
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Fast path: a short plain integer (seeds, counts, line/column
        // positions) converts digit-by-digit without the f64 grammar.
        let int_start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let next = self.peek();
        if self.pos > int_start
            && self.pos - int_start <= 15
            && !matches!(next, Some(b'.' | b'e' | b'E'))
        {
            let mut n = 0i64;
            for &b in &self.bytes[int_start..self.pos] {
                n = n * 10 + i64::from(b - b'0');
            }
            if start < int_start {
                n = -n;
            }
            return Ok(Json::Num(n as f64));
        }
        self.pos = start;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = match Json::parse(doc) {
            Ok(v) => v,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).and_then(|a| a[2].as_f64()),
            Some(-300.0)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ny")
        );
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn object_preserves_key_order() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap_or(Json::Null);
        match v {
            Json::Obj(fields) => {
                assert_eq!(fields[0].0, "z");
                assert_eq!(fields[1].0, "a");
            }
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn unicode_escape_decodes() {
        let v = Json::parse(r#""é""#).unwrap_or(Json::Null);
        assert_eq!(v.as_str(), Some("é"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn round_trips_the_committed_floor_shape() {
        let doc = r#"{
          "profiles": {
            "smoke": {
              "seed": 7,
              "floors": [
                {"attack": "speed-up", "strength": "medium", "detector": "seq",
                 "min_recall": 0.66, "min_precision": 0.9}
              ]
            }
          }
        }"#;
        let v = match Json::parse(doc) {
            Ok(v) => v,
            Err(e) => panic!("parse failed: {e}"),
        };
        let floors = v
            .get("profiles")
            .and_then(|p| p.get("smoke"))
            .and_then(|s| s.get("floors"))
            .and_then(Json::as_arr);
        let Some([first, ..]) = floors else { panic!("missing floors") };
        assert_eq!(first.get("attack").and_then(Json::as_str), Some("speed-up"));
        assert_eq!(first.get("min_recall").and_then(Json::as_f64), Some(0.66));
    }

    #[test]
    fn writer_is_byte_stable_and_round_trips() {
        let v = Json::Obj(vec![
            ("z".to_string(), Json::num(3)),
            ("a".to_string(), Json::Arr(vec![Json::Num(2.5), Json::str("x\n\"y")])),
            ("flag".to_string(), Json::Bool(true)),
            ("none".to_string(), Json::Null),
            ("empty".to_string(), Json::Obj(Vec::new())),
        ]);
        let compact = v.to_compact();
        assert_eq!(
            compact,
            r#"{"z":3,"a":[2.5,"x\n\"y"],"flag":true,"none":null,"empty":{}}"#
        );
        assert_eq!(Json::parse(&compact), Ok(v.clone()));
        let pretty = v.to_pretty();
        assert_eq!(Json::parse(&pretty), Ok(v));
        // Integral floats print without a fractional part.
        assert_eq!(Json::Num(3.0).to_compact(), "3");
        assert_eq!(Json::Num(-0.5).to_compact(), "-0.5");
    }

    #[test]
    fn pretty_layout_is_stable() {
        let v = Json::Obj(vec![(
            "items".to_string(),
            Json::Arr(vec![Json::num(1), Json::num(2)]),
        )]);
        assert_eq!(v.to_pretty(), "{\n  \"items\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn integer_helpers_reject_non_integers() {
        assert_eq!(Json::Num(3.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Num(42.0).as_usize(), Some(42));
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.as_bool(), None);
    }
}
