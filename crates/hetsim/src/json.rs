//! A minimal JSON reader for validating hand-rolled exports.
//!
//! The workspace writes JSON by hand (the Chrome `trace_event` exporter in
//! [`crate::trace`], the benchmark reports) and has no external JSON
//! dependency, so nothing ever *read back* those documents to prove they
//! parse. This module is that reader: a small, strict, recursive-descent
//! parser producing a [`JsonValue`] tree, used by the trace-exporter tests
//! and the `simcheck` trace-well-formedness invariant. It is a validator,
//! not a performance-oriented deserialiser.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like browsers do).
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are kept sorted; duplicate keys are a parse error.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Why a document failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document. Trailing content (other than
/// whitespace) is an error, as are duplicate object keys, unescaped control
/// characters, and non-finite numbers (which JSON cannot represent).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:#04x}", c))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(JsonError {
                    at: key_at,
                    msg: format!("duplicate key {key:?}"),
                });
            }
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

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
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
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // exporters; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate in \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // A run of plain characters, up to the next quote,
                    // backslash or control byte. Those are all ASCII, so the
                    // run starts and ends on char boundaries of the input,
                    // which is already valid UTF-8.
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number {text:?}")))?;
        if !n.is_finite() {
            return Err(self.err(format!("number {text:?} overflows f64")));
        }
        Ok(JsonValue::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Number(-1500.0));
        assert_eq!(
            parse(r#""a\nbA""#).unwrap(),
            JsonValue::String("a\nbA".into())
        );
        let doc = parse(r#"{"a": [1, 2, {"b": false}], "c": "d"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(JsonValue::as_str), Some("d"));
        assert_eq!(doc.get("a").and_then(JsonValue::as_array).unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":1,}", "{\"a\":1 \"b\":2}", "01x", "\"\x01\"",
            "{\"a\":1}{", "nul", "\"unterminated", "{\"dup\":1,\"dup\":2}", "1e999",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn roundtrips_exporter_style_documents() {
        let doc = parse(
            r#"{"traceEvents":[{"name":"compute","cat":"x","ph":"X","pid":0,"tid":3,"ts":1.25,"dur":0.5,"args":{"bytes":1024}}],"displayTimeUnit":"ms"}"#,
        )
        .unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events[0].get("tid").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn multi_byte_characters_survive_next_to_escapes() {
        let doc = parse(r#"{"é€": "a\"é\\€\n𝄞\u00e9z", "𝄞": ["ü", "\u20ac"]}"#).unwrap();
        assert_eq!(
            doc.get("é€").and_then(JsonValue::as_str),
            Some("a\"é\\€\n𝄞éz")
        );
        let arr = doc.get("𝄞").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_str(), Some("ü"));
        assert_eq!(arr[1].as_str(), Some("€"));
        // A control character after a multi-byte one is still refused, at
        // its own byte offset.
        let err = parse("\"é\u{1}\"").unwrap_err();
        assert_eq!(err.at, 3);
    }

    #[test]
    fn escapes_that_encode_no_scalar_value_are_rejected() {
        // Raw invalid UTF-8 cannot reach the parser (it takes `&str`); an
        // escape is the only way to name a non-scalar, and it is refused.
        for bad in [
            r#""\ud800""#,
            r#""\udfff""#,
            r#""\u00g1""#,
            r#""\u12""#,
            r#""\x41""#,
            "\"\\",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_a_multi_mebibyte_trace_document() {
        let mut text = String::from(r#"{"traceEvents":["#);
        let events = 20_000;
        for i in 0..events {
            if i > 0 {
                text.push(',');
            }
            text.push_str(&format!(
                r#"{{"name":"send→{i} \"é\"","cat":"p2p","ph":"X","pid":0,"tid":{},"ts":{}.5,"dur":0.25,"args":{{"bytes":{},"peer":"rank-{}"}}}}"#,
                i % 16,
                i,
                i * 8,
                (i + 1) % 16
            ));
        }
        text.push_str(r#"],"displayTimeUnit":"ms"}"#);
        assert!(text.len() > 2 << 20, "document is {} bytes", text.len());
        let doc = parse(&text).unwrap();
        let list = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(list.len(), events);
        assert_eq!(
            list[events - 1].get("name").and_then(JsonValue::as_str),
            Some(format!("send→{} \"é\"", events - 1).as_str())
        );
    }
}
