//! A minimal JSON reader for batch spec files.
//!
//! The workspace builds offline (no serde), and the batch front-end only
//! needs to *read* small hand-written spec files, so this is a strict
//! recursive-descent parser over the JSON grammar: objects, arrays,
//! strings (with the standard escapes), numbers, booleans, null. Output
//! rendering elsewhere in the workspace stays hand-formatted.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integers are exact to 2^53).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are unique (later duplicates win), order ignored.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as an `i64`, when it is a number with no fraction.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Parse failure: a message plus the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns [`JsonError`] with a byte offset on any syntax error.
///
/// # Examples
///
/// ```
/// use mrp_batch::parse_json;
///
/// let v = parse_json(r#"{"coeffs": [70, 66, 17]}"#)?;
/// let coeffs = v.as_object().unwrap()["coeffs"].as_array().unwrap();
/// assert_eq!(coeffs[0].as_i64(), Some(70));
/// # Ok::<(), mrp_batch::JsonError>(())
/// ```
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(value)
}

/// Every step consumes ASCII bytes or one whole `char`, so `pos` always
/// sits on a `char` boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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
            Err(self.err(&format!("expected `{}`", byte as char)))
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
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
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
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
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
                _ => return Err(self.err("expected `,` or `]` in array")),
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
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let code = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired:
                            // spec files are ASCII-leaning configuration.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peek saw a byte at a char boundary");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse_json(
            r#"{"filters": [{"name": "a", "coeffs": [1, -2, 3]}, {"coeffs": []}], "n": 2}"#,
        )
        .unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj["n"].as_i64(), Some(2));
        let filters = obj["filters"].as_array().unwrap();
        assert_eq!(filters.len(), 2);
        let first = filters[0].as_object().unwrap();
        assert_eq!(first["name"].as_str(), Some("a"));
        assert_eq!(first["coeffs"].as_array().unwrap()[1].as_i64(), Some(-2));
    }

    #[test]
    fn parses_scalars_and_escapes() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-3.5e2").unwrap(), JsonValue::Number(-350.0));
        assert_eq!(
            parse_json(r#""a\n\"b\u0041""#).unwrap(),
            JsonValue::String("a\n\"bA".to_string())
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "1 2",
            "\"unterminated",
            "{'a':1}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn multi_byte_strings_round_trip() {
        assert_eq!(
            parse_json("[\"héllo ✓ 𝄞\", \"\\u00e9\"]").unwrap(),
            JsonValue::Array(vec![
                JsonValue::String("héllo ✓ 𝄞".to_string()),
                JsonValue::String("é".to_string()),
            ])
        );
    }

    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u41""#,
            r#""\u004""#,
            r#""\u00é9""#,
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse_json(r#""\u004A""#).unwrap().as_str(), Some("J"));
    }

    #[test]
    fn parse_time_is_linear_in_string_length() {
        // 2 MiB of string characters, multi-byte ones included. On a
        // 2-vCPU host this parser takes 0.12 s in a debug build; one that
        // re-validated the rest of the input per character, as this one
        // once did, took 143 s in a release build. The bound sits more
        // than ten times away from both.
        let item = format!("\"{}é✓\"", "x".repeat(1019));
        let text = format!("[{}]", vec![item; 2048].join(","));
        assert!(text.len() >= 2 << 20);
        let start = std::time::Instant::now();
        let value = parse_json(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(value.as_array().map(<[_]>::len), Some(2048));
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn parses_what_the_obs_writer_writes() {
        // Characters from every class the writer treats apart: the
        // short-escaped specials, other C0 controls, DEL, plain ASCII and
        // multi-byte characters.
        const CLASSES: [&[char]; 5] = [
            &['"', '\\', '\n', '\r', '\t'],
            &['\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1b}', '\u{1f}'],
            &['\u{7f}'],
            &['a', 'Z', '0', ' ', '/', '~'],
            &['é', '✓', '𝄞', '\u{80}', '\u{ffff}'],
        ];
        mrp_ptest::run_cases("json_writer_round_trips", 256, |rng| {
            let len = rng.usize_in(0, 24);
            let s: String = (0..len)
                .map(|_| {
                    let class = CLASSES[rng.usize_in(0, CLASSES.len())];
                    class[rng.usize_in(0, class.len())]
                })
                .collect();
            let written = mrp_obs::json::string(&s);
            assert_eq!(
                parse_json(&written).unwrap().as_str(),
                Some(s.as_str()),
                "{written}"
            );
        });
    }

    #[test]
    fn float_is_not_an_i64() {
        assert_eq!(parse_json("1.5").unwrap().as_i64(), None);
        assert_eq!(parse_json("2.0").unwrap().as_i64(), Some(2));
    }
}
