//! A minimal JSON value type with a hand-rolled parser and serializer.
//!
//! The build image has no registry access (see ROADMAP "vendored shims"),
//! so the wire format is implemented here rather than pulled from serde:
//! exactly the subset the server's endpoints need — objects, arrays,
//! strings, numbers, booleans, null — with strict parsing (trailing
//! garbage, unterminated input, and lone surrogates are errors) and
//! bounded recursion depth against hostile nesting.

use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`]. Real requests are
/// tiny flat objects; deeper nesting is only ever hostile input.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (no deduplication: last key wins on
    /// lookup of duplicate keys, matching common parser behavior).
    Obj(Vec<(String, Json)>),
}

/// A parse error with the byte offset where it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
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

impl Json {
    /// A string value (convenience constructor).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value from an unsigned counter. Counters in this codebase
    /// (generations, cache hits, latency micros) stay far below 2^53, the
    /// exact-integer range of a JSON double.
    pub fn from_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Parses `text` as a single JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object field lookup (last occurrence wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Serialization (compact, no insignificant whitespace). Integers in the
/// exact-double range print without a fractional part.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a quoted JSON string literal. Every byte that needs an
/// escape is ASCII (`"`, `\`, or a control byte below 0x20), so the text
/// between two of them is copied whole in one `write_str`.
pub(crate) fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_char('"')?;
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let code: [u8; 6];
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..0x20 => {
                let (hi, lo) = (HEX[usize::from(byte >> 4)], HEX[usize::from(byte & 0xf)]);
                code = [b'\\', b'u', b'0', b'0', hi, lo];
                std::str::from_utf8(&code).expect("ascii escape")
            }
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        out.write_str(escape)?;
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: a \uXXXX low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.err("lone low surrogate"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.err("unescaped control character"));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte whole. Those are all ASCII, so both
                    // ends of the run are char boundaries of the input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Reads exactly four hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let unit = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_flat_request_object() {
        let j = Json::parse(r#"{"query": "ans(x) :- R(x,y)", "threads": 4, "ok": true}"#)
            .expect("parses");
        assert_eq!(
            j.get("query").and_then(Json::as_str),
            Some("ans(x) :- R(x,y)")
        );
        assert_eq!(j.get("threads").and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"a":[1,2.5,"x",null,false],"b":{"c":"é · \"q\""}}"#;
        let j = Json::parse(text).expect("parses");
        let reparsed = Json::parse(&j.to_string()).expect("reparses");
        assert_eq!(j, reparsed);
    }

    #[test]
    fn escapes_serialize_and_parse() {
        let j = Json::str("line\nwith \"quotes\" and \\ tab\t");
        let back = Json::parse(&j.to_string()).expect("parses");
        assert_eq!(j, back);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let j = Json::parse(r#""🦀""#).expect("parses");
        assert_eq!(j.as_str(), Some("🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\udd80""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "tru",
            "{} extra",
            "\"unterminated",
            "{\"a\": 0x1}",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should not parse");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from_u64(1234).to_string(), "1234");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let j = Json::parse(r#"{"k": 1, "k": 2}"#).expect("parses");
        assert_eq!(j.get("k").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn long_non_ascii_strings_parse_in_linear_time() {
        // 128Ki two-byte `·` characters: 256 KiB of string body.
        let text = "·".repeat(128 * 1024);
        let body = Json::Obj(vec![("query".to_owned(), Json::Str(text.clone()))]).to_string();
        assert_eq!(body.len(), 256 * 1024 + r#"{"query":""}"#.len());
        let started = std::time::Instant::now();
        let parsed = Json::parse(&body).expect("parses");
        assert_eq!(
            parsed.get("query").and_then(Json::as_str),
            Some(text.as_str())
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "parse took {:?}",
            started.elapsed()
        );
    }

    /// The escaper as it was written before run copying: one formatter
    /// call per character. The reference the byte escaper must match.
    fn escaped_per_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push_str(&format!("{c}")),
            }
        }
        out.push('"');
        out
    }

    /// A string of `len` characters drawn mostly from the ones escaping
    /// treats specially, seeded by `seed`.
    fn tricky_string(seed: u64, len: usize) -> String {
        const PICKS: [char; 12] = [
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', '·', '🦀', 'a', ' ',
        ];
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..len)
            .map(|_| {
                let roll = next();
                match roll % 4 {
                    // Any scalar value, astral planes included.
                    0 => char::from_u32((roll >> 8) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                    1 => char::from_u32((roll >> 8) as u32 % 0x20).expect("control"),
                    _ => PICKS[(roll >> 8) as usize % PICKS.len()],
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn byte_escaper_matches_per_char_escaping(seed in 0u64..u64::MAX, len in 0usize..48) {
            let s = tricky_string(seed, len);
            let expected = escaped_per_char(&s);
            prop_assert_eq!(Json::Str(s.clone()).to_string(), expected.clone());
            let mut direct = String::new();
            write_escaped(&mut direct, &s).expect("writing to a String cannot fail");
            prop_assert_eq!(direct, expected);
            prop_assert_eq!(Json::parse(&Json::Str(s.clone()).to_string()).expect("parses"), Json::Str(s));
        }
    }
}
