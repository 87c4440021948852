//! A minimal JSON reader for certificates.
//!
//! The verifier cannot depend on the engine's JSON module — the prover
//! and the checker must not share code, or a bug in the shared half
//! escapes the audit. This parser is deliberately small: it accepts
//! exactly the JSON subset certificates use (objects, arrays, strings
//! with `\uXXXX` escapes, integers, `true`/`false`/`null`) and rejects
//! everything else with a position-carrying error.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Certificates only use unsigned integers; the parser
    /// still accepts general JSON numbers and the accessors reject
    /// non-integers.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_owned(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one step; all three are ASCII, so
                    // the run ends on a UTF-8 boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_certificate_shapes() {
        let v = parse(r#"{"v": 1, "base": [[0, "R", "a", "b"]], "ok": true}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["v"].as_u64(), Some(1));
        let base = obj["base"].as_arr().unwrap();
        let fact = base[0].as_arr().unwrap();
        assert_eq!(fact[0].as_u64(), Some(0));
        assert_eq!(fact[1].as_str(), Some("R"));
        assert_eq!(obj["ok"], Value::Bool(true));
    }

    #[test]
    fn escapes_round_trip() {
        let v = parse(r#""a\né😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\né😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse(r#""\ud800""#).is_err());
        assert!(parse("1.5e").is_err());
    }

    #[test]
    fn integer_accessor_rejects_fractions() {
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
    }

    /// A long string alternating ASCII runs, multibyte runs, every
    /// escape and surrogate pairs, as JSON text and as the expected value.
    fn mixed_string(reps: usize) -> (String, String) {
        let pieces: [(&str, &str); 13] = [
            ("ascii run ", "ascii run "),
            ("é漢字😀 ", "é漢字😀 "),
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\b", "\u{8}"),
            ("\\f", "\u{c}"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\t", "\t"),
            ("\\u0041\\u00e9", "Aé"),
            ("\\ud83d\\ude00", "\u{1f600}"),
            ("\\ud800\\udf48", "\u{10348}"),
        ];
        let (mut text, mut want) = (String::from("\""), String::new());
        for i in 0..reps {
            let (raw, value) = pieces[i % pieces.len()];
            text.push_str(raw);
            want.push_str(value);
        }
        text.push('"');
        (text, want)
    }

    #[test]
    fn long_mixed_strings_parse_exactly() {
        let (text, want) = mixed_string(5_000);
        assert_eq!(parse(&text).unwrap().as_str(), Some(want.as_str()));
        let doc = format!("[{text}, {{{text}: 1}}]");
        let v = parse(&doc).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some(want.as_str()));
        assert!(items[1].as_obj().unwrap().contains_key(&want));
    }

    #[test]
    fn string_errors_are_unchanged() {
        let err = |msg: &str, at: usize| {
            Err(ParseError {
                msg: msg.to_owned(),
                at,
            })
        };
        for (input, want) in [
            ("\"abc", err("unterminated string", 4)),
            ("\"é漢", err("unterminated string", 6)),
            ("\"ab\ncd\"", err("raw control character in string", 3)),
            ("\"é\u{1}\"", err("raw control character in string", 3)),
            ("\"\u{1f}\"", err("raw control character in string", 1)),
            ("\"a\\", err("bad escape", 3)),
            ("\"a\\x\"", err("bad escape", 3)),
            ("\"\\u12\"", err("truncated \\u escape", 3)),
            ("\"\\u12x\"", err("bad \\u escape", 3)),
            ("\"\\u12", err("truncated \\u escape", 3)),
            ("\"\\uzzzz\"", err("bad \\u escape", 3)),
            ("\"\\ud800\"", err("lone high surrogate", 7)),
            ("\"\\ud800x\"", err("lone high surrogate", 7)),
            ("\"\\ud800\\u0041\"", err("bad low surrogate", 13)),
            ("\"\\ud800\\uzzzz\"", err("bad \\u escape", 9)),
            ("\"\\ud800\\u12", err("truncated \\u escape", 9)),
            ("\"\\udc00\"", err("bad code point", 7)),
        ] {
            assert_eq!(parse(input), want, "input {input:?}");
        }
    }
}
