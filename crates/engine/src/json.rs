//! A minimal JSON reader/writer for the serving protocol.
//!
//! The container has no serde, so `gomq-serve` carries its own ~150-line
//! JSON layer: enough of RFC 8259 for one request object per line
//! (strings with escapes, arrays, numbers, booleans, null, nesting) and
//! an escaping string writer for responses.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; the protocol only uses small ints).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order irrelevant to the protocol).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut pos = 0usize;
    let v = parse_value(text, &mut pos)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(s, pos),
        Some(b'[') => parse_arr(s, pos),
        Some(b'"') => parse_string(s, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = read_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: combine with the following
                            // \uXXXX low surrogate into one astral-plane
                            // scalar; a lone surrogate becomes U+FFFD.
                            if b.get(*pos + 1..*pos + 3) == Some(b"\\u".as_slice()) {
                                let lo = read_hex4(b, *pos + 3)?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                    *pos += 6;
                                } else {
                                    out.push('\u{fffd}');
                                }
                            } else {
                                out.push('\u{fffd}');
                            }
                        } else {
                            // Lone low surrogates also land here and map
                            // to the replacement character.
                            out.push(char::from_u32(hi).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash at
                // once. The run starts after an ASCII byte and ends before
                // one, so it is a slice of the already valid input.
                let start = *pos;
                *pos += b[start..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(b.len() - start);
                out.push_str(&s[start..*pos]);
            }
        }
    }
}

/// Reads four hex digits starting at byte `at`.
fn read_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or("truncated \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".into())
}

fn parse_arr(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(s, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '{'
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(s, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(s, pos)?;
        out.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes) to `out`.
/// Runs of chars that need no escape are copied whole: every char that
/// does is ASCII, so the runs split `s` on char boundaries.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shape() {
        let j = parse(
            r#"{"ontology": "A sub B\nB sub C", "query": "C", "abox": "A(ada)", "id": "r1"}"#,
        )
        .unwrap();
        let Json::Obj(o) = j else {
            panic!("not an object")
        };
        assert_eq!(o["ontology"].as_str(), Some("A sub B\nB sub C"));
        assert_eq!(o["query"].as_str(), Some("C"));
        assert_eq!(o["id"].as_str(), Some("r1"));
    }

    #[test]
    fn parses_arrays_numbers_bools() {
        let j = parse(r#"{"aboxes": ["A(x)", "A(y)"], "n": 3, "flag": true, "z": null}"#).unwrap();
        let Json::Obj(o) = j else { panic!() };
        assert_eq!(o["aboxes"].as_arr().unwrap().len(), 2);
        assert_eq!(o["n"], Json::Num(3.0));
        assert_eq!(o["flag"], Json::Bool(true));
        assert_eq!(o["z"], Json::Null);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}é");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\u{1}é"));
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_scalars() {
        // U+1F600 encoded as the escaped surrogate pair D83D/DE00.
        let escaped_emoji = "\"\\ud83d\\ude00\"";
        assert_eq!(parse(escaped_emoji).unwrap().as_str(), Some("\u{1f600}"));
        // Mixed with surrounding text; D800/DF48 is U+10348.
        let escaped_hwair = "\"a\\ud800\\udf48b\"";
        assert_eq!(parse(escaped_hwair).unwrap().as_str(), Some("a\u{10348}b"));
        // Literal (unescaped) astral characters still pass through.
        assert_eq!(parse("\"\u{1f600}\"").unwrap().as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn astral_chars_roundtrip_through_write_str() {
        let original = "emoji \u{1f600} and gothic \u{10348}";
        let mut out = String::new();
        write_str(&mut out, original);
        assert_eq!(parse(&out).unwrap().as_str(), Some(original));
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        // Lone high surrogate at end of string.
        assert_eq!(parse("\"\\ud83d\"").unwrap().as_str(), Some("\u{fffd}"));
        // Lone high surrogate followed by an ordinary character.
        assert_eq!(parse("\"\\ud83dx\"").unwrap().as_str(), Some("\u{fffd}x"));
        // Lone low surrogate.
        assert_eq!(parse("\"\\ude00\"").unwrap().as_str(), Some("\u{fffd}"));
        // High surrogate followed by a non-surrogate escape: both kept.
        assert_eq!(
            parse("\"\\ud83d\\u0041\"").unwrap().as_str(),
            Some("\u{fffd}A")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse(r#"{"a": 1} x"#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    /// A long string alternating ASCII runs, multibyte runs, every
    /// escape and surrogate pairs, as JSON text and as the expected value.
    fn mixed_string(reps: usize) -> (String, String) {
        let pieces: [(&str, &str); 14] = [
            ("plain ascii run ", "plain ascii run "),
            ("é漢字😀 ", "é漢字😀 "),
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\n", "\n"),
            ("\\t", "\t"),
            ("\\r", "\r"),
            ("\\b", "\u{8}"),
            ("\\f", "\u{c}"),
            ("\\u0041\\u00e9", "Aé"),
            ("\\ud83d\\ude00", "\u{1f600}"),
            ("\\ud800\\udf48", "\u{10348}"),
            ("ß", "ß"),
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
        // The same string as an object value, and round-tripped.
        let obj = format!("{{\"abox\": {text}}}");
        let Json::Obj(o) = parse(&obj).unwrap() else {
            panic!("not an object")
        };
        assert_eq!(o["abox"].as_str(), Some(want.as_str()));
        let mut out = String::new();
        write_str(&mut out, &want);
        assert_eq!(parse(&out).unwrap().as_str(), Some(want.as_str()));
    }

    /// One char of a random string: mostly the chars JSON escapes or
    /// the runs between escapes must carry intact.
    fn gen_char(kind: usize, code: u32) -> char {
        const SPECIAL: [char; 16] = [
            '"',
            '\\',
            '/',
            '\n',
            '\t',
            '\r',
            '\u{8}',
            '\u{c}',
            '\u{0}',
            '\u{7f}',
            'u',
            'é',
            '漢',
            '\u{1f600}',
            '\u{10348}',
            '\u{2028}',
        ];
        match kind {
            0..=3 => SPECIAL[code as usize % SPECIAL.len()],
            4 => char::from_u32(code % 0x20).expect("a control char"),
            5 => char::from_u32(0x10000 + code % 0x100000).expect("an astral char"),
            6 => char::from_u32(code % 0x11_0000).unwrap_or('\u{fffd}'),
            _ => char::from(b' ' + (code % 95) as u8),
        }
    }

    /// `write_str` as it was before it copied runs: one char at a time.
    fn write_str_by_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(500))]

        #[test]
        fn written_strings_parse_back(
            chars in proptest::collection::vec((0usize..10, 0u32..0x11_0000), 0..40),
        ) {
            let original: String = chars.iter().map(|&(k, c)| gen_char(k, c)).collect();
            let mut out = String::new();
            write_str(&mut out, &original);
            let mut by_char = String::new();
            write_str_by_char(&mut by_char, &original);
            proptest::prop_assert_eq!(&out, &by_char);
            proptest::prop_assert_eq!(parse(&out), Ok(Json::Str(original.clone())));
            let obj = format!("{{\"abox\": {out}, \"aboxes\": [{out}, {out}]}}");
            let Ok(Json::Obj(o)) = parse(&obj) else {
                return Err(proptest::test_runner::TestCaseError::fail(obj));
            };
            proptest::prop_assert_eq!(o["abox"].as_str(), Some(original.as_str()));
            let arr = o["aboxes"].as_arr().expect("an array");
            proptest::prop_assert!(arr.iter().all(|v| v.as_str() == Some(original.as_str())));
        }
    }

    #[test]
    fn string_errors_are_unchanged() {
        for (input, err) in [
            ("\"abc", "unterminated string"),
            ("\"é漢", "unterminated string"),
            ("\"abc\\\"", "unterminated string"),
            ("\"a\\", "bad escape"),
            ("\"a\\x\"", "bad escape"),
            ("\"a\\U0041\"", "bad escape"),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"\\u12x\"", "bad \\u escape"),
            ("\"\\u12", "truncated \\u escape"),
            ("\"\\uzzzz\"", "bad \\u escape"),
            ("\"\\ud83d\\uzzzz\"", "bad \\u escape"),
            ("\"\\ud83d\\u12", "truncated \\u escape"),
        ] {
            assert_eq!(parse(input), Err(err.to_owned()), "input {input:?}");
        }
    }
}
