//! A minimal JSON value type with a writer and a recursive-descent
//! parser — just enough for the bench reports to be machine-readable and
//! round-trippable without an external serialization crate.
//!
//! Numbers are stored as `f64` (like JavaScript); object member order is
//! preserved so that write → parse → write is byte-identical for the
//! documents this workspace produces.

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document, requiring the entire input to be consumed.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing data after document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
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
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
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

fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional degradation.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(f, "{}", n as i64)
    } else {
        write!(f, "{n}")
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Unescaped runs go out as one `write_str` each: a long Java body
    // is a handful of runs between its quotes and newlines, not one
    // write per char. Every escaped char is ASCII, so scanning bytes
    // never splits a multi-byte char.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= b' ' && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[run..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            b => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected '{}'", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'-') | Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(JsonError::at(
            *pos,
            format!("unexpected byte '{}'", c as char),
        )),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, format!("expected '{word}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at(start, "invalid number bytes"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::at(start, format!("invalid number '{text}'")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::at(*pos, "invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not needed for our reports;
                        // map unpaired surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // push. Both are ASCII, so the run ends on a char
                // boundary of the `&str` input and is valid UTF-8.
                let run = bytes[*pos..]
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .map_or(bytes.len(), |n| *pos + n);
                let text = std::str::from_utf8(&bytes[*pos..run])
                    .map_err(|_| JsonError::at(*pos, "invalid UTF-8"))?;
                out.push_str(text);
                *pos = run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for src in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(src).unwrap();
            assert_eq!(v.to_string(), src);
        }
    }

    #[test]
    fn nested_document_roundtrips() {
        let src = r#"{"name":"t1","runs":[1,2,3],"meta":{"ok":true,"p95":12.5,"note":null}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        assert_eq!(v.get("name").and_then(Json::as_str), Some("t1"));
        assert_eq!(
            v.get("meta")
                .and_then(|m| m.get("p95"))
                .and_then(Json::as_f64),
            Some(12.5)
        );
    }

    /// The escaping rule, one char at a time: what the run-wise writer
    /// must reproduce byte for byte.
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
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn string_escapes() {
        let control: String = (0u8..0x20).map(char::from).collect();
        let cases = [
            "a\"b\\c\nd\te\u{1}".to_owned(),
            String::new(),
            "plain ascii".to_owned(),
            "héllo wörld — ✓ 𝄞 日本".to_owned(),
            "\"quoted\" \\ back\nline\r\ttab".to_owned(),
            control.clone(),
            format!("é{control}✓\"𝄞\\x\u{7f}"),
            "\"\"\\\\\n\n".to_owned(),
            "class A {\n    String s = \"ü\";\n}\n".repeat(40),
        ];
        for case in cases {
            let text = Json::Str(case.clone()).to_string();
            assert_eq!(text, escaped_per_char(&case));
            assert_eq!(Json::parse(&text).unwrap(), Json::Str(case.clone()));
            // As an object key, too.
            let obj = Json::Obj(vec![(case.clone(), Json::Str(case))]);
            assert_eq!(Json::parse(&obj.to_string()).unwrap(), obj);
        }
    }

    #[test]
    fn every_input_escape_decodes() {
        let v = Json::parse(r#""a\"b\\c\/d\ne\rf\tg\bh\fi\u00e9j\u2713""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c/d\ne\rf\tg\u{8}h\u{c}iéj✓".to_owned()));
    }

    #[test]
    fn string_error_offsets_are_stable() {
        assert_eq!(Json::parse("\"abc").unwrap_err().offset, 4);
        assert_eq!(Json::parse("\"é✓").unwrap_err().offset, 6);
        assert_eq!(Json::parse(r#""ab\q""#).unwrap_err().offset, 4);
        assert_eq!(Json::parse(r#""ab\u12""#).unwrap_err().offset, 4);
        assert_eq!(Json::parse("\"ab\\").unwrap_err().offset, 4);
    }

    #[test]
    fn a_one_mib_string_parses_in_one_pass() {
        // Re-validating the rest of the input per char made this
        // quadratic: minutes for 1 MiB.
        let body = "public void f() { int é = 1; }\t✓\n".repeat(1 << 15);
        assert!(body.len() >= 1 << 20);
        let text = Json::Str(body.clone()).to_string();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(body));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn large_u64_accessor() {
        assert_eq!(Json::parse("1234567").unwrap().as_u64(), Some(1234567));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }
}
