//! Minimal JSON helpers (no dependencies): the writing side shared by
//! the batch runner's JSON-lines stream and the bench harness's
//! `BENCH_*.json` reports, and a small reading side ([`Json::parse`])
//! for the `bftbcast serve` line protocol.

use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document (quotes,
/// backslashes, control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders a quoted JSON string.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Renders a `["a","b",...]` array of strings.
pub fn string_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| string(s)).collect();
    format!("[{}]", cells.join(","))
}

/// Renders a float as a JSON number (finite values only; non-finite
/// become `null`, which JSON has no float spelling for).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// An incremental `{...}` object writer preserving insertion order.
#[derive(Debug, Default, Clone)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Adds a pre-rendered JSON value under `key`.
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let rendered = string(value);
        self.raw(key, rendered)
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Adds a float field.
    pub fn f64(self, key: &str, value: f64) -> Self {
        let rendered = number(value);
        self.raw(key, rendered)
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A parsed JSON value. Numbers keep their source text so integers
/// round-trip exactly (no detour through `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a `u64`, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
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

    /// The value as an `f64`, if this is a (finite) number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok().filter(|x: &f64| x.is_finite()),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting. The parser recurses per level and reads
/// untrusted network input under `bftbcast serve`, so depth must be
/// bounded well below stack exhaustion.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let value = match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        };
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        raw.parse::<f64>()
            .map_err(|_| format!("bad number {raw:?} at byte {start}"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let text = std::str::from_utf8(slice).map_err(|_| "non-ascii \\u escape".to_string())?;
        let v = u16::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape {text:?} at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                let c = 0x10000
                                    + (u32::from(hi - 0xd800) << 10)
                                    + u32::from(lo - 0xdc00);
                                char::from_u32(c).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(u32::from(hi)).ok_or("unpaired surrogate")?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash as one slice: both are ASCII, so in a
                    // &str input the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]);
                    out.push_str(run.expect("utf8 input"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn object_renders_in_insertion_order() {
        let o = Object::new()
            .str("name", "f2")
            .u64("m", 59)
            .f64("coverage", 0.5)
            .bool("ok", true)
            .raw("probes", "[]");
        assert_eq!(
            o.render(),
            "{\"name\":\"f2\",\"m\":59,\"coverage\":0.5,\"ok\":true,\"probes\":[]}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(1.25), "1.25");
    }

    #[test]
    fn string_array_quotes_and_joins() {
        assert_eq!(
            string_array(&["a".into(), "b\"c".into()]),
            "[\"a\",\"b\\\"c\"]"
        );
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num("-1.5e3".into()));
        assert_eq!(
            Json::parse("[1, \"a\", []]").unwrap(),
            Json::Arr(vec![
                Json::Num("1".into()),
                Json::Str("a".into()),
                Json::Arr(vec![])
            ])
        );
        let obj = Json::parse("{\"cmd\": \"submit\", \"points\": 3}").unwrap();
        assert_eq!(obj.get("cmd").and_then(Json::as_str), Some("submit"));
        assert_eq!(obj.get("points").and_then(Json::as_u64), Some(3));
        assert_eq!(obj.get("absent"), None);
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        let big = u64::MAX;
        let doc = format!("{{\"key\":{big}}}");
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("key").and_then(Json::as_u64), Some(big));
    }

    #[test]
    fn string_escapes_round_trip_through_writer_and_reader() {
        for original in ["plain", "quo\"te", "tab\there", "uni £ 😀", "\u{1} ctl"] {
            let doc = string(original);
            match Json::parse(&doc).unwrap() {
                Json::Str(s) => assert_eq!(s, original),
                other => panic!("{other:?}"),
            }
        }
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(
            Json::parse("\"\\u0041\\ud83d\\ude00\"").unwrap(),
            Json::Str("A😀".into())
        );
    }

    #[test]
    fn long_mixed_strings_decode_exactly_in_one_pass() {
        // ~200k chars of 1-, 2-, 3- and 4-byte UTF-8 between escapes:
        // decoding copies unescaped runs whole, so this stays linear.
        let unit = "ascii £é €語 😀🦀 \"q\" \\ \n\t \u{1} ";
        let original = unit.repeat(200_000 / unit.chars().count() + 1);
        assert!(original.chars().count() >= 200_000);
        let doc = string(&original);
        match Json::parse(&doc).unwrap() {
            Json::Str(s) => assert!(s == original, "decoded string differs"),
            other => panic!("{other:?}"),
        }
        // Explicit \u escapes inside a long run decode in place.
        let doc = format!("\"{}\\u00e9{}\"", "語".repeat(1000), "x".repeat(1000));
        let expect = format!("{}é{}", "語".repeat(1000), "x".repeat(1000));
        assert_eq!(Json::parse(&doc).unwrap(), Json::Str(expect));
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // The parser reads untrusted network input under `serve`: a
        // 100k-deep array must be rejected, not abort the process.
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1x",
            "\"\\q\"",
            "\"\\ud800\"",
            "[] []",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nested_protocol_shapes_parse() {
        let line = "{\"ok\":true,\"job\":\"job-0\",\"rows\":[{\"x\":0}],\"err\":null}";
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("job").and_then(Json::as_str), Some("job-0"));
        assert_eq!(v.get("err"), Some(&Json::Null));
        match v.get("rows") {
            Some(Json::Arr(rows)) => {
                assert_eq!(rows[0].get("x").and_then(Json::as_u64), Some(0));
            }
            other => panic!("{other:?}"),
        }
    }
}
