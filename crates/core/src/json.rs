//! Minimal JSON helpers (no dependencies): the writing side shared by
//! the batch runner's JSON-lines stream and the bench harness's
//! `BENCH_*.json` reports, and a small reading side ([`Json::parse`])
//! for the `bftbcast serve` line protocol.

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON escapes (quotes, backslashes,
/// control characters). Runs that need no escape are copied through
/// whole: every escaped character is ASCII, so a byte scan finds them
/// on char boundaries.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `s` to `out` as a quoted JSON string.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `x` as a JSON number, or `null` when it is not finite.
fn push_number(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Escapes a string for embedding in a JSON document (quotes,
/// backslashes, control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Renders a quoted JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Renders a `["a","b",...]` array of strings.
pub fn string_array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(&mut out, item);
    }
    out.push(']');
    out
}

/// Renders a float as a JSON number (finite values only; non-finite
/// become `null`, which JSON has no float spelling for).
pub fn number(x: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, x);
    out
}

/// An incremental `{...}` object writer preserving insertion order.
///
/// Every field is appended to one buffer as it is added; nested
/// objects and arrays of objects ([`Object::object`],
/// [`Object::objects`]) continue in the same buffer, and
/// [`Object::extend`] / [`Object::finish`] let a caller stream many
/// objects into one output string.
#[derive(Debug, Clone)]
pub struct Object {
    /// The rendered text so far: everything but the closing brace.
    buf: String,
    /// No field has been written yet (so the next one takes no comma).
    empty: bool,
}

impl Default for Object {
    fn default() -> Self {
        Object::new()
    }
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::extend(String::new())
    }

    /// An empty object opened at the end of `buf`; [`Object::finish`]
    /// hands the buffer back with the object closed.
    pub fn extend(mut buf: String) -> Self {
        buf.push('{');
        Object { buf, empty: true }
    }

    /// Writes `,"key":` (no comma before the first field).
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.buf.push(',');
        }
        push_string(&mut self.buf, key);
        self.buf.push(':');
        &mut self.buf
    }

    /// Adds a pre-rendered JSON value under `key`.
    pub fn raw(mut self, key: &str, value: impl AsRef<str>) -> Self {
        self.key(key).push_str(value.as_ref());
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        push_string(self.key(key), value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds a float field.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        push_number(self.key(key), value);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a `[a,b,...]` array of unsigned integers.
    pub fn u64s(mut self, key: &str, values: impl IntoIterator<Item = u64>) -> Self {
        let buf = self.key(key);
        buf.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let _ = write!(buf, "{v}");
        }
        buf.push(']');
        self
    }

    /// Adds a nested object whose fields `body` writes.
    pub fn object(mut self, key: &str, body: impl FnOnce(Object) -> Object) -> Self {
        let buf = std::mem::take(self.key(key));
        self.buf = body(Object::extend(buf)).finish();
        self
    }

    /// Adds an array with one object per item, its fields written by
    /// `each`.
    pub fn objects<T>(
        mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(Object, T) -> Object,
    ) -> Self {
        let mut buf = std::mem::take(self.key(key));
        buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            buf = each(Object::extend(buf), item).finish();
        }
        buf.push(']');
        self.buf = buf;
        self
    }

    /// Closes the object and returns the buffer holding it.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        self.clone().finish()
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

    /// Rendered bytes pinned from the `Vec<(String, String)>` writer
    /// this one replaced: escapes in keys and values (control
    /// characters below 0x20 only — DEL and non-ASCII copy through),
    /// every number spelling, non-finite floats as `null`, the empty
    /// object, and nested objects.
    #[test]
    fn object_output_is_pinned_byte_for_byte() {
        let o = Object::new()
            .str("q", "a\"b\\c\nd\te\rf\u{1}g\u{1f}h\u{7f}")
            .str("uni", "é€😀")
            .str("k\"ey\n", "v")
            .f64("nan", f64::NAN)
            .f64("inf", f64::INFINITY)
            .f64("ninf", f64::NEG_INFINITY)
            .f64("x", 0.1)
            .f64("neg", -2.5e-8)
            .f64("big", 1e21)
            .u64("max", u64::MAX)
            .bool("t", true)
            .bool("f", false)
            .raw("empty", Object::new().render())
            .raw(
                "nested",
                Object::new()
                    .u64("a", 1)
                    .raw("b", Object::new().str("c", "d").render())
                    .render(),
            )
            .raw("arr", "[1,2]");
        let pinned = "{\"q\":\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh\u{7f}\",\"uni\":\"é€😀\",\"k\\\"ey\\n\":\"v\",\"nan\":null,\"inf\":null,\"ninf\":null,\"x\":0.1,\"neg\":-0.000000025,\"big\":1000000000000000000000,\"max\":18446744073709551615,\"t\":true,\"f\":false,\"empty\":{},\"nested\":{\"a\":1,\"b\":{\"c\":\"d\"}},\"arr\":[1,2]}";
        assert_eq!(o.render(), pinned);
        assert_eq!(Object::new().render(), "{}");
        assert_eq!(Object::default().render(), "{}");
    }

    /// The streaming forms write the same bytes as rendering nested
    /// objects and splicing them in with `raw`.
    #[test]
    fn nested_writers_match_raw_splicing() {
        let streamed = Object::new()
            .str("s", "x")
            .object("o", |o| o.u64("a", 1).object("e", |e| e))
            .objects("l", [1u64, 2], |o, v| o.u64("v", v))
            .objects("none", std::iter::empty::<u64>(), |o, v| o.u64("v", v))
            .u64s("n", [0, 7, u64::MAX])
            .u64s("z", [])
            .render();
        let spliced = Object::new()
            .str("s", "x")
            .raw("o", "{\"a\":1,\"e\":{}}")
            .raw("l", "[{\"v\":1},{\"v\":2}]")
            .raw("none", "[]")
            .raw("n", "[0,7,18446744073709551615]")
            .raw("z", "[]")
            .render();
        assert_eq!(streamed, spliced);
        let two = Object::extend(Object::new().u64("a", 1).finish()).finish();
        assert_eq!(two, "{\"a\":1}{}", "extend appends after existing text");
    }

    #[test]
    fn escapes_pass_non_ascii_runs_through_whole() {
        assert_eq!(escape("é€😀 plain"), "é€😀 plain");
        assert_eq!(escape("€\"€"), "€\\\"€");
        assert_eq!(escape(""), "");
        assert_eq!(string("\u{0}"), "\"\\u0000\"");
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
