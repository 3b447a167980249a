//! A dependency-free parser for the TOML subset used by `*.scn`
//! scenario files.
//!
//! The subset is deliberately small — exactly what declarative
//! scenarios need, nothing more:
//!
//! * `[section]` headers and `key = value` pairs (a document is a flat
//!   list of sections; keys before the first header belong to the
//!   top-level section `""`);
//! * values: quoted strings (`"0..8"`, with `\"` `\\` `\n` `\t`
//!   escapes), integers (full `u64` range — literals above `i64::MAX`
//!   parse as [`ScnValue::BigInt`]), floats, booleans, and single-line
//!   arrays of values (nesting allowed: `[[0, 5], [5, 1]]`);
//! * `#` comments anywhere outside a string.
//!
//! Not supported (and rejected with a line-numbered error rather than
//! silently misread): multi-line arrays, inline tables, arrays of
//! tables, dotted keys, datetimes, duplicate keys or sections.
//!
//! The parser stops at the value model; typing the document against the
//! scenario grammar (known sections, known keys, engine-specific
//! validation) happens in [`crate::scenario_file`].
//!
//! ```
//! use bftbcast::scn::{parse, ScnValue};
//!
//! let doc = parse(
//!     "engine = \"counting\"\n[topology]\nr = 4  # radio range\n",
//! )
//! .unwrap();
//! assert_eq!(
//!     doc.section("").unwrap().get("engine"),
//!     Some(&ScnValue::Str("counting".into()))
//! );
//! assert_eq!(
//!     doc.section("topology").unwrap().get("r"),
//!     Some(&ScnValue::Int(4))
//! );
//! ```

use core::fmt;

/// A parse error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScnError {
    /// 1-based line number of the offending text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScnError {}

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum ScnValue {
    /// A quoted string.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// An unsigned integer literal above `i64::MAX` (full-range `u64`
    /// fields — seeds, budgets — stay representable and lossless).
    BigInt(u64),
    /// A float literal (contains `.`, `e`, or `E`).
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A single-line `[ ... ]` array, possibly nested.
    Array(Vec<ScnValue>),
}

impl ScnValue {
    /// Short value-kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            ScnValue::Str(_) => "string",
            ScnValue::Int(_) | ScnValue::BigInt(_) => "integer",
            ScnValue::Float(_) => "float",
            ScnValue::Bool(_) => "boolean",
            ScnValue::Array(_) => "array",
        }
    }
}

/// One `[section]` with its key/value entries in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScnSection {
    /// Section name (`""` for keys before the first header).
    pub name: String,
    /// 1-based line of the header (0 for the top-level section).
    pub line: usize,
    /// `(key, value, line)` in file order.
    pub entries: Vec<(String, ScnValue, usize)>,
}

impl ScnSection {
    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&ScnValue> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| v)
    }

    /// The source line of a key (for error reporting).
    pub fn line_of(&self, key: &str) -> usize {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map_or(self.line, |&(_, _, line)| line)
    }
}

/// A parsed document: sections in file order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScnDoc {
    /// All sections, top-level (`""`) first when present.
    pub sections: Vec<ScnSection>,
}

impl ScnDoc {
    /// Looks a section up by name (`""` = top level).
    pub fn section(&self, name: &str) -> Option<&ScnSection> {
        self.sections.iter().find(|s| s.name == name)
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Strips a trailing `#` comment, respecting strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == '#' {
            return &line[..i];
        }
    }
    line
}

/// Parses one value over the text after `=`, by byte offset: every
/// token the grammar ends on is ASCII, so slices of the input serve as
/// words and number literals without copying them.
struct ValueParser<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> ValueParser<'a> {
    fn new(text: &'a str, line: usize) -> Self {
        ValueParser { text, pos: 0, line }
    }

    fn err(&self, message: impl Into<String>) -> ScnError {
        ScnError {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    /// Advances past the ASCII bytes matching `accept`, returning them.
    fn take_ascii(&mut self, accept: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .take_while(|&&b| accept(b))
            .count();
        self.pos += len;
        &self.text[start..self.pos]
    }

    fn value(&mut self) -> Result<ScnValue, ScnError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("expected a value")),
            Some('"') => self.string(),
            Some('[') => self.array(),
            Some(c) if c.is_ascii_alphabetic() => self.boolean(),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<ScnValue, ScnError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go.
            let run = self.take_ascii(|b| b != b'"' && b != b'\\' && b.is_ascii());
            out.push_str(run);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some('"') => {
                    self.pos += 1;
                    return Ok(ScnValue::Str(out));
                }
                Some('\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    out.push(match esc {
                        '"' => '"',
                        '\\' => '\\',
                        'n' => '\n',
                        't' => '\t',
                        other => return Err(self.err(format!("unknown escape \\{other}"))),
                    });
                    self.pos += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<ScnValue, ScnError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.err("unterminated array (arrays are single-line)")),
                // ']' here also accepts one trailing comma, as in TOML.
                Some(']') => {
                    self.pos += 1;
                    return Ok(ScnValue::Array(items));
                }
                Some(',') => return Err(self.err("unexpected ',' in array")),
                Some(_) => {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => {
                            self.pos += 1;
                        }
                        Some(']') | None => {}
                        Some(other) => {
                            return Err(
                                self.err(format!("expected ',' or ']' in array, found {other:?}"))
                            )
                        }
                    }
                }
            }
        }
    }

    fn boolean(&mut self) -> Result<ScnValue, ScnError> {
        match self.take_ascii(|b| b.is_ascii_alphabetic()) {
            "true" => Ok(ScnValue::Bool(true)),
            "false" => Ok(ScnValue::Bool(false)),
            other => Err(self.err(format!(
                "unknown literal {other:?} (strings must be quoted)"
            ))),
        }
    }

    fn number(&mut self) -> Result<ScnValue, ScnError> {
        let raw = self.take_ascii(|b| b.is_ascii_digit() || b"+-._eE".contains(&b));
        let clean = if raw.contains('_') {
            std::borrow::Cow::Owned(raw.replace('_', ""))
        } else {
            std::borrow::Cow::Borrowed(raw)
        };
        if clean.is_empty() {
            return Err(self.err(format!(
                "expected a value, found {:?}",
                self.peek().map(String::from).unwrap_or_default()
            )));
        }
        if clean.contains(['.', 'e', 'E']) {
            clean
                .parse::<f64>()
                .map(ScnValue::Float)
                .map_err(|_| self.err(format!("invalid float {raw:?}")))
        } else if let Ok(i) = clean.parse::<i64>() {
            Ok(ScnValue::Int(i))
        } else {
            // Above i64::MAX: still a valid u64 literal.
            clean
                .parse::<u64>()
                .map(ScnValue::BigInt)
                .map_err(|_| self.err(format!("invalid integer {raw:?}")))
        }
    }

    fn finish(&mut self) -> Result<(), ScnError> {
        self.skip_ws();
        match self.peek() {
            None => Ok(()),
            Some(c) => Err(self.err(format!("trailing text starting at {c:?} after value"))),
        }
    }
}

/// Parses a scenario document.
///
/// # Errors
///
/// [`ScnError`] with the 1-based line of the first offending construct.
pub fn parse(text: &str) -> Result<ScnDoc, ScnError> {
    let mut doc = ScnDoc::default();
    let mut current: Option<usize> = None; // index into doc.sections

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest.strip_suffix(']').ok_or(ScnError {
                line: line_no,
                message: "section header missing closing ']'".into(),
            })?;
            let name = name.trim();
            if name.is_empty() || !name.chars().all(is_ident_char) {
                return Err(ScnError {
                    line: line_no,
                    message: format!("invalid section name {name:?}"),
                });
            }
            if doc.section(name).is_some() {
                return Err(ScnError {
                    line: line_no,
                    message: format!("duplicate section [{name}]"),
                });
            }
            doc.sections.push(ScnSection {
                name: name.to_string(),
                line: line_no,
                entries: Vec::new(),
            });
            current = Some(doc.sections.len() - 1);
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(ScnError {
                line: line_no,
                message: format!("expected `key = value` or `[section]`, found {line:?}"),
            });
        };
        let key = line[..eq].trim();
        if key.is_empty() || !key.chars().all(is_ident_char) {
            return Err(ScnError {
                line: line_no,
                message: format!("invalid key {key:?}"),
            });
        }
        let mut parser = ValueParser::new(&line[eq + 1..], line_no);
        let value = parser.value()?;
        parser.finish()?;

        let section_idx = match current {
            Some(i) => i,
            None => {
                // Implicit top-level section.
                if doc.section("").is_none() {
                    doc.sections.insert(
                        0,
                        ScnSection {
                            name: String::new(),
                            line: 0,
                            entries: Vec::new(),
                        },
                    );
                }
                0
            }
        };
        let section = &mut doc.sections[section_idx];
        if section.get(key).is_some() {
            return Err(ScnError {
                line: line_no,
                message: format!("duplicate key {key:?} in section [{}]", section.name),
            });
        }
        section.entries.push((key.to_string(), value, line_no));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_value_kinds() {
        let doc = parse(concat!(
            "name = \"f2\"\n",
            "threshold = 1.5\n",
            "enabled = true\n",
            "\n",
            "[topology]  # the torus\n",
            "r = 4\n",
            "big = 1_000\n",
            "[probes]\n",
            "nodes = [[0, 5], [5, 1]]\n",
        ))
        .unwrap();
        let top = doc.section("").unwrap();
        assert_eq!(top.get("name"), Some(&ScnValue::Str("f2".into())));
        assert_eq!(top.get("threshold"), Some(&ScnValue::Float(1.5)));
        assert_eq!(top.get("enabled"), Some(&ScnValue::Bool(true)));
        let topo = doc.section("topology").unwrap();
        assert_eq!(topo.get("r"), Some(&ScnValue::Int(4)));
        assert_eq!(topo.get("big"), Some(&ScnValue::Int(1000)));
        let probes = doc.section("probes").unwrap();
        assert_eq!(
            probes.get("nodes"),
            Some(&ScnValue::Array(vec![
                ScnValue::Array(vec![ScnValue::Int(0), ScnValue::Int(5)]),
                ScnValue::Array(vec![ScnValue::Int(5), ScnValue::Int(1)]),
            ]))
        );
    }

    #[test]
    fn comments_and_strings_interact_correctly() {
        let doc = parse("s = \"a # not a comment\" # a real one\n").unwrap();
        assert_eq!(
            doc.section("").unwrap().get("s"),
            Some(&ScnValue::Str("a # not a comment".into()))
        );
    }

    #[test]
    fn string_escapes() {
        let doc = parse(r#"s = "a\"b\\c\nd""#).unwrap();
        assert_eq!(
            doc.section("").unwrap().get("s"),
            Some(&ScnValue::Str("a\"b\\c\nd".into()))
        );
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (text, line, needle) in [
            ("a = 1\nbogus line\n", 2, "key = value"),
            ("[unclosed\n", 1, "closing"),
            ("a = \n", 1, "expected a value"),
            ("a = 1 2\n", 1, "trailing text"),
            ("a = \"open\n", 1, "unterminated string"),
            ("a = [1, 2\n", 1, "unterminated array"),
            ("a = maybe\n", 1, "unknown literal"),
            ("a = 1..5\n", 1, "invalid float"),
            ("1bad-key? = 2\n", 1, "invalid key"),
            ("[]\n", 1, "invalid section name"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}");
            assert!(
                err.message.contains(needle),
                "{text:?} gave {:?}",
                err.message
            );
        }
    }

    #[test]
    fn rejects_stray_commas_but_allows_one_trailing() {
        for text in ["a = [1,,2]\n", "a = [,1]\n", "a = [[0, 5],, [5, 1]]\n"] {
            let err = parse(text).unwrap_err();
            assert!(
                err.message.contains("unexpected ','"),
                "{text:?} gave {:?}",
                err.message
            );
        }
        let doc = parse("a = [1, 2,]\n").unwrap();
        assert_eq!(
            doc.section("").unwrap().get("a"),
            Some(&ScnValue::Array(vec![ScnValue::Int(1), ScnValue::Int(2)]))
        );
    }

    #[test]
    fn rejects_duplicates() {
        assert!(parse("a = 1\na = 2\n")
            .unwrap_err()
            .message
            .contains("duplicate key"));
        assert!(parse("[s]\n[s]\n")
            .unwrap_err()
            .message
            .contains("duplicate section"));
    }

    #[test]
    fn negative_and_float_numbers() {
        let doc = parse("a = -3\nb = 0.25\nc = 1e3\n").unwrap();
        let top = doc.section("").unwrap();
        assert_eq!(top.get("a"), Some(&ScnValue::Int(-3)));
        assert_eq!(top.get("b"), Some(&ScnValue::Float(0.25)));
        assert_eq!(top.get("c"), Some(&ScnValue::Float(1000.0)));
    }

    #[test]
    fn integers_above_i64_parse_as_bigint() {
        let doc = parse(&format!("a = {}\nb = {}\n", u64::MAX, i64::MAX)).unwrap();
        let top = doc.section("").unwrap();
        assert_eq!(top.get("a"), Some(&ScnValue::BigInt(u64::MAX)));
        assert_eq!(top.get("b"), Some(&ScnValue::Int(i64::MAX)));
        // Still an error beyond u64.
        assert!(parse("a = 99999999999999999999999\n").is_err());
    }

    #[test]
    fn empty_document_is_fine() {
        assert_eq!(parse("").unwrap().sections.len(), 0);
        assert_eq!(parse("# only comments\n\n").unwrap().sections.len(), 0);
    }
}
