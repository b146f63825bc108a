//! A minimal JSON writer and parser, and the Chrome trace-event schema checker.
//!
//! The workspace is offline (no serde). [`JsonWriter`] writes every JSON
//! document it emits (Chrome traces, `BENCH_FIGURES.json`); a small
//! recursive-descent [`parse`] reads them back, nesting at most
//! [`MAX_DEPTH`] deep, and [`validate_chrome_trace`] is the gate both the
//! demos and the CI job run.

use std::collections::BTreeSet;
use std::fmt::{Arguments, Write as _};

/// A string, unsigned integer or shortest-form `f64` that [`JsonWriter`]
/// can write.
pub trait JsonScalar {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl JsonScalar for &str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            let _ = match c {
                '"' => out.write_str("\\\""),
                '\\' => out.write_str("\\\\"),
                '\n' => out.write_str("\\n"),
                '\r' => out.write_str("\\r"),
                '\t' => out.write_str("\\t"),
                c if c < ' ' => write!(out, "\\u{:04x}", c as u32),
                c => out.write_char(c),
            };
        }
        out.push('"');
    }
}

macro_rules! integer_scalar {
    ($($t:ty),*) => {$(
        impl JsonScalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_scalar!(u32, u64, usize);

impl JsonScalar for f64 {
    fn write_json(&self, out: &mut String) {
        number(out, *self, format_args!("{self}"));
    }
}

/// Appends `text`, the formatted `v`, or `null` if `v` is not finite: JSON
/// has no NaN or infinity.
fn number(out: &mut String, v: f64, text: Arguments) {
    let _ = if v.is_finite() {
        out.write_fmt(text)
    } else {
        out.write_str("null")
    };
}

/// Streams one JSON document in `BENCH_FIGURES.json`'s layout: the root
/// object and every array put one element per line, indented two spaces per
/// open container; every other object stays on one line as
/// `{"key": value, ...}`. Start from `JsonWriter::default()`.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Per open container, innermost last: one element per line or not.
    multiline: Vec<bool>,
    /// The innermost open container has no element yet.
    first: bool,
    /// A key was just written, so its value takes no separator.
    after_key: bool,
}

impl JsonWriter {
    /// Writes an array element, or the value of the key just written.
    pub fn value(&mut self, value: impl JsonScalar) -> &mut Self {
        self.separate();
        value.write_json(&mut self.out);
        self
    }

    /// Writes an object key; what is written next is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.value(key).out.push_str(": ");
        self.after_key = true;
        self
    }

    /// Writes one `"key": value` member.
    pub fn field(&mut self, key: &str, value: impl JsonScalar) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes `"key": v` with a fixed number of decimals (`{v:.N}`).
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        self.key(key).separate();
        number(&mut self.out, v, format_args!("{v:.decimals$}"));
        self
    }

    /// Writes `"key": v` in exponent form (`{v:.Ne}`, e.g. `1.569181e-2`).
    pub fn exp(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        self.key(key).separate();
        number(&mut self.out, v, format_args!("{v:.decimals$e}"));
        self
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container("{}", body)
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container("[]", body)
    }

    /// The finished document, newline-terminated.
    pub fn finish(self) -> String {
        self.out + "\n"
    }

    fn container(&mut self, brackets: &str, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        let multiline = brackets == "[]" || self.multiline.is_empty();
        self.multiline.push(multiline);
        self.out.push_str(&brackets[..1]);
        self.first = true;
        body(self);
        self.multiline.pop();
        if multiline && !self.first {
            self.newline();
        }
        // The container itself is an element of its parent.
        self.first = false;
        self.out.push_str(&brackets[1..]);
        self
    }

    /// Separates an element from the one before it: a comma unless it is
    /// the first, then a newline in a multiline container or a space.
    fn separate(&mut self) {
        let Some(&multiline) = self.multiline.last() else {
            return;
        };
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if !std::mem::take(&mut self.first) {
            self.out.push_str(if multiline { "," } else { ", " });
        }
        if multiline {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.multiline.len()));
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => {
                members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. What the
/// repo writes nests four deep at most; the parser recurses once per level,
/// so a document nested deeper is refused instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, nothing
/// else).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or of
/// the first container nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn parse_keyword(&mut self, keyword: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(keyword) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(format!("expected '{keyword}' at byte {}", self.pos))
        }
    }

    /// Parses `open item (, item)* close` or `open close`, reading each item
    /// with `item`. An error ends the whole parse, so only a container that
    /// closes gives its level back.
    fn parse_seq(
        &mut self,
        [open, close]: [u8; 2],
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.expect(open)?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    let close = char::from(close);
                    return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        let mut members = Vec::new();
        self.parse_seq(*b"{}", |p| {
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            members.push((key, p.parse_value()?));
            Ok(())
        })?;
        Ok(JsonValue::Object(members))
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        let mut items = Vec::new();
        self.parse_seq(*b"[]", |p| {
            items.push(p.parse_value()?);
            Ok(())
        })?;
        Ok(JsonValue::Array(items))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            // Surrogate pairs are not reassembled — trace
                            // content is ASCII-plus-BMP in practice; lone
                            // surrogates map to the replacement character.
                            out.push(char::from_u32(u32::from(code)).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "invalid escape '\\{}' at byte {}",
                                char::from(other),
                                self.pos - 1
                            ));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances by
                    // whole ASCII tokens or `len_utf8()`, so it is always a
                    // char boundary of the original `&str`.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let hex = (self.text.get(self.pos..end)).ok_or("truncated \\u escape")?;
        let code =
            u16::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape '{hex}'"))?;
        self.pos = end;
        Ok(code)
    }

    /// Reads the longest run of number characters; `f64`'s parser judges it.
    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

/// What the schema check counted in a valid trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Non-metadata events.
    pub events: usize,
    /// Distinct pids.
    pub processes: usize,
    /// Distinct (pid, tid) pairs among non-metadata events.
    pub tracks: usize,
}

/// Validates a Chrome trace-event document against the subset of the format
/// the repo emits and CI gates on:
///
/// * top level is an object with a `traceEvents` array;
/// * every event carries `ph` (string), `name` (string), `ts` (number),
///   `pid` (number) and `tid` (number);
/// * `"X"` events carry a non-negative `dur`;
/// * per `(pid, tid)` track, `ts` is monotone non-decreasing in array order
///   (metadata `"M"` records exempt).
///
/// # Errors
///
/// Returns a description of the first violation (or parse error).
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let root = parse(text)?;
    let events = root
        .get("traceEvents")
        .ok_or_else(|| "missing 'traceEvents'".to_string())?
        .as_array()
        .ok_or_else(|| "'traceEvents' is not an array".to_string())?;

    let mut processes: BTreeSet<u64> = BTreeSet::new();
    let mut tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut last_ts: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    let mut counted = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| format!("event {i}: missing '{key}'"))
        };
        let string = |key: &str| {
            field(key)?
                .as_str()
                .ok_or_else(|| format!("event {i}: '{key}' is not a string"))
        };
        let number = |key: &str| {
            field(key)?
                .as_number()
                .ok_or_else(|| format!("event {i}: '{key}' is not a number"))
        };
        let ph = string("ph")?;
        string("name")?;
        let ts = number("ts")?;
        let (pid, tid) = (number("pid")? as u64, number("tid")? as u64);
        if ph == "M" {
            continue;
        }
        if ph == "X" {
            let dur = number("dur")?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative dur {dur}"));
            }
        }
        if let Some(&prev) = last_ts.get(&(pid, tid)) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards on track ({pid}, {tid}) after {prev}"
                ));
            }
        }
        last_ts.insert((pid, tid), ts);
        processes.insert(pid);
        tracks.insert((pid, tid));
        counted += 1;
    }
    Ok(TraceCheck {
        events: counted,
        processes: processes.len(),
        tracks: tracks.len(),
    })
}

/// Collects the distinct names of non-metadata events in a trace document,
/// sorted. Smoke tests use this to assert a fault-injected run actually
/// recorded its fault/migration events ([`TraceCheck`] only counts).
///
/// # Errors
///
/// Returns the parse or schema error (the trace is validated first — names
/// from a malformed trace would be meaningless).
pub fn trace_event_names(text: &str) -> Result<Vec<String>, String> {
    validate_chrome_trace(text)?;
    let root = parse(text)?;
    let events = root.get("traceEvents").and_then(JsonValue::as_array);
    let names: BTreeSet<&str> = events
        .expect("validated above")
        .iter()
        .filter(|ev| ev.get("ph").and_then(JsonValue::as_str) != Some("M"))
        .filter_map(|ev| ev.get("name").and_then(JsonValue::as_str))
        .collect();
    Ok(names.into_iter().map(str::to_string).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Quotes, backslashes, multi-byte UTF-8 and (below) every control
    /// character: what the escaper must round-trip.
    const ALPHABET: [char; 8] = ['"', '\\', '/', 'a', ' ', 'é', '漢', '😀'];

    proptest! {
        #[test]
        fn written_documents_parse_back_bit_equal(
            codes in prop::collection::vec(0u32..40, 12),
            bits in any::<u64>(),
            int in any::<u64>(),
        ) {
            let text: String = codes
                .iter()
                .map(|&c| char::from_u32(c).filter(|c| *c < ' ').unwrap_or(ALPHABET[c as usize % 8]))
                .collect();
            let v = f64::from_bits(bits);
            prop_assume!(v.is_finite());
            let mut w = JsonWriter::default();
            w.object(|w| {
                w.key(&text).array(|w| {
                    w.value(text.as_str()).value(v).value(int);
                });
            });
            let doc = parse(&w.finish()).expect("the writer emits well-formed JSON");
            let row = doc.get(&text).and_then(JsonValue::as_array).expect("array");
            prop_assert_eq!(row[0].as_str(), Some(text.as_str()));
            prop_assert_eq!(row[1].as_number().map(f64::to_bits), Some(bits));
            prop_assert_eq!(row[2].as_number(), Some(int as f64));
        }
    }

    #[test]
    fn numbers_and_containers_take_their_documented_forms() {
        let mut w = JsonWriter::default();
        w.object(|w| {
            w.fixed("f", 15.2884, 3).exp("e", 0.01569181, 6);
            w.key("a").array(|_| {}).key("o").object(|w| {
                w.fixed("z", 1.0, 4).exp("y", 0.0, 6).field("s", 0.1);
            });
            // JSON has no NaN or infinity.
            w.field("n", f64::NAN).fixed("i", f64::INFINITY, 4);
            w.exp("m", f64::NEG_INFINITY, 6);
        });
        let expected = r#"{
  "f": 15.288,
  "e": 1.569181e-2,
  "a": [],
  "o": {"z": 1.0000, "y": 0.000000e0, "s": 0.1},
  "n": null,
  "i": null,
  "m": null
}
"#;
        assert_eq!(w.finish(), expected);
    }

    #[test]
    fn parses_scalars_strings_and_nesting() {
        let v =
            parse(r#"{"a": [1, -2.5, 1e3, true, false, null], "s": "x\n\"y\"A", "o": {"k": 2}}"#)
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 6);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_number(),
            Some(1000.0)
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\"A"));
        assert_eq!(v.get("o").unwrap().get("k").unwrap().as_number(), Some(2.0));
    }

    /// A well-formed trace for the garbage property to cut up and corrupt.
    const TRACE: &str = r#"{"traceEvents": [
        {"ph":"M","name":"process_name","pid":1,"tid":0,"ts":0,"args":{"name":"bts"}},
        {"ph":"X","name":"NTTU.0 \u00e9","pid":1,"tid":1,"ts":0.5,"dur":5e-3},
        {"ph":"i","name":"mark","pid":1,"tid":1,"ts":3,"s":"t","args":{"a":[1,[2,{"b":null}]]}},
        {"ph":"C","name":"queue","pid":1,"tid":2,"ts":0,"args":{"waiting":2}}
    ]}"#;

    /// `depth` arrays, each holding the next, around `inner`.
    fn nested(depth: usize, inner: &str) -> String {
        format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn garbage_is_refused_or_read_never_a_panic(
            cut in 0usize..400,
            noise in prop::collection::vec(any::<u64>(), 8),
            at in 0usize..400,
            depth in 1usize..4 * MAX_DEPTH,
        ) {
            let noise: Vec<u8> = noise.iter().flat_map(|w| w.to_le_bytes()).collect();
            let random = String::from_utf8_lossy(&noise).into_owned();
            let boundary = |i: usize| (0..=i.min(TRACE.len())).rev().find(|&b| TRACE.is_char_boundary(b)).unwrap();
            let (head, tail) = TRACE.split_at(boundary(at));
            let documents = [
                // A truncation is never a whole document.
                (TRACE[..boundary(cut)].to_string(), cut < TRACE.len()),
                // Random bytes alone, and spliced into the trace.
                (random.clone(), false),
                (format!("{head}{random}{tail}"), false),
                // Deep nesting, closed or not, and an overflowing number.
                (nested(depth, ""), depth > MAX_DEPTH),
                (nested(depth, "1e999"), depth > MAX_DEPTH),
                ("[".repeat(depth), true),
                ("{\"a\":".repeat(depth), true),
            ];
            for (text, must_fail) in documents {
                let parsed = parse(&text);
                prop_assert!(!must_fail || parsed.is_err(), "accepted {:?}", text);
                let checked = validate_chrome_trace(&text);
                prop_assert!(parsed.is_ok() || checked.is_err(), "validated unparsable {:?}", text);
            }
        }
    }

    #[test]
    fn nesting_is_capped_well_above_what_the_repo_writes() {
        assert!(parse(&nested(MAX_DEPTH, "1")).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1, "1")).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Deep enough to overflow a recursive parser's stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(validate_chrome_trace(&"[".repeat(200_000)).is_err());
        // Containers that close give their level back.
        let siblings = format!("[{}]", vec![nested(MAX_DEPTH - 1, ""); 3].join(","));
        assert!(parse(&siblings).is_ok());
        // An overflowing number reads as infinity, which no trace may carry
        // as a duration below zero.
        assert_eq!(parse("1e999").unwrap().as_number(), Some(f64::INFINITY));
        let negative =
            r#"{"traceEvents": [{"ph":"X","name":"a","pid":1,"tid":1,"ts":5,"dur":-1e999}]}"#;
        assert!(validate_chrome_trace(negative).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn validates_a_minimal_trace() {
        let text = r#"{"traceEvents": [
            {"ph":"M","name":"process_name","pid":1,"tid":0,"ts":0,"args":{"name":"bts"}},
            {"ph":"X","name":"op","pid":1,"tid":1,"ts":0,"dur":5},
            {"ph":"i","name":"mark","pid":1,"tid":1,"ts":3,"s":"t"},
            {"ph":"C","name":"queue","pid":1,"tid":2,"ts":0,"args":{"waiting":2}}
        ]}"#;
        let check = validate_chrome_trace(text).unwrap();
        assert_eq!(check.events, 3);
        assert_eq!(check.processes, 1);
        assert_eq!(check.tracks, 2);
    }

    #[test]
    fn event_names_are_collected_sorted_without_metadata() {
        let text = r#"{"traceEvents": [
            {"ph":"M","name":"process_name","pid":1,"tid":0,"ts":0,"args":{"name":"bts"}},
            {"ph":"X","name":"op","pid":1,"tid":1,"ts":0,"dur":5},
            {"ph":"i","name":"chip-failure","pid":1,"tid":1,"ts":3,"s":"t"},
            {"ph":"i","name":"migrate","pid":1,"tid":1,"ts":4,"s":"t"},
            {"ph":"i","name":"migrate","pid":1,"tid":1,"ts":5,"s":"t"}
        ]}"#;
        let names = trace_event_names(text).unwrap();
        assert_eq!(names, vec!["chip-failure", "migrate", "op"]);
        assert!(trace_event_names("[]").is_err(), "invalid traces refuse");
    }

    #[test]
    fn rejects_schema_violations() {
        // Missing pid.
        let missing = r#"{"traceEvents": [{"ph":"i","name":"m","tid":1,"ts":0}]}"#;
        assert!(validate_chrome_trace(missing).is_err());
        // Backwards ts on one track.
        let backwards = r#"{"traceEvents": [
            {"ph":"i","name":"a","pid":1,"tid":1,"ts":5},
            {"ph":"i","name":"b","pid":1,"tid":1,"ts":4}
        ]}"#;
        assert!(validate_chrome_trace(backwards).is_err());
        // Negative duration.
        let negative =
            r#"{"traceEvents": [{"ph":"X","name":"a","pid":1,"tid":1,"ts":5,"dur":-1}]}"#;
        assert!(validate_chrome_trace(negative).is_err());
        // Not a trace at all.
        assert!(validate_chrome_trace("[]").is_err());
    }
}
