//! The workspace's one JSON module: one writer for every document the
//! workspace emits, and [`parse_json`] to read a value back.
//!
//! The writer owns the syntax — separators, key quoting, string escaping,
//! `null`, fixed-precision numbers and `"0x…"` hex strings — so a document
//! type only names its fields, in order:
//!
//! ```
//! use rsti_telemetry::json::{self, Hex};
//! let doc = json::object(|o| {
//!     o.field("id", Some(7u64)).field("site", "on_load").field("addr", Hex(0x10));
//!     o.array("output", |a| {
//!         a.item("3");
//!     });
//! });
//! assert_eq!(doc, r#"{"id":7,"site":"on_load","addr":"0x10","output":["3"]}"#);
//! ```
//!
//! The output is compact (no whitespace), and fields keep their call
//! order. Both are part of the byte-identity contracts the incident,
//! `serve` and report goldens pin.
//!
//! The reader is hand-rolled (the workspace is dependency-free by design)
//! and deliberately small: it accepts objects, arrays, strings with
//! escapes, numbers, booleans and `null`, rejects trailing garbage, and
//! bounds nesting at 64 levels so no input can exhaust the stack.

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// A value the writer can emit. Document types implement it by writing
/// one object through [`write_object`].
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);

    /// Serializes this value as one JSON document (no trailing newline).
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Serializes one object whose fields `f` writes.
pub fn object(f: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, f);
    out
}

/// Appends one object whose fields `f` writes.
pub fn write_object(out: &mut String, f: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    f(&mut ObjectWriter { out: &mut *out, empty: true });
    out.push('}');
}

fn write_array(out: &mut String, f: impl FnOnce(&mut ArrayWriter<'_>)) {
    out.push('[');
    f(&mut ArrayWriter { out: &mut *out, empty: true });
    out.push(']');
}

/// Writes the fields of one object; see [`object`].
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjectWriter<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Appends `"key":value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Appends `"key":null`.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// Appends `"key":{…}` with the fields `f` writes.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.key(key), f);
        self
    }

    /// Appends `"key":[…]` with the items `f` writes.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        write_array(self.key(key), f);
        self
    }
}

/// Writes the items of one array; see [`ObjectWriter::array`].
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ArrayWriter<'_> {
    fn slot(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }

    /// Appends one value.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.slot());
        self
    }

    /// Appends one object with the fields `f` writes.
    pub fn object(&mut self, f: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.slot(), f);
        self
    }
}

/// A `u64` written as a minimal-width hex string: `"0xff"`.
#[derive(Debug, Clone, Copy)]
pub struct Hex(pub u64);

/// A `u64` written as a full-width hex string: `"0x00000000000000ff"`.
#[derive(Debug, Clone, Copy)]
pub struct Hex64(pub u64);

/// An `f64` written with a fixed number of decimals (`Fixed(1.5, 3)` is
/// `1.500`); a NaN or infinity is written as `null`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl ToJson for Hex {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{:#x}\"", self.0);
    }
}

impl ToJson for Hex64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{:#018x}\"", self.0);
    }
}

impl ToJson for Fixed {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_json!(u64, u32, usize, bool);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        write_array(out, |a| {
            for v in self {
                a.item(v);
            }
        });
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// Escapes a string as a JSON string literal (with surrounding quotes).
pub fn json_str(s: &str) -> String {
    s.to_json()
}

/// Appends `s` as a JSON string literal. Unescaped runs are copied in one
/// push; `"`, `\` and the control characters are escaped.
fn write_str(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object fields keep their input order.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant names are self-describing
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object (first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; rejects trailing non-whitespace.
///
/// # Errors
/// Returns a byte-offset-bearing message for malformed input.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser { b: s.as_bytes(), i: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

/// Nesting budget for arrays and objects. A `serve` request or a history
/// line is one flat object, so this sits far above any valid input while
/// keeping the recursive descent (and the drop of what it built) far from
/// the stack's end.
const MAX_JSON_DEPTH: usize = 64;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Open arrays and objects around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{' | b'[') if self.depth == MAX_JSON_DEPTH => {
                Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {}", self.i))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", *c as char, self.i)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.b.get(self.i + 1) != Some(&b'\\')
                                    || self.b.get(self.i + 2) != Some(&b'u')
                                {
                                    return Err("lone high surrogate".into());
                                }
                                self.i += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| "bad unicode escape".to_string())?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Fast path: consume the whole unescaped run in one
                    // slice push (the input is a &str, so UTF-8 boundaries
                    // are valid by construction). Large inline sources
                    // make per-char pushes a quadratic trap.
                    let start = self.i;
                    while !matches!(self.b.get(self.i), None | Some(b'"' | b'\\')) {
                        self.i += 1;
                    }
                    let run =
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let s = self
            .b
            .get(self.i + 1..self.i + 5)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let s = std::str::from_utf8(s).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?}"))?;
        self.i += 4;
        Ok(v)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }
}

/// A string field value that exercises every escape class: `"`, `\`,
/// `\n`, a `\u0001` control character and non-ASCII text.
#[cfg(test)]
pub(crate) const NASTY: &str = "q\"b\\s\nl\u{1}c é😀";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_reads_back() {
        let doc = object(|o| {
            o.field("s", NASTY)
                .field("id", None::<u64>)
                .field("n", u64::MAX)
                .field("hex", Hex(0xff))
                .field("hex64", Hex64(0xff))
                .field("f", Fixed(1.25, 1))
                .field("nan", Fixed(f64::NAN, 2))
                .null("null");
            o.array("a", |a| {
                a.item([1u64, 2]).object(|o| {
                    o.field("ok", true);
                });
            });
        });
        assert_eq!(
            doc,
            r#"{"s":"q\"b\\s\nl\u0001c é😀","id":null,"n":18446744073709551615,"hex":"0xff","#
                .to_owned()
                + r#""hex64":"0x00000000000000ff","f":1.2,"nan":null,"null":null,"a":[[1,2],{"ok":true}]}"#
        );
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(NASTY));
        assert_eq!(v.get("id"), Some(&Json::Null));
        assert_eq!(v.get("hex64").and_then(Json::as_str), Some("0x00000000000000ff"));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.2));
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"s":"a\"b\\c\ndA😀","a":[1,-2.5,true,null,{}]}"#)
            .unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\nd\u{41}\u{1F600}"));
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 5);
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1], Json::Num(-2.5));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn json_nesting_is_budgeted() {
        let ok = format!("{}{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
        parse_json(&ok).unwrap();
        let over = format!("{{\"a\":{}", ok);
        assert!(parse_json(&over).unwrap_err().contains("nesting deeper"));
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
    }
}
