//! A minimal, dependency-free JSON value type with a writer and parser.
//!
//! The workspace is hermetic by policy (no registry crates), so the replay
//! artifact format and the JSONL trace export carry their own JSON
//! implementation. The subset is exactly what those formats need:
//!
//! * integers are kept exact as `i128` (seeds and call ids are `u64`;
//!   routing them through `f64` would silently lose precision);
//! * objects preserve insertion order, so rendering is deterministic and
//!   artifacts are byte-stable across record/replay cycles;
//! * the writer emits the same `{"k": v, "k2": v2}` spacing the JSONL
//!   trace export has always used, keeping existing snapshots valid.

use std::cell::Cell;
use std::fmt;

/// A parsed or to-be-rendered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, kept exact (covers the full `u64` and `i64` ranges).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved and rendered verbatim.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (a readability helper for
    /// hand-assembled artifacts).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// [`get`](Json::get), but mutable — for moving a large member out of
    /// a parsed document instead of cloning it.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders this value into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                // `{:?}` prints the shortest representation that parses
                // back to the same f64, so floats round-trip exactly.
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => quote_into(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    quote_into(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    ///
    /// # Errors
    ///
    /// A human-readable description with a byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// A JSON object read as named fields: the one reader every decoder of
/// the formats this workspace writes goes through.
///
/// A recording is outside input, so each getter checks its value and
/// names the key it refuses, in one wording: ``"{what}: missing `key`"``
/// when the key is absent, ``"{what}: `key` out of range"`` when it is
/// present with the wrong type or a number the target type cannot hold.
/// Every key a writer in this workspace always writes is read with a
/// required getter. The `opt_*` getters read only what a writer may
/// omit: a user-authored scenario parameter, or an optional trace-event
/// field. Absent is `None`, and present but wrong is still an error, so
/// a mistyped key can never stand for its default. `what` is formatted
/// only on the error path; a read that succeeds allocates nothing.
///
/// A value that is not an object has no fields, so every required key of
/// it is missing.
///
/// A reader notes which members its getters found, and
/// [`finish`](Fields::finish) refuses the first that none did: a decoder
/// of a format this workspace writes ends with it, so that a key no
/// writer emits is an error rather than ignored.
#[derive(Clone)]
pub struct Fields<'a> {
    pairs: &'a [(String, Json)],
    what: &'a dyn fmt::Display,
    /// The members a getter has found, one bit each for the first
    /// [`READ_BITS`].
    read: Cell<u64>,
}

/// Members a [`Fields`] can note as read. No decoder reads as many, so
/// [`Fields::finish`] refuses every member past them.
const READ_BITS: usize = 64;

impl<'a> Fields<'a> {
    /// Reads `v`'s members; errors begin with `what`.
    pub fn new(v: &'a Json, what: &'a dyn fmt::Display) -> Fields<'a> {
        Fields {
            pairs: v.as_object().unwrap_or(&[]),
            what,
            read: Cell::new(0),
        }
    }

    /// Refuses the first member no getter has found: a key the decoder
    /// does not know, or the second of a duplicated one.
    ///
    /// # Errors
    ///
    /// ``"{what}: unknown key `k`"``, or ``"{what}: duplicate key `k`"``.
    pub fn finish(&self) -> Result<(), String> {
        let read = self.read.get();
        let unread = (0..self.pairs.len()).find(|&i| i >= READ_BITS || read & 1 << i == 0);
        match unread {
            None => Ok(()),
            Some(i) => {
                let key = &self.pairs[i].0;
                let seen = self.pairs[..i].iter().any(|(k, _)| k == key);
                let which = if seen { "duplicate" } else { "unknown" };
                Err(format!("{}: {which} key `{key}`", self.what))
            }
        }
    }

    /// The error for a present `key` whose value this reader refuses —
    /// also the wording for a decoder's own check on a well-typed value.
    pub fn out_of_range(&self, key: &str) -> String {
        format!("{}: `{key}` out of range", self.what)
    }

    fn missing(&self, key: &str) -> String {
        format!("{}: missing `{key}`", self.what)
    }

    /// `key`'s value, if present; the first of duplicate keys wins.
    pub fn opt_get(&self, key: &str) -> Option<&'a Json> {
        let i = self.pairs.iter().position(|(k, _)| k == key)?;
        if i < READ_BITS {
            self.read.set(self.read.get() | 1 << i);
        }
        Some(&self.pairs[i].1)
    }

    /// `key`'s value, of any type.
    pub fn get(&self, key: &str) -> Result<&'a Json, String> {
        self.opt_get(key).ok_or_else(|| self.missing(key))
    }

    /// An optional key through `read`, whose `None` means out of range.
    fn opt<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.opt_get(key)
            .map(|v| read(v).ok_or_else(|| self.out_of_range(key)))
            .transpose()
    }

    fn req<T>(&self, key: &str, read: impl FnOnce(&'a Json) -> Option<T>) -> Result<T, String> {
        self.opt(key, read)?.ok_or_else(|| self.missing(key))
    }

    /// A non-negative integer narrowed to `T` (`u16`, `u32`, `usize`, …).
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.req(key, uint_of)
    }

    /// [`uint`](Fields::uint) for a key its writer may omit.
    pub fn opt_uint<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        self.opt(key, uint_of)
    }

    /// A signed integer in `i64` range.
    pub fn int(&self, key: &str) -> Result<i64, String> {
        self.req(key, Json::as_i64)
    }

    /// A number, integers converting.
    pub fn float(&self, key: &str) -> Result<f64, String> {
        self.req(key, Json::as_f64)
    }

    /// A boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.req(key, Json::as_bool)
    }

    /// [`bool`](Fields::bool) for a key its writer may omit.
    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, String> {
        self.opt(key, Json::as_bool)
    }

    /// A string, borrowed from the document.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.req(key, Json::as_str)
    }

    /// [`str`](Fields::str) for a key its writer may omit.
    pub fn opt_str(&self, key: &str) -> Result<Option<&'a str>, String> {
        self.opt(key, Json::as_str)
    }

    /// A nested object, for its own decoder: a value of another type is
    /// refused here by `key`, not by the first field the decoder lacks.
    pub fn object(&self, key: &str) -> Result<&'a Json, String> {
        self.req(key, |v| v.as_object().map(|_| v))
    }

    /// An array, each element decoded by `f`, collected into `C`.
    pub fn list<T, C: FromIterator<T>>(
        &self,
        key: &str,
        f: impl FnMut(&'a Json) -> Result<T, String>,
    ) -> Result<C, String> {
        self.req(key, Json::as_array)?.iter().map(f).collect()
    }
}

impl fmt::Debug for Fields<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fields")
            .field("what", &format_args!("{}", self.what))
            .field("pairs", &self.pairs)
            .finish()
    }
}

/// A non-negative integer that fits `T`.
fn uint_of<T: TryFrom<u64>>(v: &Json) -> Option<T> {
    v.as_u64().and_then(|n| T::try_from(n).ok())
}

/// Escapes `s` into `out` per JSON string rules: quotes, backslashes, the
/// named control escapes, and `\u00XX` for the remaining control bytes.
///
/// Every byte that needs escaping is ASCII, so the scan runs over bytes
/// and the unescaped runs between them are copied whole.
pub fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match named {
            Some(esc) => out.push_str(esc),
            None => {
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `s` as a JSON string literal: quoted and escaped.
pub fn quote_into(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the problem.
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

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded `[[[[…` from a user-supplied
/// file would overflow the stack; the formats this crate reads nest
/// fewer than ten deep.
pub const MAX_DEPTH: usize = 128;

/// The most bytes one character takes in UTF-8, and so the most one
/// escape decodes to: the spare room [`Parser::string`] keeps after a run
/// for the escape that may follow it.
const CHAR_ROOM: usize = 4;

struct Parser<'a> {
    /// The document. It is scanned as bytes, but structure is only ever
    /// recognised at ASCII bytes, so `pos` sits on a char boundary
    /// whenever a slice of it is taken.
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.text.as_bytes().get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn need(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one container one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.need(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.need(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.need(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.need(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(&b) = self.text.as_bytes().get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The run starts after a quote or an escape and ends before an
            // ASCII byte, so it is whole characters of `text`: no second
            // pass to validate it.
            let run = self.text.get(start..self.pos);
            let run = run.ok_or_else(|| self.err("invalid UTF-8 in string"))?;
            // Room for the run and for the one character an escape after
            // it decodes to. Capacity doubles, but never past what the rest
            // of the document could decode to: no escape decodes longer
            // than it is written, so a string cannot outgrow the bytes left.
            let need = run.len() + CHAR_ROOM;
            if out.capacity() - out.len() < need {
                let bound = out.len() + (self.text.len() - start);
                let want = (out.capacity() * 2).max(out.len() + need).min(bound);
                out.reserve_exact(want - out.len());
            }
            out.push_str(run);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    // Doubling overshoots; a parsed string is kept (a
                    // recording's trace for as long as the recording), so
                    // one that grew is returned at its length.
                    if out.capacity() - out.len() > CHAR_ROOM {
                        out.shrink_to_fit();
                    }
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // `get`, not indexing: the four bytes may stop inside a character.
        let chunk = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(chunk, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos]; // ASCII by the loop above
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("rendered JSON parses back")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(u64::MAX as i128),
            Json::Int(i64::MIN as i128),
            Json::Float(0.25),
            Json::Float(3.308e-3),
            Json::Str("hello".into()),
            Json::Str("tricky \"quoted\" \\ line\nbreak\ttab \u{1} nul-ish".into()),
        ] {
            assert_eq!(round_trip(&v), v, "{v}");
        }
    }

    #[test]
    fn u64_values_stay_exact() {
        let v = Json::Int(18_446_744_073_709_551_615_i128);
        assert_eq!(v.to_string(), "18446744073709551615");
        assert_eq!(round_trip(&v).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn containers_round_trip_preserving_order() {
        let v = Json::obj(vec![
            ("z", Json::Int(1)),
            ("a", Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("nested", Json::obj(vec![("k", Json::Str("v".into()))])),
        ]);
        assert_eq!(round_trip(&v), v);
        assert_eq!(
            v.to_string(),
            "{\"z\": 1, \"a\": [null, true], \"nested\": {\"k\": \"v\"}}"
        );
    }

    #[test]
    fn lookup_helpers() {
        let v = Json::obj(vec![
            ("n", Json::Int(7)),
            ("s", Json::Str("x".into())),
            ("b", Json::Bool(true)),
            ("f", Json::Float(1.5)),
        ]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(7));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    /// `Fields`' contract: an absent key is missing, a present one of the
    /// wrong type or width is out of range, each integer width accepts its
    /// `MAX` and refuses `MAX + 1`, and an `opt_*` getter tells absent
    /// (`None`) from present but wrong (an error).
    #[test]
    fn fields_name_the_key_they_refuse() {
        let at_max = |max: u64| Json::Int(max as i128);
        let past = |max: u64| Json::Int(max as i128 + 1);
        let doc = Json::obj(vec![
            ("u16", at_max(u16::MAX.into())),
            ("u16+1", past(u16::MAX.into())),
            ("u32", at_max(u32::MAX.into())),
            ("u32+1", past(u32::MAX.into())),
            ("usize", at_max(usize::MAX as u64)),
            ("usize+1", past(usize::MAX as u64)),
            ("neg", Json::Int(-1)),
            ("s", Json::Str("x".into())),
            ("b", Json::Bool(true)),
            ("f", Json::Float(0.5)),
            ("l", Json::Array(vec![Json::Int(1), Json::Int(2)])),
            ("n", Json::Null),
        ]);
        let n = 7;
        let what = format_args!("thing {n}");
        let f = Fields::new(&doc, &what);
        let missing = |key: &str| format!("thing 7: missing `{key}`");
        let out = |key: &str| format!("thing 7: `{key}` out of range");

        assert_eq!(f.uint::<u16>("u16"), Ok(u16::MAX));
        assert_eq!(f.uint::<u16>("u16+1"), Err(out("u16+1")));
        assert_eq!(f.uint::<u32>("u32"), Ok(u32::MAX));
        assert_eq!(f.uint::<u32>("u32+1"), Err(out("u32+1")));
        assert_eq!(f.uint::<usize>("usize"), Ok(usize::MAX));
        assert_eq!(f.uint::<usize>("usize+1"), Err(out("usize+1")));
        assert_eq!(f.uint::<u64>("neg"), Err(out("neg")));
        assert_eq!(f.int("neg"), Ok(-1));
        assert_eq!(f.float("f"), Ok(0.5));
        assert_eq!(f.float("u16"), Ok(65535.0));
        assert_eq!(f.str("s"), Ok("x"));
        assert_eq!(f.bool("b"), Ok(true));
        assert_eq!(f.get("n"), Ok(&Json::Null));
        assert_eq!(
            f.list("l", |v| Ok(v.clone())),
            Ok(vec![Json::Int(1), Json::Int(2)])
        );

        // Every typed getter: absent is missing, `null` (a type none of
        // them reads) is out of range.
        type Read = fn(&Fields) -> Result<(), String>;
        let getters: [Read; 7] = [
            |f| f.uint::<u64>("absent").map(drop),
            |f| f.int("absent").map(drop),
            |f| f.float("absent").map(drop),
            |f| f.bool("absent").map(drop),
            |f| f.str("absent").map(drop),
            |f| f.list::<_, Vec<_>>("absent", |_| Ok(())).map(drop),
            |f| f.object("absent").map(drop),
        ];
        let null = Json::obj(vec![("absent", Json::Null)]);
        for (i, read) in getters.iter().enumerate() {
            assert_eq!(read(&f), Err(missing("absent")), "getter {i}");
            let present = Fields::new(&null, &what);
            assert_eq!(read(&present), Err(out("absent")), "getter {i}");
        }
        assert_eq!(f.get("absent"), Err("thing 7: missing `absent`".into()));
        // A document that is not an object has no fields.
        assert_eq!(
            Fields::new(&Json::Int(3), &"t").get("k"),
            Err("t: missing `k`".into())
        );

        // `opt_*`: absent is `None`, present but wrong is refused by name.
        assert_eq!(f.opt_uint::<u32>("absent"), Ok(None));
        assert_eq!(f.opt_uint::<u32>("u32"), Ok(Some(u32::MAX)));
        assert_eq!(f.opt_uint::<u32>("u32+1"), Err(out("u32+1")));
        assert_eq!(f.opt_uint::<u32>("s"), Err(out("s")));
        assert_eq!(f.opt_bool("absent"), Ok(None));
        assert_eq!(f.opt_bool("b"), Ok(Some(true)));
        assert_eq!(f.opt_bool("n"), Err(out("n")));
        assert_eq!(f.opt_str("absent"), Ok(None));
        assert_eq!(f.opt_str("s"), Ok(Some("x")));
        assert_eq!(f.opt_str("b"), Err(out("b")));
        assert_eq!(f.opt_get("absent"), None);
        assert_eq!(f.opt_get("n"), Some(&Json::Null));
        let nested = Json::obj(vec![("o", doc.clone()), ("s", Json::Str("x".into()))]);
        let g = Fields::new(&nested, &what);
        assert_eq!(g.object("o"), Ok(&doc));
        assert_eq!(g.object("s"), Err(out("s")));
    }

    /// `finish` names the first member no getter found — asked for and
    /// absent does not count, a failed read of a present one does — and
    /// the second of a duplicated key; past 64 members it refuses them all.
    #[test]
    fn finish_names_the_first_member_nothing_read() {
        let doc = Json::obj(vec![
            ("a", Json::Int(1)),
            ("b", Json::Str("x".into())),
            ("a", Json::Int(3)),
        ]);
        let f = Fields::new(&doc, &"t");
        assert_eq!(f.finish(), Err("t: unknown key `a`".into()));
        assert_eq!(f.uint::<u32>("a"), Ok(1));
        assert_eq!(f.opt_bool("absent"), Ok(None));
        assert_eq!(f.finish(), Err("t: unknown key `b`".into()));
        assert_eq!(f.bool("b"), Err("t: `b` out of range".into()));
        assert_eq!(f.finish(), Err("t: duplicate key `a`".into()));
        let once = Json::obj(vec![("a", Json::Int(1))]);
        let f = Fields::new(&once, &"t");
        assert_eq!(f.get("a"), Ok(&Json::Int(1)));
        assert_eq!(f.finish(), Ok(()));
        assert_eq!(Fields::new(&Json::Null, &"t").finish(), Ok(()));

        let keys: Vec<String> = (0..=READ_BITS).map(|i| format!("k{i}")).collect();
        let wide = Json::obj(keys.iter().map(|k| (k.as_str(), Json::Null)).collect());
        let f = Fields::new(&wide, &"t");
        keys.iter().for_each(|k| drop(f.get(k)));
        assert_eq!(f.finish(), Err(format!("t: unknown key `k{READ_BITS}`")));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""a\u0041\n\t\"\\\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\"\\\u{e9}\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1,}",
            "\"\\u12\"",
            "\"\\ud800x\"",
            // A `\u` whose four bytes end inside a character.
            "\"\\u123é\"",
            "\"\\u12é\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" {\n \"a\" : [ 1 , 2 ] ,\t\"b\": null }\n").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn runaway_nesting_is_an_error_not_a_stack_overflow() {
        // At PR 13 each of these killed the process (SIGABRT, stack
        // overflow) instead of returning.
        for unit in ["[", "{\"a\":"] {
            let err = Json::parse(&unit.repeat(100_000)).unwrap_err();
            assert!(err.message.contains("nesting deeper than 128"), "{err}");
            assert_eq!(
                err.offset,
                MAX_DEPTH * unit.len(),
                "offset of the refused level"
            );
        }
    }

    #[test]
    fn nesting_exactly_at_the_cap_parses() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let mut v = &Json::parse(&nest(MAX_DEPTH)).expect("the cap itself is legal");
        let mut levels = 0;
        while let Some(inner) = v.as_array() {
            levels += 1;
            match inner.first() {
                Some(next) => v = next,
                None => break,
            }
        }
        assert_eq!(levels, MAX_DEPTH);
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        // Depth counts open containers, not containers seen: siblings
        // at the cap are fine.
        let wide = "[".repeat(MAX_DEPTH - 1) + "[], {}, [1]" + &"]".repeat(MAX_DEPTH - 1);
        assert!(Json::parse(&wide).is_ok());
    }

    /// The char-by-char escaper this module shipped before it copied
    /// unescaped runs whole; kept as the oracle.
    fn escape_reference(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }

    #[test]
    fn run_copying_escape_matches_the_char_by_char_reference() {
        use crate::check::{check, ensure_eq, string_of};
        // Every escape class, neighbours that must pass through (DEL,
        // `/`), and multi-byte characters to sit next to them.
        let alphabet = "ab/\"\\\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}é λ→😀";
        check(
            "escape_into == reference",
            &string_of(alphabet, 24),
            |s: &String| {
                let (mut fast, mut slow) = (String::from("seed"), String::from("seed"));
                escape_into(s, &mut fast);
                escape_reference(s, &mut slow);
                ensure_eq(&fast, &slow)?;
                let quoted = format!("\"{}\"", &fast[4..]);
                ensure_eq(
                    Json::parse(&quoted).map_err(|e| e.to_string())?,
                    Json::Str(s.clone()),
                )
            },
        );
    }

    /// A parsed string is the literal it came from, held at no more than
    /// that literal's length however much document follows it, and no
    /// strict prefix of the literal parses.
    #[test]
    fn a_parsed_string_round_trips_at_its_length() {
        use crate::check::{check, ensure, ensure_eq, string_of};
        // Runs broken by escapes of every width, so the buffer grows by
        // more than one doubling and overshoots before the closing quote.
        let alphabet = "abcdefgh\"\\\n\u{1}é😀";
        check(
            "parsed string round-trips at its length",
            &string_of(alphabet, 64),
            |s: &String| {
                let mut literal = String::new();
                quote_into(s, &mut literal);
                let raw = literal.len() - 2;
                let tail = format!("\"{}\"", "z".repeat(4 * raw + 64));
                for doc in [literal.clone(), format!("[{literal}, {tail}]")] {
                    let parsed = Json::parse(&doc).map_err(|e| e.to_string())?;
                    let got = match &parsed {
                        Json::Array(items) => &items[0],
                        one => one,
                    };
                    let Json::Str(got) = got else {
                        return Err(format!("not a string: {got:?}"));
                    };
                    let mut again = String::new();
                    quote_into(got, &mut again);
                    ensure_eq(&again, &literal)?;
                    ensure(
                        got.capacity() <= raw + 4,
                        format!("capacity {} for {raw} raw bytes", got.capacity()),
                    )?;
                }
                for cut in (0..literal.len()).filter(|&c| literal.is_char_boundary(c)) {
                    ensure(
                        Json::parse(&literal[..cut]).is_err(),
                        format!("prefix {:?} parsed", &literal[..cut]),
                    )?;
                }
                Ok(())
            },
        );
    }
}
