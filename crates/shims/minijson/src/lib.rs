//! Minimal JSON for the `cosched serve` wire protocol.
//!
//! The build is fully offline (no crates.io), so — like the `rand`,
//! `proptest` and `criterion` shims next door — this crate implements
//! exactly the surface the workspace needs: one tokenizer, the pull
//! [`Reader`], with two consumers, the [`Json`] tree ([`Json::parse`],
//! with typed accessors) and whatever typed reader a caller writes over
//! [`Reader`]; and one compact serializer, the streaming [`JsonWriter`].
//!
//! There is one tokenizer. The tree is for tests, clients and snapshot
//! documents; a server reads each request line straight into the fields
//! its op uses, with no tree in between. Both check a text the same way,
//! so a malformed line fails with the same [`ParseError`] whichever reads
//! it, and both parse numbers with the same routine, so a float has the
//! same bits either way. A value's bytes in the text, read again alone,
//! read as the same value: a server logs each request as the bytes it
//! read.
//!
//! There is one writer. A server writes its replies with it field by
//! field, straight into a `String`, with no [`Json`] tree in between;
//! `Json`'s `Display` walks the tree through the same writer. So the crate
//! has one number formatter and one string escaper, and a reply written
//! either way has the same bytes.
//!
//! Deliberate properties:
//!
//! * **Round-trip-exact numbers** — values serialize through Rust's
//!   shortest-round-trip float formatting and parse back with
//!   [`str::parse::<f64>`], so a makespan crosses the wire bit-exactly
//!   (what makes the serve smoke test's determinism check meaningful).
//!   Non-finite numbers are unrepresentable in JSON and serialize as
//!   `null`; senders gate them out instead (e.g. an infinite footprint is
//!   an *absent* field).
//! * **Order-preserving objects** — objects are `Vec<(String, Json)>`, so
//!   responses serialize deterministically in insertion order.
//! * **Bounded recursion** — nesting is capped (depth 128) so a hostile
//!   line cannot blow the server's stack.
//!
//! ```
//! use minijson::Json;
//!
//! let v = Json::parse(r#"{"op":"solve","id":3,"seed":42}"#).unwrap();
//! assert_eq!(v.get("op").and_then(Json::as_str), Some("solve"));
//! assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
//! let echo = v.to_string();
//! assert_eq!(Json::parse(&echo).unwrap(), v);
//! ```

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order, lookups take the **first**
    /// match (duplicate keys cannot shadow an earlier value).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and a short reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Parses one JSON document; trailing content (other than whitespace)
    /// is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut reader = Reader::new(text);
        let value = Json::read(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }

    /// Reads one whole value into a tree.
    fn read(reader: &mut Reader<'_>) -> Result<Json, ParseError> {
        Ok(match reader.value()? {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::Num(n) => Json::Num(n),
            Value::Str(s) => Json::Str(s.into_owned()),
            Value::Arr => {
                let mut items = Vec::new();
                reader.elements(|reader| {
                    items.push(Json::read(reader)?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Value::Obj => {
                let mut pairs = Vec::new();
                reader.fields(|reader, key| {
                    pairs.push((key.into_owned(), Json::read(reader)?));
                    Ok(())
                })?;
                Json::Obj(pairs)
            }
        })
    }

    /// This value as a [`Reader`] would read it: a scalar with its
    /// payload (a string borrowed), a container by its kind.
    pub fn as_value(&self) -> Value<'_> {
        match self {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(*b),
            Json::Num(n) => Value::Num(*n),
            Json::Str(s) => Value::Str(Cow::Borrowed(s)),
            Json::Arr(_) => Value::Arr,
            Json::Obj(_) => Value::Obj,
        }
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_value().as_f64()
    }

    /// The numeric payload as an exact non-negative integer, by
    /// [`Value::as_u64`]'s rules.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_value().as_u64()
    }

    /// The numeric payload as an exact `usize`, by [`Value::as_usize`]'s
    /// rules.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_value().as_usize()
    }

    /// The numeric payload as an exact signed integer, by
    /// [`Value::as_i64`]'s rules. The signed counterpart of
    /// [`Self::as_u64`] — what the tuner's signature buckets need, whose
    /// `⌊log2⌋` classes are negative for sub-unit quantities (and
    /// `i32::MIN` for the degenerate bucket).
    pub fn as_i64(&self) -> Option<i64> {
        self.as_value().as_i64()
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        self.as_value().as_bool()
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<i32> for Json {
    fn from(n: i32) -> Self {
        Json::Num(f64::from(n))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::new(f);
        w.value(self);
        w.finish()
    }
}

/// Integers below this magnitude are exact in an `f64` and print as
/// integers; everything else takes the float path.
const INT_LIMIT: u64 = 1 << 53;

/// A streaming JSON writer: values go straight into `out` (a `String`, a
/// `fmt::Formatter`, any [`fmt::Write`]), with no [`Json`] tree in
/// between. It is the crate's only serializer — `Json`'s `Display` runs
/// through [`JsonWriter::value`] — so a reply written field by field has
/// the same bytes as the tree it replaces.
///
/// Commas are the writer's job: every value and every [`Self::key`]
/// inside an object or array is preceded by one unless it is the first.
/// Balancing `begin_*`/`end_*` and pairing keys with values is the
/// caller's. The first error `out` reports is kept, later writes are
/// skipped, and [`Self::finish`] returns it (writing to a `String` never
/// fails).
///
/// ```
/// use minijson::JsonWriter;
///
/// let mut out = String::new();
/// let mut w = JsonWriter::new(&mut out);
/// w.begin_object();
/// w.key("ok").bool(true);
/// w.key("partition").int_array([0, 2, 5]);
/// w.key("makespan").num(1.5e10);
/// w.end_object();
/// assert_eq!(out, r#"{"ok":true,"partition":[0,2,5],"makespan":15000000000}"#);
/// ```
pub struct JsonWriter<W> {
    out: W,
    /// Whether the next value or key needs a comma before it.
    comma: bool,
    result: fmt::Result,
}

/// A position in a `String`-backed [`JsonWriter`], to return to with
/// [`JsonWriter::rewind`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    len: usize,
    comma: bool,
}

impl<W: fmt::Write> JsonWriter<W> {
    /// A writer appending to `out`, expecting one value at top level.
    pub fn new(out: W) -> Self {
        Self {
            out,
            comma: false,
            result: Ok(()),
        }
    }

    /// The first error `out` reported, if any.
    pub fn finish(self) -> fmt::Result {
        self.result
    }

    fn raw(&mut self, s: &str) {
        if self.result.is_ok() {
            self.result = self.out.write_str(s);
        }
    }

    /// Writes one value (or key, when `comma_after` is false) with
    /// `write`, after the comma it owes.
    fn item(&mut self, comma_after: bool, write: impl FnOnce(&mut W) -> fmt::Result) -> &mut Self {
        if self.comma {
            self.raw(",");
        }
        if self.result.is_ok() {
            self.result = write(&mut self.out);
        }
        self.comma = comma_after;
        self
    }

    fn close(&mut self, bracket: &str) -> &mut Self {
        self.raw(bracket);
        self.comma = true;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.item(false, |out| out.write_str("{"))
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close("}")
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.item(false, |out| out.write_str("["))
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close("]")
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item(false, |out| {
            write_str(out, key).and_then(|()| out.write_str(":"))
        })
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.item(true, |out| out.write_str("null"))
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.item(true, |out| out.write_str(if b { "true" } else { "false" }))
    }

    /// A number, with the same bytes as `Json::Num(n)`.
    pub fn num(&mut self, n: f64) -> &mut Self {
        self.item(true, |out| write_num(out, n))
    }

    /// An integer, with the same bytes as `Json::from(n)` (which stores
    /// it as an `f64`: at and above 2^53 the float path prints it).
    pub fn int(&mut self, n: u64) -> &mut Self {
        if n >= INT_LIMIT {
            return self.num(n as f64);
        }
        self.item(true, |out| out.write_str(int_digits(n, &mut [0; 20])))
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.item(true, |out| write_str(out, s))
    }

    /// An array of integers, each as [`Self::int`] writes it. The digits
    /// go through a stack buffer that reaches `out` a few KB at a time, so
    /// a 4096-index partition costs a handful of writes, not thousands.
    /// Integers below 10^8, every index of a partition, take two lookups
    /// in a table of four-digit groups and no branch on their length.
    pub fn int_array(&mut self, items: impl IntoIterator<Item = u64>) -> &mut Self {
        self.begin_array();
        let mut chunk = [0u8; 4096];
        let mut len = 0;
        // Kept in a local, not in `self`, between flushes.
        let mut comma = self.comma;
        for n in items {
            // Room for a comma and 20 digits, or flush first.
            if len + 21 > chunk.len() || n >= INT_LIMIT {
                self.raw(ascii(&chunk[..len]));
                len = 0;
            }
            if n >= INT_LIMIT {
                self.comma = comma;
                self.num(n as f64);
                comma = true;
                continue;
            }
            chunk[len] = b',';
            len += usize::from(comma);
            if n < EIGHT_DIGITS {
                let dst = chunk[len..len + 8].first_chunk_mut().expect("room for 8");
                len += eight_digits(n, dst);
            } else {
                let end = len + digit_count(n);
                fill_digits(n, &mut chunk[len..end]);
                len = end;
            }
            comma = true;
        }
        self.raw(ascii(&chunk[..len]));
        self.comma = comma;
        self.end_array()
    }

    /// A whole [`Json`] value.
    pub fn value(&mut self, v: &Json) -> &mut Self {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) => self.num(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Json::Obj(pairs) => {
                self.begin_object();
                for (k, v) in pairs {
                    self.key(k).value(v);
                }
                self.end_object()
            }
        }
    }
}

impl JsonWriter<&mut String> {
    /// The current position, to [`Self::rewind`] to.
    pub fn mark(&self) -> Mark {
        Mark {
            len: self.out.len(),
            comma: self.comma,
        }
    }

    /// Drops everything written since `mark` was taken, so a value that
    /// went wrong halfway can be written again from the same spot.
    pub fn rewind(&mut self, mark: Mark) {
        self.out.truncate(mark.len);
        self.comma = mark.comma;
    }
}

/// The chunk buffer holds only ASCII digits, commas and signs.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("ASCII digits and commas")
}

/// Serializes a number. JSON cannot represent non-finite values; they
/// become `null` (senders are expected to gate them out beforehand).
fn write_num<W: fmt::Write>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        return out.write_str("null");
    }
    // Integers within the f64-exact window print without a fraction so ids
    // and counters look like integers on the wire; everything else uses
    // Rust's shortest round-trip representation. `-0.0` keeps its sign.
    if n.fract() == 0.0 && n.abs() < INT_LIMIT as f64 {
        if n.is_sign_negative() {
            out.write_str("-")?;
        }
        let mut buf = [0u8; 20];
        out.write_str(int_digits(n.abs() as u64, &mut buf))
    } else {
        write!(out, "{n}")
    }
}

/// `"00" "01" … "99"`: the two decimal digits of `i` at `2i..2i + 2`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// How many decimal digits `n` has.
fn digit_count(n: u64) -> usize {
    let mut count = 1;
    let mut bound = 10u64;
    while count < 20 && n >= bound {
        count += 1;
        bound = bound.wrapping_mul(10);
    }
    count
}

/// Writes the decimal digits of `n`, exactly as `format!("{n}")` prints
/// them, into `dst`, which holds exactly [`digit_count`]`(n)` bytes: two
/// digits at a time from the end, without the formatting machinery (a
/// solve reply carries thousands of indices).
fn fill_digits(mut n: u64, dst: &mut [u8]) {
    let mut pos = dst.len();
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        pos -= 2;
        dst[pos] = DIGIT_PAIRS[d];
        dst[pos + 1] = DIGIT_PAIRS[d + 1];
    }
    if n >= 10 {
        let d = n as usize * 2;
        dst[0] = DIGIT_PAIRS[d];
        dst[1] = DIGIT_PAIRS[d + 1];
    } else {
        dst[0] = b'0' + n as u8;
    }
}

/// The integers [`eight_digits`] converts: those of at most 8 digits.
const EIGHT_DIGITS: u64 = 100_000_000;

/// `"0000"` … `"9999"`: the four decimal digits of `i`, first digit in
/// the lowest byte of entry `i`.
static DIGIT_QUADS: [u32; 10_000] = {
    let mut quads = [0; 10_000];
    let mut i = 0;
    while i < 10_000 {
        let (a, b, c, d) = (i / 1000, i / 100 % 10, i / 10 % 10, i % 10);
        quads[i] = u32::from_le_bytes([
            b'0' + a as u8,
            b'0' + b as u8,
            b'0' + c as u8,
            b'0' + d as u8,
        ]);
        i += 1;
    }
    quads
};

/// Writes the decimal digits of `n < 10^8` into `dst`, as [`fill_digits`]
/// writes them, and returns their count; the bytes after them are
/// scratch. The two four-digit groups fill one `u64`, zero-padded to 8
/// digits with the first in the lowest byte. The padding is the run of
/// low bytes equal to `b'0'` (all but the last, for `n = 0`), and
/// shifting it out leaves the number at the start.
#[inline]
fn eight_digits(n: u64, dst: &mut [u8; 8]) -> usize {
    let quad = |k: u64| u64::from(DIGIT_QUADS[k as usize % 10_000]);
    let padded = quad(n / 10_000) | quad(n % 10_000) << 32;
    let zeros = ((padded ^ 0x3030_3030_3030_3030).trailing_zeros() / 8).min(7) as usize;
    *dst = (padded >> (8 * zeros)).to_le_bytes();
    8 - zeros
}

/// The decimal digits of `n`, written into `buf`.
fn int_digits(n: u64, buf: &mut [u8; 20]) -> &str {
    let digits = &mut buf[..digit_count(n)];
    fill_digits(n, digits);
    ascii(digits)
}

/// Writes `s` as a quoted, escaped JSON string.
fn write_str<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    // Mirror the parser's fast path: emit contiguous runs of plain
    // characters in one call, dropping to per-character work only at the
    // (rare) escapes.
    let mut rest = s;
    while let Some(pos) = rest.find(|c: char| c == '"' || c == '\\' || (c as u32) < 0x20) {
        out.write_str(&rest[..pos])?;
        let c = rest[pos..].chars().next().expect("found char");
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{08}' => out.write_str("\\b")?,
            '\u{0C}' => out.write_str("\\f")?,
            c => write!(out, "\\u{:04x}", c as u32)?,
        }
        rest = &rest[pos + c.len_utf8()..];
    }
    out.write_str(rest)?;
    out.write_str("\"")
}

/// A pull reader over one JSON text: the crate's only tokenizer.
///
/// [`Json::parse`] builds its tree with it, and a caller that wants a few
/// typed fields reads them straight from the text: [`Self::value`] reads
/// the next value's first token, and a container it opens is walked with
/// [`Self::elements`] or [`Self::fields`], whose closure reads each
/// element or field value in turn. Strings are borrowed from the text
/// unless they hold an escape, and numbers are parsed once, exactly as the
/// tree stores them.
///
/// Whatever the caller reads or skips, the reader checks the text the way
/// [`Json::parse`] does, in the same order: a malformed text fails with
/// the same [`ParseError`], offset and reason, at any depth (the cap
/// included) and in any value, skipped ones too.
///
/// A value's span, the bytes between [`Self::offset`] before and after it,
/// is itself a text that reads as the same value: a caller keeps a value's
/// bytes rather than printing it again.
///
/// ```
/// use minijson::{Reader, Value};
///
/// let text = r#"{"op":"solve","id":3,"extra":[1,{"k":null}],"id":4}"#;
/// let mut reader = Reader::new(text);
/// let mut id = None;
/// assert_eq!(reader.value().unwrap(), Value::Obj);
/// reader
///     .fields(|reader, key| match &*key {
///         "id" if id.is_none() => {
///             id = reader.scalar()?.as_u64();
///             Ok(())
///         }
///         _ => reader.skip(),
///     })
///     .unwrap();
/// reader.finish().unwrap();
/// assert_eq!(id, Some(3));
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the next value.
    depth: usize,
}

/// One value as [`Reader::value`] reads it: a scalar with its payload, or
/// the kind of a container it has opened.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string: borrowed from the text unless it holds an escape.
    Str(Cow<'a, str>),
    /// An array; its elements follow.
    Arr,
    /// An object; its fields follow.
    Obj,
}

impl Value<'_> {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact signed integer (`None` if the value
    /// is not a number, has a fractional part, or lies outside the
    /// f64-exact window `±2^53`).
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        let exact = n.is_finite() && n.fract() == 0.0 && n.abs() <= 2f64.powi(53);
        exact.then_some(n as i64)
    }

    /// The numeric payload as an exact non-negative integer: what
    /// [`Self::as_i64`] gives, unless it is negative.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The numeric payload as an exact `usize` (same rules as
    /// [`Self::as_u64`], plus the value must fit `usize` — which on 32-bit
    /// targets is narrower than the f64-exact window).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`'s one value, past any leading
    /// whitespace.
    pub fn new(text: &'a str) -> Self {
        let mut reader = Reader {
            text,
            pos: 0,
            depth: 0,
        };
        reader.skip_ws();
        reader
    }

    /// The byte offset of the next unread byte. Read before and after a
    /// value, it gives the value's span in the text.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Checks that only whitespace follows the value read.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing content"));
        }
        Ok(())
    }

    /// Reads the next value's first token. A scalar is read whole; for
    /// [`Value::Arr`] and [`Value::Obj`] the bracket is read, and the
    /// caller goes on with [`Self::elements`], [`Self::fields`] or
    /// [`Self::skip_contents`].
    #[inline]
    pub fn value(&mut self) -> Result<Value<'a>, ParseError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                Ok(Value::Arr)
            }
            Some(b'{') => {
                self.pos += 1;
                Ok(Value::Obj)
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Reads the elements of the array [`Self::value`] just opened, up to
    /// its `]`: `each` is called once per element and must read exactly
    /// that element.
    pub fn elements(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Reads the fields of the object [`Self::value`] just opened, up to
    /// its `}`, in their order in the text, duplicates included: `each`
    /// is called with each key and must read exactly its value.
    pub fn fields(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected '\"'"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            each(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Reads whatever remains of `value`, which [`Self::value`] just
    /// returned: a container's elements or fields, nothing for a scalar.
    pub fn skip_contents(&mut self, value: &Value<'_>) -> Result<(), ParseError> {
        match value {
            Value::Arr => self.elements(Self::skip),
            Value::Obj => self.fields(|reader, _| reader.skip()),
            _ => Ok(()),
        }
    }

    /// Reads one whole value, checked and discarded.
    pub fn skip(&mut self) -> Result<(), ParseError> {
        let value = self.value()?;
        self.skip_contents(&value)
    }

    /// Reads one whole value: a scalar with its payload, a container
    /// checked and reported by its kind alone.
    pub fn scalar(&mut self) -> Result<Value<'a>, ParseError> {
        let value = self.value()?;
        self.skip_contents(&value)?;
        Ok(value)
    }

    fn err(&self, reason: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            reason,
        }
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        self.pos += self.bytes()[self.pos..]
            .iter()
            .take_while(|&&b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
    }

    fn literal(&mut self, lit: &str, value: Value<'a>) -> Result<Value<'a>, ParseError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Moves past the run of plain string bytes at the position: up to
    /// the next quote, backslash or control character.
    #[inline]
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        let run = self.bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
        self.pos = run.map_or(self.text.len(), |n| start + n);
        // The run ends at an ASCII byte or at the end, so on a char
        // boundary of the `str`.
        &self.text[start..self.pos]
    }

    /// A string token, its opening quote at the position.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.pos += 1;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
            out.push_str(self.plain_run());
        }
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require the paired \uXXXX low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        if self.peek() != Some(b'u') {
                            return Err(self.err("expected low surrogate escape"));
                        }
                        self.pos += 1;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    #[inline]
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        // `f64::from_str` saturates overflow to ±∞ instead of erroring;
        // gate it out so non-finite values can never enter the value space
        // (the module's documented invariant).
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(self.err("number out of range")),
        }
    }

    #[inline]
    fn digits(&mut self) -> usize {
        let count = self.bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += count;
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-0.5e3").unwrap(), Json::Num(-500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":{"d":"e"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("c").unwrap().get("d").and_then(Json::as_str),
            Some("e")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01x",
            "\"unterminated",
            "nul",
            "1 2",
            "[1,]",
            "{,}",
            "+1",
            ".5",
            "1.",
            "1e",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            // Overflow saturates f64::from_str to ∞; must be rejected, not
            // smuggled in as a non-finite value.
            "1e999",
            "-1e999",
            "[1e999]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" slash\\ newline\n tab\t unicode→ nul\u{0}";
        let json = Json::Str(original.to_string()).to_string();
        assert_eq!(
            Json::parse(&json).unwrap().as_str().unwrap(),
            original,
            "{json}"
        );
        // Escapes parse too.
        assert_eq!(
            Json::parse(r#""a\/b\u0041\ud83d\ude00""#).unwrap(),
            Json::Str("a/bA😀".into())
        );
    }

    #[test]
    // The long literal is the point: more digits than the shortest
    // representation, still one exact f64.
    #[allow(clippy::excessive_precision)]
    fn numbers_round_trip_bit_exactly() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            1.32124942511114235e10,
            f64::MIN_POSITIVE,
            f64::MAX,
            2f64.powi(53) + 2.0,
            1e-300,
        ] {
            let s = Json::Num(n).to_string();
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n} via {s}");
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn integer_accessors_are_exact() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(2f64.powi(60)).as_u64(), None);
        assert_eq!(Json::Num(3.0).as_usize(), Some(3));
        assert_eq!(Json::Str("3".into()).as_u64(), None);
    }

    #[test]
    fn signed_integer_accessor_is_exact() {
        assert_eq!(Json::Num(-7.0).as_i64(), Some(-7));
        assert_eq!(Json::Num(7.0).as_i64(), Some(7));
        assert_eq!(Json::Num(-7.5).as_i64(), None);
        assert_eq!(Json::Num(-(2f64.powi(60))).as_i64(), None);
        assert_eq!(Json::Str("-3".into()).as_i64(), None);
        // i32::MIN (the tuner's degenerate log2 bucket) survives the wire.
        let v = Json::from(i32::MIN);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_i64(), Some(i64::from(i32::MIN)));
        assert_eq!(Json::from(-42i64).to_string(), "-42");
    }

    #[test]
    fn object_builder_and_lookup_preserve_order() {
        let v = Json::obj([
            ("z", Json::from(1u64)),
            ("a", Json::from("x")),
            ("z", Json::from(2u64)), // duplicate: first wins on lookup
        ]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":"x","z":2}"#);
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(1));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn display_output_reparses_to_the_same_value() {
        let text = r#"{"apps":[{"name":"CG","work":5.7e10,"seq_fraction":0.05}],
                       "flag":true,"nothing":null,"nested":[[1,2],[3]]}"#;
        let v = Json::parse(text).unwrap();
        let round = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, round);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Integers in the f64-exact window print exactly as `{}` prints
        /// the `i64`: `bits` picks the magnitude's width, so every digit
        /// count from 1 to 16 is drawn.
        fn integers_print_like_i64(bits in 0u32..54, raw in 0u64..u64::MAX, negative in 0u8..2) {
            let magnitude = (raw & ((1u64 << bits) - 1)) as i64;
            let n = if negative == 1 { -magnitude } else { magnitude };
            prop_assert_eq!(Json::Num(n as f64).to_string(), format!("{}", n));
        }
    }

    /// Writes one value through a `String`-backed writer.
    fn written(f: impl FnOnce(&mut JsonWriter<&mut String>)) -> String {
        let mut out = String::new();
        f(&mut JsonWriter::new(&mut out));
        out
    }

    #[test]
    fn writer_fields_match_the_tree() {
        let tree = Json::obj([
            ("ok", Json::from(true)),
            ("id", Json::from(3u64)),
            ("big", Json::from(u64::MAX)),
            ("edge", Json::from(1u64 << 53)),
            ("x", Json::from(-0.0)),
            ("inf", Json::from(f64::INFINITY)),
            ("name", Json::from("q\"\\\n\u{1}é")),
            ("none", Json::Null),
            ("empty", Json::arr([])),
            ("nested", Json::arr([Json::obj([("a", Json::from(1.5))])])),
        ]);
        let fields = written(|w| {
            w.begin_object();
            w.key("ok").bool(true);
            w.key("id").int(3);
            w.key("big").int(u64::MAX);
            w.key("edge").int(1 << 53);
            w.key("x").num(-0.0);
            w.key("inf").num(f64::INFINITY);
            w.key("name").str("q\"\\\n\u{1}é");
            w.key("none").null();
            w.key("empty").begin_array().end_array();
            w.key("nested").begin_array().begin_object();
            w.key("a").num(1.5);
            w.end_object().end_array();
            w.end_object();
        });
        assert_eq!(fields, tree.to_string());
        assert_eq!(
            written(|w| {
                w.value(&tree);
            }),
            tree.to_string()
        );
        // The writer's own bytes parse and print back unchanged.
        for text in [
            r#"{"op":"create","apps":[{"name":"A \"1\"\\\n\u001f","work":747130005686.6029}]}"#,
            "[0,-0,0.5,-1.25,123456789012345,0.000659,0.12362570224346385,9007199254740992]",
            "[]",
            "{}",
            "\"é😀\u{7f}\"",
        ] {
            assert_eq!(Json::parse(text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn rewind_drops_a_half_written_value() {
        let out = written(|w| {
            w.begin_array().int(1);
            let mark = w.mark();
            w.begin_object().key("half");
            w.rewind(mark);
            w.int(2).end_array();
        });
        assert_eq!(out, "[1,2]");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chunked integer array has the tree's bytes at every length,
        /// across chunk boundaries and past the f64-exact window.
        fn int_arrays_match_the_tree(len in 0usize..1500, bits in 0u32..64, seed in 0u64..u64::MAX) {
            let items: Vec<u64> = (0..len as u64)
                .map(|i| (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> (63 - bits))
                .collect();
            let tree = Json::arr(items.iter().map(|&n| Json::from(n)));
            prop_assert_eq!(written(|w| {
                w.int_array(items.iter().copied());
            }), tree.to_string());
        }
    }

    #[test]
    fn eight_digit_integers_print_as_format_does() {
        let mut dst = [0; 8];
        let powers = (0..=8).map(|k| 10u64.pow(k));
        for n in powers
            .flat_map(|p| [p - 1, p])
            .chain((0..EIGHT_DIGITS).step_by(9973))
        {
            let count = eight_digits(n.min(EIGHT_DIGITS - 1), &mut dst);
            let n = n.min(EIGHT_DIGITS - 1);
            assert_eq!(&dst[..count], format!("{n}").as_bytes(), "{n}");
        }
    }

    #[test]
    fn integer_window_edges_print_exactly() {
        let edge = (1i64 << 53) - 1;
        for n in [0, 1, -1, 9, 10, 99, 100, -100, edge, -edge] {
            assert_eq!(Json::Num(n as f64).to_string(), format!("{n}"));
        }
        assert_eq!(Json::Num(-0.0).to_string(), "-0");
        // 2^53 is outside the window and takes the float path.
        assert_eq!(Json::Num(2f64.powi(53)).to_string(), "9007199254740992");
        assert_eq!(Json::Num(-(2f64.powi(53))).to_string(), "-9007199254740992");
    }

    /// SplitMix64: the document generator's stream, seeded per case.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }
    }

    /// Whitespace between tokens: mostly none.
    fn space(mix: &mut Mix, out: &mut String) {
        if mix.below(8) == 0 {
            out.push_str(mix.pick(&[" ", "\t", "\r\n", "  "]));
        }
    }

    /// A number: an interesting `f64`, spelled the writer's way or
    /// another way that parses to it, or a spelling the writer never
    /// uses (a leading zero, an integer past 2^53, an exponent).
    fn number(mix: &mut Mix, out: &mut String) {
        let n = match mix.below(11) {
            0 => f64::from_bits(mix.next()),
            // Full 53-bit mantissas between 2^-40 and 2^53: fractions of
            // 16 and 17 significant digits.
            9 | 10 => (mix.next() >> 11) as f64 / 2f64.powi(mix.below(94) as i32),
            1 => (mix.next() >> mix.below(64)) as f64,
            2 => -((mix.next() >> (11 + mix.below(53))) as f64),
            3 => mix.pick(&[0.0, -0.0, 0.05, 0.535, 6.59e-4, 1.5, 100.0, 1e-310, 5e-324]),
            4 => (mix.below(2_000_001) as f64 - 1e6) / 10f64.powi(mix.below(8) as i32),
            5 => 2f64.powi(53) + mix.below(5) as f64 - 2.0,
            6 => f64::from_bits(mix.next()) * 1e-300,
            7 => mix.below(1 << 20) as f64 * 10f64.powi(mix.below(40) as i32 - 20),
            _ => (mix.next() as f64) / 7.0,
        };
        let n = if n.is_finite() { n } else { 1.25 };
        let canonical = Json::Num(n).to_string();
        let spelled = match mix.below(10) {
            0..=2 => canonical,
            // The writer's digits with the last one moved by one, and the
            // value rounded to 15 to 19 digits after the point: spellings
            // that may or may not parse back to `n`, one digit off the
            // writer's or longer.
            8 => {
                let mut bytes = canonical.into_bytes();
                let last = bytes.len() - 1;
                bytes[last] = match bytes[last] {
                    b'0' => b'1',
                    b'9' => b'8',
                    digit if mix.below(2) == 0 => digit + 1,
                    digit => digit - 1,
                };
                String::from_utf8(bytes).expect("ASCII")
            }
            9 => format!("{n:.*}", 15 + mix.below(5) as usize),
            3 => format!("{n:e}"),
            4 => format!("{n:E}").replace('E', "E+").replace("E+-", "E-"),
            5 if canonical.contains('.') => canonical + "0",
            5 => canonical + ".0",
            6 => mix
                .pick(&[
                    "01",
                    "-00",
                    "1E+2",
                    "0e0",
                    "-0.0",
                    "9007199254740993",
                    "1.50",
                ])
                .to_string(),
            _ => format!("{n:?}"),
        };
        out.push_str(&spelled);
    }

    /// A string token: plain characters, the ones the writer escapes,
    /// control characters and non-ASCII ones, each either raw (where the
    /// grammar allows it) or escaped in one of the ways that decode to it.
    fn string(mix: &mut Mix, out: &mut String) {
        out.push('"');
        for _ in 0..mix.below(6) {
            let c = mix.pick(&[
                'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
            ]);
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\n' => Some("\\n"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let raw_ok = !matches!(c, '"' | '\\') && c >= ' ';
            match (mix.below(3), short) {
                (0, _) if raw_ok => out.push(c),
                (1, Some(short)) => out.push_str(short),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        let hex = format!("\\u{:04x}", unit);
                        out.push_str(&if mix.below(2) == 0 {
                            hex.to_uppercase().replace("\\U", "\\u")
                        } else {
                            hex
                        });
                    }
                }
            }
        }
        out.push('"');
    }

    /// A document: scalars, and arrays and objects up to `depth` deep,
    /// objects drawing keys from a small set so that some repeat.
    fn document(mix: &mut Mix, depth: u32, out: &mut String) {
        space(mix, out);
        match mix.below(if depth == 0 { 6 } else { 8 }) {
            0 => out.push_str(mix.pick(&["null", "true", "false"])),
            1..=3 => number(mix, out),
            4 | 5 => string(mix, out),
            6 => {
                out.push('[');
                for i in 0..mix.below(4) {
                    if i > 0 {
                        out.push(',');
                    }
                    document(mix, depth - 1, out);
                }
                space(mix, out);
                out.push(']');
            }
            _ => {
                out.push('{');
                for i in 0..mix.below(4) {
                    if i > 0 {
                        out.push(',');
                    }
                    space(mix, out);
                    out.push_str(mix.pick(&[
                        "\"op\"",
                        "\"id\"",
                        "\"a\\u0062\"",
                        "\"\"",
                        "\"k\\n\"",
                    ]));
                    space(mix, out);
                    out.push(':');
                    document(mix, depth - 1, out);
                }
                space(mix, out);
                out.push('}');
            }
        }
        space(mix, out);
    }

    /// `wire_fuzz`'s edits: flip a bit, substitute a byte or truncate,
    /// then decode lossily.
    fn mangle(text: &str, mix: &mut Mix) -> String {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..mix.below(4) {
            if bytes.is_empty() {
                break;
            }
            let at = mix.below(bytes.len() as u64) as usize;
            match mix.below(3) {
                0 => bytes[at] ^= 1 << mix.below(8),
                1 => bytes[at] = mix.below(256) as u8,
                _ => bytes.truncate(at),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Reading a document and skipping it fail at the same byte with
        /// the same reason as parsing it, and the tree a reader builds
        /// value by value is the parse.
        fn the_reader_checks_what_the_parser_checks(seed in 0u64..u64::MAX) {
            let mix = &mut Mix(seed);
            let mut text = String::new();
            document(mix, 4, &mut text);
            let text = mangle(&text, mix);
            let mut reader = Reader::new(&text);
            let skipped = reader.skip().and_then(|()| reader.finish());
            prop_assert_eq!(skipped, Json::parse(&text).map(|_| ()), "{:?}", text);
        }
    }
}
