//! Minimal JSON for the `cosched serve` wire protocol.
//!
//! The build is fully offline (no crates.io), so — like the `rand`,
//! `proptest` and `criterion` shims next door — this crate implements
//! exactly the surface the workspace needs: a [`Json`] value type, a
//! recursive-descent parser ([`Json::parse`]) and a compact serializer
//! (`Display`), plus typed accessors for unpacking requests.
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
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content"));
        }
        Ok(v)
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
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer (`None` if the
    /// value is not a number, is negative, has a fractional part, or does
    /// not fit `u64` losslessly).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The numeric payload as an exact `usize` (same rules as
    /// [`Self::as_u64`], plus the value must fit `usize` — which on 32-bit
    /// targets is narrower than the f64-exact window).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The numeric payload as an exact signed integer (`None` if the value
    /// is not a number, has a fractional part, or lies outside the
    /// f64-exact window `±2^53`). The signed counterpart of
    /// [`Self::as_u64`] — what the tuner's signature buckets need, whose
    /// `⌊log2⌋` classes are negative for sub-unit quantities (and
    /// `i32::MIN` for the degenerate bucket).
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.is_finite() && n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
            Some(n as i64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
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

    /// A number (the `From<f64>` impl, spelled for call sites that read
    /// better with a name).
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
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
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Serializes a number. JSON cannot represent non-finite values; they
/// become `null` (senders are expected to gate them out beforehand).
fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        return f.write_str("null");
    }
    // Integers within the f64-exact window print without a fraction so ids
    // and counters look like integers on the wire; everything else uses
    // Rust's shortest round-trip representation. `-0.0` keeps its sign
    // (the `as i64` cast would drop it).
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        if n == 0.0 && n.is_sign_negative() {
            f.write_str("-0")
        } else {
            write_int(f, n as i64)
        }
    } else {
        write!(f, "{n}")
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

/// Writes `n` exactly as `write!(f, "{n}")` would, two digits at a time
/// into a stack buffer and then in one `write_str`, without the
/// formatting machinery (a solve reply carries thousands of indices).
fn write_int(f: &mut fmt::Formatter<'_>, n: i64) -> fmt::Result {
    // i64::MIN has 19 digits; with its sign that is 20 bytes.
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    let mut m = n.unsigned_abs();
    while m >= 100 {
        let d = (m % 100) as usize * 2;
        m /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if m >= 10 {
        let d = m as usize * 2;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + m as u8;
    }
    if n < 0 {
        pos -= 1;
        buf[pos] = b'-';
    }
    f.write_str(std::str::from_utf8(&buf[pos..]).expect("ASCII digits and sign"))
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Mirror the parser's fast path: emit contiguous runs of plain
    // characters in one call, dropping to per-character work only at the
    // (rare) escapes.
    let mut rest = s;
    while let Some(pos) = rest.find(|c: char| c == '"' || c == '\\' || (c as u32) < 0x20) {
        f.write_str(&rest[..pos])?;
        let c = rest[pos..].chars().next().expect("found char");
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0C}' => f.write_str("\\f")?,
            c => write!(f, "\\u{:04x}", c as u32)?,
        }
        rest = &rest[pos + c.len_utf8()..];
    }
    f.write_str(rest)?;
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, reason: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The slice is valid UTF-8 because the input is a &str and we
            // only stopped on ASCII boundaries.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
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
                        self.expect(b'u', "expected low surrogate escape")?;
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

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8");
        // `f64::from_str` saturates overflow to ±∞ instead of erroring;
        // gate it out so non-finite values can never enter the value space
        // (the module's documented invariant).
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
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
}
