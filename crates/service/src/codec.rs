//! The wire codec's two halves: a [`Writer`] that renders one frame
//! straight into a pre-sized `String`, and a [`Reader`] that decodes
//! payload bytes straight into typed fields. `wire.rs` holds the schema;
//! this module holds only the JSON mechanics, with four bounds:
//!
//! * **Fixed depth.** The reader never recurses. Schema fields are read
//!   by the schema's own code, which nests at most one object deep, and
//!   an unknown key's value is skipped by an iterative scanner that
//!   refuses nesting past [`MAX_NESTING`]. No payload can exhaust a
//!   connection thread's stack.
//! * **Exact integers.** An integer field is a digit run accumulated
//!   into a `u64` with overflow checks, so every `u64` round-trips. An
//!   integral float such as `5.0` is still accepted, up to 2^53.
//! * **Finite floats.** Floats render with `Display` and parse with
//!   `str::parse::<f64>` on the token slice, which round-trips every
//!   finite `f64` bit-exactly (the soak test's bit-identity assertion
//!   depends on it). A non-finite value renders as `null`, and a number
//!   that parses to ±inf, such as `1e400`, is an error.
//! * **Linear time, bounded echo.** Strings are scanned once; error
//!   messages quote at most [`ECHO_BYTES`] bytes of client text.

use abr_exp::report::json_escape;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest container nesting the unknown-key skipper accepts (one bit
/// per level of a `u64`).
pub(crate) const MAX_NESTING: u32 = 64;

/// Longest slice of client text an error message quotes.
pub(crate) const ECHO_BYTES: usize = 64;

/// The largest integer an integral float may carry into an integer
/// field: beyond 2^53 a float no longer holds every integer exactly.
const MAX_EXACT_FLOAT_INT: f64 = 9_007_199_254_740_992.0;

/// At most [`ECHO_BYTES`] of `s`, cut at a character boundary, for
/// quoting client text in an error message.
pub(crate) fn clip(s: &str) -> Cow<'_, str> {
    if s.len() <= ECHO_BYTES {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(format!("{}...", &s[..s.floor_char_boundary(ECHO_BYTES)]))
    }
}

/// Renders one JSON object. Keys are the schema's own ASCII names and
/// are written verbatim; string values are escaped by the workspace's
/// one JSON escaper, [`json_escape`].
pub(crate) struct Writer {
    out: String,
}

impl Writer {
    /// Opens `{"type":"<ty>"` in a buffer of `capacity` bytes.
    pub(crate) fn new(ty: &str, capacity: usize) -> Writer {
        let mut out = String::with_capacity(capacity);
        out.push_str("{\"type\":\"");
        out.push_str(ty);
        out.push('"');
        Writer { out }
    }

    fn key(&mut self, key: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    /// Opens a nested object under `key`; close it with [`Writer::close`].
    pub(crate) fn open(&mut self, key: &str) {
        self.key(key);
        self.out.push('{');
    }

    /// Closes the innermost open object.
    pub(crate) fn close(&mut self) {
        self.out.push('}');
    }

    /// Closes the frame's object and returns the payload.
    pub(crate) fn finish(mut self) -> String {
        self.close();
        self.out
    }

    pub(crate) fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        let _ = write!(self.out, "{v}");
    }

    pub(crate) fn f64(&mut self, key: &str, v: f64) {
        self.key(key);
        push_f64(&mut self.out, v);
    }

    pub(crate) fn bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    pub(crate) fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.out.push('"');
        self.out.push_str(&json_escape(v));
        self.out.push('"');
    }

    pub(crate) fn f64s(&mut self, key: &str, xs: &[f64]) {
        self.array(key, xs, |out, &x| push_f64(out, x));
    }

    pub(crate) fn usizes(&mut self, key: &str, xs: &[usize]) {
        self.array(key, xs, |out, x| {
            let _ = write!(out, "{x}");
        });
    }

    fn array<T>(&mut self, key: &str, xs: &[T], mut item: impl FnMut(&mut String, &T)) {
        self.key(key);
        self.out.push('[');
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            item(&mut self.out, x);
        }
        self.out.push(']');
    }
}

/// `Display` digits for a finite float (the shortest that re-parse to
/// the same bits), `null` otherwise: JSON has no inf/nan.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A single-pass decoder over one payload.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at offset {}", self.pos)
    }

    /// Skips whitespace, then consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        self.ws();
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Succeeds only at the end of the payload (trailing whitespace
    /// allowed).
    pub(crate) fn end(&mut self) -> Result<(), String> {
        self.ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing bytes"))
        }
    }

    /// Reads an object, calling `field` with the reader positioned at
    /// each key's value; `field` must consume that value (its own
    /// reader, or [`Reader::skip`]). Keys may come in any order. A
    /// `null` value counts as an absent key and never reaches `field`.
    pub(crate) fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.key()?;
            if !self.literal("null") {
                field(self, &key)?;
            }
            if self.eat(b'}') {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let key = self.string()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Reads a string; borrowed from the payload unless it has escapes.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            // Copy the run up to the next quote or backslash. Both are
            // ASCII, so every cut is a character boundary.
            let start = self.pos;
            let run = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += run;
            let chunk = &self.text[start..self.pos];
            let quote = self.bytes()[self.pos] == b'"';
            self.pos += 1;
            if quote {
                return Ok(match out {
                    None => Cow::Borrowed(chunk),
                    Some(mut s) => {
                        s.push_str(chunk);
                        Cow::Owned(s)
                    }
                });
            }
            let s = out.get_or_insert_with(String::new);
            s.push_str(chunk);
            let esc = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
            self.pos += 1;
            s.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                _ => return Err(self.error("bad escape")),
            });
        }
    }

    /// The character of a `\uXXXX` escape (the `\u` consumed), joining a
    /// UTF-16 surrogate pair. A lone surrogate is an error: it has no
    /// `char`.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = match hi {
            0xd800..=0xdbff => {
                if !self.text[self.pos..].starts_with("\\u") {
                    return Err(self.error("lone surrogate in \\u escape"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&lo) {
                    return Err(self.error("lone surrogate in \\u escape"));
                }
                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
            }
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.error("lone surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(digits.iter().fold(0, |acc, &d| acc * 16 + (d as char).to_digit(16).unwrap_or(0)))
    }

    /// The slice of one number token (JSON's number alphabet), which
    /// must start with `-` or a digit.
    fn number_token(&mut self) -> Result<&'a str, String> {
        self.ws();
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("expected a number"));
        }
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.peek() {
            self.pos += 1;
        }
        Ok(&self.text[start..self.pos])
    }

    /// Reads a finite float.
    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let token = self.number_token()?;
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            Ok(_) => Err(format!("number out of range at offset {start}")),
            Err(_) => Err(format!("bad number at offset {start}")),
        }
    }

    /// Reads an unsigned integer: a digit run exactly, or an integral
    /// float up to 2^53.
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let token = self.number_token()?;
        if token.bytes().all(|d| d.is_ascii_digit()) {
            return token
                .bytes()
                .try_fold(0u64, |acc, d| acc.checked_mul(10)?.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| format!("integer out of range at offset {start}"));
        }
        match token.parse::<f64>() {
            Ok(v) if v.fract() == 0.0 && (0.0..=MAX_EXACT_FLOAT_INT).contains(&v) => Ok(v as u64),
            Ok(_) => Err(format!("expected an unsigned integer at offset {start}")),
            Err(_) => Err(format!("bad number at offset {start}")),
        }
    }

    pub(crate) fn usize(&mut self) -> Result<usize, String> {
        let start = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("integer out of range at offset {start}"))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, String> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.error("expected `true` or `false`"))
        }
    }

    /// Reads an array whose every element `item` decodes.
    pub(crate) fn array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.eat(b']') {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(b']') {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }

    /// Skips one value of any shape without recursion: open containers
    /// are tracked one bit per level (set = object), so nesting past
    /// [`MAX_NESTING`] is an error, never a deep stack.
    pub(crate) fn skip(&mut self) -> Result<(), String> {
        let mut objects = 0u64;
        let mut depth = 0u32;
        loop {
            // At the start of a value.
            self.ws();
            match self.peek() {
                Some(open @ (b'{' | b'[')) => {
                    if depth == MAX_NESTING {
                        return Err(self.error(&format!("nesting deeper than {MAX_NESTING}")));
                    }
                    self.pos += 1;
                    let is_object = open == b'{';
                    objects = (objects & !(1 << depth)) | (u64::from(is_object) << depth);
                    depth += 1;
                    if !self.eat(if is_object { b'}' } else { b']' }) {
                        if is_object {
                            self.key()?;
                        }
                        continue;
                    }
                    depth -= 1;
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    let start = self.pos;
                    if self.number_token()?.parse::<f64>().is_err() {
                        return Err(format!("bad number at offset {start}"));
                    }
                }
                _ => {
                    if !(self.literal("true") || self.literal("false") || self.literal("null")) {
                        return Err(self.error("expected a value"));
                    }
                }
            }
            // After a value: close finished containers, or move on to the
            // next element.
            loop {
                if depth == 0 {
                    return Ok(());
                }
                let is_object = objects >> (depth - 1) & 1 == 1;
                if self.eat(if is_object { b'}' } else { b']' }) {
                    depth -= 1;
                    continue;
                }
                self.expect(b',')?;
                if is_object {
                    self.key()?;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skip_all(text: &str) -> Result<(), String> {
        let mut r = Reader::new(text);
        r.skip()?;
        r.end()
    }

    #[test]
    fn skipper_accepts_the_grammar() {
        for ok in [
            r#"{"a":[1,2.5,-3e-2],"b":"x\"y\n","c":true,"d":null,"e":{"k":[]},"f":{}}"#,
            "[]",
            " [ [ ] , { } ] ",
            "\"\\u00e9\\ud83d\\ude00\"",
            "-0",
        ] {
            assert!(skip_all(ok).is_ok(), "rejected {ok:?}");
        }
    }

    #[test]
    fn skipper_rejects_malformed_values() {
        for bad in
            ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "[}", "{]", "{1:2}", "1-"]
        {
            assert!(skip_all(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn skipper_bounds_nesting_without_recursing() {
        let deep = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(skip_all(&deep(MAX_NESTING as usize)).is_ok());
        let err = skip_all(&deep(MAX_NESTING as usize + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        assert!(skip_all(&"[".repeat(1 << 20)).is_err());
        assert!(skip_all(&"{\"a\":".repeat(1 << 16)).is_err());
    }

    #[test]
    fn escapes_round_trip_through_writer_and_reader() {
        let s = "q\"b\\n\nr\rt\t\u{1}\u{1f}\u{7f} é ∑ 😀 /";
        let mut w = Writer::new("t", 0);
        w.str("s", s);
        let frame = w.finish();
        let mut got = None;
        Reader::new(&frame)
            .object(|r, k| {
                match k {
                    "s" => got = Some(r.string()?.into_owned()),
                    _ => r.skip()?,
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(got.as_deref(), Some(s));
    }

    #[test]
    fn unicode_escapes_decode_and_join_surrogate_pairs() {
        let s = |t: &str| Reader::new(t).string().map(Cow::into_owned);
        assert_eq!(s(r#""\u00e9\ud83d\ude00 é😀""#), Ok("é😀 é😀".into()));
        assert_eq!(s(r#""\u00E9""#), Ok("é".into()));
    }

    #[test]
    fn clip_bounds_echoed_text_at_a_char_boundary() {
        assert_eq!(clip("short"), "short");
        let long = "é".repeat(100);
        let c = clip(&long);
        assert!(c.len() <= ECHO_BYTES + 3 && c.ends_with("..."), "{c}");
    }
}
