//! Hand-rolled JSON: one writer, one parser, one module.
//!
//! The build environment is offline (no serde), yet `vbp sweep --json`,
//! the daemon's `STATS` document, both HTTP doors and the benchmark all
//! exchange structured text. The writer ([`JsonObject`], [`JsonArray`],
//! [`push_json_str`], [`push_json_f64`]) is a minimal RFC 8259 emitter;
//! the reader ([`parse_json`] → [`JsonValue`]) is a total
//! recursive-descent parser (depth-capped, surrogate-aware,
//! trailing-garbage rejecting) that takes bytes straight off a socket.
//! The test module pins the pair against each other: whatever the writer
//! emits, the parser reads back equal.

use std::fmt::Write as _;

/// Appends `s` to `out` as a double-quoted JSON string, escaping quotes,
/// backslashes, and control characters — including DEL (`\u{7f}`), which
/// RFC 8259 permits raw but terminals and log scrapers do not. Non-ASCII
/// text (dataset names arrive from untrusted clients) passes through as
/// raw UTF-8, which JSON allows.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c as u32 == 0x7f => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` as a JSON number. NaN and ±∞ have no JSON
/// representation and become `null`.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's f64 Display prints plain decimal notation that
        // round-trips — valid JSON as-is.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Incremental JSON object builder (chainable, consuming).
///
/// ```
/// use variantdbscan::JsonObject;
/// let s = JsonObject::new().str("name", "SW4").uint("points", 4).finish();
/// assert_eq!(s, r#"{"name":"SW4","points":4}"#);
/// ```
#[derive(Clone, Debug)]
pub struct JsonObject {
    buf: String,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_json_str(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a number field (`null` for non-finite values).
    pub fn float(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        push_json_f64(&mut self.buf, value);
        self
    }

    /// Adds a boolean field.
    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a `null` field.
    pub fn null(mut self, key: &str) -> Self {
        self.key(key);
        self.buf.push_str("null");
        self
    }

    /// Adds a field whose value is pre-rendered JSON (a nested object or
    /// array built with this module's writers).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Incremental JSON array builder.
#[derive(Clone, Debug)]
pub struct JsonArray {
    buf: String,
}

impl Default for JsonArray {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonArray {
    /// Starts an empty array.
    pub fn new() -> Self {
        Self {
            buf: String::from("["),
        }
    }

    fn sep(&mut self) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
    }

    /// Appends a pre-rendered JSON element.
    pub fn push_raw(&mut self, element: &str) {
        self.sep();
        self.buf.push_str(element);
    }

    /// Appends a string element.
    pub fn push_str(&mut self, element: &str) {
        self.sep();
        push_json_str(&mut self.buf, element);
    }

    /// Appends an unsigned integer element.
    pub fn push_uint(&mut self, element: u64) {
        self.sep();
        let _ = write!(self.buf, "{element}");
    }

    /// Appends a number element (`null` for non-finite values).
    pub fn push_float(&mut self, element: f64) {
        self.sep();
        push_json_f64(&mut self.buf, element);
    }

    /// Closes the array and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite — the grammar cannot spell NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys are kept; lookups
    /// answer the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match), `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number payload, `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in source order, `None` for non-objects.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Maximum nesting depth [`parse_json`] accepts; deeper documents are
/// rejected instead of recursing toward a stack overflow.
const MAX_JSON_DEPTH: usize = 64;

/// Parses one complete JSON document. Total: every input answers
/// `Ok` or a descriptive `Err` — no panic, no unbounded recursion
/// (depth-capped at [`MAX_JSON_DEPTH`]), trailing non-whitespace
/// rejected.
pub fn parse_json(bytes: &[u8]) -> Result<JsonValue, String> {
    let s = std::str::from_utf8(bytes).map_err(|_| "body is not valid UTF-8".to_string())?;
    let mut p = JsonParser { s, i: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(value)
}

struct JsonParser<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn bytes(&self) -> &[u8] {
        self.s.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.i))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_JSON_DEPTH {
            return Err(format!("nesting deeper than {MAX_JSON_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected byte at {}", self.i)),
            None => Err("unexpected end of document".into()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            // Copy the longest run free of escapes, terminators, and
            // control bytes in one slice (multi-byte UTF-8 included —
            // the input is a validated &str and the scan only stops at
            // ASCII bytes, so the slice boundary is a char boundary).
            while let Some(b) = self.peek() {
                match b {
                    b'"' | b'\\' => break,
                    0x00..=0x1f => return Err(format!("control byte in string at {}", self.i)),
                    _ => self.i += 1,
                }
            }
            out.push_str(&self.s[start..self.i]);
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let Some(b) = self.peek() else {
            return Err("unterminated escape".into());
        };
        self.i += 1;
        match b {
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
                let c = if (0xD800..=0xDBFF).contains(&hi) {
                    // High surrogate: a \uDC00-\uDFFF low half must
                    // follow to form one scalar value.
                    if self.peek() != Some(b'\\') {
                        return Err("lone high surrogate".into());
                    }
                    self.i += 1;
                    if self.peek() != Some(b'u') {
                        return Err("lone high surrogate".into());
                    }
                    self.i += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err("invalid low surrogate".into());
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or("invalid surrogate pair")?
                } else if (0xDC00..=0xDFFF).contains(&hi) {
                    return Err("lone low surrogate".into());
                } else {
                    char::from_u32(hi).ok_or("invalid \\u escape")?
                };
                out.push(c);
            }
            _ => return Err(format!("bad escape '\\{}'", char::from(b))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        // Slice the byte view, not the &str: `i + 4` may land inside a
        // multi-byte character and str indexing would panic there.
        let end = self.i.checked_add(4).filter(|&e| e <= self.s.len());
        let hex: [u8; 4] = match end.and_then(|e| self.bytes().get(self.i..e)) {
            Some(h) => h.try_into().expect("4-byte slice"),
            None => return Err("truncated \\u escape".into()),
        };
        if !hex.iter().all(|b| b.is_ascii_hexdigit()) {
            return Err("non-hex \\u escape".into());
        }
        self.i += 4;
        let hex = std::str::from_utf8(&hex).expect("validated ASCII hex");
        Ok(u32::from_str_radix(hex, 16).expect("validated hex"))
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let int_start = self.i;
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if int_digits > 1 && self.bytes()[int_start] == b'0' {
            // JSON forbids leading zeros: "01" is two tokens, not one.
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(format!("bad number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(format!("bad number at byte {start}"));
            }
        }
        let n: f64 = self.s[start..self.i]
            .parse()
            .map_err(|_| format!("bad number at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("number overflows f64 at byte {start}"));
        }
        Ok(JsonValue::Num(n))
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Characters the writer must escape or pass through: C0 controls,
    /// DEL, quote, backslash, a C1 control, Latin-1, CJK, astral planes.
    const ALPHABET: &str =
        "aZ0 \"\\/\n\r\t\0\u{1}\u{8}\u{c}\u{1f}\u{7f}\u{9f}µ日✓\u{1F600}\u{10348}\u{10FFFF}";

    /// Numbers worth a round trip: signed zero, subnormals, the extremes
    /// of both writers (`u64::MAX` included).
    const NUMBERS: [f64; 10] = [
        0.0,
        -0.0,
        -150.0,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        u64::MAX as f64,
        (1u64 << 53) as f64 + 2.0,
    ];

    fn gen_string(rng: &mut TestRng) -> String {
        let alphabet: Vec<char> = ALPHABET.chars().collect();
        (0..rng.usize_in(0, 8))
            .map(|_| alphabet[rng.usize_in(0, alphabet.len())])
            .collect()
    }

    /// A random document the writer's API can spell: the root is a
    /// container, `null`/booleans appear only as object fields, numbers
    /// are finite (non-finite ones are pinned below).
    fn gen_doc(rng: &mut TestRng, depth: usize, field: bool) -> JsonValue {
        let lo = match (depth, field) {
            (0, _) => 5,
            (_, true) => 0,
            (_, false) => 2,
        };
        match rng.usize_in(lo, if depth >= 4 { 5 } else { 7 }) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.bool()),
            2 => JsonValue::Num(NUMBERS[rng.usize_in(0, NUMBERS.len())]),
            3 => match f64::from_bits(rng.next_u64()) {
                n if n.is_finite() => JsonValue::Num(n),
                _ => JsonValue::Num((rng.next_u64() >> rng.usize_in(0, 64)) as f64),
            },
            4 => JsonValue::Str(gen_string(rng)),
            5 => JsonValue::Arr(
                (0..rng.usize_in(0, 4))
                    .map(|_| gen_doc(rng, depth + 1, false))
                    .collect(),
            ),
            _ => JsonValue::Obj(
                (0..rng.usize_in(0, 4))
                    .map(|_| (gen_string(rng), gen_doc(rng, depth + 1, true)))
                    .collect(),
            ),
        }
    }

    /// Whether the integer writers can spell `n` (so both number writers
    /// get exercised; `-0.0` must keep its sign through the float one).
    fn as_uint(n: f64) -> Option<u64> {
        (n.fract() == 0.0 && n.is_sign_positive() && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// Renders a container through the public writer only.
    fn render(doc: &JsonValue) -> String {
        match doc {
            JsonValue::Arr(items) => {
                let mut a = JsonArray::new();
                for item in items {
                    match item {
                        JsonValue::Num(n) => match as_uint(*n) {
                            Some(u) => a.push_uint(u),
                            None => a.push_float(*n),
                        },
                        JsonValue::Str(v) => a.push_str(v),
                        nested => a.push_raw(&render(nested)),
                    }
                }
                a.finish()
            }
            JsonValue::Obj(fields) => {
                let mut o = JsonObject::new();
                for (key, value) in fields {
                    o = match value {
                        JsonValue::Null => o.null(key),
                        JsonValue::Bool(b) => o.boolean(key, *b),
                        JsonValue::Num(n) => match as_uint(*n) {
                            Some(u) => o.uint(key, u),
                            None => o.float(key, *n),
                        },
                        JsonValue::Str(v) => o.str(key, v),
                        nested => o.raw(key, &render(nested)),
                    };
                }
                o.finish()
            }
            scalar => unreachable!("the writer has no bare-scalar API: {scalar:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever the writer emits parses back equal (rendering the
        /// parse again reproduces the text, so not even a zero's sign is
        /// lost), and never carries a raw C0 or DEL onto the wire.
        #[test]
        fn writer_output_parses_back_equal(seed in any::<u64>()) {
            let doc = gen_doc(&mut TestRng::for_case(seed, 0), 0, false);
            let text = render(&doc);
            prop_assert!(
                !text.chars().any(|c| (c as u32) < 0x20 || c as u32 == 0x7f),
                "raw control character in {text:?}"
            );
            let parsed = parse_json(text.as_bytes())
                .map_err(|e| TestCaseError::fail(format!("{text:?} rejected: {e}")))?;
            prop_assert_eq!(&parsed, &doc, "via {}", text);
            prop_assert_eq!(render(&parsed), text);
        }

        /// Total over arbitrary bytes, and over writer output with one
        /// byte flipped or the tail cut: `Ok` or `Err`, never a panic.
        #[test]
        fn parser_is_total(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            seed in any::<u64>(),
        ) {
            let _ = parse_json(&bytes);
            let mut rng = TestRng::for_case(seed, 1);
            let mut text = render(&gen_doc(&mut rng, 0, false)).into_bytes();
            let at = rng.usize_in(0, text.len());
            text[at] = rng.next_u64() as u8;
            let _ = parse_json(&text);
            text.truncate(at);
            let _ = parse_json(&text);
        }
    }

    /// The writer's byte-level policy, pinned: which characters escape
    /// and how, that non-ASCII passes through raw, and that non-finite
    /// numbers become `null`.
    #[test]
    fn writer_shapes_are_pinned() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\te\u{1}x\u{7f}µ日✓\u{9f}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001x\\u007fµ日✓\u{9f}\"");
        let mut a = JsonArray::new();
        a.push_uint(1);
        a.push_float(0.5);
        a.push_str("x");
        let s = JsonObject::new()
            .str("k", "v")
            .boolean("b", true)
            .null("n")
            .float("nan", f64::NAN)
            .float("inf", f64::INFINITY)
            .raw("a", &a.finish())
            .finish();
        assert_eq!(
            s,
            r#"{"k":"v","b":true,"n":null,"nan":null,"inf":null,"a":[1,0.5,"x"]}"#
        );
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonArray::new().finish(), "[]");
    }

    /// The parser's grammar edges: escapes it decodes, documents it must
    /// refuse (including the `\\u`-escape slicing regressions and the
    /// depth cap).
    #[test]
    fn parser_decodes_escapes_and_rejects_malformed_documents() {
        assert_eq!(
            parse_json(br#""a\nb\u0041\ud83d\ude00\/\b\f""#).unwrap(),
            JsonValue::Str("a\nbA\u{1F600}/\u{8}\u{c}".into())
        );
        let doc = parse_json(br#" {"a": [1, 2], "b": {"c": "d"}, "a": 3} "#).unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap(),
            &[JsonValue::Num(1.0), JsonValue::Num(2.0)],
            "duplicate keys: lookups answer the first"
        );
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        for bad in [
            &b""[..],
            b"nul",
            b"[1,]",
            b"{\"a\":}",
            b"{\"a\" 1}",
            b"\"unterminated",
            b"\"\\u12\"",
            b"\"\\ud800\"",
            b"\"\\udc00\"",
            // `\u` + 1 hex digit + a multi-byte char: hex4 must not slice
            // the &str at a non-char boundary (regression: panicked).
            "\"\\u0\u{10348}\"".as_bytes(),
            "\"\\u\u{e9}99\"".as_bytes(),
            "\"\\ud800\\u\u{10348}1\"".as_bytes(),
            b"01",
            b"1.",
            b".5",
            b"+1",
            b"1e",
            b"--1",
            b"1e999",
            b"{} trailing",
            b"\xff\xfe",
            b"\"ctrl\x01char\"",
            // The number grammar cannot spell a non-finite value.
            b"NaN",
            b"Infinity",
            b"-Infinity",
            b"inf",
            b"nan",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        // Depth cap: 100 nested arrays reject, shallow ones parse.
        let nested = |n: usize| [b"[".repeat(n), b"]".repeat(n)].concat();
        assert!(parse_json(&nested(100)).is_err());
        assert!(parse_json(&nested(10)).is_ok());
    }
}
