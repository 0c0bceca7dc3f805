//! The workspace's JSON: one value type, one writer, one reader.
//!
//! The workspace has no serializer dependency, so every artifact —
//! Chrome traces, metrics snapshots, kernel profiles, the bench bins'
//! `results/*.json`, the lint report — is a [`Json`] tree rendered by
//! [`write`], and everything read back (`micro --markdown`, the artifact
//! gate, tests) goes through [`parse`]. Nothing else in the workspace
//! pushes a brace or escapes a string.
//!
//! [`write`] has one layout: compact (`"k":v`, `,`, no spaces), except
//! that a *table* — an array that is the document root or a direct field
//! of the root object — puts one element per line, so artifacts diff row
//! by row; the document ends in a newline. Object keys keep insertion
//! order, floats use Rust's shortest round-trip formatting
//! ([`push_f64`]; non-finite values become `null`), strings are escaped
//! per RFC 8259 ([`push_str_literal`]). Same value ⇒ same bytes, and
//! `write(&parse(s)?) == s` for every `s` that `write` produced.
//!
//! [`parse`] accepts exactly RFC 8259 (strict number grammar, no
//! trailing bytes) and bounds nesting at [`MAX_DEPTH`], so hostile input
//! yields `Err`, never a panic or a stack overflow.

use std::fmt::Write as _;

/// Containers nested deeper than this are rejected by [`parse`].
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Integers keep their own variants so `u64::MAX` and
/// negative counts survive a round trip exactly.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (what [`parse`] yields for `-1`).
    I64(i64),
    /// Any other number. Non-finite values are written as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// An array of `items`.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Append a field (builder style). Panics on a non-object: a bug in
    /// the caller, not an input error.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::with on non-object {other:?}"),
        }
        self
    }

    /// The value of this object's own field `key` (no descent into
    /// nested objects); `None` on a non-object or a missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number as an `f64`, whichever variant holds it.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(u) => Some(u as f64),
            Json::I64(i) => Some(i as f64),
            Json::F64(f) => Some(f),
            _ => None,
        }
    }

    /// The number, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|i| i.try_into().ok())
    }

    /// The number, if its value is an integer (`254.0` is).
    fn as_int(&self) -> Option<i128> {
        match *self {
            Json::U64(u) => Some(u.into()),
            Json::I64(i) => Some(i.into()),
            // Every integral f64 below 2^64 converts to i128 exactly.
            Json::F64(f) if f.fract() == 0.0 && f.abs() < 18446744073709551616.0 => Some(f as i128),
            _ => None,
        }
    }
}

/// Equality is by value: numbers compare numerically across the three
/// numeric variants (a float that [`write`] renders as `254` reads back
/// as `U64(254)`); object fields compare in order.
impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (a, b) => match (a.as_int(), b.as_int()) {
                (None, None) => matches!((a.as_f64(), b.as_f64()), (Some(x), Some(y)) if x == y),
                (x, y) => x == y,
            },
        }
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
json_from! {
    u64 => |v| Json::U64(v),
    u32 => |v| Json::U64(v.into()),
    usize => |v| Json::U64(v as u64),
    f64 => |v| Json::F64(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
}

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format an `f64` as a JSON number. JSON has no NaN/Inf; those map to
/// `null` (they should not occur in well-formed traces).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Render `v` as a JSON document in the canonical layout (see the module
/// docs), trailing newline included.
pub fn write(v: &Json) -> String {
    let mut out = String::new();
    push(&mut out, v, 0);
    out.push('\n');
    out
}

/// `level`: 0 = the root, 1 = a field of the root object, 2 = deeper.
/// Arrays above level 2 are tables: one element per line.
fn push(out: &mut String, v: &Json, level: u8) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::U64(u) => {
            let _ = write!(out, "{u}");
        }
        Json::I64(i) => {
            let _ = write!(out, "{i}");
        }
        Json::F64(f) => push_f64(out, *f),
        Json::Str(s) => push_str_literal(out, s),
        Json::Arr(items) => {
            let row_end = if level < 2 && !items.is_empty() {
                "\n"
            } else {
                ""
            };
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                out.push_str(row_end);
                push(out, item, 2);
            }
            out.push_str(row_end);
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                push_str_literal(out, k);
                out.push(':');
                push(out, v, (level + 1).min(2));
            }
            out.push('}');
        }
    }
}

/// Check that `s` is a single well-formed JSON value; `Err(description)`
/// on the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// Parse `s` as a single JSON value (RFC 8259, nesting bounded at
/// [`MAX_DEPTH`]). `Err` describes the first error and its byte offset.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser { s, i: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != s.len() {
        return p.err("trailing bytes");
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.i += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Consume a run of ASCII digits; `Err` if there is none.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return self.err("expected digit");
        }
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected byte"),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if !self.s.as_bytes()[self.i..].starts_with(lit.as_bytes()) {
            return self.err("bad literal");
        }
        self.i += lit.len();
        Ok(v)
    }

    /// `-? (0|[1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        let mut integer = true;
        if self.eat(b'.') {
            integer = false;
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integer = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let text = &self.s[start..self.i];
        if integer {
            match (text.parse::<u64>(), text.parse::<i64>()) {
                (Ok(u), _) => return Ok(Json::U64(u)),
                // `-0` is the float negative zero, not an integer.
                (_, Ok(i)) if i != 0 => return Ok(Json::I64(i)),
                _ => {}
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::F64(f)),
            _ => self.err("number out of range"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            // Runs between quotes, escapes and control bytes end on ASCII,
            // so the slice boundaries are char boundaries.
            let run = self.i;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            out.push_str(&self.s[run..self.i]);
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.err("raw control byte in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The character after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(c @ (b'"' | b'\\' | b'/')) => c as char,
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.i += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return self.err("unpaired surrogate");
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                return char::from_u32(code).map_or_else(|| self.err("unpaired surrogate"), Ok);
            }
            _ => return self.err("bad escape"),
        };
        self.i += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.s.get(self.i..self.i + 4);
        let Some(hex) = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit())) else {
            return self.err("bad \\u escape");
        };
        self.i += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// `[` or `{`, then `item (, item)*`, then `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1; // opening bracket
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return self.err("expected ',' or closing bracket");
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        let mut fields = Vec::new();
        self.items(b'}', |p| {
            p.skip_ws();
            if p.peek() != Some(b'"') {
                return p.err("expected object key");
            }
            let key = p.string()?;
            p.skip_ws();
            if !p.eat(b':') {
                return p.err("expected ':'");
            }
            fields.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_str_literal(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(parse(&s), Ok(Json::from("a\"b\\c\nd\te\u{1}")));
    }

    #[test]
    fn accepts_wellformed() {
        for ok in [
            "{}",
            "[]",
            "[1,2.5,-3e2]",
            r#"{"a":[{"b":"c"},null,true,false]}"#,
            r#""hi""#,
            "42",
            " [ 0 , -0 , 0.5e+1 , 1E-2 ] ",
        ] {
            assert!(validate(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            "tru",
            r#""unterminated"#,
            "[1] x",
            "\"raw\ncontrol\"",
            r#""\x""#,
            r#""\u12g4""#,
            r#""\udc00""#,
            r#""\ud800\u0041""#,
        ] {
            assert!(validate(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn number_grammar_is_strict() {
        // RFC 8259: no leading zeros, digits on both sides of the point,
        // digits in the exponent, no leading '+', no bare '-'.
        for bad in [
            "01", "5.", ".5", "-", "-01", "1e", "1e+", "+1", "1.e3", "0x10", "--1", "1e999",
        ] {
            assert!(validate(bad).is_err(), "{bad}");
        }
        assert!(matches!(parse("0"), Ok(Json::U64(0))));
        assert!(matches!(parse("-7"), Ok(Json::I64(-7))));
        assert!(matches!(
            parse("18446744073709551615"),
            Ok(Json::U64(u64::MAX))
        ));
        assert!(matches!(parse("18446744073709551616"), Ok(Json::F64(_))));
        assert!(matches!(parse("-0"), Ok(Json::F64(z)) if z.is_sign_negative()));
        assert_eq!(parse("2.5e2"), Ok(Json::U64(250)));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(validate(&"[".repeat(1_000_000)).is_err());
        assert!(validate(&"{\"a\":".repeat(1_000_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(validate(&at_limit).is_ok());
        let past_limit = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(validate(&past_limit).is_err());
    }

    #[test]
    fn decodes_every_escape() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00""#),
            Ok(Json::from("\"\\/\u{8}\u{c}\n\r\té😀"))
        );
    }

    #[test]
    fn floats_round_trip_deterministically() {
        let mut a = String::new();
        push_f64(&mut a, 0.1 + 0.2);
        let mut b = String::new();
        push_f64(&mut b, 0.1 + 0.2);
        assert_eq!(a, b);
        assert_eq!(parse(&a), Ok(Json::F64(0.1 + 0.2)));
        assert_eq!(write(&Json::F64(f64::NAN)), "null\n");
        assert_eq!(write(&Json::F64(f64::NEG_INFINITY)), "null\n");
    }

    #[test]
    fn layout_is_compact_with_one_table_row_per_line() {
        let row = |n: u64| Json::obj().with("n", n).with("tags", Json::arr([n.into()]));
        let doc = Json::obj()
            .with("artifact", "demo")
            .with("rows", Json::arr([row(1), row(2)]))
            .with("none", Json::arr([]))
            .with("knee", Json::obj().with("at", 1.5));
        assert_eq!(
            write(&doc),
            concat!(
                "{\"artifact\":\"demo\",\"rows\":[\n",
                "{\"n\":1,\"tags\":[1]},\n",
                "{\"n\":2,\"tags\":[2]}\n",
                "],\"none\":[],\"knee\":{\"at\":1.5}}\n"
            )
        );
        assert_eq!(
            write(&Json::arr([row(1)])),
            "[\n{\"n\":1,\"tags\":[1]}\n]\n"
        );
        assert_eq!(write(&Json::obj()), "{}\n");
    }

    #[test]
    fn hostile_strings_and_non_finite_floats_stay_loadable() {
        // What Rust's `{:?}` gets wrong for JSON: `\u{1}`-style escapes,
        // an escaped `'`, and `inf`/`NaN` as numbers.
        let hostile = Json::obj()
            .with("ctl\u{1}\u{7f}", "it's \"quoted\"\n")
            .with("inf", f64::INFINITY)
            .with("nan", f64::NAN);
        let text = write(&hostile);
        assert_eq!(
            text,
            "{\"ctl\\u0001\u{7f}\":\"it's \\\"quoted\\\"\\n\",\"inf\":null,\"nan\":null}\n"
        );
        let back = parse(&text).unwrap();
        assert_eq!(
            back.get("ctl\u{1}\u{7f}").and_then(Json::as_str),
            Some("it's \"quoted\"\n")
        );
        assert_eq!(back.get("inf"), Some(&Json::Null));
    }

    #[test]
    fn equality_is_numeric_and_ordered() {
        assert_eq!(Json::U64(254), Json::F64(254.0));
        assert_eq!(Json::I64(-3), Json::F64(-3.0));
        assert_eq!(Json::U64(0), Json::F64(-0.0));
        assert_ne!(Json::U64(u64::MAX), Json::F64(u64::MAX as f64)); // 2^64 - 1 vs 2^64
        assert_ne!(Json::U64(1), Json::F64(1.5));
        assert_ne!(Json::U64(1), Json::Str("1".into()));
        let ab = Json::obj().with("a", 1u64).with("b", 2u64);
        let ba = Json::obj().with("b", 2u64).with("a", 1u64);
        assert_ne!(ab, ba);
        assert_eq!(Json::F64(7.0).as_u64(), Some(7));
        assert_eq!(Json::I64(-7).as_u64(), None);
    }

    /// xorshift64*, so the property below needs no dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn gen_string(r: &mut Rng) -> String {
        const ALPHABET: [char; 14] = [
            'a', 'Z', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '😀', ']',
        ];
        (0..r.below(6))
            .map(|_| ALPHABET[r.below(14) as usize])
            .collect()
    }

    fn gen_json(r: &mut Rng, depth: u32) -> Json {
        const FLOATS: [f64; 10] = [
            0.0,
            -0.0,
            0.1,
            -2.5e-7,
            1e21,
            254.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            -1.0 / 3.0,
        ];
        match r.below(if depth == 0 { 6 } else { 8 }) {
            0 => Json::Null,
            1 => Json::Bool(r.below(2) == 0),
            2 => Json::U64([0, 1, 42, u64::MAX][r.below(4) as usize]),
            3 => Json::I64([-1, -42, i64::MIN][r.below(3) as usize]),
            4 => Json::F64(FLOATS[r.below(10) as usize]),
            5 => Json::Str(gen_string(r)),
            6 => Json::arr(
                (0..r.below(4))
                    .map(|_| gen_json(r, depth - 1))
                    .collect::<Vec<_>>(),
            ),
            _ => Json::Obj(
                (0..r.below(4))
                    .map(|_| (gen_string(r), gen_json(r, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn write_then_parse_is_the_identity() {
        let mut r = Rng(0x9E37_79B9_7F4A_7C15);
        for case in 0..2000 {
            let v = gen_json(&mut r, 4);
            let text = write(&v);
            let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, v, "case {case}: {text}");
            assert_eq!(write(&back), text, "case {case}");
        }
        // Non-finite floats are the one lossy case: they read back as null.
        let lossy = Json::arr([Json::F64(f64::NAN), Json::F64(f64::INFINITY)]);
        let text = write(&lossy);
        assert_eq!(parse(&text), Ok(Json::arr([Json::Null, Json::Null])));
        assert_eq!(write(&parse(&text).unwrap()), text);
    }
}
