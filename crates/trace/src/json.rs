//! A minimal deterministic JSON writer (and, for tests, a validator).
//!
//! The workspace has no serializer dependency, so every exporter in
//! this crate writes JSON through these helpers. Determinism rules: map keys are emitted in a fixed
//! (sorted or insertion) order, floats use Rust's shortest round-trip
//! `{}` formatting, and strings are escaped per RFC 8259.

use std::fmt::Write as _;

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

/// Validate that `s` is a single well-formed JSON value. Returns
/// `Err(description)` on the first syntax error. Used by tests to assert
/// exporters produce loadable files without a JSON dependency.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at offset {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {c:#x} at {i}", i = *i)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at {i}", i = *i))
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while *i < b.len()
        && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *i += 1;
    }
    if *i == start {
        return Err(format!("empty number at {start}"));
    }
    std::str::from_utf8(&b[start..*i])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .map(|_| ())
        .ok_or_else(|| format!("malformed number at {start}"))
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // opening quote
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        if b.len() < *i + 5 || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at {i}", i = *i));
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at {i}", i = *i)),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {i}", i = *i)),
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => {
                *i += 1;
            }
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at {i}", i = *i)),
        }
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected object key at {i}", i = *i));
        }
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at {i}", i = *i));
        }
        *i += 1;
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => {
                *i += 1;
            }
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at {i}", i = *i)),
        }
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
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn validator_accepts_wellformed() {
        for ok in [
            "{}",
            "[]",
            "[1,2.5,-3e2]",
            r#"{"a":[{"b":"c"},null,true,false]}"#,
            r#""hi""#,
            "42",
        ] {
            assert!(validate(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn validator_rejects_malformed() {
        for bad in [
            "{",
            "[1,]",
            r#"{"a":}"#,
            r#"{"a" 1}"#,
            "tru",
            r#""unterminated"#,
            "[1] x",
            "\"raw\ncontrol\"",
        ] {
            assert!(validate(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn floats_round_trip_deterministically() {
        let mut a = String::new();
        push_f64(&mut a, 0.1 + 0.2);
        let mut b = String::new();
        push_f64(&mut b, 0.1 + 0.2);
        assert_eq!(a, b);
        assert!(validate(&a).is_ok());
        let mut n = String::new();
        push_f64(&mut n, f64::NAN);
        assert_eq!(n, "null");
    }
}
