//! Lexer for the HeteroDoop C subset.
//!
//! Produces a token stream from annotated MapReduce source. `#pragma`
//! lines (including `\`-continued ones) are captured as single
//! [`Tok::Pragma`] tokens and parsed separately by [`crate::pragma`].

use crate::error::{CcError, Span};

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// String literal (unescaped contents).
    StrLit(String),
    /// Character literal value.
    CharLit(u8),
    /// A full `#pragma ...` line (continuations joined, `#pragma` stripped).
    Pragma(String),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// A token plus its source span.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Where it came from.
    pub span: Span,
}

const PUNCTS: &[&str] = &[
    // Longest first for maximal munch.
    "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "%=", "->", "<<", ">>", "&=", "|=", "^=", "(", ")", "{", "}", "[", "]", ";", ",", "+", "-",
    "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?", ":", ".",
];

/// Tokenize `src` into a vector of tokens ending with [`Tok::Eof`].
pub fn lex(src: &str) -> Result<Vec<Token>, CcError> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            i += 2;
            while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                if b[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
            if i + 1 >= b.len() {
                return Err(CcError::lex(line, "unterminated block comment"));
            }
            i += 2;
            continue;
        }
        // Preprocessor lines: capture pragmas, skip includes/defines.
        if c == b'#' {
            let start_line = line;
            let start_byte = i;
            let mut text = String::new();
            // Collect the logical line, honouring trailing-backslash
            // continuations (the paper's Listing 1 uses `\\`).
            loop {
                let eol = b[i..]
                    .iter()
                    .position(|&x| x == b'\n')
                    .map(|p| i + p)
                    .unwrap_or(b.len());
                let mut seg = std::str::from_utf8(&b[i..eol])
                    .map_err(|_| CcError::lex(line, "non-utf8 source"))?
                    .trim_end()
                    .to_string();
                let cont = seg.ends_with('\\');
                if cont {
                    while seg.ends_with('\\') {
                        seg.pop();
                    }
                }
                text.push_str(&seg);
                text.push(' ');
                i = (eol + 1).min(b.len());
                line += 1;
                if !cont || i >= b.len() {
                    break;
                }
            }
            let text = text.trim();
            if let Some(rest) = text.strip_prefix("#pragma") {
                toks.push(Token {
                    tok: Tok::Pragma(rest.trim().to_string()),
                    span: Span::new(start_line, start_byte, i.saturating_sub(1).max(start_byte)),
                });
            }
            // #include / #define are ignored (stdlib is built in).
            continue;
        }
        // String literal.
        if c == b'"' {
            let start_line = line;
            let start_byte = i;
            let mut s = String::new();
            i += 1;
            loop {
                if i >= b.len() {
                    return Err(CcError::lex(start_line, "unterminated string literal"));
                }
                match b[i] {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' => {
                        i += 1;
                        if i >= b.len() {
                            return Err(CcError::lex(start_line, "bad escape"));
                        }
                        s.push(unescape(b[i]));
                        i += 1;
                    }
                    b'\n' => return Err(CcError::lex(start_line, "newline in string literal")),
                    x => {
                        s.push(x as char);
                        i += 1;
                    }
                }
            }
            toks.push(Token {
                tok: Tok::StrLit(s),
                span: Span::new(start_line, start_byte, i),
            });
            continue;
        }
        // Char literal.
        if c == b'\'' {
            let start_line = line;
            let start_byte = i;
            i += 1;
            if i >= b.len() {
                return Err(CcError::lex(start_line, "unterminated char literal"));
            }
            let v = if b[i] == b'\\' {
                i += 1;
                if i >= b.len() {
                    return Err(CcError::lex(start_line, "bad char escape"));
                }
                let v = unescape(b[i]) as u8;
                i += 1;
                v
            } else {
                let v = b[i];
                i += 1;
                v
            };
            if i >= b.len() || b[i] != b'\'' {
                return Err(CcError::lex(start_line, "unterminated char literal"));
            }
            i += 1;
            toks.push(Token {
                tok: Tok::CharLit(v),
                span: Span::new(start_line, start_byte, i),
            });
            continue;
        }
        // Number.
        if c.is_ascii_digit() || (c == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit()) {
            let start = i;
            let mut is_float = false;
            while i < b.len()
                && (b[i].is_ascii_digit()
                    || b[i] == b'.'
                    || b[i] == b'e'
                    || b[i] == b'E'
                    || ((b[i] == b'+' || b[i] == b'-')
                        && i > start
                        && (b[i - 1] == b'e' || b[i - 1] == b'E')))
            {
                if b[i] == b'.' || b[i] == b'e' || b[i] == b'E' {
                    is_float = true;
                }
                i += 1;
            }
            // Suffixes (f, L, u...) are accepted and ignored.
            while i < b.len() && matches!(b[i], b'f' | b'F' | b'l' | b'L' | b'u' | b'U') {
                if matches!(b[i], b'f' | b'F') {
                    is_float = true;
                }
                i += 1;
            }
            let text = std::str::from_utf8(&b[start..i]).unwrap();
            let text = text.trim_end_matches(|ch: char| ch.is_ascii_alphabetic());
            let tok = if is_float {
                Tok::FloatLit(
                    text.parse::<f64>()
                        .map_err(|_| CcError::lex(line, format!("bad float literal {text}")))?,
                )
            } else {
                Tok::IntLit(
                    text.parse::<i64>()
                        .map_err(|_| CcError::lex(line, format!("bad int literal {text}")))?,
                )
            };
            toks.push(Token {
                tok,
                span: Span::new(line, start, i),
            });
            continue;
        }
        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(Token {
                tok: Tok::Ident(std::str::from_utf8(&b[start..i]).unwrap().to_string()),
                span: Span::new(line, start, i),
            });
            continue;
        }
        // Punctuation.
        let rest = &src[i..];
        if let Some(p) = PUNCTS.iter().find(|p| rest.starts_with(**p)) {
            toks.push(Token {
                tok: Tok::Punct(p),
                span: Span::new(line, i, i + p.len()),
            });
            i += p.len();
            continue;
        }
        return Err(CcError::lex(
            line,
            format!("unexpected character {:?}", c as char),
        ));
    }
    toks.push(Token {
        tok: Tok::Eof,
        span: Span::new(line, b.len(), b.len()),
    });
    Ok(toks)
}

fn unescape(c: u8) -> char {
    match c {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        b'\\' => '\\',
        b'\'' => '\'',
        b'"' => '"',
        x => x as char,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_listings::LISTING1;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        let t = kinds("int x = 42;");
        assert_eq!(
            t,
            vec![
                Tok::Ident("int".into()),
                Tok::Ident("x".into()),
                Tok::Punct("="),
                Tok::IntLit(42),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn pragma_with_continuation() {
        let t = kinds("#pragma mapreduce mapper key(word) \\\n value(one)\nint x;");
        match &t[0] {
            Tok::Pragma(p) => {
                assert!(p.contains("mapper"));
                assert!(p.contains("value(one)"));
            }
            other => panic!("expected pragma, got {other:?}"),
        }
        assert_eq!(t[1], Tok::Ident("int".into()));
    }

    #[test]
    fn string_and_char_literals() {
        let t = kinds(r#"printf("%s\t%d\n", word, one); char c = 'a'; char nl = '\n';"#);
        assert!(t.contains(&Tok::StrLit("%s\t%d\n".into())));
        assert!(t.contains(&Tok::CharLit(b'a')));
        assert!(t.contains(&Tok::CharLit(b'\n')));
    }

    #[test]
    fn float_literals() {
        let t = kinds("double d = 3.25; float f = 1e-3; float g = 2.5f;");
        assert!(t.contains(&Tok::FloatLit(3.25)));
        assert!(t.contains(&Tok::FloatLit(1e-3)));
        assert!(t.contains(&Tok::FloatLit(2.5)));
    }

    #[test]
    fn comments_ignored() {
        let t = kinds("int a; // comment\n/* multi\nline */ int b;");
        assert_eq!(t.len(), 7); // int a ; int b ; EOF
    }

    #[test]
    fn includes_skipped() {
        let t = kinds("#include <stdio.h>\nint main() { return 0; }");
        assert_eq!(t[0], Tok::Ident("int".into()));
    }

    #[test]
    fn maximal_munch_operators() {
        let t = kinds("a <= b == c && d++ += e;");
        assert!(t.contains(&Tok::Punct("<=")));
        assert!(t.contains(&Tok::Punct("==")));
        assert!(t.contains(&Tok::Punct("&&")));
        assert!(t.contains(&Tok::Punct("++")));
        assert!(t.contains(&Tok::Punct("+=")));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("char *s = \"oops").is_err());
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = lex("int a;\nint b;\n\nint c;").unwrap();
        let c = toks
            .iter()
            .find(|t| t.tok == Tok::Ident("c".into()))
            .unwrap();
        assert_eq!(c.span.line, 4);
    }

    #[test]
    fn byte_spans_are_accurate() {
        let src = "int abc = 42;\nchar *s = \"hi\";";
        let toks = lex(src).unwrap();
        let slice = |sp: Span| &src[sp.start as usize..sp.end as usize];
        let abc = toks
            .iter()
            .find(|t| t.tok == Tok::Ident("abc".into()))
            .unwrap();
        assert_eq!(slice(abc.span), "abc");
        let lit = toks
            .iter()
            .find(|t| matches!(t.tok, Tok::IntLit(42)))
            .unwrap();
        assert_eq!(slice(lit.span), "42");
        let s = toks
            .iter()
            .find(|t| matches!(t.tok, Tok::StrLit(_)))
            .unwrap();
        assert_eq!(slice(s.span), "\"hi\"");
        assert_eq!(s.span.line, 2);
    }

    #[test]
    fn paper_listing_1_lexes() {
        let toks = lex(LISTING1).unwrap();
        assert!(toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::Pragma(p) if p.contains("keylength"))));
        assert!(toks.len() > 50);
    }
}
