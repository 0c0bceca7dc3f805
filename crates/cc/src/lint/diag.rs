//! Diagnostic type and snippet rendering.

use crate::error::Span;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The program violates the MapReduce contract; results would be
    /// wrong or the simulation misleading.
    Error,
    /// Suspicious but possibly intentional; `LintLevel::Deny` rejects.
    Warning,
    /// A performance observation; never blocks compilation.
    PerfNote,
}

impl Severity {
    /// Sort rank (errors first).
    pub fn rank(self) -> u8 {
        match self {
            Severity::Error => 0,
            Severity::Warning => 1,
            Severity::PerfNote => 2,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::PerfNote => write!(f, "perf-note"),
        }
    }
}

/// One structured, span-carrying finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diag {
    /// Stable code (`HD0xx`), registered in [`super::CODES`].
    pub code: &'static str,
    /// Severity (derived from the code's registration).
    pub severity: Severity,
    /// Source location. Statement-granular spans carry the byte range of
    /// the statement's first token; directive spans cover the pragma.
    pub span: Span,
    /// Identifier or clause name to underline inside the span, when the
    /// span itself is wider than the interesting tokens.
    pub focus: Option<String>,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] (line {}): {}",
            self.severity, self.code, self.span.line, self.msg
        )
    }
}

/// Render a finding with an underlined source snippet:
///
/// ```text
/// error[HD001]: write to sharedRO variable `n`
///   --> line 12
///    |
/// 12 |     n = n + 1;
///    |     ^
/// ```
pub fn render_diag(d: &Diag, src: &str) -> String {
    let mut out = format!("{}[{}]: {}\n", d.severity, d.code, d.msg);
    out.push_str(&format!("  --> line {}\n", d.span.line));

    let (line_no, line_text, col, width) = locate(d, src);
    let Some(text) = line_text else {
        return out;
    };
    let gutter = line_no.to_string();
    let pad = " ".repeat(gutter.len());
    out.push_str(&format!("{pad} |\n"));
    out.push_str(&format!("{gutter} | {text}\n"));
    out.push_str(&format!(
        "{pad} | {}{}\n",
        " ".repeat(col),
        "^".repeat(width.max(1))
    ));
    out
}

/// Find the line text and the column/width to underline for a finding.
/// Preference order: the `focus` substring inside the span's byte range,
/// then the span's byte range itself, then the first non-blank column of
/// the span's line.
fn locate<'a>(d: &Diag, src: &'a str) -> (u32, Option<&'a str>, usize, usize) {
    // Byte range of interest.
    let (mut start, mut end) = if d.span.has_bytes() {
        (d.span.start as usize, d.span.end as usize)
    } else {
        (0, 0)
    };
    if let Some(focus) = &d.focus {
        let hay = if d.span.has_bytes() && (d.span.end as usize) <= src.len() {
            &src[d.span.start as usize..d.span.end as usize]
        } else {
            ""
        };
        if let Some(off) = find_ident(hay, focus) {
            start = d.span.start as usize + off;
            end = start + focus.len();
        } else if !d.span.has_bytes() {
            // Line-only span: search the line's text for the focus.
            if let Some((ls, lt)) = line_bounds(src, d.span.line) {
                if let Some(off) = find_ident(lt, focus) {
                    start = ls + off;
                    end = start + focus.len();
                }
            }
        }
    }

    if end > start && end <= src.len() {
        // Line containing `start`.
        let line_no = 1 + src[..start].bytes().filter(|&b| b == b'\n').count() as u32;
        let ls = src[..start].rfind('\n').map(|p| p + 1).unwrap_or(0);
        let le = src[start..]
            .find('\n')
            .map(|p| start + p)
            .unwrap_or(src.len());
        let width = end.min(le) - start;
        return (line_no, Some(&src[ls..le]), start - ls, width.max(1));
    }
    // Fall back to the whole line from the span's line number.
    match line_bounds(src, d.span.line) {
        Some((_, lt)) => {
            let col = lt.len() - lt.trim_start().len();
            (d.span.line, Some(lt), col, lt.trim().len().max(1))
        }
        None => (d.span.line, None, 0, 1),
    }
}

/// Byte offset and text of 1-based line `n`.
fn line_bounds(src: &str, n: u32) -> Option<(usize, &str)> {
    if n == 0 {
        return None;
    }
    let mut start = 0usize;
    for (i, l) in src.split('\n').enumerate() {
        if i as u32 + 1 == n {
            return Some((start, l));
        }
        start += l.len() + 1;
    }
    None
}

/// Find `ident` in `hay` at an identifier boundary (so `n` doesn't match
/// inside `nbytes`).
fn find_ident(hay: &str, ident: &str) -> Option<usize> {
    if ident.is_empty() {
        return None;
    }
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let hb = hay.as_bytes();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(ident) {
        let at = from + rel;
        let before_ok = at == 0 || !is_word(hb[at - 1]);
        let after = at + ident.len();
        let after_ok = after >= hb.len() || !is_word(hb[after]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(span: Span, focus: Option<&str>) -> Diag {
        Diag {
            code: "HD001",
            severity: Severity::Error,
            span,
            focus: focus.map(|s| s.to_string()),
            msg: "write to sharedRO variable `n`".into(),
        }
    }

    #[test]
    fn renders_byte_accurate_underline() {
        let src = "int main() {\n  n = n + 1;\n}\n";
        // Span of the `n` token on line 2 (byte 15).
        let d = diag(Span::new(2, 15, 16), None);
        let r = render_diag(&d, src);
        assert!(r.contains("error[HD001]"), "{r}");
        assert!(r.contains("2 |   n = n + 1;"), "{r}");
        // Underline at column 2 of the line (after "  ").
        assert!(r.contains("|   ^\n"), "{r}");
    }

    #[test]
    fn focus_narrows_wide_spans() {
        let src = "int main() {\n  total = total + one;\n}\n";
        // Statement-wide span covering the whole line text.
        let d = diag(Span::new(2, 15, 35), Some("one"));
        let r = render_diag(&d, src);
        assert!(r.contains("^^^"), "{r}");
        let caret_line = r.lines().last().unwrap();
        let text_line = r.lines().nth(3).unwrap();
        let col = caret_line.find('^').unwrap();
        assert_eq!(&text_line[col..col + 3], "one");
    }

    #[test]
    fn ident_boundary_respected() {
        assert_eq!(find_ident("nbytes + n", "n"), Some(9));
        assert_eq!(find_ident("nbytes", "n"), None);
    }
}
