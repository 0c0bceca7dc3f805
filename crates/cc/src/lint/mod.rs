//! `heterolint`: GPU-safety and performance static analysis over
//! `#pragma mapreduce` programs.
//!
//! Four pass families, run after [`crate::sema::analyze`] over the region
//! facts it collected ([`crate::region`]):
//!
//! 1. **Race / purity** ([`races`]): map/reduce bodies may only write
//!    privatizable locals and emit targets — writes to `sharedRO` /
//!    `texture` state (HD001), writes into the input record buffer
//!    (HD002), and mapper cross-iteration dependences found by a
//!    reaching-definitions dataflow (HD003) are reported.
//! 2. **Clause validator** ([`clauses`]): Table 1 consistency — emit
//!    sites vs `key`/`value` clauses (HD004, HD014), `keylength` /
//!    `vallength` truncation (HD005), contradictory storage clauses
//!    (HD006, HD015), combiner reduction-operator commutativity (HD007),
//!    warp-aligned `threads` (HD013).
//! 3. **Performance lints** ([`perf`]): uncoalesced global-memory
//!    subscripts (HD009), divergent branches in inner hot loops (HD010),
//!    read-only firstprivate arrays (HD011), multi-emit mappers without a
//!    `kvpairs` hint (HD012). Each is cross-checked against
//!    `hetero-gpusim` counters by the workspace's differential tests.
//! 4. **Value analysis** ([`absint`]): a flow-sensitive abstract
//!    interpreter over interval/initialization/nullness/extent domains
//!    ([`domains`]) proves per-site safety facts. Provable faults and
//!    dead code become HD016–HD021; the [`absint::SafetyFacts`] table
//!    lets the native backend elide host-side guards at proven sites.

pub mod absint;
pub mod clauses;
pub mod diag;
pub mod domains;
pub mod perf;
pub mod races;

pub use diag::{render_diag, Diag, Severity};

use crate::ast::Program;
use crate::error::Span;
use crate::sema::Analysis;

/// How much the compile pipeline lets lint findings block compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// Skip linting entirely.
    Off,
    /// Run lints; reject programs with error-severity findings.
    #[default]
    Warn,
    /// Run lints; reject on errors **and** warnings (perf-notes never
    /// block).
    Deny,
}

/// Catalogue of all stable lint codes: `(code, severity, summary)`.
/// Kept in one place so docs, the JSON report, and tests agree. Numbers
/// are never reused: the one between HD007 and HD009 (a self-check of
/// the compiler, retired with the second Algorithm-1 implementation it
/// compared) stays vacant.
pub const CODES: &[(&str, Severity, &str)] = &[
    (
        "HD001",
        Severity::Error,
        "write to a sharedRO/texture variable inside the region",
    ),
    (
        "HD002",
        Severity::Error,
        "write into the input record buffer",
    ),
    (
        "HD003",
        Severity::Warning,
        "mapper carries a value across record iterations",
    ),
    (
        "HD004",
        Severity::Error,
        "emit site inconsistent with key/value clauses",
    ),
    (
        "HD005",
        Severity::Error,
        "keylength/vallength truncates the declared array",
    ),
    (
        "HD006",
        Severity::Error,
        "contradictory storage clauses for a variable",
    ),
    (
        "HD007",
        Severity::Warning,
        "non-commutative/associative combiner reduction",
    ),
    (
        "HD009",
        Severity::PerfNote,
        "potentially uncoalesced global-memory access",
    ),
    (
        "HD010",
        Severity::PerfNote,
        "divergent branch in an inner hot loop",
    ),
    (
        "HD011",
        Severity::PerfNote,
        "read-only firstprivate array; prefer sharedRO/texture",
    ),
    (
        "HD012",
        Severity::PerfNote,
        "multi-emit mapper without a kvpairs hint",
    ),
    (
        "HD013",
        Severity::Warning,
        "threads clause not a multiple of the warp size",
    ),
    ("HD014", Severity::Error, "annotated region never emits"),
    (
        "HD015",
        Severity::Warning,
        "redundant/duplicate variable across storage clauses",
    ),
    (
        "HD016",
        Severity::Error,
        "subscript is provably out of bounds",
    ),
    (
        "HD017",
        Severity::Error,
        "division or remainder by a provably zero denominator",
    ),
    (
        "HD018",
        Severity::Warning,
        "scalar is read before it is ever written",
    ),
    (
        "HD019",
        Severity::Warning,
        "branch or emit is provably dead",
    ),
    (
        "HD020",
        Severity::Warning,
        "loop provably never exits and will exceed the step limit",
    ),
    (
        "HD021",
        Severity::Warning,
        "printf/scanf arguments mismatch the format",
    ),
];

/// Version of the JSON report shape the `heterolint` CLI renders from a
/// [`LintReport`] (this crate holds the data, not a serializer). Bump on
/// any key addition, removal, or meaning change so CI artifact consumers
/// can detect drift.
pub const REPORT_SCHEMA: u32 = 1;

/// Severity a code is registered with in [`CODES`].
pub fn severity_of(code: &str) -> Option<Severity> {
    CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|&(_, s, _)| s)
}

/// The full result of linting one translation unit.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in pass order then source order.
    pub diags: Vec<Diag>,
    /// Number of annotated regions analyzed.
    pub regions: usize,
}

impl LintReport {
    /// Findings with error severity.
    pub fn errors(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Findings with warning severity.
    pub fn warnings(&self) -> impl Iterator<Item = &Diag> {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Findings with perf-note severity.
    pub fn perf_notes(&self) -> impl Iterator<Item = &Diag> {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::PerfNote)
    }

    /// Count of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Count of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }

    /// Whether the program passes at the given level. Perf-notes never
    /// fail a program; `Deny` additionally fails on warnings.
    pub fn passes(&self, level: LintLevel) -> bool {
        match level {
            LintLevel::Off => true,
            LintLevel::Warn => self.error_count() == 0,
            LintLevel::Deny => self.error_count() == 0 && self.warning_count() == 0,
        }
    }

    /// One-line summaries (code, line, message) for [`crate::CcError::Lint`].
    pub fn summaries(&self, level: LintLevel) -> Vec<String> {
        self.diags
            .iter()
            .filter(|d| match level {
                LintLevel::Off => false,
                LintLevel::Warn => d.severity == Severity::Error,
                LintLevel::Deny => d.severity != Severity::PerfNote,
            })
            .map(|d| format!("{}[{}] line {}: {}", d.severity, d.code, d.span.line, d.msg))
            .collect()
    }

    /// Render every finding with a source snippet.
    pub fn render(&self, src: &str) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&render_diag(d, src));
            out.push('\n');
        }
        out
    }
}

/// Run every lint pass over an analyzed program.
///
/// `analysis` is the output of [`crate::sema::analyze`] on `program`,
/// parsed from `src`. Every fact the passes read arrives in it; the
/// other two parameters are unread and stay because the `e2e` benchmark
/// binds this signature.
pub fn lint_program(_src: &str, _program: &Program, analysis: &Analysis) -> LintReport {
    let mut report = LintReport {
        regions: analysis.units.len(),
        ..LintReport::default()
    };
    for (unit, region) in analysis.units.iter().zip(&analysis.regions) {
        races::check(unit, &mut report.diags);
        clauses::check(unit, &mut report.diags);
        perf::check(unit, region, &mut report.diags);
    }
    // Value analysis over the whole of `main` (regions included),
    // already run by `sema::analyze`.
    for f in analysis.value_findings.iter().cloned() {
        push(&mut report.diags, f.code, f.span, f.focus, f.msg);
    }
    // Stable order: by severity rank, then line, then code.
    report
        .diags
        .sort_by_key(|d| (d.severity.rank(), d.span.line, d.code));
    report
}

/// Append a finding unless an identical `(code, span)` diagnostic is
/// already present — overlapping passes (and the per-region loop above)
/// can legitimately rediscover the same fact, and rendered/JSON output
/// must not repeat it. Keep-first is deterministic because every pass
/// emits in program order.
pub(crate) fn push(
    diags: &mut Vec<Diag>,
    code: &'static str,
    span: Span,
    focus: Option<String>,
    msg: String,
) {
    if diags.iter().any(|d| d.code == code && d.span == span) {
        return;
    }
    let severity = severity_of(code).expect("lint code registered in CODES");
    diags.push(Diag {
        code,
        severity,
        span,
        focus,
        msg,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Span;

    fn span(line: u32, start: u32, end: u32) -> Span {
        Span { line, start, end }
    }

    #[test]
    fn push_dedupes_identical_code_and_span_keeping_first() {
        let mut diags = Vec::new();
        push(
            &mut diags,
            "HD016",
            span(4, 10, 14),
            Some("a".into()),
            "first".into(),
        );
        // The same fact rediscovered by an overlapping pass: dropped,
        // and the first message survives (deterministic keep-first).
        push(&mut diags, "HD016", span(4, 10, 14), None, "second".into());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].msg, "first");
        assert_eq!(diags[0].focus.as_deref(), Some("a"));
        // A different span of the same code is not a duplicate...
        push(&mut diags, "HD016", span(5, 20, 24), None, "x".into());
        // ...nor is a different code at the same span.
        push(&mut diags, "HD017", span(4, 10, 14), None, "y".into());
        assert_eq!(diags.len(), 3);
    }

    #[test]
    fn every_absint_code_is_registered_with_its_severity() {
        for (code, sev) in [
            ("HD016", Severity::Error),
            ("HD017", Severity::Error),
            ("HD018", Severity::Warning),
            ("HD019", Severity::Warning),
            ("HD020", Severity::Warning),
            ("HD021", Severity::Warning),
        ] {
            assert_eq!(severity_of(code), Some(sev), "{code}");
        }
    }
}
