//! # hetero-cc
//!
//! The HeteroDoop directive compiler: a source-to-source translator for
//! sequential C MapReduce programs annotated with `#pragma mapreduce`
//! directives (paper §3–§4), plus an interpreter so the *same* annotated
//! source executes on the simulated CPU and GPU paths.
//!
//! Pipeline: [`parse::parse`] → [`sema::analyze`] (the region fact base
//! of [`region`], collected once; Algorithm 1 variable classification,
//! privatization inference, alias warnings) →
//! [`translate::translate`] (kernel extraction, I/O call replacement,
//! vectorization and shared-memory decisions) → [`codegen`] (CUDA-like
//! text, host driver of Fig. 1). [`interp`] runs programs functionally
//! under Hadoop-Streaming-style I/O while counting abstract operations
//! for the cost models.
//!
//! The full Table 1 clause set is supported: `mapper`, `combiner`, `key`,
//! `value`, `keyin`, `valuein`, `keylength`, `vallength`, `firstprivate`,
//! `sharedRO`, `texture`, `kvpairs`, `blocks`, `threads`.

#![warn(missing_docs)]

pub mod ast;
pub mod backend;
pub mod codegen;
pub mod error;
pub mod interp;
pub mod lex;
pub mod lint;
pub mod parse;
pub mod pragma;
pub mod region;
pub mod sema;
pub mod testgen;
pub mod translate;

pub use error::{CcError, Warning};
pub use lint::LintLevel;

/// Convenience: run the full compile pipeline on annotated source,
/// producing kernel specs and generated CUDA-like text. Lints at the
/// default [`LintLevel::Warn`]: error-severity findings abort the
/// compile, warnings and perf-notes ride along in [`Compiled::lint`].
pub fn compile(src: &str) -> Result<Compiled, CcError> {
    compile_with(src, LintLevel::default())
}

/// [`compile`] with an explicit lint level. `LintLevel::Off` skips only
/// the lints (`lint_program`): `sema::analyze` still runs, value analysis
/// included, and its errors still abort the compile. `Deny` also rejects
/// warning-severity findings (perf-notes never block compilation).
pub fn compile_with(src: &str, level: LintLevel) -> Result<Compiled, CcError> {
    let program = parse::parse(src)?;
    let analysis = sema::analyze(&program)?;
    let lint = if level == LintLevel::Off {
        lint::LintReport::default()
    } else {
        let report = lint::lint_program(src, &program, &analysis);
        if !report.passes(level) {
            return Err(CcError::Lint {
                reports: report.summaries(level),
            });
        }
        report
    };
    let kernels = translate::translate(&program, &analysis)?;
    let sources = kernels.iter().map(codegen::kernel_source).collect();
    let warnings = analysis
        .regions
        .iter()
        .flat_map(|r| r.warnings.clone())
        .collect();
    Ok(Compiled {
        program,
        analysis,
        kernels,
        sources,
        warnings,
        lint,
    })
}

/// Result of [`compile`].
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Parsed AST (also used by the interpreter for the CPU path).
    pub program: ast::Program,
    /// Per-region analysis (Algorithm 1 output).
    pub analysis: sema::Analysis,
    /// Translated kernels, one per directive.
    pub kernels: Vec<translate::KernelSpec>,
    /// Generated CUDA-like kernel sources, parallel to `kernels`.
    pub sources: Vec<String>,
    /// Accumulated non-fatal diagnostics.
    pub warnings: Vec<Warning>,
    /// Static-analysis findings that did not block compilation
    /// (empty when linting was `Off`).
    pub lint: lint::LintReport,
}

impl Compiled {
    /// The mapper kernel spec, if the source had a mapper directive.
    pub fn mapper(&self) -> Option<&translate::KernelSpec> {
        self.kernels
            .iter()
            .find(|k| k.kind == pragma::DirectiveKind::Mapper)
    }

    /// The combiner kernel spec, if present.
    pub fn combiner(&self) -> Option<&translate::KernelSpec> {
        self.kernels
            .iter()
            .find(|k| k.kind == pragma::DirectiveKind::Combiner)
    }
}

/// The paper's Listing 1 (Wordcount mapper) and Listing 2 (integer-sum
/// combiner), said once for every unit test of the crate; integration
/// tests `include_str!` the same two files.
#[cfg(test)]
pub(crate) mod test_listings {
    pub(crate) const LISTING1: &str = include_str!("../tests/fixtures/wc_mapper.c");
    pub(crate) const LISTING2: &str = include_str!("../tests/fixtures/int_sum_combiner.c");
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;

    #[test]
    fn end_to_end_compile_of_listing_1() {
        let c = compile(test_listings::LISTING1).unwrap();
        assert!(c.mapper().is_some());
        assert!(c.combiner().is_none());
        assert_eq!(c.sources.len(), 1);
        assert!(c.sources[0].contains("__global__"));
        assert!(c.warnings.is_empty());
    }

    #[test]
    fn compile_reports_directive_errors() {
        let src = r#"
int main() {
  char k[8]; int v;
  #pragma mapreduce combiner key(k) value(v)
  while (scanf("%s %d", k, &v) == 2) { }
}
"#;
        assert!(matches!(compile(src), Err(CcError::Directive { .. })));
    }
}
