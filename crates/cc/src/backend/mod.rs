//! Kernel execution backends.
//!
//! A [`KernelBackend`] runs a parsed MapReduce program against a
//! [`StreamIo`] and returns [`InterpStats`]. Two implementations exist:
//!
//! * [`InterpBackend`] — the tree-walking interpreter
//!   ([`crate::interp::Interp`]), the executable specification of the
//!   C subset.
//! * [`NativeBackend`] — the register-bytecode engine: the AST is
//!   lowered **once per program** (`lower`) to flat, `Copy`
//!   instructions over frame registers and a constant pool
//!   (`bytecode`), with names, formats, call targets and guard
//!   decisions resolved, and one `match` loop (`vm`) executes it for
//!   every record.
//!
//! The two are contractually equivalent: byte-identical stdout,
//! identical `InterpStats` (so gpusim cost charging is bit-identical),
//! and identical error messages — including *which* error when the
//! step budget runs out next to a fault. The differential test stack
//! (`tests/differential_gen.rs`, `tests/edge_cases.rs`,
//! `tests/fuel_boundary.rs`, and the 8-benchmark matrix in
//! `hetero-core`) pins this contract.
//!
//! One documented divergence, outside the supported subset (the
//! program generator never emits it, see [`crate::testgen`]): a
//! `&scalar` reference that escapes its function activation, or is held
//! across a redeclaration, observes different aliasing — the
//! interpreter never frees slots, while the VM reuses a frame's
//! registers for the next call and across loop iterations. (For the
//! same reason a declaration that is the unbraced body of a skipped
//! `if` is still in scope afterwards here, and unknown there.)
//!
//! Production runs the bytecode engine with proven guards elided
//! ([`ElisionMode::On`]); nothing selects another at run time. The
//! interpreter and [`ElisionMode::Checked`] are oracles each test names.
//!
//! **Construction.** [`make_backend_with_facts`] takes engine, program,
//! the [`SafetyFacts`] its analysis produced
//! ([`crate::sema::Analysis::safety`]) and an [`ElisionMode`]; offered
//! no table (`SafetyFacts::default()`), the native backend analyses the
//! program itself.

mod bytecode;
mod lower;
mod vm;

pub use bytecode::LoweringCounts;

use crate::ast::Program;
use crate::error::CcError;
use crate::interp::{Interp, InterpStats, StreamIo, DEFAULT_MAX_STEPS};
use crate::lint::absint::SafetyFacts;

/// A way to execute a kernel program against streaming I/O.
pub trait KernelBackend: Send + Sync {
    /// Run `main` to completion with an explicit evaluation-step cap.
    fn run_capped(&self, io: &mut StreamIo, max_steps: u64) -> Result<InterpStats, CcError>;

    /// Run `main` to completion with the default step cap.
    fn run(&self, io: &mut StreamIo) -> Result<InterpStats, CcError> {
        self.run_capped(io, DEFAULT_MAX_STEPS)
    }
}

/// Which backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Tree-walking interpreter (the executable spec).
    Interp,
    /// Register-bytecode native backend (the default).
    #[default]
    Native,
}

impl BackendKind {
    /// Parse a backend name (`"interp"`/`"interpreter"` or
    /// `"native"`/`"compiled"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "interp" | "interpreter" => Some(BackendKind::Interp),
            "native" | "compiled" => Some(BackendKind::Native),
            _ => None,
        }
    }

    /// Read `HETERO_BACKEND` (unset or unrecognized: [`Native`]). Only the
    /// `e2e` ledger's probe calls this; ROADMAP item 1(iii) retires both.
    ///
    /// [`Native`]: BackendKind::Native
    pub fn from_env() -> Self {
        std::env::var("HETERO_BACKEND")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// The backend's short name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Interp => "interp",
            BackendKind::Native => "native",
        }
    }
}

/// How the native backend treats host-side guards at sites the value
/// analysis ([`crate::lint::absint`]) proved safe.
///
/// Guards (bounds checks, integer div/mod zero tests) charge nothing to
/// [`InterpStats`], so every mode produces bit-identical stats, stdout,
/// and error text; only wall-clock changes. Production runs `On`;
/// `Checked` is the soundness oracle the differential suites name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElisionMode {
    /// Elide guards at proven-safe sites (the default).
    #[default]
    On,
    /// Keep every guard, and at proven-safe sites **panic** if the
    /// guard fires — a live soundness oracle for the analyzer, used by
    /// the generative differential suite as a fuzzer. While the
    /// analysis is sound this *is* the all-guards-kept engine.
    Checked,
}

impl ElisionMode {
    /// Parse a mode name (`"on"`/`"elide"`/`"1"` or
    /// `"checked"`/`"check"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "on" | "elide" | "1" => Some(ElisionMode::On),
            "checked" | "check" => Some(ElisionMode::Checked),
            _ => None,
        }
    }

    /// Read `HETERO_ELIDE` (unset or unrecognized: [`On`]). Only the
    /// `e2e` ledger's probe calls this; ROADMAP item 1(iii) retires both.
    ///
    /// [`On`]: ElisionMode::On
    pub fn from_env() -> Self {
        std::env::var("HETERO_ELIDE")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// The mode's short name.
    pub fn name(self) -> &'static str {
        match self {
            ElisionMode::On => "on",
            ElisionMode::Checked => "checked",
        }
    }
}

/// Build a backend of the given kind over `prog`, guards chosen from
/// `facts` — typically the table [`crate::sema::Analysis`] carries —
/// under `mode`. The native backend lowers the whole program here,
/// once; running it is then allocation-light per record batch.
pub fn make_backend_with_facts(
    kind: BackendKind,
    prog: &Program,
    facts: &SafetyFacts,
    mode: ElisionMode,
) -> Box<dyn KernelBackend> {
    match kind {
        BackendKind::Interp => Box::new(InterpBackend::new(prog.clone())),
        BackendKind::Native => Box::new(NativeBackend::with_facts(prog, facts, mode)),
    }
}

/// Backend that re-walks the AST with [`Interp`] on every run.
pub struct InterpBackend {
    prog: Program,
}

impl InterpBackend {
    /// Wrap a parsed program.
    pub fn new(prog: Program) -> Self {
        InterpBackend { prog }
    }
}

impl KernelBackend for InterpBackend {
    fn run_capped(&self, io: &mut StreamIo, max_steps: u64) -> Result<InterpStats, CcError> {
        Interp::new(&self.prog)
            .with_max_steps(max_steps)
            .run_main(io)
    }
}

/// Backend that runs the program lowered to register bytecode.
pub struct NativeBackend {
    code: bytecode::Bytecode,
}

impl NativeBackend {
    /// Lower `prog` (never fails: ill-formed constructs lower to traps
    /// that raise the interpreter's message only if reached), choosing
    /// each guarded site's opcode from `facts` and `mode`.
    ///
    /// A table that does not describe `prog`
    /// ([`SafetyFacts::matches`]: other source text, other site counts,
    /// or the empty default) is refused and `prog` is analysed afresh;
    /// when that analysis rejects the program every guard stays.
    pub fn with_facts(prog: &Program, facts: &SafetyFacts, mode: ElisionMode) -> Self {
        let own;
        let facts = if facts.matches(prog) {
            facts
        } else {
            own = crate::sema::analyze(prog)
                .map(|a| a.safety)
                .unwrap_or_default();
            &own
        };
        NativeBackend {
            code: lower::lower(prog, facts, mode),
        }
    }

    /// Stable text listing of the lowered program: per function its
    /// blocks with their `(steps, ops)` sums and instructions, then
    /// the constant pool and side tables.
    pub fn disasm(&self) -> String {
        self.code.disasm()
    }

    /// Size of the lowered program and how its guarded sites lowered.
    pub fn lowering_counts(&self) -> LoweringCounts {
        self.code.counts()
    }
}

impl KernelBackend for NativeBackend {
    fn run_capped(&self, io: &mut StreamIo, max_steps: u64) -> Result<InterpStats, CcError> {
        vm::run(&self.code, io, max_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn backend_kind_parses_and_defaults() {
        assert_eq!(BackendKind::parse("interp"), Some(BackendKind::Interp));
        assert_eq!(BackendKind::parse("NATIVE"), Some(BackendKind::Native));
        assert_eq!(BackendKind::parse("compiled"), Some(BackendKind::Native));
        assert_eq!(BackendKind::parse("jit"), None);
        assert_eq!(BackendKind::default(), BackendKind::Native);
        assert_eq!(BackendKind::Interp.name(), "interp");
        assert_eq!(BackendKind::Native.name(), "native");
    }

    #[test]
    fn elision_mode_has_no_off() {
        assert_eq!(ElisionMode::parse("on"), Some(ElisionMode::On));
        assert_eq!(ElisionMode::parse("Checked"), Some(ElisionMode::Checked));
        assert_eq!(ElisionMode::parse("off"), None);
        assert_eq!(ElisionMode::parse("0"), None);
        assert_eq!(ElisionMode::default(), ElisionMode::On);
    }

    // Same shape, same site counts, same allocation pattern: only the
    // source text tells the two apart. In `PROVEN` the analysis proves
    // both subscripts; in `FAULTS` the store is out of bounds.
    const PROVEN: &str =
        "int main() { int a[8]; int i; i = 4; a[i] = 1; printf(\"%d\\n\", a[i]); return 0; }";
    const FAULTS: &str =
        "int main() { int a[4]; int i; i = 4; a[i] = 1; printf(\"%d\\n\", a[i]); return 0; }";

    /// Lower `FAULTS` offering `offered`; it must come out as it does
    /// with its own table and fail like the interpreter, not panic.
    fn faults_lowers_with_its_own_verdicts(offered: &SafetyFacts) {
        let prog = parse(FAULTS).unwrap();
        assert!(!offered.matches(&prog));
        let own = crate::sema::analyze(&prog).unwrap().safety;
        let native = NativeBackend::with_facts(&prog, offered, ElisionMode::On);
        let honest = NativeBackend::with_facts(&prog, &own, ElisionMode::On);
        assert_eq!(native.disasm(), honest.disasm());
        assert_eq!(native.lowering_counts().sites_elided, 0);
        let run = |b: &dyn KernelBackend| b.run(&mut StreamIo::lines(vec![])).unwrap_err();
        let err = run(&native).to_string();
        assert_eq!(err, run(&InterpBackend::new(prog.clone())).to_string());
        assert!(
            err.contains("index 4 out of bounds for buffer of 4"),
            "{err}"
        );
    }

    #[test]
    fn facts_that_outlive_their_program_are_refused() {
        // The allocator hands the second parse the nodes the first one
        // just freed; a table matched by address would be accepted here
        // and elide the guard of an out-of-bounds store.
        for _ in 0..64 {
            let stale = {
                let gone = parse(PROVEN).unwrap();
                crate::sema::analyze(&gone).unwrap().safety
            };
            assert_eq!(stale.proven_counts().0, 2);
            faults_lowers_with_its_own_verdicts(&stale);
        }
    }

    #[test]
    fn facts_for_other_source_text_are_refused() {
        // A forged proof for one text is not a proof for another, even
        // with both programs alive and every site count equal.
        let other = parse(PROVEN).unwrap();
        let mut forged = SafetyFacts::blank(&other);
        forged.claim_subscript(crate::ast::SiteId(0));
        forged.claim_subscript(crate::ast::SiteId(1));
        assert!(forged.matches(&other));
        faults_lowers_with_its_own_verdicts(&forged);
    }

    #[test]
    fn both_backends_run_a_trivial_program() {
        let prog = parse("int main() { printf(\"k\\t%d\\n\", 7); return 0; }").unwrap();
        for kind in [BackendKind::Interp, BackendKind::Native] {
            let b = make_backend_with_facts(kind, &prog, &SafetyFacts::default(), ElisionMode::On);
            let mut io = StreamIo::lines(vec![]);
            let stats = b.run(&mut io).unwrap();
            assert_eq!(io.stdout, b"k\t7\n", "{}", kind.name());
            assert_eq!(stats.lines_out, 1);
        }
    }
}
