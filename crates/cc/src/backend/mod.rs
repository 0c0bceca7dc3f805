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
//! Select at runtime with the `HETERO_BACKEND` environment variable
//! (`interp` or `native`); the default is `native`.

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

    /// Short backend name (`"interp"` / `"native"`), used in traces and
    /// bench labels.
    fn name(&self) -> &'static str;
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

    /// Read the `HETERO_BACKEND` environment variable; unset or
    /// unrecognized values fall back to the default ([`Native`]).
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
/// and error text; only wall-clock changes. Select at runtime with the
/// `HETERO_ELIDE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElisionMode {
    /// Elide guards at proven-safe sites (the default).
    #[default]
    On,
    /// Keep every guard (pre-elision behavior).
    Off,
    /// Elide nothing, but at proven-safe sites **panic** if the guard
    /// would have fired — a live soundness oracle for the analyzer,
    /// used by the generative differential suite as a fuzzer.
    Checked,
}

impl ElisionMode {
    /// Parse a mode name (`"on"`/`"elide"`/`"1"`, `"off"`/`"0"`,
    /// `"checked"`/`"check"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "on" | "elide" | "1" => Some(ElisionMode::On),
            "off" | "0" => Some(ElisionMode::Off),
            "checked" | "check" => Some(ElisionMode::Checked),
            _ => None,
        }
    }

    /// Read the `HETERO_ELIDE` environment variable; unset or
    /// unrecognized values fall back to the default ([`On`]).
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
            ElisionMode::Off => "off",
            ElisionMode::Checked => "checked",
        }
    }
}

/// Build a backend of the given kind over `prog`. The native backend
/// lowers the whole program here, once; running it is then
/// allocation-light per record batch. Elision follows `HETERO_ELIDE`.
pub fn make_backend(kind: BackendKind, prog: &Program) -> Box<dyn KernelBackend> {
    make_backend_with_mode(kind, prog, ElisionMode::from_env())
}

/// [`make_backend`] with an explicit [`ElisionMode`] (tests and the
/// differential matrix use this to avoid environment races).
pub fn make_backend_with_mode(
    kind: BackendKind,
    prog: &Program,
    mode: ElisionMode,
) -> Box<dyn KernelBackend> {
    match kind {
        BackendKind::Interp => Box::new(InterpBackend::new(prog.clone())),
        BackendKind::Native => Box::new(NativeBackend::with_mode(prog, mode)),
    }
}

/// [`make_backend_with_mode`] reusing an already-computed
/// [`SafetyFacts`] table — typically the one [`crate::sema::Analysis`]
/// carries — instead of re-running the value analysis. Stale facts
/// (computed for a different `Program` value) are detected and
/// recomputed, never silently applied.
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

    fn name(&self) -> &'static str {
        "interp"
    }
}

/// Backend that runs the program lowered to register bytecode.
pub struct NativeBackend {
    code: bytecode::Bytecode,
}

impl NativeBackend {
    /// Lower `prog` (never fails: ill-formed constructs lower to traps
    /// that raise the interpreter's message only if reached). Elision
    /// follows `HETERO_ELIDE`.
    pub fn compile(prog: &Program) -> Self {
        Self::with_mode(prog, ElisionMode::from_env())
    }

    /// [`compile`](Self::compile) with an explicit [`ElisionMode`],
    /// running the value analysis here to obtain the safety facts.
    pub fn with_mode(prog: &Program, mode: ElisionMode) -> Self {
        Self::with_facts(prog, &SafetyFacts::for_program(prog), mode)
    }

    /// Lower `prog` reusing an already-computed [`SafetyFacts`] table.
    /// Facts are keyed by AST node identity, so a table computed for a
    /// *different* `Program` value (a clone, say) is stale; when
    /// [`SafetyFacts::matches`] rejects the pairing they are recomputed
    /// rather than applied.
    pub fn with_facts(prog: &Program, facts: &SafetyFacts, mode: ElisionMode) -> Self {
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

    fn name(&self) -> &'static str {
        "native"
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
    fn both_backends_run_a_trivial_program() {
        let prog = parse("int main() { printf(\"k\\t%d\\n\", 7); return 0; }").unwrap();
        for kind in [BackendKind::Interp, BackendKind::Native] {
            let b = make_backend(kind, &prog);
            let mut io = StreamIo::lines(vec![]);
            let stats = b.run(&mut io).unwrap();
            assert_eq!(io.stdout, b"k\t7\n", "{}", b.name());
            assert_eq!(stats.lines_out, 1);
        }
    }
}
