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
//!   (`bytecode`), with names, formats and call targets resolved, and
//!   one `match` loop (`vm`) executes it for every record. `main` runs
//!   once at construction up to its first input read, and every run
//!   resumes from that checkpoint instead of re-running the prologue.
//!
//! The two are contractually equivalent: byte-identical stdout,
//! identical `InterpStats` (so gpusim cost charging is bit-identical),
//! and identical error messages — including *which* error when the
//! step budget runs out next to a fault. Both check every subscript and
//! every integer `/` and `%` through the same shared guards. The
//! differential test stack (`tests/differential_gen.rs`,
//! `tests/edge_cases.rs`, `tests/fuel_boundary.rs`, and the
//! 8-benchmark matrix in `hetero-core`) pins this contract.
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
//! Production runs the bytecode engine; nothing selects another at run
//! time. The interpreter is the oracle each test names
//! ([`make_backend`]).

mod bytecode;
mod lower;
mod vm;

#[cfg(feature = "dispatch-count")]
pub use vm::dispatches;

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
    /// `e2e` ledger's probe calls this; ROADMAP item 1's `[benchmark]`
    /// change deletes it.
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

/// Build a backend of the given kind over `prog`. The native backend
/// lowers the whole program here, once; running it is then
/// allocation-light per record batch.
pub fn make_backend(kind: BackendKind, prog: &Program) -> Box<dyn KernelBackend> {
    match kind {
        BackendKind::Interp => Box::new(InterpBackend::new(prog.clone())),
        BackendKind::Native => Box::new(NativeBackend::new(prog)),
    }
}

/// The mode argument of [`make_backend_with_facts`]: every guard runs.
/// Only the `e2e` ledger's probe names it; ROADMAP item 1's
/// `[benchmark]` change deletes it.
pub enum ElisionMode {
    /// Every guard runs.
    On,
}

impl ElisionMode {
    /// Always [`ElisionMode::On`]; deleted with the type.
    pub fn from_env() -> Self {
        ElisionMode::On
    }
}

/// [`make_backend`] under the signature the `e2e` ledger's probe binds
/// to; `_facts` and `_mode` are ignored. ROADMAP item 1's `[benchmark]`
/// change deletes it.
pub fn make_backend_with_facts(
    kind: BackendKind,
    prog: &Program,
    _facts: &SafetyFacts,
    _mode: ElisionMode,
) -> Box<dyn KernelBackend> {
    make_backend(kind, prog)
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
    checkpoint: Option<vm::Checkpoint>,
}

impl NativeBackend {
    /// Lower `prog` (never fails: ill-formed constructs lower to traps
    /// that raise the interpreter's message only if reached), then run
    /// `main` up to its first `getline`/`scanf` and keep that state: the
    /// checkpoint every run resumes from.
    pub fn new(prog: &Program) -> Self {
        let code = lower::lower(prog);
        let checkpoint = vm::checkpoint(&code);
        NativeBackend { code, checkpoint }
    }

    /// The steps `main` takes to its first input read, when runs resume
    /// there; a run capped below them starts from the top.
    pub fn checkpoint_steps(&self) -> Option<u64> {
        self.checkpoint.as_ref().map(|ck| ck.steps)
    }

    /// Stable text listing of the lowered program: per function its
    /// blocks with their `(steps, ops)` sums and instructions, then
    /// the constant pool and side tables.
    pub fn disasm(&self) -> String {
        self.code.disasm()
    }
}

impl KernelBackend for NativeBackend {
    fn run_capped(&self, io: &mut StreamIo, max_steps: u64) -> Result<InterpStats, CcError> {
        vm::run(&self.code, self.checkpoint.as_ref(), io, max_steps)
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
            assert_eq!(io.stdout, b"k\t7\n", "{}", kind.name());
            assert_eq!(stats.lines_out, 1);
        }
    }
}
