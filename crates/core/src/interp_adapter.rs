//! Adapter that runs a compiled, annotated C program as a runtime
//! [`Mapper`]/[`Combiner`] — the path by which a *single sequential
//! source* executes on both the CPU and the (simulated) GPU, the paper's
//! central programmability claim.
//!
//! Kernels run on the register-bytecode engine (see
//! `hetero_cc::backend`); nothing selects another engine at run time.
//! The whole-job oracle pins the engine through
//! [`CompiledApp::with_backend`]: every engine charges identical
//! [`InterpStats`], so every simulated cycle downstream is bit-identical
//! across them.

use hetero_cc::backend::{make_backend, BackendKind, KernelBackend};
use hetero_cc::interp::{InterpStats, StreamIo};
use hetero_cc::{CcError, Compiled};
use hetero_runtime::types::{Combiner, Emit, Mapper, OpCount};

/// A kernel backend over one annotated C program, usable as the
/// runtime's [`Mapper`] (when the program's `main` has the Listing 1
/// shape) or [`Combiner`] (Listing 2 shape). The program is brought to
/// its executable form once, at construction; every record or run
/// reuses it.
pub struct CompiledKernel {
    backend: Box<dyn KernelBackend>,
}

impl CompiledKernel {
    /// Wrap a compiled program on the bytecode engine.
    pub fn new(compiled: &Compiled) -> Self {
        Self::with_backend(compiled, BackendKind::Native)
    }

    /// Wrap a compiled program on an explicit engine.
    pub(crate) fn with_backend(compiled: &Compiled, kind: BackendKind) -> Self {
        CompiledKernel {
            backend: make_backend(kind, &compiled.program),
        }
    }
}

impl Mapper for CompiledKernel {
    fn map(&self, record: &[u8], out: &mut dyn Emit) {
        // One copy of the record, with room for the `\n` and NUL that
        // `getline` appends to the buffer it takes over.
        let mut line = Vec::with_capacity(record.len() + 2);
        line.extend_from_slice(record);
        let mut io = StreamIo::lines(vec![line]);
        // A runtime error in user code drops the record (Hadoop
        // Streaming would fail the task; task-level failure is
        // exercised separately).
        if let Ok(stats) = self.backend.run(&mut io) {
            emit_run(&stats, &io, out);
        }
    }
}

/// Charge one kernel run's cost and forward its emitted pairs.
fn emit_run(stats: &InterpStats, io: &StreamIo, out: &mut dyn Emit) {
    // Interpreter op counts → abstract cost units. The /4 discounts
    // interpreter dispatch versus compiled code.
    out.charge(OpCount::new(stats.ops / 4 + stats.mem / 2, stats.sfu));
    for (k, v) in io.emitted_pairs() {
        if !out.emit(k, v) {
            return;
        }
    }
}

impl Combiner for CompiledKernel {
    fn combine(&self, run: &[(&[u8], &[u8])], out: &mut dyn Emit) {
        let pairs = run
            .iter()
            .map(|&(k, v)| (k, hetero_runtime::types::trim_key(v)));
        let mut io = StreamIo::kv_pairs(pairs);
        if let Ok(stats) = self.backend.run(&mut io) {
            emit_run(&stats, &io, out);
        }
    }
}

/// An [`App`] whose mapper and combiner execute the app's *annotated C
/// sources* through a chosen kernel backend, instead of the hand-written
/// Rust implementations. Everything else (spec, reducer, data
/// generation) delegates to the wrapped app.
///
/// This is the full paper pipeline as one object: feed it to
/// [`run_functional_job_pooled`](crate::run_functional_job_pooled) and
/// the whole job — map, combine, GPU placement, cost charging — runs off
/// the single sequential C source.
///
/// [`App`]: hetero_apps::App
pub struct CompiledApp {
    inner: Box<dyn hetero_apps::App>,
    kind: BackendKind,
    mapper: Compiled,
    combiner: Option<Compiled>,
}

impl CompiledApp {
    /// Compile `inner`'s C sources; kernels execute as
    /// [`CompiledKernel::new`]'s do.
    pub fn new(inner: Box<dyn hetero_apps::App>) -> Result<Self, CcError> {
        Self::with_backend(inner, BackendKind::Native)
    }

    /// Compile `inner`'s C sources; kernels execute on `kind`. Only the
    /// whole-job oracle, which pits the interpreter against production,
    /// calls this.
    pub fn with_backend(
        inner: Box<dyn hetero_apps::App>,
        kind: BackendKind,
    ) -> Result<Self, CcError> {
        let mapper = hetero_cc::compile(inner.mapper_source())?;
        let combiner = inner
            .combiner_source()
            .map(hetero_cc::compile)
            .transpose()?;
        Ok(CompiledApp {
            inner,
            kind,
            mapper,
            combiner,
        })
    }

    fn kernel(&self, compiled: &Compiled) -> CompiledKernel {
        CompiledKernel::with_backend(compiled, self.kind)
    }
}

impl hetero_apps::App for CompiledApp {
    fn spec(&self) -> &hetero_apps::AppSpec {
        self.inner.spec()
    }

    fn mapper(&self) -> Box<dyn Mapper> {
        Box::new(self.kernel(&self.mapper))
    }

    fn combiner(&self) -> Option<Box<dyn Combiner>> {
        self.combiner
            .as_ref()
            .map(|c| Box::new(self.kernel(c)) as Box<dyn Combiner>)
    }

    fn reducer(&self) -> Option<Box<dyn hetero_runtime::types::Reducer>> {
        self.inner.reducer()
    }

    fn generate_split(&self, records: usize, seed: u64) -> Vec<u8> {
        self.inner.generate_split(records, seed)
    }

    fn mapper_source(&self) -> &'static str {
        self.inner.mapper_source()
    }

    fn combiner_source(&self) -> Option<&'static str> {
        self.inner.combiner_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_apps::{app_by_code, App};
    use hetero_runtime::types::VecEmit;

    #[test]
    fn compiled_map_charges_cost() {
        let app = app_by_code("WC").unwrap();
        let compiled = hetero_cc::compile(app.mapper_source()).unwrap();
        let m = CompiledKernel::new(&compiled);
        let mut out = VecEmit::default();
        m.map(b"hello world again", &mut out);
        assert!(out.ops.alu > 0, "a compiled map must charge ops");
    }

    #[test]
    fn the_interpreter_oracle_emits_and_charges_as_production_does() {
        let app = app_by_code("WC").unwrap();
        let compiled = hetero_cc::compile(app.mapper_source()).unwrap();
        let mi = CompiledKernel::with_backend(&compiled, BackendKind::Interp);
        let mn = CompiledKernel::new(&compiled);
        let mut a = VecEmit::default();
        let mut b = VecEmit::default();
        for rec in [&b"hello world hello"[..], b"a b c", b"", b"  spaced  out "] {
            mi.map(rec, &mut a);
            mn.map(rec, &mut b);
        }
        assert_eq!(a.pairs, b.pairs, "emitted KV streams must match");
        assert_eq!(a.ops, b.ops, "charged costs must be identical");
    }

    #[test]
    fn compiled_app_delegates_and_compiles_all_eight() {
        for app in hetero_apps::all_apps() {
            let code = app.spec().code;
            let capp = CompiledApp::new(app).unwrap_or_else(|e| panic!("{code}: {e}"));
            assert_eq!(capp.spec().code, code);
            assert_eq!(
                capp.combiner().is_some(),
                capp.spec().has_combiner,
                "{code}: combiner presence must match Table 2"
            );
            // The compiled mapper must actually emit on generated data.
            let split = capp.generate_split(30, 11);
            let m = capp.mapper();
            let mut out = VecEmit::default();
            for line in split.split(|&x| x == b'\n').filter(|l| !l.is_empty()) {
                m.map(line, &mut out);
            }
            assert!(
                !out.pairs.is_empty(),
                "{code}: compiled mapper emitted nothing"
            );
        }
    }
}
