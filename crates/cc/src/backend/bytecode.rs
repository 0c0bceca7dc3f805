//! The register bytecode the native backend executes: instruction set,
//! the lowered-program container, and its text listing.
//!
//! A lowered function is a flat run of [`Insn`]s split into **basic
//! blocks**. Every block exists twice:
//!
//! * the *fast* copy opens with [`Insn::Fuel`], which charges the
//!   block's whole static `(steps, ops)` sum in one go — the per-node
//!   `tick()` of the interpreter, paid once per block;
//! * the *exact twin* carries the same instructions interleaved with
//!   [`Insn::Tick`]s at the precise points the interpreter ticks. `Fuel`
//!   diverts to the twin when the remaining step budget is smaller than
//!   the block's sum, so `step limit exceeded` fires at the same node —
//!   and wins or loses against a co-located fault — exactly as in
//!   `interp.rs`. Twins jump back to fast blocks; each block re-decides.
//!
//! Operands ([`R`]) name either a frame register or a constant-pool
//! entry, so literals and identifier reads cost no instruction.

use crate::ast::CType;
use crate::error::CcError;
use crate::interp::{PSeg, ScanConv, Sfu1, V};
use std::fmt::{self, Write as _};

/// An operand: frame register `r<n>` (bit 15 clear, relative to the
/// activation's base) or constant-pool entry `k<n>` (bit 15 set).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct R(pub u16);

impl R {
    /// Constant-pool flag.
    pub(crate) const K: u16 = 0x8000;
    /// Largest register / constant index an operand can name.
    pub(crate) const MAX: usize = 0x7fff;

    pub(crate) fn reg(i: usize) -> R {
        R(i.min(Self::MAX) as u16)
    }

    pub(crate) fn konst(i: usize) -> R {
        R(i.min(Self::MAX) as u16 | Self::K)
    }

    pub(crate) fn is_const(self) -> bool {
        self.0 & Self::K != 0
    }

    /// Register number or constant index.
    pub(crate) fn index(self) -> usize {
        (self.0 & !Self::K) as usize
    }
}

impl fmt::Debug for R {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = if self.is_const() { 'k' } else { 'r' };
        write!(f, "{c}{}", self.index())
    }
}

/// A code address. Holds a label id while a function is being lowered.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pc(pub u32);

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// The six comparisons a fused compare-and-branch can test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// One instruction. `Copy`, at most 16 bytes (asserted below).
// One line per opcode: this is the instruction table.
#[rustfmt::skip]
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Insn {
    /// Block entry: charge `(steps, ops)` if the budget allows the
    /// whole block, else continue at the block's exact twin.
    Fuel { steps: u32, ops: u32, exact: Pc },
    /// Exact twins only: charge these ticks now; the step limit fires
    /// here.
    Tick { steps: u32, ops: u32 },

    Mov { dst: R, src: R },
    Add { dst: R, a: R, b: R },
    Sub { dst: R, a: R, b: R },
    Mul { dst: R, a: R, b: R },
    Div { dst: R, a: R, b: R },
    Rem { dst: R, a: R, b: R },
    Lt { dst: R, a: R, b: R },
    Le { dst: R, a: R, b: R },
    Gt { dst: R, a: R, b: R },
    Ge { dst: R, a: R, b: R },
    Eq { dst: R, a: R, b: R },
    Ne { dst: R, a: R, b: R },
    BitAnd { dst: R, a: R, b: R },
    BitOr { dst: R, a: R, b: R },
    BitXor { dst: R, a: R, b: R },
    Shl { dst: R, a: R, b: R },
    Shr { dst: R, a: R, b: R },
    Neg { dst: R, a: R },
    Not { dst: R, a: R },
    BitNot { dst: R, a: R },
    /// `dst = truthy(a)` as `0`/`1` (the value of `&&` / `||`).
    Truthy { dst: R, a: R },
    CastI { dst: R, a: R },
    CastF { dst: R, a: R },
    /// `dst = a ± 1` with `++`/`--` semantics (numbers and pointers).
    NumAdd { dst: R, a: R, d: i8 },
    /// `dst = reg; reg = reg ± 1` (value-producing `x++`).
    PostInc { dst: R, reg: R, d: i8 },

    Jmp { to: Pc },
    /// Jump when `cond` is falsy.
    Br { cond: R, to: Pc },
    /// Jump when `cond` is truthy.
    BrT { cond: R, to: Pc },
    /// Jump when `(a op b) == sense`.
    BrCmp { op: Cmp, sense: bool, a: R, b: R, to: Pc },

    Ld { dst: R, base: R, idx: R },
    St { val: R, base: R, idx: R },
    Lea { dst: R, base: R, idx: R },
    /// Strided 2-D access `slot[row][col]` (stride and the
    /// continuation in `sites2[site]`): on a pointer in `slot`, access
    /// and continue at `cont`; otherwise fall through into the generic
    /// path the interpreter takes.
    Ld2 { dst: R, slot: R, row: R, col: R, site: u16 },
    St2 { val: R, slot: R, row: R, col: R, site: u16 },
    Lea2 { dst: R, slot: R, row: R, col: R, site: u16 },
    LdDeref { dst: R, ptr: R },
    StDeref { val: R, ptr: R },
    /// `dst = &reg` (a slot reference to a scalar local).
    AddrSlot { dst: R, reg: R },
    /// Fresh NUL-terminated buffer for string literal `strs[lit]`.
    StrLit { dst: R, lit: u16 },
    /// Fresh zeroed buffer for the array declared at `arrays[site]`.
    DeclArr { dst: R, site: u16 },

    /// Call `funcs[func]`; its window opens at register `args` (the
    /// arguments already sit in its first registers).
    Call { dst: R, func: u16, args: R },
    Ret { src: R },
    /// Raise `msgs[msg]` — the interpreter's lazy faults, reproduced
    /// only if reached.
    Trap { msg: u16 },
    /// Fault unless `a` converts to an integer / a number: keeps an
    /// operand's validation ahead of the next operand's evaluation.
    ChkInt { a: R },
    ChkNum { a: R },

    /// Consume a line record into a fresh buffer (`ptr`, `len`); at end
    /// of input `len = -1` and jump to `eof`.
    GetLine { ptr: R, len: R, eof: Pc },
    GetLineStore { target: R, ptr: R },
    Tok { dst: R, line: R, off: R, word: R, read: R, max: R, word_mode: bool },
    PfBegin,
    PfLit { fmt: u16, seg: u16 },
    PfConv { src: R, fmt: u16, seg: u16 },
    PfEnd { dst: R },
    /// Consume a KV record; at end of input `dst = -1` and jump to
    /// `eof`.
    ScBegin { dst: R, eof: Pc },
    ScConv { src: R, conv: ScanConv, field: u8 },
    ScEnd { dst: R },
    StrFind { dst: R, a: R, b: R },
    StrCmp { dst: R, a: R, b: R },
    StrCpy { dst: R, a: R, b: R },
    StrLen { dst: R, a: R },
    Atoi { dst: R, a: R },
    Atof { dst: R, a: R },
    Sfu { dst: R, a: R, f: Sfu1 },
    Pow { dst: R, a: R, b: R },
    Malloc { dst: R, n: R },
    Calloc { dst: R, n: R, m: R },
    Abs { dst: R, a: R },
}

const _: () = assert!(std::mem::size_of::<Insn>() <= 16);

impl Insn {
    /// The jump target field, if the instruction has one.
    pub(crate) fn target_mut(&mut self) -> Option<&mut Pc> {
        match self {
            Insn::Jmp { to }
            | Insn::Br { to, .. }
            | Insn::BrT { to, .. }
            | Insn::BrCmp { to, .. } => Some(to),
            Insn::GetLine { eof, .. } | Insn::ScBegin { eof, .. } => Some(eof),
            _ => None,
        }
    }

    /// `Some(falls_through)` for instructions that end a basic block:
    /// anything that may continue somewhere other than the next
    /// instruction (a call runs other blocks before it returns).
    pub(crate) fn ends_block(&self) -> Option<bool> {
        match self {
            Insn::Jmp { .. } | Insn::Ret { .. } | Insn::Trap { .. } => Some(false),
            Insn::Br { .. }
            | Insn::BrT { .. }
            | Insn::BrCmp { .. }
            | Insn::Call { .. }
            | Insn::GetLine { .. }
            | Insn::ScBegin { .. }
            | Insn::Ld2 { .. }
            | Insn::St2 { .. }
            | Insn::Lea2 { .. } => Some(true),
            _ => None,
        }
    }
}

/// Side data of one strided 2-D access site.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Site2 {
    pub stride: usize,
    /// Where execution continues after a successful fast-path access.
    pub cont: Pc,
}

/// One lowered function.
#[derive(Debug)]
pub(crate) struct Func {
    pub name: String,
    pub nparams: usize,
    /// Frame size: named locals (never reused across sibling scopes,
    /// like the interpreter's append-only slots) plus temporaries.
    pub nregs: usize,
    /// First instruction (the first fast block's `Fuel`).
    pub entry: usize,
    /// Start of the exact twins; fast blocks are `entry..twins`.
    pub twins: usize,
    /// One past the function's last instruction.
    pub end: usize,
}

/// Size of a lowered program, for run reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoweringCounts {
    /// Instructions in fast blocks (exact twins excluded).
    pub insns: usize,
    /// Basic blocks.
    pub blocks: usize,
    /// Guarded opcodes: subscripts (bounds) and `/`, `%` (zero
    /// denominator).
    pub guarded_sites: usize,
}

/// A whole program lowered to bytecode. Built once, immutable, shared
/// across the worker pool.
#[derive(Debug)]
pub(crate) struct Bytecode {
    pub code: Vec<Insn>,
    pub funcs: Vec<Func>,
    pub main: Option<usize>,
    /// Constant pool (copied to the bottom of the register stack).
    pub consts: Vec<V>,
    pub msgs: Vec<CcError>,
    pub strs: Vec<Vec<u8>>,
    pub fmts: Vec<Vec<PSeg>>,
    /// `(name, leaf element type, element count)` per array
    /// declaration.
    pub arrays: Vec<(String, CType, usize)>,
    pub sites2: Vec<Site2>,
}

impl Bytecode {
    fn fast_insns(&self) -> impl Iterator<Item = &Insn> {
        self.funcs.iter().flat_map(|f| &self.code[f.entry..f.twins])
    }

    pub(crate) fn counts(&self) -> LoweringCounts {
        let mut c = LoweringCounts::default();
        for insn in self.fast_insns() {
            c.insns += 1;
            use Insn::*;
            match insn {
                Fuel { .. } => c.blocks += 1,
                Ld { .. }
                | St { .. }
                | Lea { .. }
                | Ld2 { .. }
                | St2 { .. }
                | Lea2 { .. }
                | Div { .. }
                | Rem { .. } => c.guarded_sites += 1,
                _ => {}
            }
        }
        c
    }

    /// Stable text listing: per function its fast blocks (with their
    /// `(steps, ops)` sums) and exact twins, then the side tables.
    pub(crate) fn disasm(&self) -> String {
        let mut s = String::new();
        let c = self.counts();
        let _ = writeln!(
            s,
            "; {} insns, {} blocks, {} guarded sites",
            c.insns, c.blocks, c.guarded_sites
        );
        for f in &self.funcs {
            let _ = writeln!(
                s,
                "fn {} (params {}, regs {}) @{}",
                f.name, f.nparams, f.nregs, f.entry
            );
            for pc in f.entry..f.end {
                if pc == f.twins && f.twins < f.end {
                    let _ = writeln!(s, "  exact twins:");
                }
                match self.code[pc] {
                    Insn::Fuel { steps, ops, exact } => {
                        let _ = writeln!(
                            s,
                            "  block @{pc} (steps {steps}, ops {ops}) exact {exact:?}"
                        );
                    }
                    insn => {
                        let _ = writeln!(s, "    {pc:04}  {insn:?}");
                    }
                }
            }
        }
        let _ = writeln!(s, "consts:");
        for (i, k) in self.consts.iter().enumerate() {
            let _ = writeln!(s, "  k{i} = {k:?}");
        }
        for (i, m) in self.msgs.iter().enumerate() {
            let _ = writeln!(s, "  msg{i} = {:?}", m.to_string());
        }
        for (i, b) in self.strs.iter().enumerate() {
            let _ = writeln!(s, "  str{i} = {:?}", String::from_utf8_lossy(b));
        }
        for (i, segs) in self.fmts.iter().enumerate() {
            let _ = writeln!(s, "  fmt{i} = {segs:?}");
        }
        for (i, (_, ty, n)) in self.arrays.iter().enumerate() {
            let _ = writeln!(s, "  arr{i} = {}[{n}]", ty.c_name());
        }
        for (i, site) in self.sites2.iter().enumerate() {
            let _ = writeln!(s, "  site{i} = {site:?}");
        }
        s
    }
}
