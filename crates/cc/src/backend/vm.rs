//! The bytecode interpreter: one `match` loop over a single register
//! stack.
//!
//! The constant pool sits at the bottom of the stack, activations above
//! it; a call opens a window at the caller's first argument register, so
//! arguments are never copied and no call allocates. Errors are built
//! only when raised. Step and op accounting is per block (see
//! [`super::bytecode`]); `mem`/`sfu`/`records_in`/`lines_out` are charged
//! by the instructions themselves, through the same shared functions the
//! tree-walking interpreter calls.
//!
//! A [`Checkpoint`] is the state of `main` at its first input read; a
//! run given one resumes there instead of running the prologue again.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use super::bytecode::{Bytecode, Cmp, Insn, ScanTo, R};
use crate::ast::{BinOp, CType};
use crate::error::CcError;
use crate::interp::{
    alloc_buffer, as_f64, as_int, binary_inline, bit_not, builtin_atof, builtin_atoi,
    builtin_strcmp, builtin_strcpy, builtin_strfind, builtin_strlen, cast, check_bounds,
    getline_read, getline_store, load_through, malloc_bytes, neg, num_add, printf_charge,
    printf_finish, read_buf, render_conv, scan_token, scanf_read, scanf_store, store_through,
    truthy, write_buf, Buffer, InterpStats, PSeg, StreamIo, V,
};

/// Deepest call nesting. The tree-walking interpreter recurses on the
/// host stack and overflows it long before this; a runaway recursion
/// here ends in an error instead of exhausting memory.
pub(super) const MAX_CALL_DEPTH: usize = 1 << 16;

#[derive(Clone)]
struct Frame {
    ret_pc: usize,
    base: usize,
    dst: R,
}

/// Resolve `base[idx]`: the index must be an integer before the base is
/// even looked at, like `Interp::index_target`.
#[inline(always)]
fn place(heap: &[Buffer], base: V, idx: V) -> Result<(usize, usize), CcError> {
    let i = as_int(&idx)?;
    match base {
        V::Ptr { buf, off } => check_bounds(heap, buf, off, 0, 0, i),
        _ => Err(CcError::interp("indexing non-pointer")),
    }
}

#[cold]
fn step_limit() -> CcError {
    CcError::interp("step limit exceeded (infinite loop?)")
}

/// The growable storage of a run, emptied between runs — but for the
/// heap of a checkpointed run, which stays as that run left it: the
/// checkpoint's buffers, `dirty` listing those the run wrote. `pf`'s
/// strings keep their text: `PfBegin` clears one before it is written.
#[derive(Default)]
struct Storage {
    regs: Vec<V>,
    heap: Vec<Buffer>,
    frames: Vec<Frame>,
    pf: Vec<Vec<u8>>,
    sc: Vec<(usize, i64)>,
    /// The [`Checkpoint::id`] whose buffers `heap` holds; 0 for none.
    owner: u64,
    /// Per checkpoint buffer, whether `dirty` lists it.
    written: Vec<bool>,
    dirty: Vec<usize>,
}

impl Storage {
    /// Open `main`'s frame over the constant pool.
    fn open_main(&mut self, p: &Bytecode) {
        let nregs = p.main.map_or(0, |m| p.funcs[m].nregs);
        self.regs.extend_from_slice(&p.consts);
        self.regs.resize(p.consts.len() + nregs, V::I(0));
    }

    /// Set up for a run from the top: no checkpoint buffers.
    fn forget(&mut self) {
        if self.owner != 0 {
            self.owner = 0;
            self.heap.clear();
            self.written.clear();
            self.dirty.clear();
        }
    }

    /// Set up for a run from `ck`: its registers and frames, and its heap
    /// — when this storage already holds it, only the buffers the last
    /// run wrote are copied back.
    fn restore(&mut self, ck: &Checkpoint) {
        if self.owner == ck.id {
            for b in self.dirty.drain(..) {
                self.written[b] = false;
                match (&mut self.heap[b], &ck.heap[b]) {
                    (Buffer::Bytes(to), Buffer::Bytes(from)) => to.clone_from(from),
                    (Buffer::Ints(to), Buffer::Ints(from)) => to.clone_from(from),
                    (Buffer::Doubles(to), Buffer::Doubles(from)) => to.clone_from(from),
                    // A buffer's element kind is fixed at allocation.
                    (to, from) => to.clone_from(from),
                }
            }
        } else {
            self.owner = ck.id;
            self.heap.clone_from(&ck.heap);
            self.written.clear();
            self.written.resize(ck.heap.len(), false);
            self.dirty.clear();
        }
        self.regs.extend_from_slice(&ck.regs);
        self.frames.extend_from_slice(&ck.frames);
    }
}

thread_local! {
    /// The storage this thread's last finished run handed back, so the
    /// next run allocates none of it afresh.
    static SPARE: Cell<Option<Storage>> = const { Cell::new(None) };
}

#[cfg(feature = "dispatch-count")]
thread_local! {
    static DISPATCHES: Cell<u64> = const { Cell::new(0) };
}

/// Instructions the VM has dispatched on this thread, every `Fuel` and
/// `Tick` included.
#[cfg(feature = "dispatch-count")]
pub fn dispatches() -> u64 {
    DISPATCHES.get()
}

/// Step cap of the prologue run that takes a [`Checkpoint`]; a longer
/// prologue gets none.
const PROLOGUE_MAX_STEPS: u64 = 1 << 20;

/// Source of [`Checkpoint::id`]s: unique for the process's lifetime, so a
/// spare heap is never taken for another checkpoint's, as an address
/// reused after a drop could be.
static NEXT_CHECKPOINT: AtomicU64 = AtomicU64::new(1);

/// The complete state of `main` stopped at its first `getline`/`scanf`,
/// before the read: everything a run from the top has at that point,
/// whatever its input. A run resumes here when its step cap covers
/// `steps`; the prologue took the fast path through every block then,
/// so nothing before the read depends on the cap.
pub(crate) struct Checkpoint {
    id: u64,
    pc: usize,
    base: usize,
    regs: Vec<V>,
    heap: Vec<Buffer>,
    frames: Vec<Frame>,
    stats: InterpStats,
    pub(crate) steps: u64,
    stdout: Vec<u8>,
}

/// Run `p`'s `main` up to its first input read. `None` when it never
/// reads, faults (or outruns [`PROLOGUE_MAX_STEPS`]) first, or reads
/// inside a `printf` argument.
pub(crate) fn checkpoint(p: &Bytecode) -> Option<Checkpoint> {
    let entry = main_entry(p).ok()?;
    let mut s = Storage::default();
    s.open_main(p);
    let mut vm = Vm::new(p, s, PROLOGUE_MAX_STEPS);
    vm.pause_at_read = true;
    let mut io = StreamIo::lines(vec![]);
    let (pc, base) = vm.exec(entry, p.consts.len(), &mut io).ok()??;
    // A `scanf` is itself a read, so none is in progress here.
    debug_assert!(vm.sc.is_empty());
    if vm.pf_depth != 0 {
        return None;
    }
    Some(Checkpoint {
        id: NEXT_CHECKPOINT.fetch_add(1, Ordering::Relaxed),
        pc,
        base,
        regs: vm.regs,
        heap: vm.heap,
        frames: vm.frames,
        stats: vm.stats,
        steps: vm.steps,
        stdout: io.stdout,
    })
}

/// `main`'s entry, or the error of calling it.
fn main_entry(p: &Bytecode) -> Result<usize, CcError> {
    let main = p.main.ok_or_else(|| CcError::interp("no main function"))?;
    let f = &p.funcs[main];
    if f.nparams != 0 {
        return Err(CcError::interp(format!(
            "function {} expects {} args, got 0",
            f.name, f.nparams
        )));
    }
    Ok(f.entry)
}

/// Run `main` to completion against `io` under a step cap: from `ck`
/// when given and the cap covers its steps, else from the top.
pub(crate) fn run(
    p: &Bytecode,
    ck: Option<&Checkpoint>,
    io: &mut StreamIo,
    max_steps: u64,
) -> Result<InterpStats, CcError> {
    let entry = main_entry(p)?;
    let mut s = SPARE.take().unwrap_or_default();
    let ck = ck.filter(|ck| max_steps >= ck.steps);
    let (pc, base, stats, steps) = match ck {
        Some(ck) => {
            s.restore(ck);
            io.stdout.extend_from_slice(&ck.stdout);
            (ck.pc, ck.base, ck.stats, ck.steps)
        }
        None => {
            s.forget();
            s.open_main(p);
            (entry, p.consts.len(), InterpStats::default(), 0)
        }
    };
    let mut vm = Vm::new(p, s, max_steps);
    vm.stats = stats;
    vm.steps = steps;
    let done = vm.exec(pc, base, io);
    #[cfg(feature = "dispatch-count")]
    DISPATCHES.set(DISPATCHES.get() + vm.dispatched);
    // A buffer the run made, most likely the record `getline` took over,
    // holds the next record.
    if vm.heap.len() > vm.written.len() {
        if let Some(Buffer::Bytes(spare)) = vm.heap.pop() {
            io.spare = spare;
        }
    }
    let stats = vm.stats;
    SPARE.set(Some(vm.into_storage(ck.map_or(0, |ck| ck.id))));
    done.map(|_| stats)
}

struct Vm<'p> {
    p: &'p Bytecode,
    /// `[constants | activation | activation | …]`.
    regs: Vec<V>,
    heap: Vec<Buffer>,
    stats: InterpStats,
    steps: u64,
    max_steps: u64,
    frames: Vec<Frame>,
    /// Output buffers of the `printf`s being rendered (they nest when
    /// an argument itself prints); kept for reuse.
    pf: Vec<Vec<u8>>,
    pf_depth: usize,
    /// The KV records (see [`StreamIo::kv_field`]) of the `scanf`s in
    /// progress and their match counts.
    sc: Vec<(usize, i64)>,
    /// Per buffer of the checkpoint the run started from (none for a
    /// run from the top), whether `dirty` lists it: every instruction
    /// that writes the heap marks the buffer it writes.
    written: Vec<bool>,
    dirty: Vec<usize>,
    /// Stop before the first `getline`/`scanf` (to take a checkpoint).
    pause_at_read: bool,
    #[cfg(feature = "dispatch-count")]
    dispatched: u64,
}

impl<'p> Vm<'p> {
    fn new(p: &'p Bytecode, s: Storage, max_steps: u64) -> Self {
        Vm {
            p,
            regs: s.regs,
            heap: s.heap,
            stats: InterpStats::default(),
            steps: 0,
            max_steps,
            frames: s.frames,
            pf: s.pf,
            pf_depth: 0,
            sc: s.sc,
            written: s.written,
            dirty: s.dirty,
            pause_at_read: false,
            #[cfg(feature = "dispatch-count")]
            dispatched: 0,
        }
    }

    /// Hand the storage back emptied, keeping the heap's first
    /// `written.len()` buffers: those of checkpoint `owner`.
    fn into_storage(self, owner: u64) -> Storage {
        let Vm {
            mut regs,
            mut heap,
            mut frames,
            pf,
            mut sc,
            written,
            dirty,
            ..
        } = self;
        regs.clear();
        heap.truncate(written.len());
        frames.clear();
        sc.clear();
        Storage {
            regs,
            heap,
            frames,
            pf,
            sc,
            owner,
            written,
            dirty,
        }
    }

    /// Note that the run writes heap buffer `buf`.
    #[inline(always)]
    fn mark(&mut self, buf: usize) {
        if let Some(w) = self.written.get_mut(buf) {
            if !*w {
                *w = true;
                self.dirty.push(buf);
            }
        }
    }

    /// [`mark`](Self::mark) the buffer a store through `to` writes.
    #[inline(always)]
    fn mark_ptr(&mut self, to: &V) {
        if let V::Ptr { buf, .. } = *to {
            self.mark(buf);
        }
    }

    /// Execute from `pc` in the activation at `base` until `main`
    /// returns (`None`) or, when pausing, until the first input read
    /// (`Some` of its `pc` and `base`).
    fn exec(
        &mut self,
        mut pc: usize,
        mut base: usize,
        io: &mut StreamIo,
    ) -> Result<Option<(usize, usize)>, CcError> {
        let p = self.p;
        let code = &p.code[..];

        macro_rules! rd {
            ($o:expr) => {{
                let o: R = $o;
                self.regs[if o.is_const() {
                    o.index()
                } else {
                    base + o.index()
                }]
            }};
        }
        macro_rules! wr {
            ($o:expr, $v:expr) => {{
                let v = $v;
                self.regs[base + $o.index()] = v;
            }};
        }
        macro_rules! bin {
            ($op:expr, $dst:expr, $a:expr, $b:expr) => {{
                let v = binary_inline($op, rd!($a), rd!($b))?;
                wr!($dst, v);
            }};
        }
        // The three things a resolved `(buffer, offset)` is used for.
        macro_rules! load {
            ($dst:expr, $buf:expr, $off:expr) => {{
                self.stats.mem += 1;
                wr!($dst, read_buf(&self.heap, $buf, $off)?)
            }};
        }
        macro_rules! store {
            ($val:expr, $buf:expr, $off:expr) => {{
                self.mark($buf);
                write_buf(&mut self.heap, &mut self.stats, $buf, $off, &rd!($val))?
            }};
        }
        macro_rules! lea {
            ($dst:expr, $buf:expr, $off:expr) => {
                wr!(
                    $dst,
                    V::Ptr {
                        buf: $buf,
                        off: $off
                    }
                )
            };
        }
        macro_rules! access {
            ($use:ident, $r:expr, $base:expr, $idx:expr) => {{
                let (buf, off) = place(&self.heap, rd!($base), rd!($idx))?;
                $use!($r, buf, off)
            }};
        }
        macro_rules! access2 {
            ($use:ident, $r:expr, $slot:expr, $row:expr, $col:expr, $site:expr) => {{
                let site = &p.sites2[$site as usize];
                let i = as_int(&rd!($col))?;
                let row = as_int(&rd!($row))?;
                if let V::Ptr { buf, off } = rd!($slot) {
                    let (buf, off) = check_bounds(&self.heap, buf, off, row, site.stride, i)?;
                    $use!($r, buf, off);
                    pc = site.cont.0 as usize;
                }
            }};
        }

        loop {
            // Matched in place, not copied out: each arm then loads only
            // its own operands, where a copy had every field extracted
            // ahead of the jump table (≈ 8 % of the BS mapper's time).
            let insn = &code[pc];
            pc += 1;
            #[cfg(feature = "dispatch-count")]
            {
                self.dispatched += 1;
            }
            match *insn {
                Insn::Fuel { steps, ops, exact } => {
                    if self.max_steps - self.steps < steps as u64 {
                        pc = exact.0 as usize;
                    } else {
                        self.steps += steps as u64;
                        self.stats.ops += ops as u64;
                    }
                }
                Insn::Tick { steps, ops } => {
                    // No instruction sits between these ticks, so the
                    // first one past the cap is where the run ends.
                    if self.max_steps - self.steps < steps as u64 {
                        return Err(step_limit());
                    }
                    self.steps += steps as u64;
                    self.stats.ops += ops as u64;
                }

                Insn::Mov { dst, src } => wr!(dst, rd!(src)),
                Insn::Add { dst, a, b } => bin!(BinOp::Add, dst, a, b),
                Insn::Sub { dst, a, b } => bin!(BinOp::Sub, dst, a, b),
                Insn::Mul { dst, a, b } => bin!(BinOp::Mul, dst, a, b),
                Insn::Div { dst, a, b } => bin!(BinOp::Div, dst, a, b),
                Insn::Rem { dst, a, b } => bin!(BinOp::Rem, dst, a, b),
                Insn::Lt { dst, a, b } => bin!(BinOp::Lt, dst, a, b),
                Insn::Le { dst, a, b } => bin!(BinOp::Le, dst, a, b),
                Insn::Gt { dst, a, b } => bin!(BinOp::Gt, dst, a, b),
                Insn::Ge { dst, a, b } => bin!(BinOp::Ge, dst, a, b),
                Insn::Eq { dst, a, b } => bin!(BinOp::Eq, dst, a, b),
                Insn::Ne { dst, a, b } => bin!(BinOp::Ne, dst, a, b),
                Insn::BitAnd { dst, a, b } => bin!(BinOp::BitAnd, dst, a, b),
                Insn::BitOr { dst, a, b } => bin!(BinOp::BitOr, dst, a, b),
                Insn::BitXor { dst, a, b } => bin!(BinOp::BitXor, dst, a, b),
                Insn::Shl { dst, a, b } => bin!(BinOp::Shl, dst, a, b),
                Insn::Shr { dst, a, b } => bin!(BinOp::Shr, dst, a, b),
                Insn::Neg { dst, a } => wr!(dst, neg(rd!(a))?),
                Insn::Not { dst, a } => wr!(dst, V::I(!truthy(&rd!(a)) as i64)),
                Insn::BitNot { dst, a } => wr!(dst, bit_not(rd!(a))?),
                Insn::Truthy { dst, a } => wr!(dst, V::I(truthy(&rd!(a)) as i64)),
                Insn::CastI { dst, a } => wr!(dst, cast(&rd!(a), &CType::Int)),
                Insn::CastF { dst, a } => wr!(dst, cast(&rd!(a), &CType::Double)),
                Insn::NumAdd { dst, a, d } => wr!(dst, num_add(&rd!(a), d as i64)?),
                Insn::PostInc { dst, reg, d } => {
                    let old = rd!(reg);
                    wr!(reg, num_add(&old, d as i64)?);
                    wr!(dst, old)
                }

                Insn::Jmp { to } => pc = to.0 as usize,
                Insn::Br { cond, to } => {
                    if !truthy(&rd!(cond)) {
                        pc = to.0 as usize;
                    }
                }
                Insn::BrT { cond, to } => {
                    if truthy(&rd!(cond)) {
                        pc = to.0 as usize;
                    }
                }
                Insn::BrCmp {
                    op,
                    sense,
                    a,
                    b,
                    to,
                } => {
                    let (x, y) = (rd!(a), rd!(b));
                    let v = match op {
                        Cmp::Lt => binary_inline(BinOp::Lt, x, y),
                        Cmp::Le => binary_inline(BinOp::Le, x, y),
                        Cmp::Gt => binary_inline(BinOp::Gt, x, y),
                        Cmp::Ge => binary_inline(BinOp::Ge, x, y),
                        Cmp::Eq => binary_inline(BinOp::Eq, x, y),
                        Cmp::Ne => binary_inline(BinOp::Ne, x, y),
                    }?;
                    if truthy(&v) == sense {
                        pc = to.0 as usize;
                    }
                }

                Insn::Ld { dst, base: b, idx } => access!(load, dst, b, idx),
                Insn::St { val, base: b, idx } => access!(store, val, b, idx),
                Insn::Lea { dst, base: b, idx } => access!(lea, dst, b, idx),
                Insn::Ld2 {
                    dst,
                    slot,
                    row,
                    col,
                    site,
                } => access2!(load, dst, slot, row, col, site),
                Insn::St2 {
                    val,
                    slot,
                    row,
                    col,
                    site,
                } => access2!(store, val, slot, row, col, site),
                Insn::Lea2 {
                    dst,
                    slot,
                    row,
                    col,
                    site,
                } => access2!(lea, dst, slot, row, col, site),
                Insn::LdDeref { dst, ptr } => {
                    let v = load_through(&self.heap, &self.regs, &mut self.stats, &rd!(ptr))?;
                    wr!(dst, v)
                }
                Insn::StDeref { val, ptr } => {
                    let (v, to) = (rd!(val), rd!(ptr));
                    self.mark_ptr(&to);
                    store_through(&mut self.heap, &mut self.regs, &mut self.stats, &to, v)?
                }
                Insn::AddrSlot { dst, reg } => wr!(dst, V::SlotRef(base + reg.index())),
                Insn::StrLit { dst, lit } => {
                    self.heap.push(Buffer::Bytes(p.strs[lit as usize].clone()));
                    let buf = self.heap.len() - 1;
                    wr!(dst, V::Ptr { buf, off: 0 })
                }
                Insn::DeclArr { dst, site } => {
                    let (name, elem, total) = &p.arrays[site as usize];
                    let buf = alloc_buffer(&mut self.heap, name, elem, *total)?;
                    wr!(dst, V::Ptr { buf, off: 0 })
                }

                Insn::Call { dst, func, args } => {
                    let f = &p.funcs[func as usize];
                    if self.frames.len() >= MAX_CALL_DEPTH {
                        return Err(CcError::interp("call depth exceeded"));
                    }
                    self.frames.push(Frame {
                        ret_pc: pc,
                        base,
                        dst,
                    });
                    base += args.index();
                    if self.regs.len() < base + f.nregs {
                        self.regs.resize(base + f.nregs, V::I(0));
                    }
                    pc = f.entry;
                }
                Insn::Ret { src } => {
                    let v = rd!(src);
                    let Some(fr) = self.frames.pop() else {
                        return Ok(None);
                    };
                    base = fr.base;
                    pc = fr.ret_pc;
                    wr!(fr.dst, v)
                }
                Insn::Trap { msg } => return Err(p.msgs[msg as usize].clone()),
                Insn::ChkInt { a } => {
                    as_int(&rd!(a))?;
                }
                Insn::ChkNum { a } => {
                    as_f64(&rd!(a))?;
                }

                Insn::GetLine { ptr, len, eof } => {
                    if self.pause_at_read {
                        return Ok(Some((pc - 1, base)));
                    }
                    match getline_read(io, &mut self.heap, &mut self.stats)? {
                        Some((line, n)) => {
                            wr!(ptr, line);
                            wr!(len, V::I(n))
                        }
                        None => {
                            wr!(len, V::I(-1));
                            pc = eof.0 as usize;
                        }
                    }
                }
                Insn::GetLineStore { target, ptr } => {
                    let (target, line) = (rd!(target), rd!(ptr));
                    getline_store(&mut self.regs, target, line)?
                }
                Insn::Tok {
                    dst,
                    line,
                    off,
                    word,
                    read,
                    max,
                    word_mode,
                } => {
                    let word = rd!(word);
                    self.mark_ptr(&word);
                    let n = scan_token(
                        &mut self.heap,
                        &mut self.stats,
                        &rd!(line),
                        as_int(&rd!(off))?,
                        &word,
                        as_int(&rd!(read))?,
                        as_int(&rd!(max))?,
                        word_mode,
                    )?;
                    wr!(dst, V::I(n))
                }
                Insn::PfBegin => {
                    match self.pf.get_mut(self.pf_depth) {
                        Some(out) => out.clear(),
                        None => self.pf.push(Vec::new()),
                    }
                    self.pf_depth += 1;
                }
                Insn::PfLit { fmt, seg } => {
                    if let PSeg::Lit(s) = &p.fmts[fmt as usize][seg as usize] {
                        self.pf[self.pf_depth - 1].extend_from_slice(s.as_bytes());
                    }
                }
                Insn::PfConv { src, fmt, seg } => {
                    if let PSeg::Conv { prec, conv } = p.fmts[fmt as usize][seg as usize] {
                        let out = &mut self.pf[self.pf_depth - 1];
                        render_conv(out, prec, conv, &rd!(src), &self.heap)?;
                    }
                }
                Insn::PfEnd { dst } => {
                    self.pf_depth -= 1;
                    let v = printf_finish(&self.pf[self.pf_depth], &mut self.stats, io);
                    wr!(dst, v)
                }
                Insn::Printf { dst, fmt } => {
                    // Rendered in place: a failed conversion takes back
                    // what the earlier segments wrote.
                    let start = io.stdout.len();
                    let mut args = p.pf_args[fmt as usize].iter();
                    for seg in &p.fmts[fmt as usize] {
                        let (prec, conv) = match seg {
                            PSeg::Lit(s) => {
                                io.stdout.extend_from_slice(s.as_bytes());
                                continue;
                            }
                            PSeg::Conv { prec, conv } => (*prec, *conv),
                        };
                        let a = *args.next().expect("an operand a conversion");
                        if let Err(e) = render_conv(&mut io.stdout, prec, conv, &rd!(a), &self.heap)
                        {
                            io.stdout.truncate(start);
                            return Err(e);
                        }
                    }
                    wr!(dst, printf_charge(&io.stdout[start..], &mut self.stats))
                }
                Insn::ScBegin { dst, eof } => {
                    if self.pause_at_read {
                        return Ok(Some((pc - 1, base)));
                    }
                    match scanf_read(io, &mut self.stats)? {
                        Some(rec) => self.sc.push((rec, 0)),
                        None => {
                            wr!(dst, V::I(-1));
                            pc = eof.0 as usize;
                        }
                    }
                }
                Insn::ScConv { src, conv, field } => {
                    let dst = rd!(src);
                    self.mark_ptr(&dst);
                    let (rec, matched) = self.sc.last_mut().expect("inside a scanf");
                    scanf_store(
                        conv,
                        io.kv_field(*rec, field as usize),
                        &dst,
                        &mut self.heap,
                        &mut self.regs,
                        &mut self.stats,
                    )?;
                    *matched += 1;
                }
                Insn::ScTail { dst, site } => {
                    let (rec, _) = self.sc.pop().expect("inside a scanf");
                    let convs = &p.scans[site as usize];
                    for (ci, &(conv, to)) in convs.iter().enumerate() {
                        let to = match to {
                            ScanTo::Ptr(r) => rd!(r),
                            ScanTo::Slot(r) => V::SlotRef(base + r.index()),
                        };
                        self.mark_ptr(&to);
                        scanf_store(
                            conv,
                            io.kv_field(rec, ci.min(1)),
                            &to,
                            &mut self.heap,
                            &mut self.regs,
                            &mut self.stats,
                        )?;
                    }
                    wr!(dst, V::I(convs.len() as i64))
                }
                Insn::ScEnd { dst } => {
                    let (_, matched) = self.sc.pop().expect("inside a scanf");
                    wr!(dst, V::I(matched))
                }
                Insn::StrFind { dst, a, b } => {
                    let v = builtin_strfind(&self.heap, &mut self.stats, &rd!(a), &rd!(b))?;
                    wr!(dst, v)
                }
                Insn::StrCmp { dst, a, b } => {
                    let v = builtin_strcmp(&self.heap, &mut self.stats, &rd!(a), &rd!(b))?;
                    wr!(dst, v)
                }
                Insn::StrCpy { dst, a, b } => {
                    let (to, from) = (rd!(a), rd!(b));
                    self.mark_ptr(&to);
                    wr!(
                        dst,
                        builtin_strcpy(&mut self.heap, &mut self.stats, &to, &from)?
                    )
                }
                Insn::StrLen { dst, a } => wr!(dst, builtin_strlen(&self.heap, &rd!(a))?),
                Insn::Atoi { dst, a } => wr!(dst, builtin_atoi(&self.heap, &rd!(a))?),
                Insn::Atof { dst, a } => wr!(dst, builtin_atof(&self.heap, &rd!(a))?),
                Insn::Sfu { dst, a, f } => {
                    self.stats.sfu += 1;
                    let x = as_f64(&rd!(a))?;
                    wr!(dst, V::F(f.apply(x)))
                }
                Insn::Pow { dst, a, b } => {
                    self.stats.sfu += 1;
                    let x = as_f64(&rd!(a))?;
                    let y = as_f64(&rd!(b))?;
                    wr!(dst, V::F(x.powf(y)))
                }
                Insn::Malloc { dst, n } => {
                    let n = as_int(&rd!(n))?;
                    wr!(dst, malloc_bytes(&mut self.heap, "malloc", n, None)?)
                }
                Insn::Calloc { dst, n, m } => {
                    let n = as_int(&rd!(n))?;
                    let m = as_int(&rd!(m))?;
                    wr!(dst, malloc_bytes(&mut self.heap, "calloc", n, Some(m))?)
                }
                Insn::Abs { dst, a } => wr!(dst, V::I(as_int(&rd!(a))?.wrapping_abs())),
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::lower::lower;
    use crate::interp::Interp;
    use crate::parse::parse;
    use crate::test_listings::{LISTING1, LISTING2};

    /// Run a source under both backends on the same input and demand
    /// exact agreement of (stdout, stats) or of error text: the native
    /// one from the top, then twice from its checkpoint, if it has one.
    fn differential(src: &str, io_make: impl Fn() -> StreamIo) {
        let prog = parse(src).unwrap();
        let mut io_i = io_make();
        let ri = Interp::new(&prog)
            .with_max_steps(2_000_000)
            .run_main(&mut io_i)
            .map_err(|e| e.to_string());
        let native = lower(&prog);
        let ck = checkpoint(&native);
        for from in [None, ck.as_ref(), ck.as_ref()] {
            let mut io_n = io_make();
            let rn = run(&native, from, &mut io_n, 2_000_000).map_err(|e| e.to_string());
            assert_eq!(ri.is_ok(), rn.is_ok(), "outcome diverged for:\n{src}");
            match (&ri, rn) {
                (Ok(si), Ok(sn)) => {
                    assert_eq!(*si, sn, "stats diverged for:\n{src}");
                    assert_eq!(
                        String::from_utf8_lossy(&io_i.stdout),
                        String::from_utf8_lossy(&io_n.stdout),
                        "stdout diverged for:\n{src}"
                    );
                }
                (Err(ei), Err(en)) => assert_eq!(*ei, en, "error text diverged for:\n{src}"),
                _ => unreachable!(),
            }
        }
    }

    fn lines(ls: &[&str]) -> Vec<Vec<u8>> {
        ls.iter().map(|l| l.as_bytes().to_vec()).collect()
    }

    #[test]
    fn wordcount_mapper_parity() {
        differential(LISTING1, || {
            StreamIo::lines(lines(&[
                "the quick brown fox",
                "",
                "  spaced   out  ",
                "tail",
            ]))
        });
    }

    #[test]
    fn combiner_scanf_parity() {
        differential(LISTING2, || {
            StreamIo::kvs(
                [("a", "1"), ("a", "2"), ("b", "5"), ("c", "1"), ("c", "1")]
                    .iter()
                    .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                    .collect(),
            )
        });
    }

    #[test]
    fn control_flow_and_functions_parity() {
        let src = r#"
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() {
  int i;
  for (i = 0; i < 10; i++) {
    if (i == 3) continue;
    if (i == 8) break;
    printf("f%d\t%d\n", i, fib(i));
  }
  return 0;
}
"#;
        differential(src, || StreamIo::lines(vec![]));
    }

    #[test]
    fn two_dim_arrays_and_math_parity() {
        let src = r#"
int main() {
  double m[3][4]; int i, j; double s; s = 0.0;
  for (i = 0; i < 3; i++)
    for (j = 0; j < 4; j++)
      m[i][j] = i * 4 + j + 0.5;
  for (i = 0; i < 3; i++)
    for (j = 0; j < 4; j++)
      s += sqrt(m[i][j]) + pow(m[i][j], 0.5);
  printf("s\t%.6f\n", s);
  return 0;
}
"#;
        differential(src, || StreamIo::lines(vec![]));
    }

    #[test]
    fn pointer_ops_parity() {
        let src = r#"
int main() {
  char buf[32]; char *p; int n;
  strcpy(buf, "hello world");
  p = buf + 6;
  n = strlen(p);
  *p = 'W';
  printf("%s\t%d\t%d\n", buf, n, strfind(buf, "World"));
  return 0;
}
"#;
        differential(src, || StreamIo::lines(vec![]));
    }

    #[test]
    fn error_cases_parity() {
        // Runtime faults must carry identical messages.
        for src in [
            "int main() { int a[3]; a[7] = 1; return 0; }",
            "int main() { int a; a = 1 / 0; return 0; }",
            "int main() { int a; a = 1 % 0; return 0; }",
            "int main() { int a; a = nosuchvar; return 0; }",
            "int main() { nosuchfn(3); return 0; }",
            "int main() { getline(); return 0; }",
            "int main() { while (1) { } return 0; }",
            "int noargs() { return 1; } int main() { return noargs(7); }",
        ] {
            differential(src, || StreamIo::lines(vec![]));
        }
    }

    #[test]
    fn lazy_faults_do_not_fire_when_unreached() {
        // An ill-formed call sitting behind `if (0)` must not fail in
        // either backend (lazy faulting).
        let src = r#"
int main() {
  if (0) { nosuchfn(nosuchvar); printf(3); }
  printf("ok\t1\n");
  return 0;
}
"#;
        differential(src, || StreamIo::lines(vec![]));
    }

    #[test]
    fn sibling_scopes_do_not_alias() {
        let src = r#"
int main() {
  int total; total = 0;
  { int a; a = 5; total += a; }
  { int b; b = 7; total += b; }
  printf("t\t%d\n", total);
  return 0;
}
"#;
        differential(src, || StreamIo::lines(vec![]));
    }

    #[test]
    fn loop_redeclared_array_is_fresh_each_iteration() {
        let src = r#"
int main() {
  int i;
  for (i = 0; i < 3; i++) {
    int a[4];
    a[i] = a[i] + 1;
    printf("i%d\t%d\n", i, a[i]);
  }
  return 0;
}
"#;
        differential(src, || StreamIo::lines(vec![]));
    }

    #[test]
    fn a_run_after_a_faulted_one_starts_from_clean_storage() {
        type Outcome = Result<(Vec<u8>, InterpStats), String>;
        type Feed = fn() -> StreamIo;
        // Runs that hand their storage back in use: at an out-of-bounds
        // subscript, inside two nested `printf` conversions, inside a
        // `scanf`, at the step limit two calls deep, and after writing a
        // checkpoint's array directly and through a pointer. Then clean
        // runs over the same kinds of storage, the last one resuming
        // from the checkpoint the faulted run left written.
        let none: Feed = || StreamIo::lines(vec![]);
        let kvs: Feed = || StreamIo::kvs(vec![(b"a".to_vec(), b"1".to_vec()); 3]);
        let text: Feed = || StreamIo::lines(lines(&["the quick brown fox", "  spaced  out "]));
        let long: Feed = || StreamIo::lines(lines(&["abcdef"]));
        let short: Feed = || StreamIo::lines(lines(&["ab", "a"]));
        // Each heap-writing instruction writes a checkpoint buffer of its
        // own here, and each run prints them before writing them again.
        let prologue_array = "int main() { char a[4]; char b[4]; char w[8]; char c[8]; \
             char *p; char *line; size_t n; int r; \
             a[0] = 6; b[1] = 5; p = b + 1; strcpy(w, \"w\"); strcpy(c, \"c\"); \
             while ((r = getline(&line, &n, stdin)) != -1) { \
             printf(\"%d\\t%d\\t%d\\t%s\\t%s\\n\", a[0], b[1], r, w, c); \
             a[0] = r; *p = r; getWord(line, 0, w, r, 8); strcpy(c, line); a[r] = 1; } \
             return 0; }";
        let prologue_kv = "int main() { char k[8]; int v[2]; v[0] = 4; strcpy(k, \"k\"); \
             while (scanf(\"%s %d\", k, &v[0]) == 2) { \
             printf(\"%s\\t%d\\t%d\\t%d\\n\", k, k[3], v[1], v[0]); \
             v[1] = v[0]; if (v[0] > 5) v[9] = 1; } \
             return 0; }";
        let kv_long: Feed = || StreamIo::kvs(vec![(b"abcdef".to_vec(), b"9".to_vec())]);
        let kv_short: Feed = || StreamIo::kvs(vec![(b"a".to_vec(), b"1".to_vec())]);
        let sources = [
            "int main() { int a[2]; int i; i = 9; printf(\"%d\\n\", a[i]); return 0; }",
            "int main() { char w[8]; strcpy(w, \"abc\"); \
             printf(\"a%d%s\\n\", printf(\"b%s%q\", w, 2), w); return 0; }",
            "int main() { char k[8]; int v; scanf(\"%s %d\", k, &v); \
             scanf(\"%s %x\", k, &v); return 0; }",
            "int g(int n) { while (1) { n++; } return n; } \
             int f(int n) { char b[4]; return g(n) + b[0]; } int main() { return f(1); }",
            prologue_array,
            prologue_kv,
            LISTING1,
            LISTING2,
            "int f(int n) { char b[4]; if (n < 3) return f(n + 1) + n; return n; } \
             int main() { int x; char k[4]; x = scanf(\"%s %d\", k, &x); \
             printf(\"%s\\t%d\\n\", k, f(x)); return 0; }",
        ];
        // (program, input): a checkpoint's faulted run is followed by a
        // clean one from the same checkpoint.
        let cases: [(usize, Feed); 11] = [
            (0, none),
            (1, none),
            (2, kvs),
            (3, none),
            (4, long),
            (4, short),
            (5, kv_long),
            (5, kv_short),
            (6, text),
            (7, kvs),
            (8, kvs),
        ];
        let programs: Vec<(Bytecode, Option<Checkpoint>)> = sources
            .iter()
            .map(|src| {
                let code = lower(&parse(src).unwrap());
                let ck = checkpoint(&code);
                (code, ck)
            })
            .collect();
        assert!(programs[4].1.is_some() && programs[5].1.is_some());
        let programs = std::sync::Arc::new(programs);
        let one = move |programs: &[(Bytecode, Option<Checkpoint>)], i: usize| -> Outcome {
            let (prog, feed) = cases[i];
            let (code, ck) = &programs[prog];
            let mut io = feed();
            let ran = run(code, ck.as_ref(), &mut io, 10_000);
            // The spare keeps the checkpoint's buffers and no more.
            let spare = SPARE.take().expect("a run hands its storage back");
            assert_eq!(spare.heap.len(), ck.as_ref().map_or(0, |ck| ck.heap.len()));
            SPARE.set(Some(spare));
            match ran {
                Ok(stats) => Ok((io.stdout, stats)),
                Err(e) => Err(e.to_string()),
            }
        };
        let fresh: Vec<Outcome> = (0..cases.len())
            .map(|i| {
                let programs = std::sync::Arc::clone(&programs);
                std::thread::spawn(move || one(&programs, i))
                    .join()
                    .unwrap()
            })
            .collect();
        let faulted = [0, 1, 2, 3, 4, 6];
        for (i, outcome) in fresh.iter().enumerate() {
            assert_eq!(outcome.is_err(), faulted.contains(&i), "{i}: {outcome:?}");
        }
        for i in [0, 4, 6] {
            assert!(fresh[i].as_ref().unwrap_err().contains("out of bounds"));
        }
        assert_eq!(
            fresh[5].as_ref().unwrap().0,
            b"6\t5\t3\tw\tc\n3\t3\t2\tab\tab\n\n"
        );
        assert_eq!(fresh[7].as_ref().unwrap().0, b"a\t0\t0\t1\n");
        // One thread, in sequence, twice over: every run as on a fresh one.
        let reused = std::thread::spawn(move || {
            (0..2 * cases.len())
                .map(|i| one(&programs, i % cases.len()))
                .collect::<Vec<_>>()
        })
        .join()
        .unwrap();
        for (i, got) in reused.iter().enumerate() {
            assert_eq!(got, &fresh[i % fresh.len()], "run {i}");
        }
    }

    #[test]
    fn a_checkpoint_is_taken_only_where_a_run_can_resume() {
        let text = || StreamIo::lines(lines(&["ab cd", "e"]));
        let resumable = [
            // The read inside a call (not a leaf, so not inlined), with a
            // frame and an argument live.
            "int rd(char **l, size_t *n) { char b[2]; return getline(l, n, stdin); } \
             int main() { char *line; size_t n; int r; int s; s = 40; \
             while ((r = 2 + rd(&line, &n)) != 1) printf(\"%s\\t%d\\n\", line, r + s); \
             return 0; }",
            // Output before the first read.
            "int main() { char *line; size_t n; printf(\"head\\n\"); \
             while (getline(&line, &n, stdin) != -1) printf(\"%s\", line); return 0; }",
        ];
        let not = [
            // Never reads.
            "int main() { printf(\"a\\t1\\n\"); return 0; }",
            // Reads inside a `printf` argument.
            "int main() { char *line; size_t n; \
             printf(\"%d\\n\", getline(&line, &n, stdin)); return 0; }",
            // Faults first.
            "int main() { int a[2]; char *line; size_t n; a[2] = 1; \
             getline(&line, &n, stdin); return 0; }",
            // Outruns the prologue's step cap first.
            "int main() { int i; char *line; size_t n; for (i = 0; i < 300000; i++) {} \
             getline(&line, &n, stdin); printf(\"%d\\n\", i); return 0; }",
            // `main` cannot be called.
            "int main(int argc) { char *line; size_t n; getline(&line, &n, stdin); return 0; }",
        ];
        for (src, want) in resumable
            .iter()
            .map(|s| (s, true))
            .chain(not.iter().map(|s| (s, false)))
        {
            let got = checkpoint(&lower(&parse(src).unwrap())).is_some();
            assert_eq!(got, want, "{src}");
            differential(src, text);
        }
    }

    #[test]
    fn native_is_reusable_and_thread_safe() {
        let src = "int main() { int i; int s; s = 0; for (i = 0; i < 100; i++) s += i; printf(\"s\\t%d\\n\", s); return 0; }";
        let prog = parse(src).unwrap();
        let native = std::sync::Arc::new(lower(&prog));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let n = std::sync::Arc::clone(&native);
            handles.push(std::thread::spawn(move || {
                let mut io = StreamIo::lines(vec![]);
                let stats = run(&n, None, &mut io, 1_000_000).unwrap();
                (io.stdout, stats)
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (out, stats) in &results {
            assert_eq!(out, b"s\t4950\n");
            assert_eq!(*stats, results[0].1);
        }
    }
    #[test]
    fn wordcount_mapper_listing_is_stable() {
        // Listing 1 lowered: the golden file is what `disasm()` prints.
        // A deliberate change to lowering or the listing format updates
        // tests/fixtures/wc_mapper.disasm with the text this prints.
        let prog = parse(include_str!("../../tests/fixtures/wc_mapper.c")).unwrap();
        let code = lower(&prog);
        let listing = code.disasm();
        assert_eq!(
            listing,
            include_str!("../../tests/fixtures/wc_mapper.disasm"),
            "listing changed:\n{listing}"
        );
    }

    #[test]
    fn blackscholes_mapper_listing_is_stable() {
        // The BS mapper lowered, `normCdf` inlined at both call sites:
        // main's 128-iteration loop holds no `Call`. Updated like the
        // wordcount listing above.
        let prog = parse(include_str!("../../tests/fixtures/bs_mapper.c")).unwrap();
        let listing = lower(&prog).disasm();
        let main = &listing[listing.find("fn main ").unwrap()..listing.find("consts:").unwrap()];
        assert!(!main.contains("Call"), "{main}");
        assert_eq!(
            listing,
            include_str!("../../tests/fixtures/bs_mapper.disasm"),
            "listing changed:\n{listing}"
        );
    }

    #[test]
    fn runaway_recursion_is_an_error_not_an_overflow() {
        let prog = parse("int f(int n) { return f(n + 1); } int main() { return f(0); }").unwrap();
        let code = lower(&prog);
        let err = run(&code, None, &mut StreamIo::lines(vec![]), 100_000_000).unwrap_err();
        assert_eq!(err.to_string(), "interpreter error: call depth exceeded");
    }

    #[test]
    fn oversized_function_faults_when_called() {
        // More named locals than an operand can address: the function
        // lowers to a trap, the rest of the program is unaffected.
        let mut big = String::from("int big() {\n");
        for i in 0..(R::MAX + 2) {
            big.push_str(&format!("int v{i};\n"));
        }
        big.push_str("return 0; }\n");
        let src = format!("{big}int main() {{ printf(\"a\\n\"); if (0) big(); return 0; }}");
        let prog = parse(&src).unwrap();
        let code = lower(&prog);
        let mut io = StreamIo::lines(vec![]);
        run(&code, None, &mut io, 1_000_000).unwrap();
        assert_eq!(io.stdout, b"a\n");
        let called = src.replace("if (0) big();", "big();");
        let prog = parse(&called).unwrap();
        let err = run(&lower(&prog), None, &mut io, 1_000_000).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
    }
}
