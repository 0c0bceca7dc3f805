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

use std::cell::Cell;

use super::bytecode::{Bytecode, Cmp, Guard, Insn, R};
use crate::ast::{BinOp, CType};
use crate::error::CcError;
use crate::interp::{
    alloc_buffer, as_f64, as_int, binary_inline, bit_not, builtin_atof, builtin_atoi,
    builtin_strcmp, builtin_strcpy, builtin_strfind, builtin_strlen, cast, check_bounds,
    getline_read, getline_store, load_through, malloc_bytes, neg, num_add, printf_finish, read_buf,
    render_conv, scan_token, scanf_read, scanf_store, store_through, truthy, write_buf, Buffer,
    InterpStats, PSeg, StreamIo, V,
};

/// Deepest call nesting. The tree-walking interpreter recurses on the
/// host stack and overflows it long before this; a runaway recursion
/// here ends in an error instead of exhausting memory.
const MAX_CALL_DEPTH: usize = 1 << 16;

struct Frame {
    ret_pc: usize,
    base: usize,
    dst: R,
}

/// [`check_bounds`] as lowered for one subscript site. `Keep` is the
/// plain guard. `Elide` skips it: the position is cast straight to
/// `usize`, so a wrong proof lands on `Vec` indexing's own panic
/// (negative positions wrap to huge offsets), never a silent wild
/// read. `Check` runs the guard and panics if it fires. Inlined into
/// each opcode with a constant `g`, so the match folds away.
#[inline(always)]
fn bounds(g: Guard, heap: &[Buffer], buf: usize, pos: isize) -> Result<(usize, usize), CcError> {
    match g {
        Guard::Keep => check_bounds(heap, buf, pos),
        Guard::Elide => Ok((buf, pos as usize)),
        Guard::Check => match check_bounds(heap, buf, pos) {
            Ok(r) => Ok(r),
            Err(e) => panic!(
                "checked-elision soundness violation: subscript proven in-bounds faulted: {e}"
            ),
        },
    }
}

/// Resolve `base[idx]`: the index must be an integer before the base is
/// even looked at, like `Interp::index_target`.
#[inline(always)]
fn place(g: Guard, heap: &[Buffer], base: V, idx: V) -> Result<(usize, usize), CcError> {
    let i = as_int(&idx)? as isize;
    match base {
        V::Ptr { buf, off } => bounds(g, heap, buf, off as isize + i),
        _ => Err(CcError::interp("indexing non-pointer")),
    }
}

#[cold]
fn step_limit() -> CcError {
    CcError::interp("step limit exceeded (infinite loop?)")
}

/// The growable storage of a run, emptied between runs. `pf`'s strings
/// keep their text: `PfBegin` clears one before it is written.
#[derive(Default)]
struct Storage {
    regs: Vec<V>,
    heap: Vec<Buffer>,
    frames: Vec<Frame>,
    pf: Vec<String>,
    sc: Vec<(usize, i64)>,
}

thread_local! {
    /// The storage this thread's last finished run handed back, so the
    /// next run allocates none of it afresh. A run that panics never
    /// hands it back, and the next run starts from new storage.
    static SPARE: Cell<Option<Storage>> = const { Cell::new(None) };
}

/// Run `main` to completion against `io` under a step cap.
pub(crate) fn run(p: &Bytecode, io: &mut StreamIo, max_steps: u64) -> Result<InterpStats, CcError> {
    let main = p.main.ok_or_else(|| CcError::interp("no main function"))?;
    let f = &p.funcs[main];
    if f.nparams != 0 {
        return Err(CcError::interp(format!(
            "function {} expects {} args, got 0",
            f.name, f.nparams
        )));
    }
    let base = p.consts.len();
    let Storage {
        mut regs,
        heap,
        frames,
        pf,
        sc,
    } = SPARE.take().unwrap_or_default();
    regs.extend_from_slice(&p.consts);
    regs.resize(base + f.nregs, V::I(0));
    let mut vm = Vm {
        p,
        regs,
        heap,
        stats: InterpStats::default(),
        steps: 0,
        max_steps,
        frames,
        pf,
        pf_depth: 0,
        sc,
    };
    let done = vm.exec(f.entry, base, io);
    let Vm {
        mut regs,
        mut heap,
        mut frames,
        pf,
        mut sc,
        stats,
        ..
    } = vm;
    regs.clear();
    heap.clear();
    frames.clear();
    sc.clear();
    SPARE.set(Some(Storage {
        regs,
        heap,
        frames,
        pf,
        sc,
    }));
    done.map(|()| stats)
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
    pf: Vec<String>,
    pf_depth: usize,
    /// The KV records (see [`StreamIo::kv_field`]) of the `scanf`s in
    /// progress and their match counts.
    sc: Vec<(usize, i64)>,
}

impl Vm<'_> {
    fn exec(&mut self, entry: usize, main_base: usize, io: &mut StreamIo) -> Result<(), CcError> {
        let p = self.p;
        let code = &p.code[..];
        let mut pc = entry;
        let mut base = main_base;

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
            ($op:expr, $chk:literal, $dst:expr, $a:expr, $b:expr) => {{
                let v = binary_inline::<$chk>($op, rd!($a), rd!($b))?;
                wr!($dst, v);
            }};
        }
        // The condition under which the kept guard would have erred.
        macro_rules! div_check {
            ($a:expr, $b:expr) => {
                if matches!((rd!($a), rd!($b)), (V::I(_), V::I(0))) {
                    panic!(
                        "checked-elision soundness violation: integer division/remainder \
                         proven nonzero saw a zero denominator"
                    );
                }
            };
        }
        // The three things a resolved `(buffer, offset)` is used for.
        macro_rules! load {
            ($dst:expr, $buf:expr, $off:expr) => {{
                self.stats.mem += 1;
                wr!($dst, read_buf(&self.heap, $buf, $off)?)
            }};
        }
        macro_rules! store {
            ($val:expr, $buf:expr, $off:expr) => {
                write_buf(&mut self.heap, &mut self.stats, $buf, $off, &rd!($val))?
            };
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
            ($g:expr, $use:ident, $r:expr, $base:expr, $idx:expr) => {{
                let (buf, off) = place($g, &self.heap, rd!($base), rd!($idx))?;
                $use!($r, buf, off)
            }};
        }
        macro_rules! access2 {
            ($use:ident, $r:expr, $slot:expr, $row:expr, $col:expr, $site:expr) => {{
                let site = &p.sites2[$site as usize];
                let i = as_int(&rd!($col))? as isize;
                let row = as_int(&rd!($row))? as isize;
                if let V::Ptr { buf, off } = rd!($slot) {
                    let pos = off as isize + row * site.stride as isize + i;
                    let (buf, off) = bounds(site.guard, &self.heap, buf, pos)?;
                    $use!($r, buf, off);
                    pc = site.cont.0 as usize;
                }
            }};
        }

        loop {
            let insn = code[pc];
            pc += 1;
            match insn {
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
                Insn::Add { dst, a, b } => bin!(BinOp::Add, true, dst, a, b),
                Insn::Sub { dst, a, b } => bin!(BinOp::Sub, true, dst, a, b),
                Insn::Mul { dst, a, b } => bin!(BinOp::Mul, true, dst, a, b),
                Insn::Div { dst, a, b } => bin!(BinOp::Div, true, dst, a, b),
                Insn::DivU { dst, a, b } => bin!(BinOp::Div, false, dst, a, b),
                Insn::DivC { dst, a, b } => {
                    div_check!(a, b);
                    bin!(BinOp::Div, false, dst, a, b)
                }
                Insn::Rem { dst, a, b } => bin!(BinOp::Rem, true, dst, a, b),
                Insn::RemU { dst, a, b } => bin!(BinOp::Rem, false, dst, a, b),
                Insn::RemC { dst, a, b } => {
                    div_check!(a, b);
                    bin!(BinOp::Rem, false, dst, a, b)
                }
                Insn::Lt { dst, a, b } => bin!(BinOp::Lt, true, dst, a, b),
                Insn::Le { dst, a, b } => bin!(BinOp::Le, true, dst, a, b),
                Insn::Gt { dst, a, b } => bin!(BinOp::Gt, true, dst, a, b),
                Insn::Ge { dst, a, b } => bin!(BinOp::Ge, true, dst, a, b),
                Insn::Eq { dst, a, b } => bin!(BinOp::Eq, true, dst, a, b),
                Insn::Ne { dst, a, b } => bin!(BinOp::Ne, true, dst, a, b),
                Insn::BitAnd { dst, a, b } => bin!(BinOp::BitAnd, true, dst, a, b),
                Insn::BitOr { dst, a, b } => bin!(BinOp::BitOr, true, dst, a, b),
                Insn::BitXor { dst, a, b } => bin!(BinOp::BitXor, true, dst, a, b),
                Insn::Shl { dst, a, b } => bin!(BinOp::Shl, true, dst, a, b),
                Insn::Shr { dst, a, b } => bin!(BinOp::Shr, true, dst, a, b),
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
                        Cmp::Lt => binary_inline::<true>(BinOp::Lt, x, y),
                        Cmp::Le => binary_inline::<true>(BinOp::Le, x, y),
                        Cmp::Gt => binary_inline::<true>(BinOp::Gt, x, y),
                        Cmp::Ge => binary_inline::<true>(BinOp::Ge, x, y),
                        Cmp::Eq => binary_inline::<true>(BinOp::Eq, x, y),
                        Cmp::Ne => binary_inline::<true>(BinOp::Ne, x, y),
                    }?;
                    if truthy(&v) == sense {
                        pc = to.0 as usize;
                    }
                }

                Insn::Ld { dst, base: b, idx } => access!(Guard::Keep, load, dst, b, idx),
                Insn::LdU { dst, base: b, idx } => access!(Guard::Elide, load, dst, b, idx),
                Insn::LdC { dst, base: b, idx } => access!(Guard::Check, load, dst, b, idx),
                Insn::St { val, base: b, idx } => access!(Guard::Keep, store, val, b, idx),
                Insn::StU { val, base: b, idx } => access!(Guard::Elide, store, val, b, idx),
                Insn::StC { val, base: b, idx } => access!(Guard::Check, store, val, b, idx),
                Insn::Lea { dst, base: b, idx } => access!(Guard::Keep, lea, dst, b, idx),
                Insn::LeaU { dst, base: b, idx } => access!(Guard::Elide, lea, dst, b, idx),
                Insn::LeaC { dst, base: b, idx } => access!(Guard::Check, lea, dst, b, idx),
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
                    store_through(&mut self.heap, &mut self.regs, &mut self.stats, &to, v)?
                }
                Insn::AddrSlot { dst, reg } => wr!(dst, V::SlotRef(base + reg.index())),
                Insn::StrLit { dst, lit } => {
                    self.heap.push(Buffer::Bytes(p.strs[lit as usize].clone()));
                    let buf = self.heap.len() - 1;
                    wr!(dst, V::Ptr { buf, off: 0 })
                }
                Insn::DeclArr { dst, site } => {
                    let (elem, total) = &p.arrays[site as usize];
                    let buf = alloc_buffer(&mut self.heap, elem, *total);
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
                        return Ok(());
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
                    let n = scan_token(
                        &mut self.heap,
                        &mut self.stats,
                        &rd!(line),
                        as_int(&rd!(off))?,
                        &rd!(word),
                        as_int(&rd!(read))?,
                        as_int(&rd!(max))?,
                        word_mode,
                    )?;
                    wr!(dst, V::I(n))
                }
                Insn::PfBegin => {
                    match self.pf.get_mut(self.pf_depth) {
                        Some(out) => out.clear(),
                        None => self.pf.push(String::new()),
                    }
                    self.pf_depth += 1;
                }
                Insn::PfLit { fmt, seg } => {
                    if let PSeg::Lit(s) = &p.fmts[fmt as usize][seg as usize] {
                        self.pf[self.pf_depth - 1].push_str(s);
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
                Insn::ScBegin { dst, eof } => match scanf_read(io, &mut self.stats)? {
                    Some(rec) => self.sc.push((rec, 0)),
                    None => {
                        wr!(dst, V::I(-1));
                        pc = eof.0 as usize;
                    }
                },
                Insn::ScConv { src, conv, field } => {
                    let dst = rd!(src);
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
    use crate::ast::*;
    use crate::backend::lower::lower;
    use crate::backend::ElisionMode;
    use crate::interp::Interp;
    use crate::lint::absint::{analyze_main, SafetyFacts};
    use crate::parse::parse;
    use crate::test_listings::{LISTING1, LISTING2};

    fn compile(prog: &Program, mode: ElisionMode) -> Bytecode {
        lower(prog, &analyze_main(prog).facts, mode)
    }

    /// Run a source under both backends on the same input and demand
    /// exact agreement of (stdout, stats) or of error text.
    fn differential(src: &str, io_make: impl Fn() -> StreamIo) {
        let prog = parse(src).unwrap();
        let mut io_i = io_make();
        let ri = Interp::new(&prog)
            .with_max_steps(2_000_000)
            .run_main(&mut io_i)
            .map_err(|e| e.to_string());
        let native = compile(&prog, ElisionMode::On);
        let mut io_n = io_make();
        let rn = run(&native, &mut io_n, 2_000_000).map_err(|e| e.to_string());
        assert_eq!(ri.is_ok(), rn.is_ok(), "outcome diverged for:\n{src}");
        match (ri, rn) {
            (Ok(si), Ok(sn)) => {
                assert_eq!(si, sn, "stats diverged for:\n{src}");
                assert_eq!(
                    String::from_utf8_lossy(&io_i.stdout),
                    String::from_utf8_lossy(&io_n.stdout),
                    "stdout diverged for:\n{src}"
                );
            }
            (Err(ei), Err(en)) => assert_eq!(ei, en, "error text diverged for:\n{src}"),
            _ => unreachable!(),
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

    /// First expression matching `pred`, in statement order of `main`.
    fn find_expr<'p>(prog: &'p Program, pred: &dyn Fn(&Expr) -> bool) -> &'p Expr {
        fn in_expr<'p>(e: &'p Expr, pred: &dyn Fn(&Expr) -> bool) -> Option<&'p Expr> {
            if pred(e) {
                return Some(e);
            }
            match e {
                Expr::Unary(_, x) | Expr::PostInc(x) | Expr::PostDec(x) | Expr::Cast(_, x) => {
                    in_expr(x, pred)
                }
                Expr::Binary(_, a, b, _) | Expr::Index(a, b, _) => {
                    in_expr(a, pred).or_else(|| in_expr(b, pred))
                }
                Expr::Assign(_, a, b) => in_expr(a, pred).or_else(|| in_expr(b, pred)),
                Expr::Cond(c, t, f) => in_expr(c, pred)
                    .or_else(|| in_expr(t, pred))
                    .or_else(|| in_expr(f, pred)),
                Expr::Call(_, args, _) => args.iter().find_map(|a| in_expr(a, pred)),
                _ => None,
            }
        }
        let mut found = None;
        walk_stmts(&prog.func("main").unwrap().body, &mut |s| {
            if found.is_some() {
                return;
            }
            found = match &s.kind {
                StmtKind::Expr(e) | StmtKind::Return(Some(e)) => in_expr(e, pred),
                StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => in_expr(cond, pred),
                _ => None,
            };
        });
        found.expect("test program contains the site")
    }

    #[test]
    #[should_panic(expected = "checked-elision soundness violation")]
    fn checked_mode_panics_on_forged_subscript_fact() {
        // `a[9]` is out of bounds; a forged "proven in-bounds" fact
        // must trip the checked-elision oracle, not read wild.
        let src = "int main() { int a[2]; int i; i = 9; printf(\"%d\\n\", a[i]); return 0; }";
        let prog = parse(src).unwrap();
        let mut facts = SafetyFacts::blank(&prog);
        facts.claim_subscript(find_expr(&prog, &|e| matches!(e, Expr::Index(..))).site());
        let native = lower(&prog, &facts, ElisionMode::Checked);
        let _ = run(&native, &mut StreamIo::lines(vec![]), 100_000);
    }

    #[test]
    #[should_panic(expected = "checked-elision soundness violation")]
    fn checked_mode_panics_on_forged_division_fact() {
        let src = "int main() { int d; d = 0; printf(\"%d\\n\", 7 / d); return 0; }";
        let prog = parse(src).unwrap();
        let mut facts = SafetyFacts::blank(&prog);
        facts.claim_division(
            find_expr(&prog, &|e| matches!(e, Expr::Binary(BinOp::Div, ..))).site(),
        );
        let native = lower(&prog, &facts, ElisionMode::Checked);
        let _ = run(&native, &mut StreamIo::lines(vec![]), 100_000);
    }

    #[test]
    fn facts_lower_a_clone_like_the_original() {
        // Site ids and the fingerprint travel with `Program::clone`, so
        // one table serves the program and its clones — `lower` runs no
        // analysis of its own.
        let src = "int main() { int a[4]; int i; int s; s = 0; \
                   for (i = 0; i < 4; i++) { a[i] = i; s += a[i] / (i + 1); } \
                   printf(\"%d\\n\", s + a[s & 3]); return 0; }";
        let prog = parse(src).unwrap();
        let facts = analyze_main(&prog).facts;
        let clone = prog.clone();
        assert!(facts.matches(&clone));
        for mode in [ElisionMode::On, ElisionMode::Checked] {
            let (a, b) = (lower(&prog, &facts, mode), lower(&clone, &facts, mode));
            assert_eq!(a.disasm(), b.disasm(), "{mode:?}");
            assert_eq!(a.counts(), b.counts(), "{mode:?}");
            assert!(a.counts().sites_elided + a.counts().sites_checked >= 3);
        }
    }

    #[test]
    fn elision_modes_agree_on_stats_stdout_and_errors() {
        // Subscript-, division-, and 2-D-heavy program: every mode must
        // be bit-identical on stats and bytes (guards charge nothing).
        let src = r#"
int main() {
  int a[8]; double m[3][4]; int i; int j; int s; s = 0;
  for (i = 0; i < 8; i++) a[i] = i * 3;
  for (i = 0; i < 3; i++)
    for (j = 0; j < 4; j++)
      m[i][j] = a[i + j] / (i + 1);
  for (i = 0; i < 8; i++) s += a[i] % 5;
  printf("s\t%d\n", s + (int) m[2][3]);
  return 0;
}
"#;
        let prog = parse(src).unwrap();
        let mut base: Option<(Vec<u8>, InterpStats)> = None;
        for mode in [ElisionMode::On, ElisionMode::Checked] {
            let native = compile(&prog, mode);
            let mut io = StreamIo::lines(vec![]);
            let stats = run(&native, &mut io, 1_000_000).unwrap();
            match &base {
                None => base = Some((io.stdout, stats)),
                Some((out0, st0)) => {
                    assert_eq!(&io.stdout, out0, "stdout diverged in {:?}", mode);
                    assert_eq!(&stats, st0, "stats diverged in {:?}", mode);
                }
            }
        }
        // And the proofs actually covered sites to elide.
        let (subs, divs, _) = analyze_main(&prog).facts.proven_counts();
        assert!(subs >= 4, "subscripts proven: {subs}");
        assert!(divs >= 2, "divisions proven: {divs}");
    }

    #[test]
    fn a_run_after_a_faulted_one_starts_from_clean_storage() {
        type Outcome = Result<(Vec<u8>, InterpStats), String>;
        type Feed = fn() -> StreamIo;
        // A `Checked` panic, which keeps its storage; then runs that hand
        // theirs back in use: inside two nested `printf` conversions,
        // inside a `scanf`, at the step limit two calls deep. Then clean
        // runs over the same kinds of storage.
        let none: Feed = || StreamIo::lines(vec![]);
        let kvs: Feed = || StreamIo::kvs(vec![(b"a".to_vec(), b"1".to_vec()); 3]);
        let text: Feed = || StreamIo::lines(lines(&["the quick brown fox", "  spaced  out "]));
        let cases = [
            (
                "int main() { int a[2]; int i; i = 9; printf(\"%d\\n\", a[i]); return 0; }",
                none,
            ),
            (
                "int main() { char w[8]; strcpy(w, \"abc\"); \
                 printf(\"a%d%s\\n\", printf(\"b%s%q\", w, 2), w); return 0; }",
                none,
            ),
            (
                "int main() { char k[8]; int v; scanf(\"%s %d\", k, &v); \
                 scanf(\"%s %x\", k, &v); return 0; }",
                kvs,
            ),
            (
                "int g(int n) { while (1) { n++; } return n; } \
                 int f(int n) { char b[4]; return g(n) + b[0]; } int main() { return f(1); }",
                none,
            ),
            (LISTING1, text),
            (LISTING2, kvs),
            (
                "int f(int n) { char b[4]; if (n < 3) return f(n + 1) + n; return n; } \
                 int main() { int x; char k[4]; x = scanf(\"%s %d\", k, &x); \
                 printf(\"%s\\t%d\\n\", k, f(x)); return 0; }",
                kvs,
            ),
        ];
        let programs: Vec<(Bytecode, Feed)> = cases
            .into_iter()
            .enumerate()
            .map(|(i, (src, io))| {
                let prog = parse(src).unwrap();
                let code = if i == 0 {
                    // A forged "in bounds" fact for `a[i]`.
                    let mut facts = SafetyFacts::blank(&prog);
                    facts.claim_subscript(
                        find_expr(&prog, &|e| matches!(e, Expr::Index(..))).site(),
                    );
                    lower(&prog, &facts, ElisionMode::Checked)
                } else {
                    compile(&prog, ElisionMode::On)
                };
                (code, io)
            })
            .collect();
        let programs = std::sync::Arc::new(programs);
        let one = |code: &Bytecode, io: Feed| -> Outcome {
            let mut io = io();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run(code, &mut io, 10_000)
            }));
            match caught {
                Ok(Ok(stats)) => Ok((io.stdout, stats)),
                Ok(Err(e)) => Err(e.to_string()),
                Err(panic) => Err(format!("panic: {:?}", panic.downcast_ref::<String>())),
            }
        };
        let fresh: Vec<Outcome> = (0..programs.len())
            .map(|i| {
                let programs = std::sync::Arc::clone(&programs);
                std::thread::spawn(move || one(&programs[i].0, programs[i].1))
                    .join()
                    .unwrap()
            })
            .collect();
        assert!(fresh[..4].iter().all(Result::is_err), "{fresh:?}");
        assert!(fresh[0]
            .as_ref()
            .unwrap_err()
            .contains("soundness violation"));
        assert!(fresh[4..].iter().all(Result::is_ok), "{fresh:?}");
        // One thread, in sequence, twice over: every run as on a fresh one.
        let reused = std::thread::spawn(move || {
            (0..2)
                .flat_map(|_| programs.iter().map(|(code, io)| one(code, *io)))
                .collect::<Vec<_>>()
        })
        .join()
        .unwrap();
        for (i, got) in reused.iter().enumerate() {
            assert_eq!(got, &fresh[i % fresh.len()], "run {i}");
        }
    }

    #[test]
    fn native_is_reusable_and_thread_safe() {
        let src = "int main() { int i; int s; s = 0; for (i = 0; i < 100; i++) s += i; printf(\"s\\t%d\\n\", s); return 0; }";
        let prog = parse(src).unwrap();
        let native = std::sync::Arc::new(compile(&prog, ElisionMode::On));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let n = std::sync::Arc::clone(&native);
            handles.push(std::thread::spawn(move || {
                let mut io = StreamIo::lines(vec![]);
                let stats = run(&n, &mut io, 1_000_000).unwrap();
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
        let code = compile(&prog, ElisionMode::On);
        let listing = code.disasm();
        assert_eq!(
            listing,
            include_str!("../../tests/fixtures/wc_mapper.disasm"),
            "listing changed:\n{listing}"
        );
    }

    #[test]
    fn lowering_counts_follow_the_elision_mode() {
        let src = "int main() { int a[4]; int i; int s; s = 0; \
                   for (i = 0; i < 4; i++) { a[i] = i; s += a[i] / (i + 1); } \
                   printf(\"%d\\n\", s + a[s & 3]); return 0; }";
        let prog = parse(src).unwrap();
        let on = compile(&prog, ElisionMode::On).counts();
        let checked = compile(&prog, ElisionMode::Checked).counts();
        assert!(on.sites_elided >= 3, "{on:?}");
        assert_eq!(on.sites_checked, 0);
        assert_eq!(checked.sites_kept, on.sites_kept);
        assert_eq!(checked.sites_elided, 0);
        assert_eq!(checked.sites_checked, on.sites_elided);
        assert_eq!((on.insns, on.blocks), (checked.insns, checked.blocks));
        assert!(on.blocks >= 3 && on.insns > on.blocks, "{on:?}");
    }

    #[test]
    fn runaway_recursion_is_an_error_not_an_overflow() {
        let prog = parse("int f(int n) { return f(n + 1); } int main() { return f(0); }").unwrap();
        let code = compile(&prog, ElisionMode::On);
        let err = run(&code, &mut StreamIo::lines(vec![]), 100_000_000).unwrap_err();
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
        let code = compile(&prog, ElisionMode::On);
        let mut io = StreamIo::lines(vec![]);
        run(&code, &mut io, 1_000_000).unwrap();
        assert_eq!(io.stdout, b"a\n");
        let called = src.replace("if (0) big();", "big();");
        let prog = parse(&called).unwrap();
        let err = run(&compile(&prog, ElisionMode::On), &mut io, 1_000_000).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
    }
}
