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

use super::bytecode::{Bytecode, Cmp, Insn, R};
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
    /// next run allocates none of it afresh.
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
    use crate::backend::lower::lower;
    use crate::interp::Interp;
    use crate::parse::parse;
    use crate::test_listings::{LISTING1, LISTING2};

    /// Run a source under both backends on the same input and demand
    /// exact agreement of (stdout, stats) or of error text.
    fn differential(src: &str, io_make: impl Fn() -> StreamIo) {
        let prog = parse(src).unwrap();
        let mut io_i = io_make();
        let ri = Interp::new(&prog)
            .with_max_steps(2_000_000)
            .run_main(&mut io_i)
            .map_err(|e| e.to_string());
        let native = lower(&prog);
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

    #[test]
    fn a_run_after_a_faulted_one_starts_from_clean_storage() {
        type Outcome = Result<(Vec<u8>, InterpStats), String>;
        type Feed = fn() -> StreamIo;
        // Runs that hand their storage back in use: at an out-of-bounds
        // subscript, inside two nested `printf` conversions, inside a
        // `scanf`, at the step limit two calls deep. Then clean runs over
        // the same kinds of storage.
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
            .map(|(src, io)| (lower(&parse(src).unwrap()), io))
            .collect();
        let programs = std::sync::Arc::new(programs);
        let one = |code: &Bytecode, io: Feed| -> Outcome {
            let mut io = io();
            match run(code, &mut io, 10_000) {
                Ok(stats) => Ok((io.stdout, stats)),
                Err(e) => Err(e.to_string()),
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
        assert!(fresh[0].as_ref().unwrap_err().contains("out of bounds"));
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
        let native = std::sync::Arc::new(lower(&prog));
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
        let code = lower(&prog);
        let listing = code.disasm();
        assert_eq!(
            listing,
            include_str!("../../tests/fixtures/wc_mapper.disasm"),
            "listing changed:\n{listing}"
        );
    }

    #[test]
    fn runaway_recursion_is_an_error_not_an_overflow() {
        let prog = parse("int f(int n) { return f(n + 1); } int main() { return f(0); }").unwrap();
        let code = lower(&prog);
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
        let code = lower(&prog);
        let mut io = StreamIo::lines(vec![]);
        run(&code, &mut io, 1_000_000).unwrap();
        assert_eq!(io.stdout, b"a\n");
        let called = src.replace("if (0) big();", "big();");
        let prog = parse(&called).unwrap();
        let err = run(&lower(&prog), &mut io, 1_000_000).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
    }
}
