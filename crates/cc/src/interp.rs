//! Interpreter for the HeteroDoop C subset.
//!
//! Executes a parsed MapReduce program functionally. The streaming I/O
//! model mirrors Hadoop Streaming (paper §2.2): the mapper reads records
//! from `stdin` via `getline` and emits KV pairs with `printf`; the
//! combiner reads sorted KV pairs via `scanf` and emits with `printf`.
//!
//! The interpreter also counts abstract operations ([`InterpStats`]) so
//! that the surrounding system can charge GPU/CPU cost models for the
//! *same* computation the program actually performed.
//!
//! The interpreter is the **executable specification** of the C subset:
//! the native backend (the register-bytecode engine in
//! [`crate::backend`]) must agree with it on every program, byte for
//! byte and stat for stat. To keep the two from drifting, everything
//! semantic that both need — value arithmetic, the buffer heap, and the
//! builtin library (`printf`/`scanf`/`getline`/string ops/SFUs) — lives
//! here as shared `pub(crate)` functions; the interpreter and the
//! bytecode VM are both thin drivers over this common core.

use crate::ast::*;
use crate::error::CcError;
use std::collections::HashMap;
use std::ffi::CStr;
use std::fmt::Write as _;

/// Default evaluation-step budget shared by both backends.
pub(crate) const DEFAULT_MAX_STEPS: u64 = 500_000_000;

/// Operation counts accumulated while interpreting — consumed by the cost
/// models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Plain operations (arith/logic/compare/assign/index).
    pub ops: u64,
    /// Memory touches (buffer reads + writes).
    pub mem: u64,
    /// Special-function calls (sqrt/exp/log/pow...).
    pub sfu: u64,
    /// Records consumed via `getline`/`scanf`.
    pub records_in: u64,
    /// Lines emitted via `printf`.
    pub lines_out: u64,
}

/// Where `getline`/`scanf` read from.
#[derive(Debug, Clone)]
pub enum Input {
    /// Line records for the mapper.
    Lines(Vec<Vec<u8>>),
    /// Sorted `(key, value)` pairs for the combiner, values rendered as
    /// text.
    Kvs {
        /// Every key and value, back to back.
        bytes: Vec<u8>,
        /// Per pair, where its key ends (its value starts) and where its
        /// value ends (the next key starts).
        ends: Vec<(usize, usize)>,
    },
}

/// Streaming I/O state for one interpreter run.
#[derive(Debug)]
pub struct StreamIo {
    pub(crate) input: Input,
    pub(crate) cursor: usize,
    /// Raw bytes written by `printf`.
    pub stdout: Vec<u8>,
}

impl StreamIo {
    /// Feed line records (mapper input).
    pub fn lines(lines: Vec<Vec<u8>>) -> Self {
        StreamIo {
            input: Input::Lines(lines),
            cursor: 0,
            stdout: Vec::new(),
        }
    }

    /// Feed KV pairs (combiner input).
    pub fn kvs(kvs: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        Self::kv_pairs(kvs.iter().map(|(k, v)| (&k[..], &v[..])))
    }

    /// Feed borrowed KV pairs (combiner input), copied once into one
    /// buffer.
    pub fn kv_pairs<'a>(pairs: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> Self {
        let pairs = pairs.into_iter();
        let mut ends = Vec::with_capacity(pairs.size_hint().0);
        let mut bytes = Vec::new();
        for (k, v) in pairs {
            bytes.extend_from_slice(k);
            let key_end = bytes.len();
            bytes.extend_from_slice(v);
            ends.push((key_end, bytes.len()));
        }
        StreamIo {
            input: Input::Kvs { bytes, ends },
            cursor: 0,
            stdout: Vec::new(),
        }
    }

    /// Field `field` (0 key, 1 value) of KV record `rec`.
    pub(crate) fn kv_field(&self, rec: usize, field: usize) -> &[u8] {
        let Input::Kvs { bytes, ends } = &self.input else {
            unreachable!("`scanf_read` returned a record, so the input is KV pairs")
        };
        let (start, key_end, end) = kv_record(ends, rec);
        match field {
            0 => &bytes[start..key_end],
            _ => &bytes[key_end..end],
        }
    }

    /// The emitted stdout as tab-separated `key\tvalue` lines, borrowed
    /// from the buffer (a line without a tab is a key with an empty
    /// value).
    pub fn emitted_pairs(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.stdout
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(|l| match l.iter().position(|&b| b == b'\t') {
                Some(t) => (&l[..t], &l[t + 1..]),
                None => (l, &l[l.len()..]),
            })
    }

    /// [`emitted_pairs`](Self::emitted_pairs), copied out.
    pub fn emitted_kvs(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.emitted_pairs()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }
}

/// Where KV record `rec` lies in [`Input::Kvs`]'s buffer: its start, the
/// end of its key and its end.
fn kv_record(ends: &[(usize, usize)], rec: usize) -> (usize, usize, usize) {
    let start = rec.checked_sub(1).map_or(0, |prev| ends[prev].1);
    (start, ends[rec].0, ends[rec].1)
}

/// Values. `Copy`: both engines pass them by value (the bytecode VM
/// keeps them in a flat register stack).
#[derive(Debug, Clone, Copy)]
pub(crate) enum V {
    I(i64),
    F(f64),
    /// Pointer into heap buffer `buf` at element offset `off`.
    Ptr {
        buf: usize,
        off: usize,
    },
    /// Address of a scalar slot (`&var`).
    SlotRef(usize),
    Null,
}

/// Heap buffers; element kind fixed at allocation.
#[derive(Debug, Clone)]
pub(crate) enum Buffer {
    Bytes(Vec<u8>),
    Ints(Vec<i64>),
    Doubles(Vec<f64>),
}

impl Buffer {
    pub(crate) fn len(&self) -> usize {
        match self {
            Buffer::Bytes(v) => v.len(),
            Buffer::Ints(v) => v.len(),
            Buffer::Doubles(v) => v.len(),
        }
    }
}

/// Statement-level control flow.
pub(crate) enum Flow {
    Normal,
    Break,
    Continue,
    Return(V),
}

// ====================================================================
// Shared semantic core — used verbatim by the interpreter AND the
// native backend so op/mem/sfu accounting and error text can never
// diverge between them.
// ====================================================================

/// Read one element from a heap buffer (no `mem` charge — callers charge
/// at their access site, mirroring the original interpreter).
pub(crate) fn read_buf(heap: &[Buffer], buf: usize, off: usize) -> Result<V, CcError> {
    Ok(match &heap[buf] {
        Buffer::Bytes(v) => V::I(v[off] as i64),
        Buffer::Ints(v) => V::I(v[off]),
        Buffer::Doubles(v) => V::F(v[off]),
    })
}

/// Write one element into a heap buffer, charging one `mem` touch.
pub(crate) fn write_buf(
    heap: &mut [Buffer],
    stats: &mut InterpStats,
    buf: usize,
    off: usize,
    v: &V,
) -> Result<(), CcError> {
    stats.mem += 1;
    match &mut heap[buf] {
        Buffer::Bytes(b) => b[off] = as_int(v)? as u8,
        Buffer::Ints(b) => b[off] = as_int(v)?,
        Buffer::Doubles(b) => b[off] = as_f64(v)?,
    }
    Ok(())
}

/// Bounds-check the element a subscript names in buffer `buf`: position
/// `off + row * stride + i` (`row` and `stride` are 0 but for a strided
/// 2-D access). A pointer's `off` is signed (`p - 1` wraps to
/// `usize::MAX`); a declared extent, and so `stride`, is at most
/// `i64::MAX`. The position is exact: a sum past `isize` is never
/// wrapped onto another element, and an intermediate past `isize` that
/// the last term brings back into bounds still names its element.
#[inline(always)]
pub(crate) fn check_bounds(
    heap: &[Buffer],
    buf: usize,
    off: usize,
    row: i64,
    stride: usize,
    i: i64,
) -> Result<(usize, usize), CcError> {
    let len = heap[buf].len();
    let pos = (row as isize)
        .checked_mul(stride as isize)
        .and_then(|p| p.checked_add(off as isize))
        .and_then(|p| p.checked_add(i as isize));
    match pos {
        // A negative position casts past any length.
        Some(p) if (p as usize) < len => Ok((buf, p as usize)),
        _ => locate_exactly(buf, off, row, stride, i, len),
    }
}

/// [`check_bounds`]' cold path: the position in `i128`, where the sum
/// cannot overflow. In bounds, it is the element; out of bounds, the
/// error names it.
#[cold]
fn locate_exactly(
    buf: usize,
    off: usize,
    row: i64,
    stride: usize,
    i: i64,
    len: usize,
) -> Result<(usize, usize), CcError> {
    let pos = off as isize as i128 + row as i128 * stride as i128 + i as i128;
    match usize::try_from(pos) {
        Ok(p) if p < len => Ok((buf, p)),
        _ => Err(CcError::interp(format!(
            "index {pos} out of bounds for buffer of {len}"
        ))),
    }
}

/// Element count and row stride of the array `name` declared with type
/// `[n]inner` (`T name[n]`, or `T name[n][cols]`, whose `n` may be
/// omitted), or the run-time error of declaring it.
pub(crate) fn array_extent(
    name: &str,
    inner: &CType,
    n: Option<usize>,
) -> Result<(usize, Option<usize>), CcError> {
    match (inner, n) {
        (CType::Array(_, Some(cols)), n) => {
            let rows = n.unwrap_or(1);
            let total = rows.checked_mul(*cols).ok_or_else(|| {
                CcError::interp(format!(
                    "array {name}: invalid size {rows} * {cols} (overflow)"
                ))
            })?;
            Ok((total, Some(*cols)))
        }
        (_, Some(n)) => Ok((n, None)),
        (_, None) => Err(CcError::interp(format!("array {name} needs a size"))),
    }
}

/// `n` default values, or `None` when the allocator refuses the
/// reservation. Fallible allocation is chosen over lazily zeroed pages:
/// `vec![0; n]` would get a large buffer zeroed by the OS on first touch
/// but aborts the process when refused, whereas `resize` writes, and so
/// commits, every element up front.
fn zeroed<T: Clone + Default>(n: usize) -> Option<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(n).ok()?;
    v.resize(n, T::default());
    Some(v)
}

/// Allocate the zeroed buffer of the array `name`: `n` elements of leaf
/// type `elem`.
pub(crate) fn alloc_buffer(
    heap: &mut Vec<Buffer>,
    name: &str,
    elem: &CType,
    n: usize,
) -> Result<usize, CcError> {
    let b = match elem {
        CType::Char => zeroed(n).map(Buffer::Bytes),
        CType::Float | CType::Double => zeroed(n).map(Buffer::Doubles),
        _ => zeroed(n).map(Buffer::Ints),
    };
    let b = b.ok_or_else(|| {
        CcError::interp(format!(
            "array {name}: invalid size {n} (allocation failed)"
        ))
    })?;
    heap.push(b);
    Ok(heap.len() - 1)
}

/// Borrow the NUL-terminated string starting at a pointer, up to
/// `limit` bytes, with where it lies: its buffer and its first byte's
/// offset there.
fn cstr_at<'h>(
    heap: &'h [Buffer],
    p: &V,
    limit: usize,
) -> Result<(usize, usize, &'h [u8]), CcError> {
    match p {
        V::Ptr { buf, off } => match &heap[*buf] {
            Buffer::Bytes(b) => {
                let end = b.len().min(off.saturating_add(limit));
                let slice = b
                    .get(*off..end)
                    .ok_or_else(|| CcError::interp("string op out of bounds"))?;
                // `CStr` finds the NUL a word at a time.
                let s = CStr::from_bytes_until_nul(slice).map_or(slice, CStr::to_bytes);
                Ok((*buf, *off, s))
            }
            _ => Err(CcError::interp("string op on non-char buffer")),
        },
        V::Null => Err(CcError::interp("string op on NULL")),
        _ => Err(CcError::interp("string op on non-pointer")),
    }
}

/// The buffer and offset a string is written to through `p`.
fn cstr_target(p: &V) -> Result<(usize, usize), CcError> {
    match p {
        V::Ptr { buf, off } => Ok((*buf, *off)),
        _ => Err(CcError::interp("write_cstr on non-pointer")),
    }
}

/// The char buffer a string of `len` bytes is written to at `off`, and
/// how many of those bytes fit before its NUL.
fn cstr_room(dst: &mut Buffer, off: usize, len: usize) -> Result<(&mut [u8], usize), CcError> {
    let Buffer::Bytes(b) = dst else {
        return Err(CcError::interp("write_cstr on non-char buffer"));
    };
    let avail = b.len().saturating_sub(off);
    if avail == 0 {
        return Err(CcError::interp("write_cstr: no space"));
    }
    Ok((b.as_mut_slice(), len.min(avail - 1)))
}

/// Write a NUL-terminated string through a pointer (truncating to the
/// destination buffer), charging `mem` for the copied bytes.
pub(crate) fn write_cstr(
    heap: &mut [Buffer],
    stats: &mut InterpStats,
    p: &V,
    s: &[u8],
) -> Result<(), CcError> {
    let (buf, off) = cstr_target(p)?;
    let (b, n) = cstr_room(&mut heap[buf], off, s.len())?;
    b[off..off + n].copy_from_slice(&s[..n]);
    b[off + n] = 0;
    stats.mem += n as u64;
    Ok(())
}

/// [`write_cstr`] of the bytes `from` of char buffer `src`, copied
/// buffer to buffer — a `memmove` when `p` points into `src` itself.
fn copy_cstr(
    heap: &mut [Buffer],
    stats: &mut InterpStats,
    p: &V,
    src: usize,
    from: std::ops::Range<usize>,
) -> Result<(), CcError> {
    let (buf, off) = cstr_target(p)?;
    let n = match heap.get_disjoint_mut([src, buf]) {
        Ok([Buffer::Bytes(s), dst]) => {
            let (b, n) = cstr_room(dst, off, from.len())?;
            b[off..off + n].copy_from_slice(&s[from.start..from.start + n]);
            b[off + n] = 0;
            n
        }
        _ => {
            debug_assert_eq!(src, buf, "`src` is a char buffer");
            let (b, n) = cstr_room(&mut heap[buf], off, from.len())?;
            b.copy_within(from.start..from.start + n, off);
            b[off + n] = 0;
            n
        }
    };
    stats.mem += n as u64;
    Ok(())
}

/// Store a scalar through a `scanf`-style destination (`&var` or a
/// buffer pointer).
pub(crate) fn store_through(
    heap: &mut [Buffer],
    slots: &mut [V],
    stats: &mut InterpStats,
    dst: &V,
    v: V,
) -> Result<(), CcError> {
    match dst {
        V::SlotRef(s) => {
            slots[*s] = v;
            Ok(())
        }
        V::Ptr { buf, off } => {
            let (buf, off) = check_bounds(heap, *buf, *off, 0, 0, 0)?;
            write_buf(heap, stats, buf, off, &v)
        }
        _ => Err(CcError::interp("store through non-pointer")),
    }
}

/// `getline` front half: consume the next line record (if any) into a
/// fresh NUL-terminated heap buffer. Returns `None` at end of input
/// (the builtin then returns `-1` without evaluating its arguments,
/// exactly like the original interpreter).
pub(crate) fn getline_read(
    io: &mut StreamIo,
    heap: &mut Vec<Buffer>,
    stats: &mut InterpStats,
) -> Result<Option<(V, i64)>, CcError> {
    let record = match &mut io.input {
        Input::Lines(lines) => {
            if io.cursor >= lines.len() {
                return Ok(None);
            }
            // The record is consumed exactly once: move it out.
            let r = std::mem::take(&mut lines[io.cursor]);
            io.cursor += 1;
            r
        }
        Input::Kvs { .. } => return Err(CcError::interp("getline on KV input")),
    };
    stats.records_in += 1;
    stats.mem += record.len() as u64;
    let mut bytes = record;
    bytes.push(b'\n');
    let len = bytes.len();
    bytes.push(0);
    heap.push(Buffer::Bytes(bytes));
    Ok(Some((
        V::Ptr {
            buf: heap.len() - 1,
            off: 0,
        },
        len as i64,
    )))
}

/// `getline` back half: store the fresh line pointer through the `&line`
/// argument.
pub(crate) fn getline_store(slots: &mut [V], target: V, ptr: V) -> Result<(), CcError> {
    match target {
        V::SlotRef(s) => {
            slots[s] = ptr;
            Ok(())
        }
        V::Ptr { .. } => Err(CcError::interp("getline target must be &ptr")),
        _ => Err(CcError::interp("bad getline target")),
    }
}

/// Shared core of `getWord` (word mode: split on non-`[A-Za-z0-9_']`)
/// and `getTok` (token mode: split on whitespace only). Returns chars
/// consumed or `-1`. The token is copied straight from the line's
/// buffer, keeping at most `max_len - 1` bytes: a `max_len` of 0 or less
/// keeps none, and the destination still gets its NUL.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_token(
    heap: &mut [Buffer],
    stats: &mut InterpStats,
    line: &V,
    offset: i64,
    dst: &V,
    read: i64,
    max_len: i64,
    word_mode: bool,
) -> Result<i64, CcError> {
    let offset = offset as usize;
    let read = read as usize;
    let keep_max = usize::try_from(max_len).map_or(0, |m| m.saturating_sub(1));
    let (src, at, keep, consumed) = {
        let (src, base, buf) = cstr_at(heap, line, read)?;
        let is_sep = |b: u8| {
            if word_mode {
                !(b.is_ascii_alphanumeric() || b == b'_' || b == b'\'')
            } else {
                b.is_ascii_whitespace()
            }
        };
        let mut i = offset.min(buf.len());
        while i < buf.len() && is_sep(buf[i]) {
            i += 1;
        }
        if i >= buf.len() {
            return Ok(-1);
        }
        let start = i;
        while i < buf.len() && !is_sep(buf[i]) {
            i += 1;
        }
        let keep = (i - start).min(keep_max);
        (src, base + start, keep, (i - offset) as i64)
    };
    stats.mem += keep as u64;
    copy_cstr(heap, stats, dst, src, at..at + keep)?;
    Ok(consumed)
}

/// One parsed `printf` format segment.
#[derive(Debug, Clone)]
pub(crate) enum PSeg {
    /// Literal text (including `%%` → `%` and malformed tails).
    Lit(String),
    /// A `%[.prec][lh]conv` conversion; validity of `conv` is checked at
    /// render time (so unreached bad conversions don't fail a program,
    /// exactly like the interpreter).
    Conv { prec: Option<usize>, conv: u8 },
}

/// Parse a `printf` format string into segments. Mirrors the historical
/// in-line scanner byte for byte, including the quirk that a conversion
/// truncated by end-of-format renders as a lone `%` and stops.
pub(crate) fn parse_printf(fmt: &str) -> Vec<PSeg> {
    let mut segs = Vec::new();
    let mut lit = String::new();
    let fb = fmt.as_bytes();
    let mut i = 0;
    while i < fb.len() {
        if fb[i] == b'%' && i + 1 < fb.len() {
            let mut j = i + 1;
            let mut prec: Option<usize> = None;
            if fb[j] == b'.' {
                let mut p = 0usize;
                j += 1;
                while j < fb.len() && fb[j].is_ascii_digit() {
                    // Saturates: `render_conv` refuses what it cannot print.
                    p = p.saturating_mul(10).saturating_add((fb[j] - b'0') as usize);
                    j += 1;
                }
                prec = Some(p);
            }
            while j < fb.len() && (fb[j] == b'l' || fb[j] == b'h') {
                j += 1;
            }
            if j >= fb.len() {
                lit.push('%');
                break;
            }
            let conv = fb[j];
            if conv == b'%' {
                lit.push('%');
                i = j + 1;
                continue;
            }
            if !lit.is_empty() {
                segs.push(PSeg::Lit(std::mem::take(&mut lit)));
            }
            segs.push(PSeg::Conv { prec, conv });
            i = j + 1;
        } else {
            lit.push(fb[i] as char);
            i += 1;
        }
    }
    if !lit.is_empty() {
        segs.push(PSeg::Lit(lit));
    }
    segs
}

/// Render one `printf` conversion of `v` into `out`. `%s` resolves the
/// pointer against `heap`. Both engines evaluate the argument lazily,
/// immediately before this call, so a conversion error pre-empts the
/// evaluation of every later argument.
pub(crate) fn render_conv(
    out: &mut String,
    prec: Option<usize>,
    conv: u8,
    v: &V,
    heap: &[Buffer],
) -> Result<(), CcError> {
    match conv {
        b'd' | b'i' | b'u' => push_int(out, as_int(v)?),
        b'c' => out.push(as_int(v)? as u8 as char),
        b's' => out.push_str(&String::from_utf8_lossy(cstr(heap, v)?)),
        b'f' | b'e' | b'g' => {
            let x = as_f64(v)?;
            let p = prec.unwrap_or(6);
            // `core::fmt` holds a precision in a `u16`, and `{:e}` needs
            // one digit more than its precision.
            let most = u16::MAX as usize - (conv == b'e') as usize;
            if conv != b'g' && p > most {
                return Err(CcError::interp(format!(
                    "printf: precision {p} out of range"
                )));
            }
            match conv {
                b'f' => {
                    let _ = write!(out, "{x:.p$}", p = p);
                }
                b'e' => {
                    let _ = write!(out, "{x:.p$e}", p = p);
                }
                _ => {
                    let _ = write!(out, "{x}");
                }
            }
        }
        other => {
            return Err(CcError::interp(format!(
                "printf: unsupported conversion %{}",
                other as char
            )))
        }
    }
    Ok(())
}

/// Append `n` in decimal — what `write!(out, "{n}")` prints, without
/// the formatting machinery.
fn push_int(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut m = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

/// The error for a conversion with no argument left.
pub(crate) fn printf_missing_arg() -> CcError {
    CcError::interp("printf: not enough arguments")
}

/// Commit a fully rendered `printf`: charge `lines_out`/`mem` and
/// append to stdout (only reached when every conversion succeeded).
/// Returns the byte count, `printf`'s value.
pub(crate) fn printf_finish(out: &str, stats: &mut InterpStats, io: &mut StreamIo) -> V {
    stats.lines_out += out.bytes().filter(|&b| b == b'\n').count() as u64;
    stats.mem += out.len() as u64;
    io.stdout.extend_from_slice(out.as_bytes());
    V::I(out.len() as i64)
}

/// One `scanf` conversion, classified once per format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanConv {
    /// `%s`: copy the field through the destination pointer.
    Str,
    /// `%d` family: lenient integer parse (0 on failure).
    Int,
    /// `%f` family: lenient float parse (0.0 on failure).
    Float,
}

impl ScanConv {
    /// Classify one whitespace-separated conversion; the error is the
    /// one `scanf` raises when it *reaches* an unsupported conversion
    /// (after evaluating that conversion's destination).
    pub(crate) fn parse(conv: &str) -> Result<ScanConv, CcError> {
        match conv {
            "%s" => Ok(ScanConv::Str),
            "%d" | "%ld" | "%i" | "%u" => Ok(ScanConv::Int),
            "%f" | "%lf" | "%g" | "%e" => Ok(ScanConv::Float),
            other => Err(CcError::interp(format!(
                "scanf: unsupported conversion {other}"
            ))),
        }
    }
}

/// Parse a `scanf` format into its whitespace-separated conversions.
pub(crate) fn parse_scanf(fmt: &str) -> Vec<String> {
    fmt.split_whitespace().map(str::to_string).collect()
}

/// `scanf` front half: consume the next KV record, returning its index
/// for [`StreamIo::kv_field`], or `None` at end of input (the call then
/// returns `-1` without evaluating any destination).
pub(crate) fn scanf_read(
    io: &mut StreamIo,
    stats: &mut InterpStats,
) -> Result<Option<usize>, CcError> {
    let Input::Kvs { ends, .. } = &io.input else {
        return Err(CcError::interp("scanf on line input"));
    };
    let rec = io.cursor;
    if rec >= ends.len() {
        return Ok(None);
    }
    let (start, _, end) = kv_record(ends, rec);
    io.cursor += 1;
    stats.records_in += 1;
    stats.mem += (end - start) as u64;
    Ok(Some(rec))
}

/// Convert one field of the record into its (already evaluated)
/// destination. Conversion `ci` reads field `min(ci, 1)`.
pub(crate) fn scanf_store(
    conv: ScanConv,
    field: &[u8],
    dst: &V,
    heap: &mut [Buffer],
    slots: &mut [V],
    stats: &mut InterpStats,
) -> Result<(), CcError> {
    match conv {
        ScanConv::Str => write_cstr(heap, stats, dst, field),
        ScanConv::Int => {
            let n = String::from_utf8_lossy(field).trim().parse::<i64>();
            store_through(heap, slots, stats, dst, V::I(n.unwrap_or(0)))
        }
        ScanConv::Float => {
            let x = String::from_utf8_lossy(field).trim().parse::<f64>();
            store_through(heap, slots, stats, dst, V::F(x.unwrap_or(0.0)))
        }
    }
}

/// `strfind` core: index of `needle` in `hay`, or `-1` (empty needle
/// matches at 0).
pub(crate) fn str_find(hay: &[u8], needle: &[u8]) -> i64 {
    if needle.is_empty() {
        0
    } else {
        hay.windows(needle.len())
            .position(|w| w == needle)
            .map(|p| p as i64)
            .unwrap_or(-1)
    }
}

/// The one-argument special functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sfu1 {
    Sqrt,
    Exp,
    Log,
    Fabs,
    Floor,
    Ceil,
    Erf,
}

impl Sfu1 {
    /// The builtin of that name, if it is a one-argument SFU.
    pub(crate) fn from_name(name: &str) -> Option<Sfu1> {
        Some(match name {
            "sqrt" => Sfu1::Sqrt,
            "exp" => Sfu1::Exp,
            "log" => Sfu1::Log,
            "fabs" => Sfu1::Fabs,
            "floor" => Sfu1::Floor,
            "ceil" => Sfu1::Ceil,
            "erf" => Sfu1::Erf,
            _ => return None,
        })
    }

    /// Apply the function.
    #[inline]
    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            Sfu1::Sqrt => x.sqrt(),
            Sfu1::Exp => x.exp(),
            Sfu1::Log => x.ln(),
            Sfu1::Fabs => x.abs(),
            Sfu1::Floor => x.floor(),
            Sfu1::Ceil => x.ceil(),
            Sfu1::Erf => erf(x),
        }
    }
}

/// `malloc(n)` / `calloc(n, m)`: a zeroed byte buffer of `n` (`n * m`)
/// bytes, at least one. Negative sizes, an overflowing product and a
/// reservation the allocator refuses are errors, not panics.
pub(crate) fn malloc_bytes(
    heap: &mut Vec<Buffer>,
    name: &str,
    n: i64,
    m: Option<i64>,
) -> Result<V, CcError> {
    let invalid = |why: &str| {
        let size = match m {
            Some(m) => format!("{n} * {m}"),
            None => n.to_string(),
        };
        CcError::interp(format!("{name}: invalid size {size} ({why})"))
    };
    let count = usize::try_from(n).map_err(|_| invalid("negative"))?;
    let width = usize::try_from(m.unwrap_or(1)).map_err(|_| invalid("negative"))?;
    let total = count
        .checked_mul(width)
        .ok_or_else(|| invalid("overflow"))?
        .max(1);
    let bytes = zeroed(total).ok_or_else(|| invalid("allocation failed"))?;
    heap.push(Buffer::Bytes(bytes));
    Ok(V::Ptr {
        buf: heap.len() - 1,
        off: 0,
    })
}

/// The borrowed, unbounded C string at `p`.
fn cstr<'h>(heap: &'h [Buffer], p: &V) -> Result<&'h [u8], CcError> {
    cstr_at(heap, p, usize::MAX).map(|(_, _, s)| s)
}

// Builtin bodies over already-evaluated arguments (each engine
// evaluates the arguments its own way, then calls these).

/// `strfind(hay, needle)`.
pub(crate) fn builtin_strfind(
    heap: &[Buffer],
    stats: &mut InterpStats,
    hay: &V,
    needle: &V,
) -> Result<V, CcError> {
    let (hay, needle) = (cstr(heap, hay)?, cstr(heap, needle)?);
    stats.mem += (hay.len() + needle.len()) as u64;
    Ok(V::I(str_find(hay, needle)))
}

/// `strcmp(a, b)` as `-1`/`0`/`1`.
pub(crate) fn builtin_strcmp(
    heap: &[Buffer],
    stats: &mut InterpStats,
    a: &V,
    b: &V,
) -> Result<V, CcError> {
    let (sa, sb) = (cstr(heap, a)?, cstr(heap, b)?);
    stats.mem += (sa.len() + sb.len()) as u64;
    Ok(V::I(sa.cmp(sb) as i64))
}

/// `strcpy(dst, src)`; evaluates to `dst`.
pub(crate) fn builtin_strcpy(
    heap: &mut [Buffer],
    stats: &mut InterpStats,
    dst: &V,
    src: &V,
) -> Result<V, CcError> {
    let (buf, at, s) = cstr_at(heap, src, usize::MAX)?;
    let n = s.len();
    stats.mem += n as u64;
    copy_cstr(heap, stats, dst, buf, at..at + n)?;
    Ok(*dst)
}

/// `strlen(p)`.
pub(crate) fn builtin_strlen(heap: &[Buffer], p: &V) -> Result<V, CcError> {
    Ok(V::I(cstr(heap, p)?.len() as i64))
}

/// `atoi(p)`: lenient, 0 on failure.
pub(crate) fn builtin_atoi(heap: &[Buffer], p: &V) -> Result<V, CcError> {
    let n = String::from_utf8_lossy(cstr(heap, p)?)
        .trim()
        .parse::<i64>();
    Ok(V::I(n.unwrap_or(0)))
}

/// `atof(p)`: lenient, 0.0 on failure.
pub(crate) fn builtin_atof(heap: &[Buffer], p: &V) -> Result<V, CcError> {
    let x = String::from_utf8_lossy(cstr(heap, p)?)
        .trim()
        .parse::<f64>();
    Ok(V::F(x.unwrap_or(0.0)))
}

/// `*p`: a buffer element (one `mem` touch) or the scalar a slot
/// reference names.
pub(crate) fn load_through(
    heap: &[Buffer],
    slots: &[V],
    stats: &mut InterpStats,
    p: &V,
) -> Result<V, CcError> {
    match p {
        V::Ptr { buf, off } => {
            let (buf, off) = check_bounds(heap, *buf, *off, 0, 0, 0)?;
            stats.mem += 1;
            read_buf(heap, buf, off)
        }
        V::SlotRef(s) => Ok(slots[*s]),
        _ => Err(CcError::interp("dereference of non-pointer")),
    }
}

/// Unary `-`.
pub(crate) fn neg(v: V) -> Result<V, CcError> {
    match v {
        V::I(v) => Ok(V::I(v.wrapping_neg())),
        V::F(v) => Ok(V::F(-v)),
        _ => Err(CcError::interp("negate non-number")),
    }
}

/// Unary `~`.
pub(crate) fn bit_not(v: V) -> Result<V, CcError> {
    match v {
        V::I(v) => Ok(V::I(!v)),
        _ => Err(CcError::interp("~ on non-int")),
    }
}

/// Minimum argument count each builtin needs before it can be
/// dispatched. Calls with fewer arguments fail with a uniform error in
/// *both* backends (historically some indexed `args[0]` and panicked).
/// Returns `None` for names that are not builtins.
pub(crate) fn builtin_min_args(name: &str) -> Option<usize> {
    Some(match name {
        "getline" => 1,
        "getWord" | "getTok" => 5,
        "strfind" | "strcmp" | "strcpy" | "pow" | "calloc" => 2,
        "printf" | "scanf" | "strlen" | "atoi" | "atof" | "malloc" | "abs" => 1,
        "sqrt" | "exp" | "log" | "fabs" | "floor" | "ceil" | "erf" => 1,
        "free" => 0,
        _ => return None,
    })
}

/// The uniform too-few-arguments error for builtins.
pub(crate) fn builtin_arity_err(name: &str, need: usize, got: usize) -> CcError {
    CcError::interp(format!(
        "{name}: expected at least {need} argument(s), got {got}"
    ))
}

// ====================================================================
// The tree-walking interpreter.
// ====================================================================

/// Interpreter over one program.
pub struct Interp<'p> {
    prog: &'p Program,
    heap: Vec<Buffer>,
    slots: Vec<V>,
    /// Per-call-frame scopes: name -> slot, plus array strides for 2-D
    /// indexing (slot var name -> row length).
    scopes: Vec<Vec<HashMap<String, usize>>>,
    strides: HashMap<usize, usize>,
    /// Slots bound to declared arrays (these decay under `&`, pointers
    /// do not).
    array_slots: std::collections::HashSet<usize>,
    stats: InterpStats,
    steps: u64,
    max_steps: u64,
}

impl<'p> Interp<'p> {
    /// Create an interpreter for `prog`.
    pub fn new(prog: &'p Program) -> Self {
        Interp {
            prog,
            heap: Vec::new(),
            slots: Vec::new(),
            scopes: Vec::new(),
            strides: HashMap::new(),
            array_slots: std::collections::HashSet::new(),
            stats: InterpStats::default(),
            steps: 0,
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Cap on evaluation steps (guards against runaway loops in user
    /// sources).
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Run `main` to completion against the given streaming I/O.
    pub fn run_main(mut self, io: &mut StreamIo) -> Result<InterpStats, CcError> {
        let main = self
            .prog
            .func("main")
            .ok_or_else(|| CcError::interp("no main function"))?;
        self.call_func(main, Vec::new(), io)?;
        Ok(self.stats)
    }

    fn tick(&mut self) -> Result<(), CcError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(CcError::interp("step limit exceeded (infinite loop?)"));
        }
        Ok(())
    }

    fn call_func(&mut self, f: &'p FuncDef, args: Vec<V>, io: &mut StreamIo) -> Result<V, CcError> {
        if args.len() != f.params.len() {
            return Err(CcError::interp(format!(
                "function {} expects {} args, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        self.scopes.push(vec![HashMap::new()]);
        for ((_, name), v) in f.params.iter().zip(args) {
            let slot = self.new_slot(v);
            self.bind(name, slot);
        }
        let mut ret = V::I(0);
        for s in &f.body {
            match self.exec(s, io)? {
                Flow::Return(v) => {
                    ret = v;
                    break;
                }
                Flow::Normal => {}
                _ => return Err(CcError::interp("break/continue outside loop")),
            }
        }
        self.scopes.pop();
        Ok(ret)
    }

    fn new_slot(&mut self, v: V) -> usize {
        self.slots.push(v);
        self.slots.len() - 1
    }

    fn bind(&mut self, name: &str, slot: usize) {
        self.scopes
            .last_mut()
            .unwrap()
            .last_mut()
            .unwrap()
            .insert(name.to_string(), slot);
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        let frame = self.scopes.last()?;
        frame.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn exec(&mut self, s: &'p Stmt, io: &mut StreamIo) -> Result<Flow, CcError> {
        self.tick()?;
        match &s.kind {
            StmtKind::Decl(ds) => {
                for d in ds {
                    let v = self.declare(d, io)?;
                    let slot = self.new_slot(v);
                    self.bind(&d.name, slot);
                    if d.ty.is_array() {
                        self.array_slots.insert(slot);
                    }
                    if let CType::Array(inner, _) = &d.ty {
                        if let CType::Array(_, Some(cols)) = inner.as_ref() {
                            self.strides.insert(slot, *cols);
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(e, io)?;
                Ok(Flow::Normal)
            }
            StmtKind::While { cond, body } => {
                loop {
                    self.tick()?;
                    if !truthy(&self.eval(cond, io)?) {
                        break;
                    }
                    match self.exec(body, io)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                if let Some(i) = init {
                    self.exec(i, io)?;
                }
                loop {
                    self.tick()?;
                    if let Some(c) = cond {
                        if !truthy(&self.eval(c, io)?) {
                            break;
                        }
                    }
                    match self.exec(body, io)? {
                        Flow::Break => break,
                        Flow::Return(v) => {
                            self.pop_scope();
                            return Ok(Flow::Return(v));
                        }
                        _ => {}
                    }
                    if let Some(st) = step {
                        self.eval(st, io)?;
                    }
                }
                self.pop_scope();
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then, els } => {
                if truthy(&self.eval(cond, io)?) {
                    self.exec(then, io)
                } else if let Some(e) = els {
                    self.exec(e, io)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(x) => self.eval(x, io)?,
                    None => V::I(0),
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(body) => {
                self.push_scope();
                for st in body {
                    match self.exec(st, io)? {
                        Flow::Normal => {}
                        f => {
                            self.pop_scope();
                            return Ok(f);
                        }
                    }
                }
                self.pop_scope();
                Ok(Flow::Normal)
            }
            StmtKind::Annotated(_, inner) => self.exec(inner, io),
            StmtKind::Empty => Ok(Flow::Normal),
        }
    }

    fn push_scope(&mut self) {
        self.scopes.last_mut().unwrap().push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.last_mut().unwrap().pop();
    }

    fn declare(&mut self, d: &'p Declarator, io: &mut StreamIo) -> Result<V, CcError> {
        match &d.ty {
            CType::Array(inner, n) => {
                let (total, _) = array_extent(&d.name, inner, *n)?;
                let elem = leaf_type(&d.ty);
                let buf = alloc_buffer(&mut self.heap, &d.name, &elem, total)?;
                Ok(V::Ptr { buf, off: 0 })
            }
            _ => match &d.init {
                Some(e) => self.eval(e, io),
                None => Ok(default_value(&d.ty)),
            },
        }
    }

    fn eval(&mut self, e: &'p Expr, io: &mut StreamIo) -> Result<V, CcError> {
        self.tick()?;
        self.stats.ops += 1;
        match e {
            Expr::IntLit(v) => Ok(V::I(*v)),
            Expr::FloatLit(v) => Ok(V::F(*v)),
            Expr::CharLit(c) => Ok(V::I(*c as i64)),
            Expr::StrLit(s) => {
                let mut bytes = s.as_bytes().to_vec();
                bytes.push(0);
                self.heap.push(Buffer::Bytes(bytes));
                Ok(V::Ptr {
                    buf: self.heap.len() - 1,
                    off: 0,
                })
            }
            Expr::Ident(name) => {
                let slot = self
                    .lookup(name)
                    .ok_or_else(|| CcError::interp(format!("unknown variable {name}")))?;
                Ok(self.slots[slot])
            }
            Expr::Unary(op, x) => self.eval_unary(*op, x, io),
            Expr::PostInc(x) => {
                let old = self.eval(x, io)?;
                let new = num_add(&old, 1)?;
                self.assign_to(x, new, io)?;
                Ok(old)
            }
            Expr::PostDec(x) => {
                let old = self.eval(x, io)?;
                let new = num_add(&old, -1)?;
                self.assign_to(x, new, io)?;
                Ok(old)
            }
            Expr::Binary(op, a, b, _) => {
                let va = self.eval(a, io)?;
                if *op == BinOp::And {
                    if !truthy(&va) {
                        return Ok(V::I(0));
                    }
                    let vb = self.eval(b, io)?;
                    return Ok(V::I(truthy(&vb) as i64));
                }
                if *op == BinOp::Or {
                    if truthy(&va) {
                        return Ok(V::I(1));
                    }
                    let vb = self.eval(b, io)?;
                    return Ok(V::I(truthy(&vb) as i64));
                }
                let vb = self.eval(b, io)?;
                binary(*op, va, vb)
            }
            Expr::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs, io)?;
                let nv = if *op == AssignOp::None {
                    rv
                } else {
                    let old = self.eval(lhs, io)?;
                    let bop = match op {
                        AssignOp::Add => BinOp::Add,
                        AssignOp::Sub => BinOp::Sub,
                        AssignOp::Mul => BinOp::Mul,
                        AssignOp::Div => BinOp::Div,
                        AssignOp::Rem => BinOp::Rem,
                        AssignOp::None => unreachable!(),
                    };
                    binary(bop, old, rv)?
                };
                self.assign_to(lhs, nv, io)?;
                Ok(nv)
            }
            Expr::Cond(c, t, f) => {
                if truthy(&self.eval(c, io)?) {
                    self.eval(t, io)
                } else {
                    self.eval(f, io)
                }
            }
            Expr::Call(name, args, _) => self.call(name, args, io),
            Expr::Index(base, idx, _) => {
                let (buf, off) = self.index_target(base, idx, io)?;
                self.stats.mem += 1;
                read_buf(&self.heap, buf, off)
            }
            Expr::Cast(ty, x) => {
                let v = self.eval(x, io)?;
                Ok(cast(&v, ty))
            }
            Expr::SizeOf(ty) => Ok(V::I(ty.scalar_size() as i64)),
        }
    }

    fn eval_unary(&mut self, op: UnOp, x: &'p Expr, io: &mut StreamIo) -> Result<V, CcError> {
        match op {
            UnOp::AddrOf => match x {
                Expr::Ident(name) => {
                    let slot = self
                        .lookup(name)
                        .ok_or_else(|| CcError::interp(format!("unknown variable {name}")))?;
                    // Address of an array variable is the array itself;
                    // address of a scalar or pointer variable is a slot
                    // reference (so getline(&line, ...) can replace the
                    // pointer).
                    if self.array_slots.contains(&slot) {
                        Ok(self.slots[slot])
                    } else {
                        Ok(V::SlotRef(slot))
                    }
                }
                Expr::Index(base, idx, _) => {
                    let (buf, off) = self.index_target(base, idx, io)?;
                    Ok(V::Ptr { buf, off })
                }
                _ => Err(CcError::interp("unsupported address-of target")),
            },
            UnOp::Deref => {
                let p = self.eval(x, io)?;
                load_through(&self.heap, &self.slots, &mut self.stats, &p)
            }
            UnOp::Neg => neg(self.eval(x, io)?),
            UnOp::Not => Ok(V::I(!truthy(&self.eval(x, io)?) as i64)),
            UnOp::BitNot => bit_not(self.eval(x, io)?),
            UnOp::PreInc => {
                let v = num_add(&self.eval(x, io)?, 1)?;
                self.assign_to(x, v, io)?;
                Ok(v)
            }
            UnOp::PreDec => {
                let v = num_add(&self.eval(x, io)?, -1)?;
                self.assign_to(x, v, io)?;
                Ok(v)
            }
        }
    }

    /// Resolve `base[idx]` (including 2-D `a[i][j]`) to a buffer slot.
    fn index_target(
        &mut self,
        base: &'p Expr,
        idx: &'p Expr,
        io: &mut StreamIo,
    ) -> Result<(usize, usize), CcError> {
        let i = as_int(&self.eval(idx, io)?)?;
        // 2-D: base is itself an Index over a strided variable.
        if let Expr::Index(inner_base, inner_idx, _) = base {
            if let Expr::Ident(name) = inner_base.as_ref() {
                if let Some(slot) = self.lookup(name) {
                    if let Some(&stride) = self.strides.get(&slot) {
                        let row = as_int(&self.eval(inner_idx, io)?)?;
                        if let V::Ptr { buf, off } = self.slots[slot] {
                            return check_bounds(&self.heap, buf, off, row, stride, i);
                        }
                    }
                }
            }
        }
        let b = self.eval(base, io)?;
        match b {
            V::Ptr { buf, off } => check_bounds(&self.heap, buf, off, 0, 0, i),
            _ => Err(CcError::interp("indexing non-pointer")),
        }
    }

    fn assign_to(&mut self, lhs: &'p Expr, v: V, io: &mut StreamIo) -> Result<(), CcError> {
        match lhs {
            Expr::Ident(name) => {
                let slot = self
                    .lookup(name)
                    .ok_or_else(|| CcError::interp(format!("unknown variable {name}")))?;
                self.slots[slot] = v;
                Ok(())
            }
            Expr::Index(base, idx, _) => {
                let (buf, off) = self.index_target(base, idx, io)?;
                write_buf(&mut self.heap, &mut self.stats, buf, off, &v)
            }
            Expr::Unary(UnOp::Deref, x) => {
                let target = self.eval(x, io)?;
                store_through(&mut self.heap, &mut self.slots, &mut self.stats, &target, v)
            }
            Expr::Cast(_, inner) => self.assign_to(inner, v, io),
            _ => Err(CcError::interp("unsupported assignment target")),
        }
    }

    // ---- builtins ----

    fn call(&mut self, name: &str, args: &'p [Expr], io: &mut StreamIo) -> Result<V, CcError> {
        // User-defined functions first.
        if let Some(_f) = self.prog.func(name) {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(self.eval(a, io)?);
            }
            // Look up again to appease the borrow checker via index.
            let f = self.prog.func(name).unwrap();
            return self.call_func(f, vals, io);
        }
        if let Some(need) = builtin_min_args(name) {
            if args.len() < need {
                return Err(builtin_arity_err(name, need, args.len()));
            }
        }
        match name {
            "getline" => self.builtin_getline(args, io),
            "getWord" => self.builtin_scan_token(args, io, true),
            "getTok" => self.builtin_scan_token(args, io, false),
            "strfind" | "strcmp" | "strcpy" => {
                let a = self.eval(&args[0], io)?;
                let b = self.eval(&args[1], io)?;
                match name {
                    "strfind" => builtin_strfind(&self.heap, &mut self.stats, &a, &b),
                    "strcmp" => builtin_strcmp(&self.heap, &mut self.stats, &a, &b),
                    _ => builtin_strcpy(&mut self.heap, &mut self.stats, &a, &b),
                }
            }
            "printf" => self.builtin_printf(args, io),
            "scanf" => self.builtin_scanf(args, io),
            "strlen" | "atoi" | "atof" => {
                let p = self.eval(&args[0], io)?;
                match name {
                    "strlen" => builtin_strlen(&self.heap, &p),
                    "atoi" => builtin_atoi(&self.heap, &p),
                    _ => builtin_atof(&self.heap, &p),
                }
            }
            "pow" => {
                self.stats.sfu += 1;
                let a = as_f64(&self.eval(&args[0], io)?)?;
                let b = as_f64(&self.eval(&args[1], io)?)?;
                Ok(V::F(a.powf(b)))
            }
            "malloc" | "calloc" => {
                let n = as_int(&self.eval(&args[0], io)?)?;
                let m = if name == "calloc" {
                    Some(as_int(&self.eval(&args[1], io)?)?)
                } else {
                    None
                };
                malloc_bytes(&mut self.heap, name, n, m)
            }
            "free" => {
                for a in args {
                    self.eval(a, io)?;
                }
                Ok(V::I(0))
            }
            "abs" => {
                let v = as_int(&self.eval(&args[0], io)?)?;
                Ok(V::I(v.wrapping_abs()))
            }
            _ => match Sfu1::from_name(name) {
                Some(f) => {
                    self.stats.sfu += 1;
                    let x = as_f64(&self.eval(&args[0], io)?)?;
                    Ok(V::F(f.apply(x)))
                }
                None => Err(CcError::interp(format!("unknown function {name}"))),
            },
        }
    }

    fn builtin_getline(&mut self, args: &'p [Expr], io: &mut StreamIo) -> Result<V, CcError> {
        // getline(&line, &nbytes, stdin) -> bytes read incl. '\n', or -1.
        let Some((ptr, len)) = getline_read(io, &mut self.heap, &mut self.stats)? else {
            return Ok(V::I(-1));
        };
        // Store the new buffer through the first argument (&line).
        let target = self.eval(&args[0], io)?;
        getline_store(&mut self.slots, target, ptr)?;
        Ok(V::I(len))
    }

    fn builtin_scan_token(
        &mut self,
        args: &'p [Expr],
        io: &mut StreamIo,
        word_mode: bool,
    ) -> Result<V, CcError> {
        // getWord/getTok(line, offset, word, read, maxLen) -> chars
        // consumed or -1.
        let line = self.eval(&args[0], io)?;
        let offset = as_int(&self.eval(&args[1], io)?)?;
        let word = self.eval(&args[2], io)?;
        let read = as_int(&self.eval(&args[3], io)?)?;
        let max_len = as_int(&self.eval(&args[4], io)?)?;
        scan_token(
            &mut self.heap,
            &mut self.stats,
            &line,
            offset,
            &word,
            read,
            max_len,
            word_mode,
        )
        .map(V::I)
    }

    fn builtin_printf(&mut self, args: &'p [Expr], io: &mut StreamIo) -> Result<V, CcError> {
        let Expr::StrLit(fmt) = &args[0] else {
            return Err(CcError::interp("printf needs a literal format"));
        };
        // Arguments are evaluated lazily, one per conversion, so a
        // conversion error pre-empts every later argument and surplus
        // arguments are never evaluated.
        let mut out = String::new();
        let mut rest = args[1..].iter();
        for seg in parse_printf(fmt) {
            match seg {
                PSeg::Lit(s) => out.push_str(&s),
                PSeg::Conv { prec, conv } => {
                    let a = rest.next().ok_or_else(printf_missing_arg)?;
                    let v = self.eval(a, io)?;
                    render_conv(&mut out, prec, conv, &v, &self.heap)?;
                }
            }
        }
        Ok(printf_finish(&out, &mut self.stats, io))
    }

    fn builtin_scanf(&mut self, args: &'p [Expr], io: &mut StreamIo) -> Result<V, CcError> {
        // scanf("<kfmt> <vfmt>", kdst, vdst): reads the next KV pair.
        let Expr::StrLit(fmt) = &args[0] else {
            return Err(CcError::interp("scanf needs a literal format"));
        };
        let Some(rec) = scanf_read(io, &mut self.stats)? else {
            return Ok(V::I(-1));
        };
        let mut matched = 0i64;
        // One conversion per destination actually passed.
        for (ci, (conv, a)) in parse_scanf(fmt).iter().zip(&args[1..]).enumerate() {
            let dst = self.eval(a, io)?;
            scanf_store(
                ScanConv::parse(conv)?,
                io.kv_field(rec, ci.min(1)),
                &dst,
                &mut self.heap,
                &mut self.slots,
                &mut self.stats,
            )?;
            matched += 1;
        }
        Ok(V::I(matched))
    }
}

pub(crate) fn leaf_type(t: &CType) -> CType {
    match t {
        CType::Array(inner, _) | CType::Ptr(inner) => leaf_type(inner),
        other => other.clone(),
    }
}

pub(crate) fn default_value(t: &CType) -> V {
    match t {
        CType::Float | CType::Double => V::F(0.0),
        CType::Ptr(_) => V::Null,
        _ => V::I(0),
    }
}

pub(crate) fn truthy(v: &V) -> bool {
    match v {
        V::I(x) => *x != 0,
        V::F(x) => *x != 0.0,
        V::Ptr { .. } | V::SlotRef(_) => true,
        V::Null => false,
    }
}

pub(crate) fn as_int(v: &V) -> Result<i64, CcError> {
    match v {
        V::I(x) => Ok(*x),
        V::F(x) => Ok(*x as i64),
        _ => Err(CcError::interp("expected integer value")),
    }
}

pub(crate) fn as_f64(v: &V) -> Result<f64, CcError> {
    match v {
        V::I(x) => Ok(*x as f64),
        V::F(x) => Ok(*x),
        _ => Err(CcError::interp("expected numeric value")),
    }
}

pub(crate) fn num_add(v: &V, d: i64) -> Result<V, CcError> {
    match v {
        V::I(x) => Ok(V::I(x.wrapping_add(d))),
        V::F(x) => Ok(V::F(x + d as f64)),
        V::Ptr { buf, off } => Ok(V::Ptr {
            buf: *buf,
            off: (*off as i64).wrapping_add(d) as usize,
        }),
        _ => Err(CcError::interp("++/-- on non-number")),
    }
}

pub(crate) fn binary(op: BinOp, a: V, b: V) -> Result<V, CcError> {
    binary_inline(op, a, b)
}

/// The one definition of binary-operator semantics. `#[inline(always)]`
/// so the bytecode VM's per-operator opcodes, which pass a constant
/// `op`, each fold to that operator's arm.
#[inline(always)]
pub(crate) fn binary_inline(op: BinOp, a: V, b: V) -> Result<V, CcError> {
    use BinOp::*;
    // Pointer arithmetic.
    if let (V::Ptr { buf, off }, V::I(i)) = (&a, &b) {
        match op {
            Add => {
                return Ok(V::Ptr {
                    buf: *buf,
                    off: (*off as i64).wrapping_add(*i) as usize,
                })
            }
            Sub => {
                return Ok(V::Ptr {
                    buf: *buf,
                    off: (*off as i64).wrapping_sub(*i) as usize,
                })
            }
            _ => {}
        }
    }
    let float = matches!(a, V::F(_)) || matches!(b, V::F(_));
    if float {
        let x = as_f64(&a)?;
        let y = as_f64(&b)?;
        return Ok(match op {
            Add => V::F(x + y),
            Sub => V::F(x - y),
            Mul => V::F(x * y),
            Div => V::F(x / y),
            Rem => V::F(x % y),
            Lt => V::I((x < y) as i64),
            Le => V::I((x <= y) as i64),
            Gt => V::I((x > y) as i64),
            Ge => V::I((x >= y) as i64),
            Eq => V::I((x == y) as i64),
            Ne => V::I((x != y) as i64),
            _ => return Err(CcError::interp("bitwise op on float")),
        });
    }
    let x = as_int(&a)?;
    let y = as_int(&b)?;
    Ok(match op {
        Add => V::I(x.wrapping_add(y)),
        Sub => V::I(x.wrapping_sub(y)),
        Mul => V::I(x.wrapping_mul(y)),
        Div => {
            if y == 0 {
                return Err(CcError::interp("integer division by zero"));
            }
            V::I(x.wrapping_div(y))
        }
        Rem => {
            if y == 0 {
                return Err(CcError::interp("integer remainder by zero"));
            }
            V::I(x.wrapping_rem(y))
        }
        Lt => V::I((x < y) as i64),
        Le => V::I((x <= y) as i64),
        Gt => V::I((x > y) as i64),
        Ge => V::I((x >= y) as i64),
        Eq => V::I((x == y) as i64),
        Ne => V::I((x != y) as i64),
        BitAnd => V::I(x & y),
        BitOr => V::I(x | y),
        BitXor => V::I(x ^ y),
        Shl => V::I(x << (y & 63)),
        Shr => V::I(x >> (y & 63)),
        And | Or => unreachable!("handled short-circuit"),
    })
}

pub(crate) fn cast(v: &V, ty: &CType) -> V {
    match ty {
        CType::Float | CType::Double => match v {
            V::I(x) => V::F(*x as f64),
            other => *other,
        },
        CType::Int | CType::Char => match v {
            V::F(x) => V::I(*x as i64),
            other => *other,
        },
        _ => *v,
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26); used by the
/// BlackScholes benchmark's normal CDF.
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::test_listings::{LISTING1, LISTING2};

    fn run_lines(src: &str, lines: &[&str]) -> (Vec<(String, String)>, InterpStats) {
        let prog = parse(src).unwrap();
        let mut io = StreamIo::lines(lines.iter().map(|l| l.as_bytes().to_vec()).collect());
        let stats = Interp::new(&prog).run_main(&mut io).unwrap();
        let kvs = io
            .emitted_kvs()
            .into_iter()
            .map(|(k, v)| {
                (
                    String::from_utf8_lossy(&k).to_string(),
                    String::from_utf8_lossy(&v).to_string(),
                )
            })
            .collect();
        (kvs, stats)
    }

    #[test]
    fn wordcount_mapper_runs_paper_listing_1() {
        let (kvs, stats) = run_lines(LISTING1, &["the quick brown fox", "the lazy dog"]);
        let expect = [
            ("the", "1"),
            ("quick", "1"),
            ("brown", "1"),
            ("fox", "1"),
            ("the", "1"),
            ("lazy", "1"),
            ("dog", "1"),
        ];
        assert_eq!(
            kvs,
            expect
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        );
        assert_eq!(stats.records_in, 2);
        assert_eq!(stats.lines_out, 7);
    }

    #[test]
    fn wordcount_combiner_runs_paper_listing_2() {
        let prog = parse(LISTING2).unwrap();
        let kvs: Vec<(Vec<u8>, Vec<u8>)> =
            [("a", "1"), ("a", "1"), ("b", "1"), ("c", "2"), ("c", "3")]
                .iter()
                .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                .collect();
        let mut io = StreamIo::kvs(kvs);
        Interp::new(&prog).run_main(&mut io).unwrap();
        let out = io.emitted_kvs();
        let got: Vec<(String, String)> = out
            .into_iter()
            .map(|(k, v)| {
                (
                    String::from_utf8_lossy(&k).to_string(),
                    String::from_utf8_lossy(&v).to_string(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("a".to_string(), "2".to_string()),
                ("b".to_string(), "1".to_string()),
                ("c".to_string(), "5".to_string())
            ]
        );
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
int main() {
  int i, s; s = 0;
  for (i = 1; i <= 10; i++) {
    if (i % 2 == 0) { s += i; } else { continue; }
  }
  printf("sum\t%d\n", s);
  return 0;
}
"#;
        let (kvs, _) = run_lines(src, &[]);
        assert_eq!(kvs, vec![("sum".to_string(), "30".to_string())]);
    }

    #[test]
    fn user_functions_and_math() {
        let src = r#"
double sq(double x) { return x * x; }
int main() {
  double d;
  d = sqrt(sq(3.0) + sq(4.0));
  printf("d\t%.2f\n", d);
  return 0;
}
"#;
        let (kvs, stats) = run_lines(src, &[]);
        assert_eq!(kvs, vec![("d".to_string(), "5.00".to_string())]);
        assert!(stats.sfu >= 1);
    }

    #[test]
    fn arrays_and_two_dims() {
        let src = r#"
int main() {
  int h[5]; int i;
  double m[2][3];
  for (i = 0; i < 5; i++) h[i] = i * i;
  m[1][2] = 7.5;
  printf("h3\t%d\n", h[3]);
  printf("m12\t%.1f\n", m[1][2]);
  return 0;
}
"#;
        let (kvs, _) = run_lines(src, &[]);
        assert_eq!(kvs[0], ("h3".to_string(), "9".to_string()));
        assert_eq!(kvs[1], ("m12".to_string(), "7.5".to_string()));
    }

    #[test]
    fn string_builtins() {
        let src = r#"
int main() {
  char a[16], b[16];
  strcpy(a, "hello");
  strcpy(b, a);
  printf("cmp\t%d\n", strcmp(a, b));
  printf("len\t%d\n", strlen(a));
  printf("n\t%d\n", atoi("42"));
  return 0;
}
"#;
        let (kvs, _) = run_lines(src, &[]);
        assert_eq!(kvs[0].1, "0");
        assert_eq!(kvs[1].1, "5");
        assert_eq!(kvs[2].1, "42");
    }

    #[test]
    fn out_of_bounds_is_caught() {
        let src = "int main() { int a[3]; a[5] = 1; return 0; }";
        let prog = parse(src).unwrap();
        let mut io = StreamIo::lines(vec![]);
        let e = Interp::new(&prog).run_main(&mut io);
        assert!(matches!(e, Err(CcError::Interp(_))));
    }

    #[test]
    fn infinite_loop_is_caught() {
        let src = "int main() { while (1) { } return 0; }";
        let prog = parse(src).unwrap();
        let mut io = StreamIo::lines(vec![]);
        let e = Interp::new(&prog).with_max_steps(10_000).run_main(&mut io);
        assert!(matches!(e, Err(CcError::Interp(_))));
    }

    #[test]
    fn division_by_zero_is_caught() {
        let src = "int main() { int a; a = 1 / 0; return 0; }";
        let prog = parse(src).unwrap();
        let mut io = StreamIo::lines(vec![]);
        assert!(Interp::new(&prog).run_main(&mut io).is_err());
    }

    #[test]
    fn builtin_with_too_few_args_errors_instead_of_panicking() {
        for src in [
            "int main() { getline(); return 0; }",
            "int main() { strcmp(\"a\"); return 0; }",
            "int main() { pow(2.0); return 0; }",
        ] {
            let prog = parse(src).unwrap();
            let mut io = StreamIo::lines(vec![]);
            let e = Interp::new(&prog).run_main(&mut io);
            assert!(
                matches!(e, Err(CcError::Interp(_))),
                "{src} should error cleanly"
            );
        }
    }

    #[test]
    fn scanf_float_values() {
        let src = r#"
int main() {
  char k[30]; double v; double s; s = 0.0;
  while (scanf("%s %lf", k, &v) == 2) { s += v; }
  printf("sum\t%.3f\n", s);
  return 0;
}
"#;
        let prog = parse(src).unwrap();
        let kvs = vec![
            (b"x".to_vec(), b"1.5".to_vec()),
            (b"y".to_vec(), b"2.25".to_vec()),
        ];
        let mut io = StreamIo::kvs(kvs);
        Interp::new(&prog).run_main(&mut io).unwrap();
        assert_eq!(io.emitted_kvs()[0].1, b"3.750".to_vec());
    }

    #[test]
    fn erf_matches_reference_points() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!((erf(3.0) - 0.99998).abs() < 1e-4);
    }

    #[test]
    fn stats_count_work() {
        let (_, stats) = run_lines(LISTING1, &["a b c", "d e"]);
        assert!(stats.ops > 20);
        assert!(stats.mem > 5);
        assert_eq!(stats.records_in, 2);
    }

    #[test]
    fn printf_parse_covers_corners() {
        // "%.3" truncated at end renders as a lone '%'.
        let segs = parse_printf("x%.3");
        assert!(matches!(&segs[..], [PSeg::Lit(s)] if s == "x%"));
        // "%%" is a literal percent, no argument consumed.
        let segs = parse_printf("a%%b");
        assert!(matches!(&segs[..], [PSeg::Lit(s)] if s == "a%b"));
        // Trailing lone '%' is literal.
        let segs = parse_printf("ab%");
        assert!(matches!(&segs[..], [PSeg::Lit(s)] if s == "ab%"));
    }
}
