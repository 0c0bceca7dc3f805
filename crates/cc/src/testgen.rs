//! Random well-typed program generator for the C subset.
//!
//! Emits programs for the differential test harness
//! (`tests/differential_gen.rs`): every generated program is well-formed
//! under the interpreter's semantics, and the interpreter and the native
//! backend must agree on it — byte-identical stdout, identical
//! [`InterpStats`](crate::interp::InterpStats), identical error text.
//! The generator is deliberately dependency-free (its own splitmix64
//! RNG) so it can ship as a library module reused by tests, fuzzing,
//! and benches.
//!
//! # Generated grammar
//!
//! A case is a fixed **prelude** (a pool of scalars `i0..i3 t`,
//! doubles `d0 d1`, strings `s0[32] s1[32]`, a pointer `p0`, arrays
//! `a0[16]` and `m0[4][5]`, all deterministically initialized), two
//! fixed **helper functions** (one arithmetic, one recursive), and a
//! random sequence of independent **segments** drawn from:
//!
//! * integer arithmetic/compare/bitwise chains (division and remainder
//!   by guaranteed-nonzero denominators, except for deliberate
//!   error-parity cases),
//! * ternary / short-circuit logical combinations,
//! * `for` loops over `a0` with in-bounds indices (`(x % 16 + 16) % 16`),
//! * doubly-nested loops over the strided 2-D array `m0`,
//! * string builtins (`strcpy`/`strcmp`/`strfind`/`strlen`/`atoi`) over
//!   `s0`/`s1` and literals, pointer arithmetic through `p0`,
//! * SFU chains (`sqrt`/`exp`/`log`/`fabs`/`floor`/`ceil`/`erf`/`pow`),
//! * helper-function calls (including bounded recursion),
//! * `printf` emissions mixing `%d`/`%c`/`%s`/`%f`/`%e`/`%g` with
//!   random precisions, `%%`, and multi-conversion formats,
//! * input loops — `getline`+`getWord`/`getTok` over line records
//!   (mapper mode) or `scanf` over KV records (combiner mode),
//! * **provable-subscript sweeps** — counted loops over `a0` with
//!   non-unit strides and mirrored (`15 - i3`) indices that the value
//!   analysis (`lint::absint`) proves in-bounds, so the native
//!   backend's guard elision is exercised on every sweep case and the
//!   checked-elision mode can falsify a wrong proof,
//! * **provably-nonzero division ladders** — block-local denominators
//!   shaped like `(x & 7) + 1`, provable in `[1, 8]`, driving zero-test
//!   elision at division/remainder sites,
//! * **maybe-uninitialized locals** — block-scoped scalars read before
//!   any write on some (or all) paths; the interpreter defines them by
//!   default-value semantics so execution parity holds, while the
//!   analyzer's initialization domain (HD018) sees the uninit read.
//!
//! Each segment only reads/writes the pool, so **any subset of segments
//! is still a valid program** — shrinking a failing case is just
//! dropping segments (see [`GenCase::source_with`]).
//!
//! # Subset holes (documented, deliberately not generated)
//!
//! * `&scalar` references escaping their function activation or held
//!   across a loop-body redeclaration (the backends differ on slot
//!   reuse — see the `backend` module docs).
//! * Writes through a string-literal pointer held across evaluations
//!   (each evaluation allocates a fresh buffer in both backends, but
//!   aliasing patterns are not part of the spec).
//! * Ill-formed programs beyond the deliberate error-parity cases: the
//!   native backend lowers unknown names to traps that fire only when
//!   reached, so *unexecuted* ill-formed code is fine, but the
//!   generator keeps all emitted code executable.
//! * `calloc`/`malloc` with huge sizes (allocation is real in both
//!   backends; negative and overflowing sizes are an error in both,
//!   pinned in `tests/edge_cases.rs`).

use crate::interp::StreamIo;

/// Deterministic splitmix64 RNG (no external deps; stable across
/// platforms so CI seeds reproduce everywhere).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded RNG.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform `i64` in `lo..=hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.below((hi - lo + 1) as u64) as i64)
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Pick one element of a slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Input shape for a generated case.
#[derive(Debug, Clone)]
pub enum GenInput {
    /// Line records for `getline`-based segments.
    Lines(Vec<Vec<u8>>),
    /// KV records for `scanf`-based segments.
    Kvs(Vec<(Vec<u8>, Vec<u8>)>),
}

/// One generated differential test case.
#[derive(Debug, Clone)]
pub struct GenCase {
    /// The seed this case was generated from.
    pub seed: u64,
    /// Independent statement blocks composing `main`'s body.
    pub segments: Vec<String>,
    /// The input records fed to the program.
    pub input: GenInput,
}

/// Fixed helper functions available to every case.
const HELPERS: &str = r#"int mix2(int x, int y) { return x * 3 + y - (x / 7) * 2; }
int recsum(int n) { if (n <= 0) return 0; return n + recsum(n - 1); }
double dmix(double a, double b) { return a * 0.5 + b + 1.25; }
"#;

/// Fixed variable-pool prelude. Arrays start zeroed (spec'd by the
/// declaration semantics); scalars are seeded by the generator with
/// per-case literals appended right after this block.
const PRELUDE: &str = r#"  int i0, i1, i2, i3, t;
  double d0, d1;
  char s0[32], s1[32];
  char *p0;
  int a0[16];
  double m0[4][5];
"#;

impl GenCase {
    /// Render the full program source.
    pub fn source(&self) -> String {
        let mask = vec![true; self.segments.len()];
        self.source_with(&mask)
    }

    /// Render the program with only the masked-in segments — the shrink
    /// operation. Any mask yields a valid program because segments are
    /// independent.
    pub fn source_with(&self, mask: &[bool]) -> String {
        let mut src = String::new();
        src.push_str(HELPERS);
        src.push_str("int main() {\n");
        src.push_str(PRELUDE);
        for (seg, keep) in self.segments.iter().zip(mask) {
            if *keep {
                src.push_str(seg);
            }
        }
        src.push_str("  return 0;\n}\n");
        src
    }

    /// Build the input stream for one run.
    pub fn make_io(&self) -> StreamIo {
        match &self.input {
            GenInput::Lines(ls) => StreamIo::lines(ls.clone()),
            GenInput::Kvs(kvs) => StreamIo::kvs(kvs.clone()),
        }
    }

    /// Human-readable dump of the input records (for counterexample
    /// artifacts).
    pub fn input_dump(&self) -> String {
        match &self.input {
            GenInput::Lines(ls) => ls
                .iter()
                .map(|l| format!("line: {:?}\n", String::from_utf8_lossy(l)))
                .collect(),
            GenInput::Kvs(kvs) => kvs
                .iter()
                .map(|(k, v)| {
                    format!(
                        "kv: {:?} -> {:?}\n",
                        String::from_utf8_lossy(k),
                        String::from_utf8_lossy(v)
                    )
                })
                .collect(),
        }
    }
}

const WORDS: &[&str] = &[
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "alpha", "beta", "gamma",
    "delta", "x1", "y2", "z_3", "don't",
];

/// Generate one case from a seed. Deterministic: equal seeds yield
/// equal cases on every platform.
pub fn generate(seed: u64) -> GenCase {
    let mut rng = TestRng::new(seed);
    // Mode: 0 = pure compute, 1 = mapper (line input), 2 = combiner
    // (KV input).
    let mode = rng.below(3);
    let mut segments = Vec::new();
    // Deterministic scalar seeding so every later segment has defined
    // values to chew on.
    segments.push(format!(
        "  i0 = {}; i1 = {}; i2 = {}; i3 = {}; t = 0;\n  d0 = {}.{}; d1 = {}.{};\n  strcpy(s0, \"{}\"); strcpy(s1, \"{}\"); p0 = s0;\n",
        rng.range_i64(-50, 50),
        rng.range_i64(1, 40),
        rng.range_i64(-9, 9),
        rng.range_i64(0, 15),
        rng.range_i64(-20, 20),
        rng.below(100),
        rng.range_i64(0, 12),
        rng.below(100),
        rng.pick(WORDS),
        rng.pick(WORDS),
    ));
    let nseg = 3 + rng.below(6) as usize;
    for _ in 0..nseg {
        segments.push(gen_segment(&mut rng, mode));
    }
    // Emit a digest of the whole pool so silent state divergence always
    // becomes visible output divergence.
    segments.push(
        "  for (i3 = 0; i3 < 16; i3++) t = t * 31 + a0[i3];\n  \
           printf(\"digest\\t%d\\t%.6f\\t%.6f\\t%s\\t%s\\t%d\\n\", t, d0, d1, s0, s1, i0 + i1 * 1000 + i2);\n"
            .to_string(),
    );
    let input = match mode {
        1 => GenInput::Lines(gen_lines(&mut rng)),
        2 => GenInput::Kvs(gen_kvs(&mut rng)),
        _ => GenInput::Lines(Vec::new()),
    };
    GenCase {
        seed,
        segments,
        input,
    }
}

fn gen_lines(rng: &mut TestRng) -> Vec<Vec<u8>> {
    let n = rng.below(6) as usize;
    (0..n)
        .map(|_| match rng.below(5) {
            0 => Vec::new(),          // empty record
            1 => b"   \t  ".to_vec(), // whitespace only
            _ => {
                let words = 1 + rng.below(5);
                let mut line = String::new();
                for w in 0..words {
                    if w > 0 {
                        line.push_str(if rng.chance(1, 4) { "  " } else { " " });
                    }
                    line.push_str(rng.pick(WORDS).to_owned());
                }
                line.into_bytes()
            }
        })
        .collect()
}

fn gen_kvs(rng: &mut TestRng) -> Vec<(Vec<u8>, Vec<u8>)> {
    let n = rng.below(7) as usize;
    (0..n)
        .map(|_| {
            let k = rng.pick(WORDS).as_bytes().to_vec();
            let v = match rng.below(4) {
                0 => rng.range_i64(-999, 999).to_string(),
                1 => format!("{}.{}", rng.range_i64(-9, 9), rng.below(100)),
                2 => String::new(),               // empty value: parses to 0/0.0
                _ => rng.pick(WORDS).to_string(), // non-numeric: parses to 0
            };
            (k, v.into_bytes())
        })
        .collect()
}

fn gen_segment(rng: &mut TestRng, mode: u64) -> String {
    let ints = ["i0", "i1", "i2", "t"];
    let dbls = ["d0", "d1"];
    match rng.below(if mode == 0 { 11 } else { 12 }) {
        0 => {
            // Integer arithmetic chain; denominators forced nonzero,
            // except a rare deliberate error-parity division.
            let a = *rng.pick(&ints);
            let b = *rng.pick(&ints);
            let op = *rng.pick(&["+", "-", "*", "&", "|", "^"]);
            let cmp = *rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
            let mut s = format!(
                "  t = ({a} {op} {lit}) + ({b} {cmp} {lit2});\n",
                lit = rng.range_i64(-40, 40),
                lit2 = rng.range_i64(-10, 10),
            );
            if rng.chance(1, 24) {
                // Error-parity case: both backends must fault with the
                // same message at the same point.
                s.push_str(&format!("  t = t {} (i1 - i1);\n", rng.pick(&["/", "%"])));
            } else {
                s.push_str(&format!(
                    "  i0 = i0 {} ((i1 % 7) + 8) + t % ({} + (i3 & 3));\n",
                    rng.pick(&["/", "%"]),
                    rng.range_i64(5, 30),
                ));
            }
            s
        }
        1 => {
            // Ternary + short-circuit logic + pre/post inc-dec.
            let a = *rng.pick(&ints);
            format!(
                "  t = ({a} > {l1} && i1 != {l2}) ? (i2++ + {a}) : (--i1 - {l3});\n  i2 = (i0 < {l4} || !t) + (t ? 1 : 2);\n",
                l1 = rng.range_i64(-20, 20),
                l2 = rng.range_i64(-5, 5),
                l3 = rng.range_i64(0, 9),
                l4 = rng.range_i64(-30, 30),
            )
        }
        2 => {
            // Array sweep with in-bounds index arithmetic.
            let mul = rng.range_i64(1, 9);
            let idx = "(((i0 + i3) % 16 + 16) % 16)";
            format!(
                "  for (i3 = 0; i3 < 16; i3++) {{ a0[i3] = a0[i3] + i3 * {mul} + (i1 & 7); }}\n  a0[{idx}] = a0[{idx}] + t;\n  t += a0[((i2 % 16 + 16) % 16)];\n"
            )
        }
        3 => {
            // Strided 2-D sweep.
            let base = rng.range_i64(0, 4);
            format!(
                "  for (i3 = 0; i3 < 4; i3++) {{\n    int j;\n    for (j = 0; j < 5; j++) m0[i3][j] = m0[i3][j] + i3 * 5 + j + 0.{base};\n  }}\n  d0 += m0[(i1 % 4 + 4) % 4][(i2 % 5 + 5) % 5];\n"
            )
        }
        4 => {
            // String builtins + pointer arithmetic.
            let w = rng.pick(WORDS);
            let off = rng.below(4);
            format!(
                "  strcpy(s1, \"{w}\");\n  t += strcmp(s0, s1) + strfind(s0, \"{n}\") + strlen(s1);\n  p0 = s0 + {off};\n  if (*p0) {{ *p0 = 'A' + (i1 & 15); }}\n  i2 += atoi(\"{num}\");\n",
                n = &w[..1],
                num = rng.range_i64(-99, 99),
            )
        }
        5 => {
            // SFU chain.
            let f1 = *rng.pick(&["sqrt", "exp", "log", "fabs", "floor", "ceil", "erf"]);
            let d = *rng.pick(&dbls);
            format!(
                "  d0 = {f1}(fabs({d}) + {l}.5) + pow(fabs({d}) + 2.0, 0.{p});\n  d1 = d1 * 0.5 + d0 - (int) d0;\n",
                l = rng.range_i64(0, 9),
                p = 1 + rng.below(9),
            )
        }
        6 => {
            // Helper calls incl. bounded recursion.
            format!(
                "  t = mix2(i0 & 1023, i1) + recsum({n});\n  d1 = dmix(d0, {m}.25);\n",
                n = rng.below(12),
                m = rng.range_i64(-4, 4),
            )
        }
        7 => {
            // printf formats.
            match rng.below(4) {
                0 => format!(
                    "  printf(\"k{}\\t%d %c %s\\n\", t, 'a' + (i1 & 15), s0);\n",
                    rng.below(10)
                ),
                1 => format!(
                    "  printf(\"f\\t%.{p}f|%.{q}e|%g\\n\", d0, d1, d0 + d1);\n",
                    p = rng.below(9),
                    q = rng.below(5),
                ),
                2 => "  printf(\"pct\\t100%% done %d\\n\", i2);\n".to_string(),
                _ => format!(
                    "  printf(\"m\\t%d\\t%d\\n\", a0[{}], mix2(i2, 3));\n",
                    rng.below(16)
                ),
            }
        }
        8 => {
            // Provable-subscript sweep: strided and mirrored indices a
            // counted loop keeps inside [0, 16); the value analysis
            // proves every site, so elision (and checked-elision) run
            // on these stores.
            let add = rng.range_i64(1, 9);
            let half = *rng.pick(&["7", "8"]);
            format!(
                "  for (i3 = 0; i3 < {half}; i3++) {{\n    a0[i3 * 2] = a0[i3 * 2] + {add};\n    a0[15 - i3] = a0[15 - i3] ^ (i1 & 31);\n  }}\n"
            )
        }
        9 => {
            // Provably-nonzero division ladder: the denominator is
            // masked+offset into [1, 8] (or [2, 5]), so the analyzer
            // proves the zero test dead and the backend elides it.
            let a = *rng.pick(&ints);
            let b = *rng.pick(&ints);
            format!(
                "  {{\n    int den;\n    den = ({a} & 7) + 1;\n    t = ({b} * 3) / den + ({b} % den);\n    i1 = i1 + t % (({a} & 3) + 2);\n  }}\n",
            )
        }
        10 => {
            // Maybe-uninitialized block-local: read before any write on
            // some or every path. Declaration semantics define the
            // value (zero), so both backends agree; the initialization
            // domain sees the uninit read (HD018).
            if rng.chance(1, 2) {
                format!(
                    "  {{\n    int u;\n    t = t + u + {l};\n    u = i1;\n    t = t + u;\n  }}\n",
                    l = rng.range_i64(-9, 9),
                )
            } else {
                format!(
                    "  {{\n    int u;\n    if (i0 > {l}) {{ u = i2; }}\n    t = t + u;\n  }}\n",
                    l = rng.range_i64(-20, 20),
                )
            }
        }
        _ => {
            // Input loop, shaped by mode.
            if mode == 1 {
                let tok = *rng.pick(&["getWord", "getTok"]);
                let cap = 8 + rng.below(24);
                format!(
                    "  {{\n    char *line; char tokbuf[32]; int rd, lp, off;\n    line = (char*) malloc(64);\n    while ((rd = getline(&line, &i3, stdin)) != -1) {{\n      off = 0;\n      while ((lp = {tok}(line, off, tokbuf, rd, {cap})) != -1) {{\n        printf(\"tok\\t%s\\t%d\\n\", tokbuf, rd);\n        off += lp;\n        t++;\n      }}\n    }}\n  }}\n"
                )
            } else {
                let fmt = *rng.pick(&["%s %d", "%s %lf", "%s %s"]);
                let (dty, darg, pconv) = if fmt == "%s %d" {
                    ("int", "&v", "%d")
                } else if fmt == "%s %lf" {
                    ("double", "&v", "%.4f")
                } else {
                    ("char", "v", "%s")
                };
                let decl = if dty == "char" {
                    "char v[32];".to_string()
                } else {
                    format!("{dty} v;")
                };
                format!(
                    "  {{\n    char kbuf[32]; {decl} int rd;\n    while ((rd = scanf(\"{fmt}\", kbuf, {darg})) == 2) {{\n      printf(\"kv\\t%s\\t{pconv}\\n\", kbuf, v);\n      t++;\n    }}\n  }}\n"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn rng_is_deterministic_and_spreads() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
        let mut c = TestRng::new(43);
        assert_ne!(c.next_u64(), xs[0]);
    }

    #[test]
    fn generated_programs_parse() {
        for seed in 0..64 {
            let case = generate(seed);
            let src = case.source();
            parse(&src).unwrap_or_else(|e| panic!("seed {seed} does not parse: {e}\n{src}"));
        }
    }

    #[test]
    fn any_segment_subset_parses() {
        let case = generate(7);
        let n = case.segments.len();
        for drop in 0..n {
            let mask: Vec<bool> = (0..n).map(|i| i != drop).collect();
            let src = case.source_with(&mask);
            parse(&src).unwrap_or_else(|e| panic!("subset without segment {drop} broke: {e}"));
        }
    }

    #[test]
    fn same_seed_same_case() {
        let a = generate(123);
        let b = generate(123);
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.source(), b.source());
    }
}
