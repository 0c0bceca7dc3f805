//! Step-budget boundary: the native engine charges steps a basic block
//! at a time, the interpreter a node at a time. They must still agree at
//! **every** budget — same `Ok`/`Err`, same error text (so a step limit
//! that lands next to a `1 / 0` or an out-of-bounds subscript wins or
//! loses exactly as in the interpreter), and on `Ok` the same
//! `InterpStats` and stdout.

use hetero_cc::backend::{make_backend, BackendKind};
use hetero_cc::interp::{InterpStats, StreamIo};
use hetero_cc::parse::parse;

const STEP_LIMIT: &str = "interpreter error: step limit exceeded (infinite loop?)";

type Outcome = Result<(InterpStats, Vec<u8>), String>;

fn run(kind: BackendKind, src: &str, io: &dyn Fn() -> StreamIo, max_steps: u64) -> Outcome {
    let prog = parse(src).unwrap();
    let backend = make_backend(kind, &prog);
    let mut io = io();
    match backend.run_capped(&mut io, max_steps) {
        Ok(stats) => Ok((stats, io.stdout)),
        Err(e) => Err(e.to_string()),
    }
}

/// The number of steps the program takes: the smallest budget at which
/// the interpreter stops reporting the step limit.
fn steps_taken(name: &str, src: &str, io: &dyn Fn() -> StreamIo) -> u64 {
    let limited =
        |n: u64| matches!(run(BackendKind::Interp, src, io, n), Err(e) if e == STEP_LIMIT);
    let mut hi = 1u64;
    while limited(hi) {
        hi *= 2;
        assert!(hi < 1 << 32, "{name}: does not terminate");
    }
    let mut lo = 0u64;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if limited(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Sweep every budget from 0 to two past the number of steps the
/// program takes. Returns that number.
fn sweep(name: &str, src: &str, io: &dyn Fn() -> StreamIo) -> u64 {
    let total = steps_taken(name, src, io);
    let mut n = 0u64;
    while n <= total + 2 {
        let ri = run(BackendKind::Interp, src, io, n);
        let rn = run(BackendKind::Native, src, io, n);
        assert_eq!(ri, rn, "`{name}` diverged at max_steps = {n} of {total}");
        // Every budget up to 20k, then a stride that still lands on
        // both sides of the end.
        n += if n < 20_000 || n + 40 > total { 1 } else { 37 };
    }
    total
}

fn no_input() -> StreamIo {
    StreamIo::lines(vec![])
}

fn lines(ls: &'static [&'static str]) -> impl Fn() -> StreamIo {
    move || StreamIo::lines(ls.iter().map(|l| l.as_bytes().to_vec()).collect())
}

const WC_MAPPER: &str = include_str!("fixtures/wc_mapper.c");
const INT_SUM_COMBINER: &str = include_str!("fixtures/int_sum_combiner.c");

#[test]
fn wordcount_mapper_agrees_at_every_budget() {
    let total = sweep(
        "wc_mapper",
        WC_MAPPER,
        &lines(&["the quick brown fox", "", "  spaced   out  ", "tail"]),
    );
    assert!(total > 100, "{total}");
}

#[test]
fn int_sum_combiner_agrees_at_every_budget() {
    let io = || {
        StreamIo::kvs(
            [("a", "1"), ("a", "2"), ("b", "5"), ("c", "1"), ("c", "1")]
                .iter()
                .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                .collect(),
        )
    };
    sweep("int_sum_combiner", INT_SUM_COMBINER, &io);
}

#[test]
fn recursion_agrees_at_every_budget() {
    let src = r#"
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() {
  int i;
  for (i = 0; i < 9; i++) {
    if (i == 3) continue;
    if (i == 7) break;
    printf("f%d\t%d\n", i, fib(i));
  }
  return 0;
}
"#;
    sweep("fib", src, &no_input);
}

#[test]
fn two_dim_arrays_and_math_agree_at_every_budget() {
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
    sweep("two_dim", src, &no_input);
}

#[test]
fn division_fault_races_the_step_limit_identically() {
    // The run ends in "integer division by zero" on the fifth
    // iteration; at budgets just short of it the step limit must win,
    // node for node.
    let src = r#"
int main() {
  int a[4]; int d; int s; s = 0;
  for (d = 4; d > 0 - 2; d--) {
    a[d & 3] = s;
    s += 100 / d + a[(d + 1) & 3];
  }
  printf("s\t%d\n", s);
  return 0;
}
"#;
    let total = sweep("div_fault", src, &no_input);
    let end = run(BackendKind::Native, src, &no_input, total);
    assert_eq!(
        end.unwrap_err(),
        "interpreter error: integer division by zero"
    );
    // And an out-of-bounds store in place of the division.
    let src = r#"
int main() {
  int a[4]; int i;
  for (i = 0; i < 9; i++) a[i] = i * (i + 1);
  return 0;
}
"#;
    let total = sweep("oob_fault", src, &no_input);
    let end = run(BackendKind::Native, src, &no_input, total);
    assert!(end.unwrap_err().contains("out of bounds"));
}

#[test]
fn short_circuit_side_effects_agree_at_every_budget() {
    let src = r#"
int bump(int *p) { *p = *p + 1; return *p; }
int main() {
  int n, k, i, r; n = 0; k = 0;
  for (i = 0; i < 6; i++) {
    r = (i % 2 == 0 && bump(&n) > 1) || (i > 3 && (k = k + i)) ? n + k : k++ + n;
    if (!(i < 2 || n == k) && i != 5) r = r - (n > k ? n : k);
    printf("%d\t%d\t%d\t%d\n", i, r, n, k);
  }
  return 0;
}
"#;
    sweep("short_circuit", src, &no_input);
}

#[test]
fn lazy_builtin_arguments_agree_at_every_budget() {
    // printf evaluates one argument per conversion and faults on the
    // bad conversion before the next argument; scanf evaluates no
    // destination at end of input; getline consumes the record before
    // evaluating its target; indexed `op=` and `++` evaluate the index
    // a second time on the store.
    let cases: &[(&str, &str)] = &[
        (
            "printf_lazy",
            r#"int f(int x) { printf("f%d\n", x); return x; }
               int main() { printf("%d %q %d\n", f(1), f(2), f(3)); return 0; }"#,
        ),
        (
            "printf_surplus",
            r#"int f(int x) { printf("f%d\n", x); return x; }
               int main() { printf("%d\n", f(1), f(2)); printf("%d %d\n", f(4)); return 0; }"#,
        ),
        (
            "index_twice",
            r#"int main() { int a[4]; int i; i = 0; a[0] = 5; a[1] = 7; a[i]++; a[i++] += 2; a[i] *= a[i - 1];
               printf("%d\t%d\t%d\n", a[0], a[1], i); return 0; }"#,
        ),
        (
            "reassigned_2d",
            r#"int main() { int m[2][3]; m[1][2] = 4; m = 5; m[1][2] = 1; return 0; }"#,
        ),
    ];
    for (name, src) in cases {
        sweep(name, src, &no_input);
    }
    sweep(
        "scanf_eof",
        r#"int main() { char k[8]; int v; while (scanf("%s %d", k, &v) != -1) printf("%s\n", k); return 0; }"#,
        &|| StreamIo::kvs(vec![(b"a".to_vec(), b"1".to_vec())]),
    );
    sweep(
        "getline_target",
        r#"int main() { char *l; int n; n = 0; while (getline(&l, 0, 0) != -1) n++; printf("%d\n", n); return 0; }"#,
        &lines(&["x", "yy"]),
    );
}

#[test]
fn tick_only_code_before_a_join_agrees_at_every_budget() {
    // Steps with no instruction of their own (`;`, `{}`, `n;`,
    // `free(p);`, the entry of a cond-less `for`) between a block end
    // and a join belong to the path that runs them, not to the join.
    for then in ["free(p);", ";", "{}", "n;", "; else ;"] {
        for c in 0..2 {
            let src = format!(
                r#"int main() {{ char *p; int c, n; c = {c}; n = 0; p = malloc(4);
                   if (c) {then}
                   n = n + 1; printf("%d\n", n); return 0; }}"#
            );
            sweep(&format!("if (c) {then} with c = {c}"), &src, &no_input);
        }
    }
    sweep(
        "condless_for_after_call",
        r#"int f(int x) { return x + 1; }
           int main() { int i; i = 0; f(1); for (;;) { i++; if (i > 3) break; } printf("%d\n", i); return 0; }"#,
        &no_input,
    );
}

#[test]
fn generated_programs_agree_at_sampled_budgets() {
    // The generative corpus under a tight budget: for each case, every
    // budget in the first 48 steps and the last 48, plus a spread in
    // between (the full sweep above is quadratic in program length).
    use hetero_cc::testgen::generate;
    for i in 0..48u64 {
        let case = generate(20150615 + i);
        let src = case.source();
        let io = || case.make_io();
        let at = |kind, n| run(kind, &src, &io, n);
        let total = steps_taken("generated", &src, &io);
        let budgets = (0..48)
            .chain((1..48).map(|k| k * total / 48))
            .chain(total.saturating_sub(48)..=total + 1);
        for n in budgets {
            assert_eq!(
                at(BackendKind::Interp, n),
                at(BackendKind::Native, n),
                "seed {} diverged at max_steps = {n}",
                case.seed
            );
        }
    }
}
