//! Edge-case corpus for the C-subset semantics, with the interpreter as
//! executable spec: every case runs on the interpreter and on the
//! bytecode engine. Both must agree exactly — byte-identical stdout +
//! identical `InterpStats` on success, identical error text on failure
//! — and neither may panic (a panic fails the test harness).

use hetero_cc::backend::{make_backend, BackendKind, KernelBackend};
use hetero_cc::interp::{InterpStats, StreamIo};
use hetero_cc::parse::parse;

enum In {
    None,
    Lines(&'static [&'static str]),
    Kvs(&'static [(&'static str, &'static str)]),
}

fn make_io(input: &In) -> StreamIo {
    match input {
        In::None => StreamIo::lines(vec![]),
        In::Lines(ls) => StreamIo::lines(ls.iter().map(|l| l.as_bytes().to_vec()).collect()),
        In::Kvs(kvs) => StreamIo::kvs(
            kvs.iter()
                .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                .collect(),
        ),
    }
}

fn run(kind: BackendKind, src: &str, input: &In) -> Result<(Vec<u8>, InterpStats), String> {
    let prog = parse(src).unwrap_or_else(|e| panic!("corpus case does not parse: {e}\n{src}"));
    let backend = make_backend(kind, &prog);
    let mut io = make_io(input);
    match backend.run_capped(&mut io, 1_000_000) {
        Ok(stats) => Ok((io.stdout, stats)),
        Err(e) => Err(e.to_string()),
    }
}

/// Assert exact agreement of the bytecode engine with the interpreter;
/// returns the interpreter's outcome for extra checks.
fn agree(name: &str, src: &str, input: &In) -> Result<(Vec<u8>, InterpStats), String> {
    let ri = run(BackendKind::Interp, src, input);
    let rn = run(BackendKind::Native, src, input);
    assert_eq!(ri, rn, "native diverged on corpus case `{name}`:\n{src}");
    ri
}

#[test]
fn printf_precision_and_format_corners() {
    let cases: &[(&str, &str)] = &[
        (
            "prec_zero",
            r#"int main() { printf("x\t%.0f\n", 2.5); return 0; }"#,
        ),
        (
            "prec_wide",
            r#"int main() { printf("x\t%.10f\n", 1.0 / 3.0); return 0; }"#,
        ),
        (
            "prec_e",
            r#"int main() { printf("x\t%.3e|%.0e\n", 12345.678, 0.00042); return 0; }"#,
        ),
        (
            "g_default",
            r#"int main() { printf("x\t%g|%g|%g\n", 100000.0, 0.5, 0.0); return 0; }"#,
        ),
        (
            "percent_literal",
            r#"int main() { printf("100%%\t%d%%%d\n", 1, 2); return 0; }"#,
        ),
        // A conversion truncated by end-of-format renders a lone '%'
        // and stops consuming — nothing after it, no argument taken.
        (
            "truncated_conv",
            r#"int main() { printf("x%.3"); return 0; }"#,
        ),
        (
            "char_conv",
            r#"int main() { printf("c\t%c%c\n", 65, 10); return 0; }"#,
        ),
        (
            "length_mods",
            r#"int main() { printf("x\t%ld|%lf\n", 7, 2.5); return 0; }"#,
        ),
        (
            "return_value",
            r#"int main() { int n; n = printf("ab\n"); printf("n\t%d\n", n); return 0; }"#,
        ),
        (
            "no_newline_no_line",
            r#"int main() { printf("partial"); printf("\t%d", 1); return 0; }"#,
        ),
        (
            "int_conv_of_float",
            r#"int main() { printf("x\t%d\n", 7.9); return 0; }"#,
        ),
        (
            "f_conv_of_int",
            r#"int main() { printf("x\t%f\n", 3); return 0; }"#,
        ),
    ];
    for (name, src) in cases {
        let r = agree(name, src, &In::None);
        assert!(r.is_ok(), "case `{name}` should succeed: {r:?}");
    }
    // Error corners: same message from both backends.
    for (name, src) in [
        (
            "unsupported_conv",
            r#"int main() { printf("x%q\n", 1); return 0; }"#,
        ),
        (
            "width_unsupported",
            r#"int main() { printf("x%5d\n", 1); return 0; }"#,
        ),
        (
            "too_few_args",
            r#"int main() { printf("%d %d\n", 1); return 0; }"#,
        ),
        (
            "nonliteral_fmt",
            r#"int main() { char s[4]; printf(s); return 0; }"#,
        ),
        (
            "s_of_int",
            r#"int main() { printf("%s\n", 42); return 0; }"#,
        ),
        // `%` before a non-conversion byte (here `\n`) still scans as a
        // conversion: it consumes an argument slot, then faults.
        (
            "percent_newline",
            r#"int main() { printf("x\t%d%\n", 3); return 0; }"#,
        ),
    ] {
        let r = agree(name, src, &In::None);
        assert!(r.is_err(), "case `{name}` should fail: {r:?}");
    }
}

#[test]
fn lines_out_counts_embedded_newlines() {
    let src = r#"int main() { printf("a\nb\nc\n"); printf("no newline"); return 0; }"#;
    let (out, stats) = agree("multi_newline", src, &In::None).unwrap();
    assert_eq!(out, b"a\nb\nc\nno newline");
    assert_eq!(stats.lines_out, 3);
}

#[test]
fn scanf_partial_matches_and_conversions() {
    let kvs = In::Kvs(&[("alpha", "12"), ("beta", "x9"), ("gamma", ""), ("d", "-3")]);
    let cases: &[(&str, &str)] = &[
        // Fewer destinations than conversions: only args-1 convs run.
        (
            "fewer_dsts",
            r#"int main() { char k[16]; while (scanf("%s %d", k) != -1) printf("k\t%s\n", k); return 0; }"#,
        ),
        // Non-numeric and empty values parse to 0.
        (
            "lenient_ints",
            r#"int main() { char k[16]; int v; while (scanf("%s %d", k, &v) == 2) printf("%s\t%d\n", k, v); return 0; }"#,
        ),
        (
            "lenient_floats",
            r#"int main() { char k[16]; double v; while (scanf("%s %lf", k, &v) == 2) printf("%s\t%.2f\n", k, v); return 0; }"#,
        ),
        // %s into a tiny buffer truncates with NUL.
        (
            "tiny_buffer",
            r#"int main() { char k[3]; char v[3]; while (scanf("%s %s", k, v) == 2) printf("%s\t%s\n", k, v); return 0; }"#,
        ),
        // Return value is the match count; -1 only at end of input.
        (
            "match_count",
            r#"int main() { char k[16]; int v, n; while ((n = scanf("%s %d", k, &v)) != -1) printf("n\t%d\n", n); return 0; }"#,
        ),
    ];
    for (name, src) in cases {
        let r = agree(name, src, &kvs);
        assert!(r.is_ok(), "case `{name}` should succeed: {r:?}");
    }
    for (name, src, input) in [
        (
            "unsupported_conv",
            r#"int main() { char k[16]; int v; scanf("%s %x", k, &v); return 0; }"#,
            In::Kvs(&[("a", "1")]),
        ),
        (
            "scanf_on_lines",
            r#"int main() { char k[16]; int v; scanf("%s %d", k, &v); return 0; }"#,
            In::Lines(&["a 1"]),
        ),
        (
            "getline_on_kvs",
            r#"int main() { char *line; getline(&line, 0, 0); return 0; }"#,
            In::Kvs(&[("a", "1")]),
        ),
    ] {
        let r = agree(name, src, &input);
        assert!(r.is_err(), "case `{name}` should fail: {r:?}");
    }
}

#[test]
fn empty_and_whitespace_records() {
    let src = r#"
int main() {
  char *line; char w[8]; int rd, off, lp, n; n = 0;
  line = (char*) malloc(8);
  while ((rd = getline(&line, 0, 0)) != -1) {
    n++;
    off = 0;
    while ((lp = getWord(line, off, w, rd, 8)) != -1) { printf("w\t%s\n", w); off += lp; }
  }
  printf("records\t%d\n", n);
  return 0;
}
"#;
    let input = In::Lines(&["", "   ", "\t\t", "a", "  b  c  ", ""]);
    let (out, stats) = agree("empty_records", src, &input).unwrap();
    assert_eq!(stats.records_in, 6);
    let text = String::from_utf8_lossy(&out);
    assert!(text.contains("records\t6"), "{text}");
    assert_eq!(text.matches("w\t").count(), 3, "{text}");
}

#[test]
fn getline_after_exhaustion_stays_negative() {
    let src = r#"
int main() {
  char *line; int a, b, c;
  a = getline(&line, 0, 0);
  b = getline(&line, 0, 0);
  c = getline(&line, 0, 0);
  printf("r\t%d\t%d\t%d\n", a, b, c);
  return 0;
}
"#;
    let (out, stats) = agree("exhaustion", src, &In::Lines(&["only"])).unwrap();
    assert_eq!(String::from_utf8_lossy(&out), "r\t5\t-1\t-1\n");
    assert_eq!(stats.records_in, 1);
}

#[test]
fn token_scanning_corners() {
    let cases: &[(&str, &str, In)] = &[
        // maxLen 1 truncates every token to the empty string (room for
        // NUL only).
        (
            "maxlen_one",
            r#"int main() { char *l; char w[8]; int rd, off, lp; rd = getline(&l, 0, 0); off = 0; while ((lp = getTok(l, off, w, rd, 1)) != -1) { printf("t\t[%s]\t%d\n", w, lp); off += lp; } return 0; }"#,
            In::Lines(&["aa bb"]),
        ),
        // getWord separators: punctuation splits, apostrophes don't.
        (
            "word_separators",
            r#"int main() { char *l; char w[16]; int rd, off, lp; rd = getline(&l, 0, 0); off = 0; while ((lp = getWord(l, off, w, rd, 16)) != -1) { printf("w\t%s\n", w); off += lp; } return 0; }"#,
            In::Lines(&["don't,stop;me now-ok"]),
        ),
        // getTok keeps punctuation, splits on tabs/spaces only.
        (
            "tok_separators",
            r#"int main() { char *l; char w[16]; int rd, off, lp; rd = getline(&l, 0, 0); off = 0; while ((lp = getTok(l, off, w, rd, 16)) != -1) { printf("t\t%s\n", w); off += lp; } return 0; }"#,
            In::Lines(&["a,b\tc;d e"]),
        ),
        // Offset beyond the line yields -1 immediately.
        (
            "offset_past_end",
            r#"int main() { char *l; char w[8]; int rd; rd = getline(&l, 0, 0); printf("r\t%d\n", getWord(l, 99, w, rd, 8)); return 0; }"#,
            In::Lines(&["abc"]),
        ),
    ];
    for (name, src, input) in cases {
        let r = agree(name, src, input);
        assert!(r.is_ok(), "case `{name}` should succeed: {r:?}");
    }
}

#[test]
fn a_max_len_below_one_keeps_no_byte_of_the_token() {
    // The token is still found and consumed; the destination gets only
    // its NUL.
    for max in ["-1", "0", "-9223372036854775807 - 1"] {
        for scan in ["getWord", "getTok"] {
            let src = format!(
                r#"int main() {{ char *l; char w[8]; int rd, n; w[0] = 'x'; rd = getline(&l, 0, 0); n = {scan}(l, 0, w, rd, {max}); printf("w\t[%s]\t%d\n", w, n); return 0; }}"#
            );
            let (out, _) = agree(&format!("{scan} max {max}"), &src, &In::Lines(&["  cd"]))
                .unwrap_or_else(|e| panic!("{scan} max {max}: {e}"));
            assert_eq!(out, b"w\t[]\t4\n", "{scan} max {max}");
        }
    }
}

#[test]
fn a_precision_printf_cannot_render_faults_when_reached() {
    for (name, fmt, expect) in [
        ("huge", "%.4000000000f", "4000000000"),
        (
            "saturated",
            "%.99999999999999999999999e",
            "18446744073709551615",
        ),
        ("past_f", "%.65536f", "65536"),
        ("past_e", "%.65535e", "65535"),
    ] {
        let src = format!(r#"int main() {{ printf("x\t{fmt}\n", 1.5); return 0; }}"#);
        let r = agree(name, &src, &In::None);
        assert_eq!(
            r.unwrap_err(),
            format!("interpreter error: printf: precision {expect} out of range"),
            "case `{name}`"
        );
        // Unreached, it is no fault at all.
        let src = format!(
            r#"int main() {{ if (0) printf("x\t{fmt}\n", 1.5); printf("ok\t1\n"); return 0; }}"#
        );
        let (out, _) = agree(&format!("{name} behind if (0)"), &src, &In::None).unwrap();
        assert_eq!(out, b"ok\t1\n", "case `{name}` behind if (0)");
    }
    // The widest precisions that render, and `%g`, which takes none.
    for (fmt, digits) in [("%.65535f", 65_535), ("%.65534e", 65_534), ("%.70000g", 1)] {
        let src = format!(r#"int main() {{ printf("{fmt}", 1.5); return 0; }}"#);
        let (out, _) = agree(fmt, &src, &In::None).unwrap();
        let fraction = out.split(|&b| b == b'.').nth(1).unwrap_or_default();
        let got = fraction.iter().take_while(|b| b.is_ascii_digit()).count();
        assert_eq!(got, digits, "{fmt}");
    }
}

#[test]
fn integer_wrap_and_division_edges() {
    // i64 wrap-around must be identical (wrapping semantics, no panic
    // in either backend even in debug builds).
    let src = r#"
int main() {
  int big, i;
  big = 9223372036854775807;
  printf("inc\t%d\n", big + 1);
  printf("mul\t%d\n", big * 2);
  big = -9223372036854775807 - 1;
  printf("negmin\t%d\n", -big);
  printf("divminneg\t%d\n", big / -1);
  printf("remminneg\t%d\n", big % -1);
  printf("abswrap\t%d\n", abs(big));
  i = big;
  i--;
  printf("decwrap\t%d\n", i);
  return 0;
}
"#;
    let (out, _) = agree("int_wrap", src, &In::None).unwrap();
    let text = String::from_utf8_lossy(&out);
    assert!(text.contains("inc\t-9223372036854775808"), "{text}");
    assert!(text.contains("negmin\t-9223372036854775808"), "{text}");
    assert!(text.contains("divminneg\t-9223372036854775808"), "{text}");
    assert!(text.contains("remminneg\t0"), "{text}");
    assert!(text.contains("decwrap\t9223372036854775807"), "{text}");

    for (name, src) in [
        ("div_zero", "int main() { int a; a = 1 / 0; return 0; }"),
        ("rem_zero", "int main() { int a; a = 1 % 0; return 0; }"),
        (
            "div_zero_var",
            "int main() { int a, b; b = 3; a = b / (b - 3); return 0; }",
        ),
        (
            "shift_masks",
            "int main() { printf(\"s\\t%d\\t%d\\n\", 1 << 65, 256 >> 66); return 0; }",
        ),
    ] {
        let r = agree(name, src, &In::None);
        if name == "shift_masks" {
            // Shifts mask the count to 6 bits in both backends.
            let (out, _) = r.unwrap();
            assert_eq!(String::from_utf8_lossy(&out), "s\t2\t64\n");
        } else {
            assert!(r.is_err(), "case `{name}` should fail: {r:?}");
        }
    }
}

#[test]
fn memory_and_bounds_edges() {
    for (name, src, should_fail) in [
        (
            "oob_read",
            "int main() { int a[3]; printf(\"%d\\n\", a[3]); return 0; }",
            true,
        ),
        (
            "oob_negative",
            "int main() { int a[3]; a[0-1] = 1; return 0; }",
            true,
        ),
        (
            "oob_2d",
            "int main() { double m[2][3]; m[1][3] = 1.0; return 0; }",
            true,
        ),
        // In-bounds access through the flattened 2-D layout: m[0][4]
        // is element 4 of 6 — legal in the row-major model.
        (
            "flattened_2d",
            "int main() { double m[2][3]; m[0][4] = 2.5; printf(\"x\\t%.1f\\n\", m[1][1]); return 0; }",
            false,
        ),
        (
            "reassigned_array_indexing",
            "int main() { int m[2][3]; m = 5; m[1][2] = 1; return 0; }",
            true,
        ),
        (
            "strlen_on_ints",
            "int main() { int a[3]; printf(\"%d\\n\", strlen(a)); return 0; }",
            true,
        ),
        (
            "null_string_op",
            "int main() { char *p; printf(\"%s\\n\", p); return 0; }",
            true,
        ),
        (
            "no_space_strcpy",
            "int main() { char b[4]; strcpy(b + 4, \"x\"); return 0; }",
            true,
        ),
        (
            "deref_int",
            "int main() { int x; x = 3; printf(\"%d\\n\", *x); return 0; }",
            true,
        ),
        (
            "ptr_walk",
            "int main() { char b[8]; char *p; int i; strcpy(b, \"abcdefg\"); p = b; i = 0; while (*p) { i += *p; p = p + 1; } printf(\"sum\\t%d\\n\", i); return 0; }",
            false,
        ),
        (
            "slotref_roundtrip",
            "int main() { int x; int *q; x = 5; q = &x; *q = *q + 2; printf(\"x\\t%d\\n\", x); return 0; }",
            false,
        ),
    ] {
        let r = agree(name, src, &In::None);
        assert_eq!(r.is_err(), should_fail, "case `{name}`: {r:?}");
    }
}

#[test]
fn zero_iteration_and_degenerate_loops() {
    let cases: &[(&str, &str)] = &[
        (
            "zero_trip_for",
            r#"int main() { int i, n; n = 0; for (i = 0; i < 0; i++) n++; printf("n\t%d\n", n); return 0; }"#,
        ),
        (
            "zero_trip_while",
            r#"int main() { int n; n = 5; while (n < 5) n++; printf("n\t%d\n", n); return 0; }"#,
        ),
        (
            "for_no_cond_break",
            r#"int main() { int i; i = 0; for (;;) { i++; if (i > 3) break; } printf("i\t%d\n", i); return 0; }"#,
        ),
        (
            "nested_break_continue",
            r#"int main() { int i, j, s; s = 0; for (i = 0; i < 5; i++) { for (j = 0; j < 5; j++) { if (j == 2) continue; if (j == 4) break; s += i * 10 + j; } if (i == 3) break; } printf("s\t%d\n", s); return 0; }"#,
        ),
        (
            "empty_statements",
            r#"int main() { int i; ; for (i = 0; i < 3; i++) ; ; printf("i\t%d\n", i); return 0; }"#,
        ),
        (
            "return_inside_loop",
            r#"int main() { int i; for (i = 0; i < 100; i++) { if (i == 7) { printf("i\t%d\n", i); return 0; } } printf("never\t0\n"); return 0; }"#,
        ),
    ];
    for (name, src) in cases {
        let r = agree(name, src, &In::None);
        assert!(r.is_ok(), "case `{name}` should succeed: {r:?}");
    }
    // Step limit fires with the identical message in both backends.
    let r = agree(
        "step_limit",
        "int main() { while (1) { } return 0; }",
        &In::None,
    );
    assert_eq!(
        r.unwrap_err(),
        "interpreter error: step limit exceeded (infinite loop?)"
    );
}

#[test]
fn tick_only_code_before_a_join_is_charged_on_its_own_path() {
    // A statement that costs steps but lowers to no instruction (`;`,
    // `{}`, `x;`, `free(p);`, the entry of a cond-less `for`), sitting
    // right after a branch or a call and right before a join: only the
    // path that runs it pays for it.
    let thens = ["free(p);", ";", "{}", "n;", "{ ; n; }", "; else ;"];
    for then in thens {
        for c in 0..2 {
            let src = format!(
                r#"int main() {{ char *p; int c, n; c = {c}; n = 0; p = malloc(4);
                   if (c) {then}
                   n = n + 1; printf("n\t%d\n", n); return 0; }}"#
            );
            let r = agree(&format!("if (c) {then} with c = {c}"), &src, &In::None);
            assert!(r.is_ok(), "{src}: {r:?}");
        }
    }
    let cases: &[(&str, &str)] = &[
        (
            "condless_for_after_call",
            r#"int f(int x) { return x + 1; }
               int main() { int i; i = 0; f(1); for (;;) { i++; if (i > 3) break; } printf("i\t%d\n", i); return 0; }"#,
        ),
        (
            "condless_for_first_in_function",
            r#"int main() { for (;;) { break; } return 0; }"#,
        ),
        (
            "empty_else_after_return",
            r#"int f(int c) { if (c) return 1; else ; return 2; }
               int main() { printf("f\t%d\t%d\n", f(0), f(1)); return 0; }"#,
        ),
        (
            "empty_statements_after_break",
            r#"int main() { int i; for (i = 0; i < 3; i++) { if (i == 1) { break; ; } ; } printf("i\t%d\n", i); return 0; }"#,
        ),
        (
            "empty_ternary_arms_after_call",
            r#"int f(int x) { return x; }
               int main() { int i, n; n = 0; for (i = 0; i < 3; i++) { f(i) ? n : i; while (f(0)) ; } printf("n\t%d\n", n); return 0; }"#,
        ),
    ];
    for (name, src) in cases {
        let r = agree(name, src, &In::None);
        assert!(r.is_ok(), "case `{name}` should succeed: {r:?}");
    }
}

#[test]
fn misc_semantics_agree() {
    let cases: &[(&str, &str)] = &[
        // Compound assignment evaluates rhs first, then lhs, and an
        // indexed lhs re-evaluates its index on the store.
        (
            "compound_indexed",
            r#"int main() { int a[4]; int i; i = 1; a[1] = 10; a[i] += i = 2; printf("x\t%d\t%d\t%d\n", a[1], a[2], i); return 0; }"#,
        ),
        (
            "postinc_indexed",
            r#"int main() { int a[4]; int i; i = 0; a[0] = 5; a[i]++; printf("x\t%d\n", a[0]); return 0; }"#,
        ),
        (
            "short_circuit_skips_effects",
            r#"int main() { int n; n = 0; if (0 && (n = 9)) { } if (1 || (n = 7)) { } printf("n\t%d\n", n); return 0; }"#,
        ),
        (
            "string_literal_fresh_buffers",
            r#"int main() { int i; for (i = 0; i < 3; i++) printf("s\t%d\n", strlen("abc")); return 0; }"#,
        ),
        (
            "sizeof_and_casts",
            r#"int main() { printf("s\t%d\t%d\t%d\t%d\n", sizeof(int), sizeof(double), (int) 3.9, (int) (char) 65); return 0; }"#,
        ),
        (
            "float_promotion",
            r#"int main() { printf("x\t%.3f\t%.3f\t%d\n", 1 / 2.0, 7 % 2 + 0.5, 1.5 == 1.5); return 0; }"#,
        ),
        (
            "calloc_zeroed",
            r#"int main() { char *p; p = calloc(4, 2); printf("x\t%d\t%d\n", p[7], strlen(p)); return 0; }"#,
        ),
        (
            "function_default_return",
            r#"int noret(int x) { x = x + 1; } int main() { printf("r\t%d\n", noret(5)); return 0; }"#,
        ),
        (
            "strfind_empty_needle",
            r#"int main() { printf("f\t%d\t%d\n", strfind("abc", ""), strfind("", "a")); return 0; }"#,
        ),
        (
            "atoi_atof_lenient",
            r#"int main() { printf("x\t%d\t%d\t%.2f\n", atoi("  42  "), atoi("x42"), atof(" 2.5 ")); return 0; }"#,
        ),
    ];
    for (name, src) in cases {
        let r = agree(name, src, &In::None);
        assert!(r.is_ok(), "case `{name}` should succeed: {r:?}");
    }
    for (name, src) in [
        (
            "break_outside_loop",
            "int f() { break; return 0; } int main() { return f(); }",
        ),
        (
            "user_fn_arity",
            "int f(int a, int b) { return a + b; } int main() { return f(1); }",
        ),
        ("unknown_function", "int main() { return nothere(1); }"),
        ("unknown_variable", "int main() { return missing + 1; }"),
    ] {
        let r = agree(name, src, &In::None);
        assert!(r.is_err(), "case `{name}` should fail: {r:?}");
    }
}

#[test]
fn allocation_size_edges() {
    // Sizes come from the record: a negative, overflowing or
    // unsatisfiable one is a runtime error with the same text in both
    // engines, never a panic in the worker.
    for (name, src, expect) in [
        (
            "malloc_negative",
            "int main() { char *p; p = malloc(0 - 1); return 0; }",
            "malloc: invalid size -1 (negative)",
        ),
        (
            "calloc_negative_count",
            "int main() { char *p; p = calloc(0 - 2, 4); return 0; }",
            "calloc: invalid size -2 * 4 (negative)",
        ),
        (
            "calloc_negative_width",
            "int main() { char *p; p = calloc(4, 0 - 2); return 0; }",
            "calloc: invalid size 4 * -2 (negative)",
        ),
        (
            "calloc_overflow",
            "int main() { char *p; p = calloc(4611686018427387904, 4); return 0; }",
            "calloc: invalid size 4611686018427387904 * 4 (overflow)",
        ),
        (
            "malloc_unsatisfiable",
            "int main() { char *p; p = malloc(9223372036854775807); return 0; }",
            "malloc: invalid size 9223372036854775807 (allocation failed)",
        ),
    ] {
        let r = agree(name, src, &In::None);
        assert_eq!(
            r.unwrap_err(),
            format!("interpreter error: {expect}"),
            "case `{name}`"
        );
    }
    // Zero still yields a one-byte buffer.
    let src = r#"int main() { char *p; p = malloc(0); p[0] = 7; printf("x\t%d\n", p[0] + strlen(calloc(0, 8))); return 0; }"#;
    let (out, _) = agree("malloc_zero", src, &In::None).unwrap();
    assert_eq!(out, b"x\t7\n");
}

#[test]
fn declared_extent_edges() {
    // An extent whose element count overflows, or whose buffer the
    // allocator refuses (2^47 bytes and more: past any user address
    // space; a byte count past `isize::MAX`), is a runtime error where
    // the declaration runs, with the same text in both engines; the
    // front end analyses the program without panicking.
    for (name, src, expect) in [
        (
            "extent_overflow",
            "int main() { double m[4294967296][4294967296]; m[0][0] = 1.0; return 0; }",
            "array m: invalid size 4294967296 * 4294967296 (overflow)",
        ),
        (
            "extent_2_pow_47_bytes",
            "int main() { int a[17592186044416]; a[0] = 1; return 0; }",
            "array a: invalid size 17592186044416 (allocation failed)",
        ),
        (
            "extent_2d_2_pow_47_bytes",
            "int main() { char c[8388608][16777216]; return 0; }",
            "array c: invalid size 140737488355328 (allocation failed)",
        ),
        (
            "extent_bytes_overflow",
            "int main() { int x; x = 1; if (x) { double d[2305843009213693952]; } return 0; }",
            "array d: invalid size 2305843009213693952 (allocation failed)",
        ),
    ] {
        hetero_cc::compile(src).unwrap_or_else(|e| panic!("case `{name}`: {e}"));
        let r = agree(name, src, &In::None);
        assert_eq!(
            r.unwrap_err(),
            format!("interpreter error: {expect}"),
            "case `{name}`"
        );
    }
}

#[test]
fn subscript_positions_are_exact() {
    // `off + row * stride + i` past `isize`: out of bounds at its exact
    // value in both engines, never wrapped onto another element (here
    // `m[0][1]`, which holds 5.0) and never an overflow panic. The same
    // guard checks a dereference.
    for (name, src, expect) in [
        (
            "row_times_stride_wraps",
            "int main() { double m[3][4]; long r; r = 4611686018427387904; m[0][1] = 5.0; \
             printf(\"%f\\n\", m[r][1]); return 0; }",
            "index 18446744073709551617 out of bounds for buffer of 12",
        ),
        (
            "negative_row_wraps",
            "int main() { double m[3][4]; long r; r = 0 - 4611686018427387904; m[0][1] = 5.0; \
             m[r][1] = 2.0; return 0; }",
            "index -18446744073709551615 out of bounds for buffer of 12",
        ),
        (
            "offset_plus_index_wraps",
            "int main() { int a[4]; int *p; long n; n = 9223372036854775807; p = a + n; \
             printf(\"%d\\n\", p[n]); return 0; }",
            "index 18446744073709551614 out of bounds for buffer of 4",
        ),
        (
            "address_of_wraps",
            "int main() { int a[4]; int *p; long n; n = 9223372036854775807; p = a + n; \
             p = &p[n]; return 0; }",
            "index 18446744073709551614 out of bounds for buffer of 4",
        ),
        // A dereference is the subscript `p[0]`, checked the same way.
        (
            "deref_past_the_end",
            "int main() { int a[4]; int *p; p = a + 4; printf(\"%d\\n\", *p); return 0; }",
            "index 4 out of bounds for buffer of 4",
        ),
        (
            "store_before_the_start",
            "int main() { char b[4]; char *p; p = b - 1; *p = 'x'; return 0; }",
            "index -1 out of bounds for buffer of 4",
        ),
    ] {
        let r = agree(name, src, &In::None);
        assert_eq!(
            r.unwrap_err(),
            format!("interpreter error: {expect}"),
            "case `{name}`"
        );
    }
    // `row * stride` is 2^63, past `isize`, but `i` brings the sum back
    // to 1: the exact position is `m[0][1]`, read in both engines.
    let r = agree(
        "intermediate_wraps_back_in_bounds",
        "int main() { double m[3][4]; long r; r = 2305843009213693952; m[0][1] = 5.0; \
         printf(\"%f\\n\", m[r][0 - 9223372036854775807]); return 0; }",
        &In::None,
    );
    assert_eq!(r.unwrap().0, b"5.000000\n");
}

#[test]
fn value_of_an_indexed_update_is_assigned_after_its_store() {
    // `x = a[x]++` and friends: the store re-evaluates the index with
    // the *old* `x`; only then does the outer assignment land.
    let cases: &[(&str, &str)] = &[
        (
            "post_inc_indexed_by_target",
            r#"int main() { int a[4]; int x; x = 1; a[1] = 3; x = a[x]++; printf("x\t%d\t%d\t%d\n", x, a[1], a[3]); return 0; }"#,
        ),
        (
            "pre_inc_indexed_by_target",
            r#"int main() { int a[4]; int x; x = 1; a[1] = 2; x = ++a[x]; printf("x\t%d\t%d\t%d\n", x, a[1], a[3]); return 0; }"#,
        ),
        (
            "compound_indexed_by_target",
            r#"int main() { int a[4]; int x; x = 1; a[1] = 1; x = (a[x] += 2); printf("x\t%d\t%d\t%d\n", x, a[1], a[3]); return 0; }"#,
        ),
        (
            "operand_survives_later_write",
            r#"int main() { int x, y; x = 2; y = x + (x = 5) * x + x++ - (x -= 1); printf("y\t%d\t%d\n", y, x); return 0; }"#,
        ),
        (
            "call_args_survive_nested_calls",
            r#"int f(int a, int b, int c) { return a * 100 + b * 10 + c; } int main() { int x; x = 1; printf("f\t%d\n", f(x, f(x, x = 2, x), x++)); return 0; }"#,
        ),
    ];
    for (name, src) in cases {
        let r = agree(name, src, &In::None);
        assert!(r.is_ok(), "case `{name}` should succeed: {r:?}");
    }
}

#[test]
fn a_call_no_engine_implements_is_a_compile_error() {
    // `strcat` was modelled by the analyses but implemented by neither
    // engine: such a mapper compiled clean and lost every record.
    let src = include_str!("fixtures/sema/unknown_call_strcat.c");
    let err = hetero_cc::compile(src).expect_err("rejected").to_string();
    assert_eq!(
        err,
        "semantic error (line 18): call to unknown function 'strcat'"
    );
    // Outside `compile` the engines still agree on the run-time trap.
    let r = agree("unknown_call_strcat", src, &In::Lines(&["a b"]));
    assert_eq!(r.unwrap_err(), "interpreter error: unknown function strcat");
}

#[test]
fn a_function_of_the_program_may_carry_a_libc_name() {
    let src = include_str!("fixtures/sema/user_defined_strcat.c");
    hetero_cc::compile(src).expect("a user-defined strcat is a known call");
    let (out, _) = agree("user_defined_strcat", src, &In::Lines(&["a bc"])).unwrap();
    assert_eq!(out, b"ax\t1\nbcx\t1\n");
}

#[path = "fixtures/fused_io.rs"]
mod fused_io;

#[test]
fn fused_io_sites_agree_input_after_input() {
    // One backend of each kind runs the inputs in turn, so a fused store
    // that forgets to mark its buffer leaves the next run a stale key.
    for case in fused_io::CASES {
        let name = case.name;
        assert_eq!(
            fused_io::fused_counts(case.src),
            case.fused,
            "`{name}`: (Printf, ScTail) in the fast blocks"
        );
        let prog = parse(case.src).unwrap();
        let interp = make_backend(BackendKind::Interp, &prog);
        let native = make_backend(BackendKind::Native, &prog);
        for (i, feed) in case.feeds.iter().enumerate() {
            let outcome = |backend: &dyn KernelBackend| {
                let mut io = feed.io();
                match backend.run_capped(&mut io, 1_000_000) {
                    Ok(stats) => Ok((io.stdout, stats)),
                    Err(e) => Err(e.to_string()),
                }
            };
            assert_eq!(
                outcome(&*native),
                outcome(&*interp),
                "`{name}` diverged on input {i}:\n{}",
                case.src
            );
        }
    }
}
