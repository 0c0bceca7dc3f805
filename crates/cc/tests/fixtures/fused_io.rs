//! Programs around the bytecode engine's fused forms — a whole `printf`
//! of plain arguments as one `Printf`, a `scanf`'s conversions and end as
//! one `ScTail` — and around the operand checks only exact twins keep.
//! Shared by `edge_cases` (the interpreter against the engine, input
//! after input on one backend) and `fuel_boundary` (at every budget).

use hetero_cc::backend::NativeBackend;
use hetero_cc::interp::StreamIo;
use hetero_cc::parse::parse;

/// One run's input.
pub enum Feed {
    Lines(&'static [&'static str]),
    Kvs(&'static [(&'static str, &'static str)]),
}

impl Feed {
    pub fn io(&self) -> StreamIo {
        match self {
            Feed::Lines(ls) => StreamIo::lines(ls.iter().map(|l| l.as_bytes().to_vec()).collect()),
            Feed::Kvs(kvs) => StreamIo::kvs(
                kvs.iter()
                    .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                    .collect(),
            ),
        }
    }
}

/// A program, the inputs it runs on in turn, and how many `Printf`s and
/// `ScTail`s its fast blocks hold.
pub struct Case {
    pub name: &'static str,
    pub src: &'static str,
    pub feeds: &'static [Feed],
    pub fused: (usize, usize),
}

const NO_INPUT: &[Feed] = &[Feed::Lines(&[])];
const TEXT: &[Feed] = &[Feed::Lines(&["alpha beta", "  gamma"]), Feed::Lines(&["x"])];

pub const CASES: &[Case] = &[
    Case {
        name: "printf_every_conversion",
        src: r#"int main() { char w[8]; double d; int n; strcpy(w, "hi"); d = 2.5; n = -42;
            printf("%s\t%c|%f|%.2e|%g|%d|%i%%\n", w, 65, d, d, d, n, 7); return 0; }"#,
        feeds: NO_INPUT,
        fused: (1, 0),
    },
    Case {
        name: "printf_unsupported_before_valid",
        src: r#"int main() { int x; int y; x = 1; y = 2; printf("a%d\t%q %d\n", x, y, x); return 0; }"#,
        feeds: NO_INPUT,
        fused: (1, 0),
    },
    Case {
        name: "printf_pointer_under_d",
        src: r#"int main() { char w[4]; int x; x = 3; printf("ok\n"); printf("%d\t%d\n", x, w); return 0; }"#,
        feeds: NO_INPUT,
        fused: (2, 0),
    },
    Case {
        name: "printf_too_few_arguments",
        src: r#"int main() { int x; x = 5; printf("%d\t%d\n", x); return 0; }"#,
        feeds: NO_INPUT,
        fused: (0, 0),
    },
    Case {
        name: "printf_nested_in_an_argument",
        src: r#"int main() { int x; x = 4; printf("%d\t%d\n", x, printf("in%d\n", x)); return 0; }"#,
        feeds: NO_INPUT,
        fused: (1, 0),
    },
    Case {
        name: "printf_subscript_and_call_arguments",
        src: r#"int f(int v) { return v + 1; }
            int main() { int a[3]; int i; i = 1; a[1] = 7;
            printf("%d\t%d\n", a[i], i); printf("%d\t%d\n", i, f(i)); printf("%s\n", "lit"); return 0; }"#,
        feeds: NO_INPUT,
        fused: (0, 0),
    },
    Case {
        name: "scanf_string_and_int",
        src: r#"int main() { char w[4]; int v; int n;
            while ((n = scanf("%s %d", w, &v)) == 2) printf("%s\t%d\t%c%c\n", w, v, w[1], w[2]); return 0; }"#,
        feeds: &[
            Feed::Kvs(&[
                ("toolongkey", "5"),
                ("ab", "-12"),
                ("c", "+7"),
                ("d", " 8 "),
            ]),
            Feed::Kvs(&[("x", "99999999999999999999"), ("y", "-0")]),
        ],
        // A loop tests its condition on entry and at the bottom.
        fused: (0, 2),
    },
    Case {
        name: "scanf_unsupported_conversion",
        src: r#"int main() { char w[8]; int v; scanf("%s %x", w, &v); printf("%s\n", w); return 0; }"#,
        feeds: &[Feed::Kvs(&[("a", "1")])],
        fused: (1, 0),
    },
    Case {
        name: "scanf_into_a_subscript",
        src: r#"int main() { char w[8]; int a[2]; while (scanf("%s %d", w, &a[1]) == 2) printf("%s\t%d\n", w, a[1]); return 0; }"#,
        feeds: &[Feed::Kvs(&[("a", "1"), ("b", "2")])],
        fused: (0, 0),
    },
    Case {
        // A second run must not see the first run's key: the fused `%s`
        // store marks the buffer it writes.
        name: "scanf_then_a_shorter_key",
        src: r#"int main() { char w[8]; int v; scanf("%s %d", w, &v);
            printf("%c%c%c\t%d\n", w[0], w[2], w[3], v); return 0; }"#,
        feeds: &[
            Feed::Kvs(&[("abcd", "1")]),
            Feed::Kvs(&[("x", "2")]),
            Feed::Kvs(&[("abcd", "1")]),
        ],
        fused: (0, 1),
    },
    Case {
        name: "getword_pointer_offset",
        src: r#"int main() { char *line; char w[8]; char *p; int r; int n;
            r = getline(&line, 0, 0); p = line; n = getWord(line, p, w, r, 8); printf("%d\n", n); return 0; }"#,
        feeds: TEXT,
        fused: (1, 0),
    },
    Case {
        name: "getword_double_offset",
        src: r#"int main() { char *line; char w[8]; double d; int r; int n;
            r = getline(&line, 0, 0); d = 1.5; n = getWord(line, d, w, r, 8); printf("%d\t%s\n", n, w); return 0; }"#,
        feeds: TEXT,
        fused: (1, 0),
    },
    Case {
        name: "gettok_pointer_read",
        src: r#"int main() { char *line; char w[8]; int r; int n;
            r = getline(&line, 0, 0); n = getTok(line, 0, w, line, 8); printf("%d\n", n); return 0; }"#,
        feeds: TEXT,
        fused: (1, 0),
    },
    Case {
        name: "gettok_double_read_and_computed_max",
        src: r#"int main() { char *line; char w[8]; double d; int r; int n;
            r = getline(&line, 0, 0); d = 3.5; n = getTok(line, 0, w, d, 8);
            printf("%d\t%s\n", n, w); n = getTok(line, d, w, r, n + 4); printf("%d\t%s\n", n, w); return 0; }"#,
        feeds: TEXT,
        fused: (2, 0),
    },
];

/// `(Printf, ScTail)` instructions in the fast blocks of `src`.
pub fn fused_counts(src: &str) -> (usize, usize) {
    let listing = NativeBackend::new(&parse(src).unwrap()).disasm();
    let fast: String = listing
        .split("\nfn ")
        .map(|f| f.split("exact twins:").next().unwrap())
        .collect();
    (
        fast.matches("Printf {").count(),
        fast.matches("ScTail {").count(),
    )
}
