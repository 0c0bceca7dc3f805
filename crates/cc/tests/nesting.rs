//! A deeply nested source is a parse error, not a stack overflow. Every
//! phase after the parser recurses over the tree, and kernels are built
//! and run on pool workers with 2 MiB stacks, so each shape runs on such
//! a thread: at the deepest nesting the parser accepts, `compile`
//! succeeds and both engines run the mapper; one level deeper, `parse`
//! names the line.

use hetero_cc::backend::{make_backend_with_facts, BackendKind, ElisionMode};
use hetero_cc::interp::StreamIo;
use hetero_cc::parse::{parse, MAX_NESTING};
use hetero_cc::{compile, CcError};

/// The line of [`mapper`] that holds the nested statement.
const DEEP_LINE: u32 = 8;

/// Listing 1's shape with one nested statement in the region's loop.
fn mapper(deep: &str) -> String {
    format!(
        r#"int main()
{{
  char *line;
  size_t nbytes = 100;
  int read, one, x;
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(line) value(one) keylength(100) vallength(1)
  while ((read = getline(&line, &nbytes, stdin)) != -1) {{ x = 0; one = 1; {deep}
    one = x; printf("%s\t%d\n", line, one);
  }}
  free(line);
  return 0;
}}
"#
    )
}

/// The nested statement of one shape at depth `n`.
type Shape = fn(usize) -> String;

fn shapes() -> [(&'static str, Shape); 5] {
    [
        ("parentheses", |n| {
            format!("x = {}1{};", "(".repeat(n), ")".repeat(n))
        }),
        ("unary chain", |n| format!("x = {}1;", "- ".repeat(n))),
        ("binary chain", |n| format!("x = 1{};", "+1".repeat(n))),
        ("nested blocks", |n| {
            format!("{}x = 2;{}", "{".repeat(n), "}".repeat(n))
        }),
        ("nested if", |n| format!("{}x = 2;", "if (one) ".repeat(n))),
    ]
}

/// Both engines' stdout for `src` over two records.
fn run_both(src: &str) -> [Vec<u8>; 2] {
    let prog = parse(src).unwrap();
    let facts = hetero_cc::sema::analyze(&prog).unwrap().safety;
    [BackendKind::Interp, BackendKind::Native].map(|kind| {
        let backend = make_backend_with_facts(kind, &prog, &facts, ElisionMode::On);
        let mut io = StreamIo::lines(vec![b"a b\n".to_vec(), b"c\n".to_vec()]);
        backend.run_capped(&mut io, 10_000_000).unwrap();
        io.stdout
    })
}

fn check(name: &str, shape: Shape) {
    let max = MAX_NESTING as usize;
    // The deepest `n` the parser accepts: the bound less the levels the
    // surrounding mapper takes.
    let n = (1..=max)
        .rev()
        .find(|&n| parse(&mapper(&shape(n))).is_ok())
        .unwrap_or_else(|| panic!("{name}: no depth parses"));
    assert!(n + 8 >= max, "{name}: only {n} levels parse");

    let src = mapper(&shape(n));
    compile(&src).unwrap_or_else(|e| panic!("{name} at {n}: {e}"));
    let [interp, native] = run_both(&src);
    assert_eq!(interp, native, "{name} at {n}: engines disagree");
    assert_eq!(
        interp.iter().filter(|&&b| b == b'\t').count(),
        2,
        "{name} at {n}"
    );

    match parse(&mapper(&shape(n + 1))) {
        Err(CcError::Parse { span, msg }) => {
            assert_eq!(span.line, DEEP_LINE, "{name} at {}: {msg}", n + 1);
            assert!(msg.contains("nesting"), "{name} at {}: {msg}", n + 1);
        }
        other => panic!("{name} at {}: {other:?}", n + 1),
    }
}

#[test]
fn nesting_past_the_bound_is_a_parse_error_on_a_worker_sized_stack() {
    for (name, shape) in shapes() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || check(name, shape))
            .unwrap()
            .join()
            .unwrap_or_else(|_| panic!("{name} panicked"));
    }
}
