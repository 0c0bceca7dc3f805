//! What the kernel engines charge and print on the benchmark sources,
//! pinned. Each of the 13 annotated C sources (8 mappers, 5 combiners)
//! runs once over its seed-7 split — a mapper over the split's lines, a
//! combiner over that mapper's output sorted by key — and must give the
//! `InterpStats` and stdout hash in `GOLDEN`, on the interpreter and on
//! the bytecode VM alike.
//!
//! The engine-vs-engine suites cannot see a change that moves both
//! engines together; this table can. It was captured from the commit
//! before leaf inlining and the in-place dispatch, and only a declared
//! change of what a kernel charges or prints regenerates it:
//! `cargo test -p heterodoop --test engine_charge_golden -- --ignored
//! --nocapture print_golden` prints the table as Rust source.

use hetero_cc::backend::{make_backend, BackendKind};
use hetero_cc::interp::{InterpStats, StreamIo};
use hetero_cc::parse::parse;
use hetero_runtime::types::trim_key;

const RECORDS: usize = 200;
const SEED: u64 = 7;

/// `(source, ops, mem, sfu, records_in, lines_out, FNV-1a of stdout)`;
/// a source is `CODE/mapper` or `CODE/combiner`.
type Row = (&'static str, u64, u64, u64, u64, u64, u64);

const GOLDEN: &[Row] = &[
    ("GR/mapper", 3026, 14016, 0, 200, 136, 0x6171b6d7e9ac3545),
    ("GR/combiner", 1930, 1782, 0, 136, 1, 0x361f1b3b11a026d7),
    ("HS/mapper", 59743, 11566, 0, 200, 200, 0xde79fb887129a03d),
    ("HS/combiner", 2906, 3547, 0, 200, 9, 0xedd9f211fedf3d25),
    ("WC/mapper", 29535, 25388, 0, 200, 1570, 0xc4eea2c2ba9187df),
    (
        "WC/combiner",
        27896,
        29845,
        0,
        1570,
        590,
        0xc45ec8158762a36b,
    ),
    ("HR/mapper", 75555, 26482, 0, 200, 1924, 0x0cf8d05fed88ed05),
    ("HR/combiner", 27002, 17376, 0, 1924, 5, 0x422c3e2beceb0936),
    (
        "LR/mapper",
        161415,
        102359,
        0,
        200,
        2400,
        0xfc6878045af71d60,
    ),
    ("LR/combiner", 33736, 49339, 0, 2400, 12, 0x17338623027c6f0e),
    ("KM/mapper", 860736, 117929, 0, 200, 200, 0x7073d29efa15386a),
    ("CL/mapper", 887280, 118164, 0, 200, 200, 0x67d96d195610600d),
    (
        "BS/mapper",
        2471215,
        278502,
        128000,
        200,
        200,
        0x50f18ef3f02cd543,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One run of `src` over `io` on `kind`: its stats, stdout and emitted
/// pairs.
fn run(kind: BackendKind, src: &str, mut io: StreamIo) -> (InterpStats, StreamIo) {
    let prog = parse(src).unwrap();
    let stats = make_backend(kind, &prog).run(&mut io).unwrap();
    (stats, io)
}

/// Every source's row, computed on `kind`.
fn rows(kind: BackendKind) -> Vec<(String, InterpStats, u64)> {
    let mut out = Vec::new();
    for code in hetero_apps::CODES {
        let app = hetero_apps::app_by_code(code).unwrap();
        let split = app.generate_split(RECORDS, SEED);
        let lines = split
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(<[u8]>::to_vec)
            .collect();
        let (stats, io) = run(kind, app.mapper_source(), StreamIo::lines(lines));
        out.push((format!("{code}/mapper"), stats, fnv1a(&io.stdout)));
        if let Some(src) = app.combiner_source() {
            let mut pairs = io.emitted_kvs();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            let input = StreamIo::kv_pairs(pairs.iter().map(|(k, v)| (k.as_slice(), trim_key(v))));
            let (stats, io) = run(kind, src, input);
            out.push((format!("{code}/combiner"), stats, fnv1a(&io.stdout)));
        }
    }
    out
}

#[test]
fn both_engines_charge_the_pinned_costs_on_every_benchmark_source() {
    for kind in [BackendKind::Interp, BackendKind::Native] {
        let got = rows(kind);
        assert_eq!(got.len(), 13, "8 mappers and 5 combiners");
        assert_eq!(got.len(), GOLDEN.len(), "one GOLDEN row per source");
        for ((name, s, hash), want) in got.iter().zip(GOLDEN) {
            let row = (
                name.as_str(),
                s.ops,
                s.mem,
                s.sfu,
                s.records_in,
                s.lines_out,
                *hash,
            );
            assert_eq!(row, *want, "{} diverged from the golden", kind.name());
        }
    }
}

/// Prints `GOLDEN` as Rust source from the bytecode VM.
#[test]
#[ignore]
fn print_golden() {
    println!("const GOLDEN: &[Row] = &[");
    for (name, s, hash) in rows(BackendKind::Native) {
        println!(
            "    ({name:?}, {}, {}, {}, {}, {}, {hash:#018x}),",
            s.ops, s.mem, s.sfu, s.records_in, s.lines_out
        );
    }
    println!("];");
}
