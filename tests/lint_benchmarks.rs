//! Differential tests tying `heterolint` to the bundled benchmarks and
//! the GPU simulator.
//!
//! Three properties:
//!
//! 1. Every Table 2 benchmark program (mapper and combiner) lints clean
//!    at `--deny-warnings` — the only findings are perf-notes, and the
//!    expected ones at that.
//! 2. Algorithm 1's classification of every region of the corpus
//!    (benchmarks and lint fixtures) equals the table captured from the
//!    last commit that still had two implementations of it.
//! 3. Each perf-note family's premise is visible in the simulator's
//!    counters: kvpairs mis-provisioning drops records (HD012), inner
//!    loop branches diverge warps (HD010), and unbound shared read-only
//!    data costs random global transactions that the texture clause
//!    removes (HD009/HD011).

use hetero_cc::lint::{lint_program, LintLevel, Severity};
use hetero_cc::parse::parse;
use hetero_cc::sema::analyze;
use hetero_cc::{compile, compile_with};
use hetero_gpusim::{Device, GpuSpec};
use hetero_runtime::map_kernel::{run_map, MapConfig};
use hetero_runtime::record::locate_records;
use hetero_runtime::OptFlags;

/// `(unit name, source)` for every annotated benchmark program.
fn benchmark_units() -> Vec<(String, String)> {
    let mut units = Vec::new();
    for app in hetero_apps::all_apps() {
        let code = app.spec().code;
        units.push((format!("{code}.map"), app.mapper_source().to_string()));
        if let Some(cs) = app.combiner_source() {
            units.push((format!("{code}.combine"), cs.to_string()));
        }
    }
    units
}

#[test]
fn all_benchmark_programs_lint_clean_at_deny() {
    for (name, src) in benchmark_units() {
        let c = compile_with(&src, LintLevel::Deny)
            .unwrap_or_else(|e| panic!("{name}: rejected at deny level: {e}"));
        assert_eq!(c.lint.error_count(), 0, "{name}");
        assert_eq!(c.lint.warning_count(), 0, "{name}");
        assert!(
            c.lint
                .diags
                .iter()
                .all(|d| d.severity == Severity::PerfNote),
            "{name}: {:?}",
            c.lint.diags
        );
    }
}

#[test]
fn expected_perf_notes_per_benchmark() {
    // The paper's own codes exercise exactly these perf lints: Grep
    // carries its pattern as a read-only firstprivate array (HD011),
    // Wordcount's Listing 1 has no kvpairs bound (HD012), and every
    // field-parsing mapper branches inside its token loop (HD010).
    let expected: &[(&str, &[&str])] = &[
        ("GR.map", &["HD011"]),
        ("HS.map", &["HD010"]),
        ("WC.map", &["HD012"]),
        ("HR.map", &["HD010"]),
        ("LR.map", &["HD010"]),
        ("KM.map", &["HD010"]),
        ("CL.map", &["HD010"]),
        ("BS.map", &["HD010"]),
    ];
    for (name, src) in benchmark_units() {
        let prog = parse(&src).unwrap();
        let analysis = analyze(&prog).unwrap();
        let report = lint_program(&src, &prog, &analysis);
        let codes: std::collections::BTreeSet<&str> = report.diags.iter().map(|d| d.code).collect();
        match expected.iter().find(|(n, _)| *n == name) {
            Some((_, want)) => {
                let want: std::collections::BTreeSet<&str> = want.iter().copied().collect();
                assert_eq!(codes, want, "{name}");
            }
            None => assert!(codes.is_empty(), "{name}: unexpected findings {codes:?}"),
        }
    }
}

/// The 13 benchmark sources plus every lint fixture that carries a
/// `#pragma mapreduce` (27 regions in all).
fn corpus() -> Vec<(String, String)> {
    let mut units = benchmark_units();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/cc/tests/fixtures/lint");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fixtures dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    for p in paths {
        let src = std::fs::read_to_string(&p).unwrap();
        if src.contains("#pragma mapreduce") {
            units.push((p.file_name().unwrap().to_string_lossy().into_owned(), src));
        }
    }
    units
}

/// One line per region: everything Algorithm 1 decided about it.
fn classification_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, src) in corpus() {
        let prog = parse(&src).unwrap();
        let analysis = analyze(&prog).unwrap_or_else(|e| panic!("{name}: {e}"));
        for r in &analysis.regions {
            let shape = |is_array| if is_array { "array" } else { "scalar" };
            let mut line = format!(
                "{name}#{} key={}/{} val={}/{} warnings={} |",
                r.directive_idx,
                r.key_length,
                shape(r.key_is_array),
                r.val_length,
                shape(r.val_is_array),
                r.warnings.len()
            );
            for (var, placement) in &r.placements {
                line.push_str(&format!(" {var}={placement:?}"));
            }
            lines.push(line);
        }
    }
    lines
}

/// Algorithm 1's verdict on every region of the corpus equals what the
/// commit *before* the one-fact-base refactor computed (`GOLDEN` below).
/// The sources under `crates/cc/tests/fixtures/` that also live in
/// `hetero-apps` are the same text.
#[test]
fn classification_is_pinned_for_the_corpus() {
    let got = classification_lines();
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want);
    }
    assert_eq!(got.len(), GOLDEN.len(), "one GOLDEN row per region");

    for (code, mapper, fixture) in [
        (
            "WC",
            true,
            include_str!("../crates/cc/tests/fixtures/wc_mapper.c"),
        ),
        (
            "KM",
            true,
            include_str!("../crates/cc/tests/fixtures/km_mapper.c"),
        ),
        (
            "WC",
            false,
            include_str!("../crates/cc/tests/fixtures/int_sum_combiner.c"),
        ),
        (
            "BS",
            true,
            include_str!("../crates/cc/tests/fixtures/bs_mapper.c"),
        ),
    ] {
        let app = hetero_apps::app_by_code(code).unwrap();
        let src = if mapper {
            app.mapper_source()
        } else {
            app.combiner_source().unwrap()
        };
        assert_eq!(src.trim(), fixture.trim(), "{code} mapper={mapper}");
    }
}

/// Prints `GOLDEN` as Rust source: `cargo test --test lint_benchmarks --
/// --ignored --nocapture print_golden` (debug and release print the same).
#[test]
#[ignore = "regenerates the table; run by hand when a source or Algorithm 1 changes on purpose"]
fn print_golden() {
    println!("const GOLDEN: &[&str] = &[");
    for line in classification_lines() {
        println!("    {line:?},");
    }
    println!("];");
}

// Captured from commit ed3a025 (the parent of the one-fact-base change,
// where `sema` still had its own def-use walker) by running
// `print_golden` in a clone of that commit.
const GOLDEN: &[&str] = &[
    "GR.map#0 key=30/array val=1/scalar warnings=0 | line=Private nbytes=Private one=Private pat=FirstPrivateArray read=Private",
    "GR.combine#0 key=30/array val=1/scalar warnings=0 | count=FirstPrivateScalar prevWord=FirstPrivateArray read=Private val=Private word=Private",
    "HS.map#0 key=8/array val=1/scalar warnings=0 | avg2=Private b=Private bin=Private consumed=Private line=Private n=Private nbytes=Private offset=Private one=Private read=Private sum=Private tok=Private",
    "HS.combine#0 key=30/array val=1/scalar warnings=0 | count=FirstPrivateScalar prevWord=FirstPrivateArray read=Private val=Private word=Private",
    "WC.map#0 key=30/array val=1/scalar warnings=0 | line=Private linePtr=Private nbytes=Private offset=Private one=Private read=Private word=Private",
    "WC.combine#0 key=30/array val=1/scalar warnings=0 | count=FirstPrivateScalar prevWord=FirstPrivateArray read=Private val=Private word=Private",
    "HR.map#0 key=8/array val=1/scalar warnings=0 | consumed=Private key=Private line=Private n=Private nbytes=Private offset=Private one=Private read=Private tok=Private",
    "HR.combine#0 key=30/array val=1/scalar warnings=0 | count=FirstPrivateScalar prevWord=FirstPrivateArray read=Private val=Private word=Private",
    "LR.map#0 key=8/array val=16/scalar warnings=0 | consumed=Private i=Private key=Private line=Private n=Private nbytes=Private offset=Private p=Private read=Private tok=Private v=Private",
    "LR.combine#0 key=30/array val=8/scalar warnings=0 | key=Private prevKey=FirstPrivateArray read=Private sum=FirstPrivateScalar val=Private",
    "KM.map#0 key=8/array val=16/scalar warnings=0 | best=Private bestD=Private c=Private consumed=Private d=Private diff=Private key=Private line=Private n=Private nbytes=Private offset=Private profiles=TextureArray r=Private read=Private sum=Private tok=Private",
    "CL.map#0 key=8/array val=16/array warnings=0 | best=Private bestD=Private c=Private consumed=Private d=Private diff=Private id=Private key=Private line=Private n=Private nbytes=Private offset=Private profiles=TextureArray r=Private read=Private sum=Private tok=Private",
    "BS.map#0 key=16/array val=24/scalar warnings=0 | acc=Private consumed=Private d1=Private d2=Private i=Private in=Private key=Private line=Private n=Private nbytes=Private offset=Private price=Private read=Private sq=Private tok=Private v=Private",
    "hd001_write_shared.c#0 key=30/array val=4/scalar warnings=0 | n=ConstantScalar one=Private word=Private",
    "hd002_input_buffer_write.c#0 key=30/array val=4/scalar warnings=0 | line=Private nbytes=Private one=Private read=Private word=Private",
    "hd003_cross_iteration.c#0 key=30/array val=4/scalar warnings=0 | one=Private total=FirstPrivateScalar word=Private",
    "hd004_emit_mismatch.c#0 key=30/array val=8/scalar warnings=0 | v=Private word=Private",
    "hd005_truncating_keylength.c#0 key=8/array val=4/scalar warnings=0 | one=Private word=Private",
    "hd006_storage_conflict.c#0 key=30/array val=4/scalar warnings=0 | m=TextureArray one=Private word=Private",
    "hd007_noncommutative_combiner.c#0 key=30/array val=4/scalar warnings=0 | diff=FirstPrivateScalar key=Private prevKey=FirstPrivateArray read=Private val=Private",
    "hd009_uncoalesced_global.c#0 key=30/array val=4/scalar warnings=0 | h=Private model=GlobalArray one=Private word=Private",
    "hd010_divergent_branch.c#0 key=30/array val=4/scalar warnings=0 | c=Private line=Private n=Private nbytes=Private off=Private one=Private read=Private tok=Private word=Private",
    "hd011_readonly_firstprivate.c#0 key=30/array val=4/scalar warnings=0 | line=Private nbytes=Private one=Private pat=FirstPrivateArray read=Private word=Private",
    "hd012_missing_kvpairs.c#0 key=30/array val=1/scalar warnings=0 | line=Private linePtr=Private nbytes=Private offset=Private one=Private read=Private word=Private",
    "hd013_warp_misaligned.c#0 key=30/array val=4/scalar warnings=0 | one=Private word=Private",
    "hd014_no_emit.c#0 key=30/array val=4/scalar warnings=0 | one=Private word=Private",
    "hd015_redundant_storage.c#0 key=30/array val=4/scalar warnings=0 | m=TextureArray one=Private word=Private",
];

/// README's lint table and `lint::CODES` list the same codes with the
/// same severities, in the same order.
#[test]
fn readme_lint_table_matches_the_code_catalogue() {
    let readme = include_str!("../README.md");
    let rows: Vec<(&str, &str)> = readme
        .lines()
        .filter(|l| l.starts_with("| HD"))
        .map(|l| {
            let mut cells = l.split('|').map(str::trim).skip(1);
            (cells.next().unwrap(), cells.next().unwrap())
        })
        .collect();
    let catalogue: Vec<(&str, &str)> = hetero_cc::lint::CODES
        .iter()
        .map(|&(code, severity, _)| {
            let short = match severity {
                Severity::Error => "error",
                Severity::Warning => "warn",
                Severity::PerfNote => "perf",
            };
            (code, short)
        })
        .collect();
    assert_eq!(rows, catalogue);
    assert_eq!(catalogue.len(), 20);
}

fn small_cfg(app: &dyn hetero_apps::App) -> MapConfig {
    let spec = app.spec();
    MapConfig {
        blocks: 2,
        threads_per_block: 32,
        stores_per_thread: 16,
        key_len: spec.key_len,
        val_len: spec.val_len,
        num_reducers: 4,
        opts: OptFlags::all(),
        ro_bytes: spec.ro_bytes,
        kvpairs_per_record: spec.kvpairs_per_record.max(1),
    }
}

/// HD012's premise: without a `kvpairs` clause the runtime must assume
/// the worst case — a record could emit up to `storesPerThread` pairs —
/// so each thread reserves its whole KV region for one record. The
/// wasted capacity drops records that an accurate bound fits easily.
/// Wordcount's Listing 1 is exactly the mapper the lint flags.
#[test]
fn hd012_premise_missing_kvpairs_bound_drops_records() {
    let app = hetero_apps::app_by_code("WC").unwrap();
    let src = app.mapper_source();
    let c = compile(src).unwrap();
    assert!(
        c.lint.diags.iter().any(|d| d.code == "HD012"),
        "WC mapper should carry the kvpairs hint lint"
    );

    let dev = Device::new(GpuSpec::tesla_k40());
    let split = app.generate_split(200, 11);
    let recs = locate_records(&dev, &split).unwrap().records;
    let mapper = app.mapper();

    let mut hinted = small_cfg(app.as_ref());
    hinted.stores_per_thread = 64;
    hinted.kvpairs_per_record = 12; // the corpus emits 4..=12 words/line
    let mut unhinted = hinted.clone();
    unhinted.kvpairs_per_record = unhinted.stores_per_thread; // forced worst case

    let good = run_map(&dev, &split, &recs, mapper.as_ref(), &hinted).unwrap();
    let bad = run_map(&dev, &split, &recs, mapper.as_ref(), &unhinted).unwrap();
    assert_eq!(
        good.dropped_records, 0,
        "accurate bound should fit every record"
    );
    assert!(
        bad.dropped_records > 0,
        "worst-case provisioning should exhaust the KV store and drop records"
    );
}

/// HD010's premise: the branchy token loop the lint flags in Histmovies
/// shows up as divergent lanes in the simulator.
#[test]
fn hd010_premise_flagged_mapper_diverges_warps() {
    let app = hetero_apps::app_by_code("HS").unwrap();
    let c = compile(app.mapper_source()).unwrap();
    assert!(c.lint.diags.iter().any(|d| d.code == "HD010"));

    let dev = Device::new(GpuSpec::tesla_k40());
    let split = app.generate_split(400, 7);
    let recs = locate_records(&dev, &split).unwrap().records;
    let mapper = app.mapper();
    // Static record partitioning keeps whole warps in lockstep, so the
    // per-lane imbalance the lint predicts lands in `divergent_lanes`.
    let mut cfg = small_cfg(app.as_ref());
    cfg.opts.record_stealing = false;
    let out = run_map(&dev, &split, &recs, mapper.as_ref(), &cfg).unwrap();
    assert!(
        out.stats.counters.divergent_lanes > 0,
        "HS map kernel should show warp divergence, got {:?}",
        out.stats.counters
    );
}

/// HD009's premise: KMeans' profile table costs random global
/// transactions unless it is texture-bound — exactly the fix the lint
/// proposes when the `texture` clause is removed.
#[test]
fn hd009_premise_texture_clause_removes_random_loads() {
    let app = hetero_apps::app_by_code("KM").unwrap();

    // The shipped source binds the table to texture — no HD009.
    let src = app.mapper_source();
    let c = compile(src).unwrap();
    assert!(!c.lint.diags.iter().any(|d| d.code == "HD009"));

    // Degrade the source: an unsized pointer in plain sharedRO is
    // exactly the global-memory placement the lint warns about.
    let degraded = src
        .replace("double profiles[48];", "double *profiles;")
        .replace("texture(profiles)", "sharedRO(profiles)");
    assert_ne!(src, degraded, "degradation must rewrite the source");
    let d = compile(&degraded).unwrap();
    let hd009 = d
        .lint
        .diags
        .iter()
        .find(|d| d.code == "HD009")
        .expect("degraded KMeans source should draw HD009");
    assert!(hd009.msg.contains("texture(profiles)"), "{}", hd009.msg);

    // The simulator agrees: texture binding turns the profile-table
    // reads from random global transactions into texture hits.
    let dev = Device::new(GpuSpec::tesla_k40());
    let split = app.generate_split(300, 23);
    let recs = locate_records(&dev, &split).unwrap().records;
    let mapper = app.mapper();
    let with_tex = small_cfg(app.as_ref());
    let mut without_tex = small_cfg(app.as_ref());
    without_tex.opts.texture = false;
    let tex = run_map(&dev, &split, &recs, mapper.as_ref(), &with_tex).unwrap();
    let glob = run_map(&dev, &split, &recs, mapper.as_ref(), &without_tex).unwrap();
    assert!(tex.stats.counters.tex_hits > 0);
    assert_eq!(glob.stats.counters.tex_hits, 0);
    assert!(
        glob.stats.counters.random_txns() > tex.stats.counters.random_txns(),
        "texture should remove random global transactions: with={} without={}",
        tex.stats.counters.random_txns(),
        glob.stats.counters.random_txns()
    );
}

/// Linting must not perturb anything: generated kernels are identical
/// at every lint level, and running the analyzer between two identical
/// simulations leaves the simulated cycle count bit-for-bit unchanged.
#[test]
fn lint_is_zero_perturbation() {
    for (name, src) in benchmark_units() {
        let off = compile_with(&src, LintLevel::Off).unwrap();
        let warn = compile(&src).unwrap();
        assert_eq!(
            off.sources, warn.sources,
            "{name}: codegen differs by lint level"
        );
        assert!(off.lint.diags.is_empty(), "{name}");
    }

    let app = hetero_apps::app_by_code("WC").unwrap();
    let split = app.generate_split(200, 3);
    let mapper = app.mapper();
    let cfg = small_cfg(app.as_ref());

    let run_once = || {
        let dev = Device::new(GpuSpec::tesla_k40());
        let recs = locate_records(&dev, &split).unwrap().records;
        let out = run_map(&dev, &split, &recs, mapper.as_ref(), &cfg).unwrap();
        out.stats.cycles
    };
    let before = run_once();
    for (_, src) in benchmark_units() {
        let prog = parse(&src).unwrap();
        let analysis = analyze(&prog).unwrap();
        let _ = lint_program(&src, &prog, &analysis);
    }
    let after = run_once();
    assert_eq!(
        before.to_bits(),
        after.to_bits(),
        "lint run perturbed the simulated cycle count"
    );
}
