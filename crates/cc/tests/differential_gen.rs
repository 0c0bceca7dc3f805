//! Generative differential suite: random well-typed programs from
//! `hetero_cc::testgen` must behave identically under the interpreter
//! and the register-bytecode native backend — byte-identical stdout,
//! identical `InterpStats`, identical error text. The main sweep runs the
//! native backend as production does (`ElisionMode::On`); a second sweep
//! runs it under `Checked`, the analyzer's soundness oracle.
//!
//! Deterministic by default: `HETERO_TESTGEN_SEED` (default pinned) and
//! `HETERO_TESTGEN_CASES` (default 256) control the sweep, so CI runs
//! reproduce locally with the same two env vars. On a mismatch the case
//! is shrunk by greedily dropping independent segments and the minimal
//! counterexample (source + input + the native backend's bytecode
//! listing under the mode that diverged) is written to
//! `target/testgen-failures/` for artifact upload.

use hetero_cc::backend::{make_backend_with_facts, BackendKind, ElisionMode, NativeBackend};
use hetero_cc::interp::{InterpStats, StreamIo};
use hetero_cc::parse::parse;
use hetero_cc::sema::analyze;
use hetero_cc::testgen::{generate, GenCase};

/// Pinned default seed (paper venue date) — change deliberately, never
/// accidentally: CI reproducibility depends on it.
const DEFAULT_SEED: u64 = 20150615;
const DEFAULT_CASES: u64 = 256;

/// Step cap per generated program: far above what any generated case
/// needs, low enough that a pathological case fails fast (with the
/// *same* step-limit error in both backends).
const MAX_STEPS: u64 = 2_000_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

type RunResult = Result<(Vec<u8>, InterpStats), String>;

/// The interpreter ignores `mode`.
fn run_backend(kind: BackendKind, mode: ElisionMode, src: &str, io: &mut StreamIo) -> RunResult {
    let prog = parse(src).map_err(|e| format!("parse: {e}"))?;
    let facts = analyze(&prog).map_err(|e| format!("sema: {e}"))?.safety;
    let backend = make_backend_with_facts(kind, &prog, &facts, mode);
    match backend.run_capped(io, MAX_STEPS) {
        Ok(stats) => Ok((io.stdout.clone(), stats)),
        Err(e) => Err(e.to_string()),
    }
}

/// Whether the interpreter and the native backend under `On` disagree on
/// this exact source + input.
fn diverges(case: &GenCase, mask: &[bool]) -> Option<String> {
    let src = case.source_with(mask);
    let mut io_i = case.make_io();
    let ri = run_backend(BackendKind::Interp, ElisionMode::On, &src, &mut io_i);
    let mut io_n = case.make_io();
    let rn = run_backend(BackendKind::Native, ElisionMode::On, &src, &mut io_n);
    match (&ri, &rn) {
        (Ok((oi, si)), Ok((on, sn))) => {
            if oi != on {
                return Some(format!(
                    "stdout diverged:\n  interp: {:?}\n  native: {:?}",
                    String::from_utf8_lossy(oi),
                    String::from_utf8_lossy(on)
                ));
            }
            if si != sn {
                return Some(format!(
                    "stats diverged:\n  interp: {si:?}\n  native: {sn:?}"
                ));
            }
            None
        }
        (Err(ei), Err(en)) => {
            if ei != en {
                Some(format!(
                    "error text diverged:\n  interp: {ei}\n  native: {en}"
                ))
            } else {
                None
            }
        }
        (Ok(_), Err(en)) => Some(format!("interp succeeded but native failed: {en}")),
        (Err(ei), Ok(_)) => Some(format!("native succeeded but interp failed: {ei}")),
    }
}

/// Greedily drop segments while the divergence persists; returns the
/// minimal mask.
fn shrink(case: &GenCase) -> Vec<bool> {
    let mut mask = vec![true; case.segments.len()];
    loop {
        let mut changed = false;
        for i in 0..mask.len() {
            if !mask[i] {
                continue;
            }
            mask[i] = false;
            if diverges(case, &mask).is_some() {
                changed = true; // still fails without segment i — keep it out
            } else {
                mask[i] = true;
            }
        }
        if !changed {
            return mask;
        }
    }
}

fn write_counterexample(case: &GenCase, mask: &[bool], mode: ElisionMode, why: &str) -> String {
    let dir = std::path::Path::new("target/testgen-failures");
    let _ = std::fs::create_dir_all(dir);
    let src_path = dir.join(format!("seed-{}.c", case.seed));
    let input_path = dir.join(format!("seed-{}.input.txt", case.seed));
    let src = case.source_with(mask);
    let _ = std::fs::write(&src_path, &src);
    let _ = std::fs::write(&input_path, format!("# why: {why}\n{}", case.input_dump()));
    // What the native backend actually ran, under the mode that
    // diverged, so the divergence can be read and not just reproduced.
    if let Ok(prog) = parse(&src) {
        if let Ok(analysis) = analyze(&prog) {
            let native = NativeBackend::with_facts(&prog, &analysis.safety, mode);
            let _ = std::fs::write(
                dir.join(format!("seed-{}.disasm", case.seed)),
                format!("# elide={}\n{}", mode.name(), native.disasm()),
            );
        }
    }
    src_path.display().to_string()
}

#[test]
fn generated_programs_agree_across_backends() {
    let seed = env_u64("HETERO_TESTGEN_SEED", DEFAULT_SEED);
    let cases = env_u64("HETERO_TESTGEN_CASES", DEFAULT_CASES);
    let mut errored = 0u64;
    for i in 0..cases {
        let case = generate(seed.wrapping_add(i));
        let full = vec![true; case.segments.len()];
        if let Some(why) = diverges(&case, &full) {
            let minimal = shrink(&case);
            let path = write_counterexample(&case, &minimal, ElisionMode::On, &why);
            panic!(
                "backend divergence at seed {} (case {i}/{cases}):\n{why}\n\
                 minimal counterexample written to {path}\n\
                 reproduce with HETERO_TESTGEN_SEED={} HETERO_TESTGEN_CASES=1",
                case.seed, case.seed
            );
        }
        // Track how many cases end in a (matching) runtime error so a
        // generator drift toward all-error programs gets caught.
        let (src, mut io) = (case.source(), case.make_io());
        if run_backend(BackendKind::Interp, ElisionMode::On, &src, &mut io).is_err() {
            errored += 1;
        }
    }
    assert!(
        errored * 4 < cases,
        "generator drift: {errored}/{cases} cases end in runtime errors; \
         the corpus should be dominated by successful runs"
    );
}

#[test]
fn generated_programs_survive_checked_elision() {
    // Soundness fuzzer for the value analysis: run every generated case
    // on the native backend in Checked mode, where each guard the
    // analysis proved safe is still evaluated and *panics* if it would
    // have fired. A panic here means `SafetyFacts` proved something
    // false — an analyzer bug, not a generator or backend one. The
    // checked run must also agree bit-for-bit with the interpreter so
    // both elision modes stay observationally identical on the
    // whole random corpus, not just on the curated benchmarks.
    let seed = env_u64("HETERO_TESTGEN_SEED", DEFAULT_SEED);
    let cases = env_u64("HETERO_TESTGEN_CASES", DEFAULT_CASES);
    for i in 0..cases {
        let case = generate(seed.wrapping_add(i));
        let src = case.source();
        let mut io_i = case.make_io();
        let ri = run_backend(BackendKind::Interp, ElisionMode::On, &src, &mut io_i);
        let mut io_c = case.make_io();
        let rc = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_backend(BackendKind::Native, ElisionMode::Checked, &src, &mut io_c)
        }));
        let rc = match rc {
            Ok(r) => r,
            Err(payload) => {
                let why = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let full = vec![true; case.segments.len()];
                let path = write_counterexample(&case, &full, ElisionMode::Checked, &why);
                panic!(
                    "checked-elision soundness violation at seed {} (case {i}/{cases}):\n{why}\n\
                     counterexample written to {path}\n\
                     reproduce with HETERO_TESTGEN_SEED={} HETERO_TESTGEN_CASES=1",
                    case.seed, case.seed
                );
            }
        };
        let agree = match (&ri, &rc) {
            (Ok((oi, si)), Ok((oc, sc))) => oi == oc && si == sc,
            (Err(ei), Err(ec)) => ei == ec,
            _ => false,
        };
        if !agree {
            let full = vec![true; case.segments.len()];
            let path =
                write_counterexample(&case, &full, ElisionMode::Checked, "checked-elision parity");
            panic!(
                "checked-elision run diverged from interpreter at seed {} (case {i}/{cases})\n\
                 counterexample written to {path}",
                case.seed
            );
        }
    }
}

#[test]
fn generated_stats_are_nontrivial() {
    // The parity claim is only meaningful if generated programs do real
    // work: records in, lines out, sfu and mem traffic must all be
    // exercised somewhere in a modest sweep.
    let seed = env_u64("HETERO_TESTGEN_SEED", DEFAULT_SEED);
    let mut agg = InterpStats::default();
    for i in 0..64 {
        let case = generate(seed.wrapping_add(i));
        let (src, mut io) = (case.source(), case.make_io());
        if let Ok((_, s)) = run_backend(BackendKind::Native, ElisionMode::On, &src, &mut io) {
            agg.ops += s.ops;
            agg.mem += s.mem;
            agg.sfu += s.sfu;
            agg.records_in += s.records_in;
            agg.lines_out += s.lines_out;
        }
    }
    assert!(agg.ops > 10_000, "ops too low: {agg:?}");
    assert!(agg.mem > 1_000, "mem too low: {agg:?}");
    assert!(agg.sfu > 10, "sfu too low: {agg:?}");
    assert!(agg.records_in > 5, "no input consumed: {agg:?}");
    assert!(agg.lines_out > 50, "no output produced: {agg:?}");
}

#[test]
fn shrinker_reduces_an_artificial_divergence() {
    // Sanity-check the shrink loop itself: plant a case whose "failure"
    // is segment-local and verify the minimal mask isolates it. We
    // simulate divergence by checking against a marker segment rather
    // than a real backend bug (those must not exist).
    let case = generate(DEFAULT_SEED);
    let n = case.segments.len();
    assert!(n >= 4, "expected a multi-segment case");
    // Greedy drop against a predicate that "fails" while segment 1 is
    // present mirrors the shrink loop's logic.
    let mut mask = vec![true; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if !mask[i] {
                continue;
            }
            mask[i] = false;
            if mask[1] {
                changed = true;
            } else {
                mask[i] = true;
            }
        }
        if !changed {
            break;
        }
    }
    let kept: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
    assert_eq!(kept, vec![1], "greedy shrink should isolate the culprit");
}
