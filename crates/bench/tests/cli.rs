//! The bench bins' command-line contract, checked on the built bins: an
//! unknown flag is a usage error (exit 2, nothing run, nothing written);
//! a reduced mode writes only under `target/results/`; each tracked
//! `results/<bin>.txt` is that table or figure bin's stdout and each trace
//! export is what `trace` writes; and every measured block of
//! EXPERIMENTS.md is the capture it names.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str], cwd: &Path) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap_or_else(|e| panic!("{exe}: {e}"))
}

/// A fresh, empty working directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The names `dir` holds, sorted.
fn entries(dir: &Path) -> Vec<String> {
    let names = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut names: Vec<String> = names
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn an_unknown_flag_is_a_usage_error_in_every_bin() {
    let cwd = scratch("unknown-flag");
    for exe in [
        env!("CARGO_BIN_EXE_chaos"),
        env!("CARGO_BIN_EXE_scale"),
        env!("CARGO_BIN_EXE_service"),
        env!("CARGO_BIN_EXE_micro"),
        env!("CARGO_BIN_EXE_faults"),
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_fig6"),
        env!("CARGO_BIN_EXE_trace"),
    ] {
        // A typo of a real flag, and a value `--threads` cannot take.
        for args in [&["--smok"][..], &["--threads", "many"]] {
            let out = run(exe, args, &cwd);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
            assert!(stderr.contains(args[0]), "{exe} {args:?}: {stderr}");
        }
    }
    assert_eq!(entries(&cwd), Vec::<String>::new());
}

#[test]
fn a_reduced_mode_writes_only_under_target_results() {
    // Unoptimized, `service --quick`, `chaos --smoke` and `micro --quick`
    // take minutes: a debug test run drives `scale` alone, a
    // `cargo test --release` run (CI has one) all four. `scripts/check.sh`
    // closes the same loop on the release bins with `git diff -- results/`.
    let all = [
        (env!("CARGO_BIN_EXE_scale"), "--quick", "scale.json"),
        (env!("CARGO_BIN_EXE_service"), "--quick", "service.json"),
        (env!("CARGO_BIN_EXE_micro"), "--quick", "micro.json"),
        (env!("CARGO_BIN_EXE_chaos"), "--smoke", "chaos.json"),
    ];
    let driven = if cfg!(debug_assertions) {
        &all[..1]
    } else {
        &all[..]
    };
    let cwd = scratch("reduced-mode");
    for (exe, flag, _) in driven {
        let out = run(exe, &[flag], &cwd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{exe} {flag}: {stderr}");
    }
    // No `results/` beside it: `target/` is all the run left behind.
    assert_eq!(entries(&cwd), ["target"]);
    let mut expected: Vec<&str> = driven.iter().map(|(_, _, name)| *name).collect();
    expected.sort();
    assert_eq!(entries(&cwd.join("target/results")), expected);
}

/// The trace exports `trace` writes into `results/`.
const TRACE_FILES: [&str; 6] = [
    "fig3_gpu_first.trace.json",
    "fig3_tail.trace.json",
    "faults.trace.json",
    "faults.metrics.json",
    "wordcount.trace.json",
    "kernel_profile.json",
];

/// The tracked tables and figures are what the bins print, and the trace
/// exports what `trace` writes: a capture that drifts from its bin (or a
/// change that moves a figure) fails here. `scripts/bench.sh` rewrites
/// them all.
#[test]
fn tracked_captures_are_the_bins_stdout() {
    // Unoptimized, the six measuring figures and `trace` take minutes: a
    // debug test run drives the four instant bins, a `cargo test
    // --release` run all eleven.
    let all = [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("table3", env!("CARGO_BIN_EXE_table3")),
        ("fig3", env!("CARGO_BIN_EXE_fig3")),
        ("fig4a", env!("CARGO_BIN_EXE_fig4a")),
        ("fig4b", env!("CARGO_BIN_EXE_fig4b")),
        ("fig5", env!("CARGO_BIN_EXE_fig5")),
        ("fig6", env!("CARGO_BIN_EXE_fig6")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ];
    let release = !cfg!(debug_assertions);
    let driven = if release { &all[..] } else { &all[..4] };
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let cwd = scratch("captures");
    for (name, exe) in driven {
        let out = run(exe, &[], &cwd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {stderr}");
        let tracked = std::fs::read(results.join(format!("{name}.txt"))).unwrap();
        assert!(
            out.stdout == tracked,
            "results/{name}.txt is not `{name}`'s stdout — scripts/bench.sh rewrites it:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    // `fig5` also leaves its JSON twin, which must be the tracked one.
    if let Ok(json) = std::fs::read(cwd.join("results/fig5.json")) {
        assert!(json == std::fs::read(results.join("fig5.json")).unwrap());
    }
    if release {
        let out = run(env!("CARGO_BIN_EXE_trace"), &[], &cwd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "trace: {stderr}");
        for name in TRACE_FILES {
            let written = std::fs::read(cwd.join("results").join(name)).unwrap();
            assert!(
                written == std::fs::read(results.join(name)).unwrap(),
                "results/{name} is not what `trace` writes — scripts/bench.sh rewrites it"
            );
        }
    }
}

/// EXPERIMENTS.md quotes its measured numbers from the tracked captures:
/// the text between `<!-- results/NAME:begin -->` and `<!-- results/NAME:end
/// -->` is that file, verbatim for a `.md` capture and inside a ```` ```text
/// ```` fence for a `.txt` one, and every capture is quoted. `micro.md` is
/// in turn the rendering of `results/micro.json`. Editing a block, a
/// capture or the record by hand fails here; `scripts/bench.sh` rewrites
/// the captures together with the JSON of the same run.
#[test]
fn experiments_md_quotes_every_capture_verbatim() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let mut quoted = Vec::new();
    let mut rest = doc.as_str();
    while let Some(at) = rest.find("<!-- results/") {
        let (marker, body) = rest[at + "<!-- ".len()..]
            .split_once(" -->\n")
            .expect("a marker ends its line");
        let name = marker
            .strip_suffix(":begin")
            .unwrap_or_else(|| panic!("`{marker}` without its :begin"));
        let end = format!("<!-- {name}:end -->");
        let len = body
            .find(&end)
            .unwrap_or_else(|| panic!("{name}: no `{end}`"));
        let file =
            std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let expected = if name.ends_with(".md") {
            file
        } else {
            format!("```text\n{file}```\n")
        };
        assert!(
            body[..len] == expected,
            "EXPERIMENTS.md's {name} block is not the file — replace it with:\n{expected}"
        );
        quoted.push(name.to_string());
        rest = &body[len + end.len()..];
    }
    let mut captures: Vec<String> = entries(&root.join("results"))
        .into_iter()
        .filter(|n| n.ends_with(".txt") || n.ends_with(".md"))
        .map(|n| format!("results/{n}"))
        .collect();
    captures.retain(|n| !quoted.contains(n));
    assert!(
        captures.is_empty(),
        "not quoted in EXPERIMENTS.md: {captures:?}"
    );

    let out = run(
        env!("CARGO_BIN_EXE_micro"),
        &["--markdown", "results/micro.json"],
        &root,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout == std::fs::read(root.join("results/micro.md")).unwrap(),
        "results/micro.md is not `micro --markdown results/micro.json`"
    );
}
