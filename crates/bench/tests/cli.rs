//! The bench bins' command-line contract, checked on the built bins: an
//! unknown flag is a usage error (exit 2, nothing run, nothing written);
//! a reduced mode writes only under `target/results/`; the `micro` block
//! of EXPERIMENTS.md is `micro --markdown results/micro.json`; and each
//! tracked `results/<bin>.txt` is that table or figure bin's stdout.

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

/// The tracked tables and figures are what the bins print: a capture
/// that drifts from its bin (or a change that moves a figure) fails here.
/// `scripts/bench.sh` rewrites all ten.
#[test]
fn tracked_captures_are_the_bins_stdout() {
    // Unoptimized, the six measuring figures take minutes: a debug test
    // run drives the four instant bins, a `cargo test --release` run all
    // ten.
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
    let driven = if cfg!(debug_assertions) {
        &all[..4]
    } else {
        &all[..]
    };
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
}

/// EXPERIMENTS.md quotes the committed record by construction: editing
/// either the block or `results/micro.json` by hand fails here.
#[test]
fn experiments_md_micro_block_is_the_rendering_of_the_committed_record() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
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
    let rendered = String::from_utf8(out.stdout).unwrap();
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let (begin, end) = ("<!-- micro:begin -->\n", "<!-- micro:end -->");
    let start = doc.find(begin).expect("micro:begin marker") + begin.len();
    let len = doc[start..].find(end).expect("micro:end marker");
    assert!(
        doc[start..start + len] == rendered,
        "EXPERIMENTS.md's micro block is stale — replace it with the output of \
         `cargo run -p hetero-bench --bin micro -- --markdown results/micro.json`:\n{rendered}"
    );
}
