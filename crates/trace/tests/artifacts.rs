//! The artifact gate: every JSON file the repo tracks under `results/`
//! and every `BENCH_*.json` at the root must be what `json::write`
//! produces — it parses, and re-rendering the parsed value reproduces the
//! file byte for byte. A hand-edited or differently-laid-out artifact
//! fails here (and so in `scripts/check.sh`, which runs the workspace
//! tests).

use hetero_trace::json::{parse, write};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `results/*.json` and `BENCH_*.json`, sorted.
fn artifacts() -> Vec<PathBuf> {
    let json_files = |dir: PathBuf, prefix: &'static str| {
        std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.unwrap().path())
            .filter(move |p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name.starts_with(prefix) && name.ends_with(".json")
            })
    };
    let mut files: Vec<PathBuf> = json_files(repo_root().join("results"), "")
        .chain(json_files(repo_root(), "BENCH_"))
        .collect();
    files.sort();
    assert!(files.len() >= 12, "only {} artifacts found", files.len());
    files
}

#[test]
fn tracked_artifacts_are_in_the_canonical_layout() {
    for path in artifacts() {
        let text = std::fs::read_to_string(&path).unwrap();
        let value = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            write(&value) == text,
            "{}: not in json::write's layout — regenerate it with the bin that owns it",
            path.display()
        );
    }
}

#[test]
fn every_truncation_of_an_artifact_is_an_error() {
    // The small artifacts only: the check is quadratic in the file size.
    for path in artifacts() {
        let text = std::fs::read_to_string(&path).unwrap();
        let body = text.trim_end();
        if body.len() > 4096 {
            continue;
        }
        for end in (0..body.len()).filter(|&i| body.is_char_boundary(i)) {
            assert!(
                parse(&body[..end]).is_err(),
                "{}: its first {end} bytes parsed as a whole document",
                path.display()
            );
        }
    }
}
