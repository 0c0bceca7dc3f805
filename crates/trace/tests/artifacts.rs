//! The artifact gate: every JSON file the repo tracks under `results/`
//! must be what `json::write` produces — it parses, and re-rendering the
//! parsed value reproduces the file byte for byte. A hand-edited or
//! differently-laid-out artifact fails here (and so in
//! `scripts/check.sh`, which runs the workspace tests). `results/` holds
//! full-mode runs only (reduced modes write under `target/results/`), so
//! a `mode` stamp other than `"full"` fails too, as does a wall-clock
//! artifact that does not say how many cores its host had.

use hetero_trace::json::{parse, write, Json};
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `results/*.json`, sorted.
fn artifacts() -> Vec<PathBuf> {
    let dir = results_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 12, "only {} artifacts found", files.len());
    files
}

fn read(path: &Path) -> (String, Json) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let value = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    (text, value)
}

#[test]
fn tracked_artifacts_are_in_the_canonical_layout() {
    for path in artifacts() {
        let (text, value) = read(&path);
        assert!(
            write(&value) == text,
            "{}: not in json::write's layout — regenerate it with the bin that owns it",
            path.display()
        );
    }
}

#[test]
fn tracked_artifacts_are_full_mode_runs_and_wall_clock_ones_name_their_host() {
    for path in artifacts() {
        let mode = read(&path).1.get("mode").cloned();
        assert!(
            mode.as_ref().is_none_or(|m| m.as_str() == Some("full")),
            "{}: mode {mode:?} — only a full run may write under results/",
            path.display()
        );
    }
    for name in ["micro.json", "scale.json"] {
        let path = results_dir().join(name);
        let nproc = read(&path).1.get("nproc").and_then(Json::as_u64);
        assert!(
            nproc.is_some_and(|n| n >= 1),
            "{name}: a wall-clock artifact must carry the host's nproc"
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
