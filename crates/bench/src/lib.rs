//! Shared plumbing for the bench binaries: the command line, the
//! artifact directory and the fault storm two of them replay.
//!
//! **Command line.** A bin names its flags once ([`Args::from_env`]);
//! anything else on the command line — a typo, a flag of another bin, a
//! value that does not parse — is a usage error and exits 2, so
//! `chaos --smok` cannot silently run (and record) the full sweep.
//! Every bin also accepts `--threads N` (or `--threads=N`); `0` or an
//! absent flag means "default": the `HETERO_THREADS` environment
//! variable if set, otherwise all available cores. Whatever the thread
//! count, results and artifacts are byte-identical — parallelism only
//! changes wall-clock time.
//!
//! **Artifacts.** Only a full run writes under `results/` (the tracked
//! tree); every reduced mode (`--smoke`, `--quick`) writes under
//! `target/results/` ([`artifact_path`]). A tracked artifact is
//! therefore a full-mode run by construction. Artifacts are
//! [`hetero_trace::json::Json`] trees.

use hetero_cluster::FaultPlan;
use hetero_trace::json::{self, Json};
use heterodoop::ParallelRunner;
use std::path::PathBuf;
use std::str::FromStr;

/// A usage error exits 2, as `scripts/check.sh` does on a bad `HETERO_*`.
fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The parsed command line of a bench bin: `(flag, value)` in order.
#[derive(Debug)]
pub struct Args(Vec<(String, Option<String>)>);

impl Args {
    /// Parse `argv` (without the program name) against `known`. A name
    /// ending in `=` takes a value, written `--name V` or `--name=V`; any
    /// other name is a switch. `--threads=` is known to every bin.
    fn parse(argv: impl IntoIterator<Item = String>, known: &[&str]) -> Result<Args, String> {
        let known: Vec<&str> = known.iter().copied().chain(["--threads="]).collect();
        let mut out = Vec::new();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            if known.contains(&format!("{name}=").as_str()) {
                let value = inline
                    .or_else(|| argv.next())
                    .ok_or_else(|| format!("{name} needs a value"))?;
                out.push((name, Some(value)));
            } else if inline.is_none() && known.contains(&name.as_str()) {
                out.push((name, None));
            } else {
                return Err(format!(
                    "unknown argument '{arg}' (known: {})",
                    known.join(" ")
                ));
            }
        }
        Ok(Args(out))
    }

    /// The process arguments, parsed against the bin's `known` flags; a
    /// usage error exits 2 before the bin has done (or written) anything.
    pub fn from_env(known: &[&str]) -> Args {
        let args = Args::parse(std::env::args().skip(1), known).unwrap_or_else(|e| usage(&e));
        args.threads(); // a bad value is a usage error whether or not the bin reads it
        args
    }

    /// Whether switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some((_, Some(v))) = self.0.iter().rev().find(|(n, _)| n == name) else {
            return Ok(None);
        };
        match v.trim().parse() {
            Ok(t) => Ok(Some(t)),
            Err(_) => Err(format!("{name}: cannot parse '{v}'")),
        }
    }

    /// The value of `name` (the last one given), parsed; a value that
    /// does not parse is a usage error like an unknown flag.
    pub fn flag_value<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).unwrap_or_else(|e| usage(&e))
    }

    /// `--threads N`; `0` (= use the default) when absent.
    pub fn threads(&self) -> usize {
        self.flag_value("--threads").unwrap_or(0)
    }

    /// Worker pool sized by [`Args::threads`].
    pub fn pool(&self) -> ParallelRunner {
        ParallelRunner::new(self.threads())
    }
}

/// Where artifact `name` (e.g. `"chaos.json"`) of a run goes: the
/// tracked `results/` for a `full` run, `target/results/` for every
/// reduced mode. Relative to the working directory (the scripts run the
/// bins from the repo root).
pub fn artifact_path(name: &str, full: bool) -> PathBuf {
    let dir = if full { "results" } else { "target/results" };
    PathBuf::from(dir).join(name)
}

/// Write `value` to [`artifact_path`]`(name, full)` in `json::write`'s
/// layout, creating the directory. The notice goes to stderr: it is run
/// status, and the figure bins' stdout is pinned to `results/*.txt`.
pub fn write_artifact(name: &str, full: bool, value: &Json) {
    let path = artifact_path(name, full);
    let dir = path.parent().expect("artifact_path has a directory");
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    std::fs::write(&path, json::write(value))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// The fault storm of the `faults` study and `trace`'s faulted run: a
/// node crash, 5% transient failures and one corrupted task input, all
/// from seed 42.
pub fn storm() -> FaultPlan {
    FaultPlan {
        seed: 42,
        node_crashes: vec![(2, 15.0)],
        transient_fail_p: 0.05,
        corrupt_task_inputs: vec![17],
        ..FaultPlan::default()
    }
}

/// Host core count, stamped on every wall-clock artifact.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// This process's peak resident set so far, in MB (`VmHWM` of
/// `/proc/self/status`); `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str], known: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| s.to_string()), known)
    }

    #[test]
    fn known_switches_and_values_in_both_spellings() {
        let none = parse(&[], &[]).unwrap();
        assert!(none.threads() == 0 && none.pool().threads() >= 1);
        let known = ["--smoke", "--budget-s="];
        let args = parse(&["--smoke", "--budget-s", "12.5", "--threads=3"], &known).unwrap();
        assert!(args.flag("--smoke") && !args.flag("--quick"));
        assert_eq!(args.flag_value::<f64>("--budget-s"), Some(12.5));
        assert_eq!(args.threads(), 3);
        let args = parse(&["--budget-s=7", "--threads", "2"], &known).unwrap();
        assert_eq!(args.flag_value::<f64>("--budget-s"), Some(7.0));
        assert_eq!(args.threads(), 2);
        assert_eq!(args.flag_value::<f64>("--absent"), None);
    }

    #[test]
    fn anything_unknown_is_an_error() {
        let known = ["--smoke", "--budget-s="];
        // A typo, another bin's flag, a stray positional, a value on a
        // switch, a missing value, an unparsable value.
        for argv in [
            &["--smok"][..],
            &["--quick"],
            &["smoke"],
            &["--smoke=1"],
            &["--budget-s"],
            &["--threads"],
        ] {
            assert!(parse(argv, &known).is_err(), "{argv:?} was accepted");
        }
        let err = parse(&["--smok"], &known).unwrap_err();
        assert!(err.contains("'--smok'") && err.contains("--smoke"), "{err}");
        let args = parse(&["--threads", "many"], &known).unwrap();
        assert!(args.value::<usize>("--threads").is_err());
    }

    #[test]
    fn only_a_full_run_resolves_under_results() {
        let path = |full| artifact_path("chaos.json", full);
        assert_eq!(path(true), PathBuf::from("results/chaos.json"));
        assert_eq!(path(false), PathBuf::from("target/results/chaos.json"));
    }
}
