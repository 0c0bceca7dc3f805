//! Shared plumbing for the bench binaries: the `--threads N` flag.
//! (`results/*.json` artifacts are [`hetero_trace::json::Json`] trees.)
//!
//! Every binary accepts `--threads N` (or `--threads=N`); `0` or an
//! absent flag means "default": the `HETERO_THREADS` environment
//! variable if set, otherwise all available cores. Whatever the thread
//! count, results and artifacts are byte-identical — parallelism only
//! changes wall-clock time.

use heterodoop::ParallelRunner;

/// Parse `--threads N` / `--threads=N` from the process arguments.
/// Returns `0` (= use the default) when absent or unparsable.
pub fn threads_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args.next().and_then(|v| v.trim().parse().ok()).unwrap_or(0);
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return v.trim().parse().unwrap_or(0);
        }
    }
    0
}

/// Worker pool configured from the command line (see
/// [`threads_from_args`]).
pub fn pool_from_args() -> ParallelRunner {
    ParallelRunner::new(threads_from_args())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thread_request_is_zero() {
        // The test binary is run without --threads.
        assert_eq!(threads_from_args(), 0);
        assert!(pool_from_args().threads() >= 1);
    }
}
