//! Shared plumbing for the bench binaries: the `--threads N` flag and a
//! tiny stable-JSON writer for `results/*.json` artifacts.
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

/// Minimal deterministic JSON emitter for bench artifacts: objects keep
/// insertion order, finite floats print with `{:?}` (shortest
/// round-trip form) and non-finite ones as `null`, keys and strings are
/// escaped per RFC 8259, so the same simulated results always serialize
/// to the same, loadable bytes.
#[derive(Debug, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// Empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    /// Add a string field.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, json_string(v))
    }

    /// Add an integer field.
    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    /// Add a float field (exact shortest round-trip formatting).
    pub fn float(self, key: &str, v: f64) -> Self {
        let v = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_string()
        };
        self.raw(key, v)
    }

    /// Add an already-serialized JSON value (e.g. a nested object).
    pub fn raw(mut self, key: &str, v: String) -> Self {
        self.fields.push((key.to_string(), v));
        self
    }

    /// Serialize.
    pub fn build(self) -> String {
        let body: Vec<String> = self
            .fields
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", json_string(&k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    hetero_trace::json::push_str_literal(&mut out, s);
    out
}

/// Serialize a list of JSON values into an array.
pub fn json_array(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_valid() {
        let o = JsonObj::new()
            .str("app", "WC")
            .int("kernels", 42)
            .float("speedup", 1.0 / 3.0)
            .build();
        assert_eq!(
            o,
            "{\"app\": \"WC\", \"kernels\": 42, \"speedup\": 0.3333333333333333}"
        );
        // What Rust's `{:?}` gets wrong for JSON: `\u{1}`-style escapes,
        // an escaped `'`, and `inf`/`NaN` as numbers.
        let hostile = JsonObj::new()
            .str("ctl\u{1}\u{7f}", "it's \"quoted\"\n")
            .float("inf", f64::INFINITY)
            .float("nan", f64::NAN)
            .build();
        assert_eq!(
            hostile,
            "{\"ctl\\u0001\u{7f}\": \"it's \\\"quoted\\\"\\n\", \"inf\": null, \"nan\": null}"
        );
        let arr = json_array([o.clone(), o, hostile]);
        hetero_trace::json::validate(&arr).unwrap();
    }

    #[test]
    fn default_thread_request_is_zero() {
        // The test binary is run without --threads.
        assert_eq!(threads_from_args(), 0);
        assert!(pool_from_args().threads() >= 1);
    }
}
