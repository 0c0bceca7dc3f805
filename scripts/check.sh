#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# HETERO_THREADS (the worker-pool width) is the one run-time knob, and
# the pool falls back to the core count on a value it does not recognise:
# a typo would re-test the default width under the wrong label (CI's
# serial and parallel cells). Refuse it here.
if [ -n "${HETERO_THREADS+set}" ] && ! [[ "$HETERO_THREADS" =~ ^[1-9][0-9]*$ ]]; then
    echo "error: HETERO_THREADS='$HETERO_THREADS': expected a positive integer" >&2
    exit 2
fi

echo "== bash -n scripts/ab.sh (the layout-robust A/B parses)"
bash -n scripts/ab.sh

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Includes the cost golden captured from the parent of the lane-class
# change (hetero-runtime's charge_golden), the Algorithm-1 golden of the
# 27 corpus regions and the three CUDA-text goldens captured from the
# parent of the one-fact-base change, the kernel engines' charge golden
# on the 13 benchmark sources captured from the parent of leaf inlining
# (heterodoop's engine_charge_golden), the two bytecode listings
# (hetero-cc's wc_mapper.disasm and bs_mapper.disasm), the README-lint-
# table-vs-`lint::CODES` test (root package), and the property tests
# (pinned seed, fixed case count; a failing case lands under
# crates/*/target/).
echo "== cargo test -q (workspace)"
cargo test -q --workspace

echo "== e2e ledger (its own tests, then all six workloads at smoke size: outputs verified, fingerprints stable)"
# A package of its own (empty [workspace], own Cargo.lock and target/):
# the workspace commands above do not reach it.
cargo test --release --offline -q --manifest-path e2e/Cargo.toml
cargo run --release --offline -q --manifest-path e2e/Cargo.toml -- --all --smoke

echo "== heterolint --deny-warnings (bundled benchmarks)"
mkdir -p results
cargo run -q -p hetero-bench --bin heterolint -- --deny-warnings --json results/lint.json

echo "== heterolint --expect-findings (negative fixtures)"
cargo run -q -p hetero-bench --bin heterolint -- --expect-findings crates/cc/tests/fixtures/lint/*.c

echo "== DES scale smoke (1k nodes / 100k tasks under a wall-clock budget)"
cargo run --release -q -p hetero-bench --bin scale -- --smoke

echo "== chaos smoke (audited fault sweep: no hang, no lost task, 0 violations)"
cargo run --release -q -p hetero-bench --features audit --bin chaos -- --smoke

echo "== service smoke (multi-tenant sweep point under a wall-clock budget)"
cargo run --release -q -p hetero-bench --bin service -- --smoke --budget-s 30

echo "== service --quick at pool widths 1 and 4 (byte-identical service.json)"
# The inner simulations run on the worker pool; its width must not move
# a bit of the sweep.
HETERO_THREADS=1 cargo run --release -q -p hetero-bench --bin service -- --quick >/dev/null
mv target/results/service.json target/results/service.width1.json
cargo run --release -q -p hetero-bench --bin service -- --quick --threads 4 >/dev/null
cmp target/results/service.width1.json target/results/service.json

echo "== micro smoke (every wall-clock pair, one timed call a side)"
cargo run --release -q -p hetero-bench --bin micro -- --quick

# results/ holds full-mode runs only: the reduced modes above write under
# target/results/, and this script's one writer into results/
# (heterolint --json) is byte-deterministic.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "== tracked results/ untouched"
    git diff --quiet -- results/ || {
        echo "error: a check step modified a tracked artifact:" >&2
        git diff --stat -- results/ >&2
        exit 1
    }
fi

echo "All checks passed."
