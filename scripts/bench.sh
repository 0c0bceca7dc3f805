#!/usr/bin/env bash
# Perf harness: run the criterion benches (DES scheduler indexed vs
# reference, kernel backends, guard elision, scan, sort) plus the
# large-cluster scale sweep, then summarize into the repo-root
# perf-trajectory artifacts BENCH_scheduler.json and BENCH_kernels.json.
# Whole-job throughput (the former des_10k and map_kernel groups) is the
# e2e ledger's job: des_tail_8k and wc_rust_gpu.
#
#   scripts/bench.sh          full run (the committed numbers)
#   scripts/bench.sh --quick  reduced iterations + sweep capped at 1k
#                             nodes (CI's bench job)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

export CRITERION_STUB_LOG="$PWD/target/criterion-stub.jsonl"
mkdir -p target
rm -f "$CRITERION_STUB_LOG"

SCALE_ARGS=()
if [[ $QUICK == 1 ]]; then
  # One timed iteration per bench is enough to track the trajectory in CI.
  export CRITERION_STUB_ITERS=1
  SCALE_ARGS+=(--quick)
fi

echo "== criterion benches (scheduler, kernels, sort)"
cargo bench -p hetero-bench --bench scheduler --bench kernels --bench sort

echo "== scale sweep (--bin scale)"
cargo run --release -q -p hetero-bench --bin scale -- "${SCALE_ARGS[@]}"

CHAOS_ARGS=()
if [[ $QUICK == 1 ]]; then
  CHAOS_ARGS+=(--smoke)
fi

echo "== chaos sweep (--bin chaos, audited)"
HETERO_AUDIT=1 cargo run --release -q -p hetero-bench --features audit --bin chaos -- "${CHAOS_ARGS[@]}"

echo "== fault-injection study (--bin faults)"
cargo run --release -q -p hetero-bench --bin faults

SERVICE_ARGS=()
if [[ $QUICK == 1 ]]; then
  SERVICE_ARGS+=(--quick)
fi

echo "== multi-tenant service load sweep (--bin service)"
cargo run --release -q -p hetero-bench --bin service -- "${SERVICE_ARGS[@]}"

echo "== summarize -> BENCH_scheduler.json, BENCH_kernels.json, BENCH_faults.json, BENCH_service.json"
cargo run --release -q -p hetero-bench --bin benchsum

echo "Bench run complete."
