#!/usr/bin/env bash
# Perf harness: the five sweep bins whose JSON artifacts are tracked under
# results/ (wall-clock micro pairs, scale sweep, audited chaos sweep, fault
# study, service sweep), the trace exports, and the ten table/figure bins
# whose stdout is tracked. Whole-job throughput is the e2e ledger's
# (BENCHMARK.json).
#
#   scripts/bench.sh          full run: rewrites the committed
#                             results/{micro,scale,chaos,faults,service}.json
#                             with each sweep's stdout beside it
#                             (results/micro.md, results/{scale,chaos,
#                             faults,service}.txt), the six trace artifacts,
#                             and results/{table1..3,fig3..7,ablation}.txt
#   scripts/bench.sh --quick  each bin's reduced mode (CI's bench job):
#                             writes under target/results/ only (faults has
#                             no reduced mode and regenerates its file
#                             byte for byte)
#
# EXPERIMENTS.md quotes the captures verbatim and
# crates/bench/tests/cli.rs checks every quoted block against its file.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=() SMOKE=()
case "${1:-}" in
  "") ;;
  --quick) QUICK=(--quick) SMOKE=(--smoke) ;;
  *) echo "usage: scripts/bench.sh [--quick]" >&2; exit 2 ;;
esac
full() { [ ${#QUICK[@]} -eq 0 ]; }

bin() { cargo run --release -q -p hetero-bench "$@"; }

# `sweep CAPTURE ARGS…`: run a bin; a full run tees its stdout into
# results/CAPTURE, from the same run that writes its JSON.
sweep() {
  local capture=$1; shift
  if full; then bin "$@" | tee "results/$capture"; else bin "$@"; fi
}

echo "== wall-clock micro pairs (--bin micro)"
sweep micro.md --bin micro -- "${QUICK[@]}"

echo "== scale sweep (--bin scale)"
sweep scale.txt --bin scale -- "${QUICK[@]}"

echo "== chaos sweep (--bin chaos, audited)"
sweep chaos.txt --features audit --bin chaos -- "${SMOKE[@]}"

echo "== fault-injection study (--bin faults)"
sweep faults.txt --bin faults

echo "== multi-tenant service load sweep (--bin service)"
sweep service.txt --bin service -- "${QUICK[@]}"

if full; then
  echo "== trace exports (--bin trace; results/*.trace.json, pinned by crates/bench/tests/cli.rs)"
  bin --bin trace

  echo "== tables and figures (results/*.txt, pinned by crates/bench/tests/cli.rs)"
  for b in table1 table2 table3 fig3 fig4a fig4b fig5 fig6 fig7 ablation; do
    bin --bin "$b" > "results/$b.txt"
  done
fi

echo "Bench run complete."
