#!/usr/bin/env bash
# Perf harness: the five bins whose JSON artifacts are tracked under
# results/ (wall-clock micro pairs, scale sweep, audited chaos sweep, fault
# study, service sweep) and the ten table/figure bins whose stdout is.
# Whole-job throughput is the e2e ledger's (BENCHMARK.json).
#
#   scripts/bench.sh          full run: rewrites the committed
#                             results/{micro,scale,chaos,faults,service}.json
#                             and results/{table1..3,fig3..7,ablation}.txt
#   scripts/bench.sh --quick  each bin's reduced mode (CI's bench job):
#                             writes under target/results/ only (faults has
#                             no reduced mode and regenerates its file
#                             byte for byte)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=() SMOKE=()
case "${1:-}" in
  "") ;;
  --quick) QUICK=(--quick) SMOKE=(--smoke) ;;
  *) echo "usage: scripts/bench.sh [--quick]" >&2; exit 2 ;;
esac

bin() { cargo run --release -q -p hetero-bench "$@"; }

echo "== wall-clock micro pairs (--bin micro)"
bin --bin micro -- "${QUICK[@]}"

echo "== scale sweep (--bin scale)"
bin --bin scale -- "${QUICK[@]}"

echo "== chaos sweep (--bin chaos, audited)"
bin --features audit --bin chaos -- "${SMOKE[@]}"

echo "== fault-injection study (--bin faults)"
bin --bin faults

echo "== multi-tenant service load sweep (--bin service)"
bin --bin service -- "${QUICK[@]}"

if [ ${#QUICK[@]} -eq 0 ]; then
  echo "== tables and figures (results/*.txt, pinned by crates/bench/tests/cli.rs)"
  for b in table1 table2 table3 fig3 fig4a fig4b fig5 fig6 fig7 ablation; do
    bin --bin "$b" > "results/$b.txt"
  done
fi

echo "Bench run complete."
