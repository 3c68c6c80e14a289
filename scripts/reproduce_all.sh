#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus all extension
# experiments into results/, then run the full test suite.
#
# Usage: scripts/reproduce_all.sh [scale-override]
#   The optional argument overrides each experiment's default workload
#   scale (1.0 = the paper's enlarged problem; sweeps default to 0.5).

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_ARG="${1:-}"

mkdir -p results

BINS=(
  table1
  fig1_schedule
  fig2_speedup_procs
  fig3_loop_times
  fig4_l2_misses
  fig5_l1_misses
  fig6_chunk_size
  fig7_future
  extra_unbounded_wave5
  extra_jumpout_ablation
  extra_hoist_ablation
  extra_tlb_effect
  extra_amdahl
  extra_kernels
  extra_reuse_profile
  extra_modern
  overview
)

cargo build --release -p cascade-bench

for b in "${BINS[@]}"; do
  echo "== $b"
  if [ -n "$SCALE_ARG" ]; then
    cargo run --release -q -p cascade-bench --bin "$b" -- "$SCALE_ARG" | tee "results/$b.txt"
  else
    cargo run --release -q -p cascade-bench --bin "$b" | tee "results/$b.txt"
  fi
done

echo "== tests"
cargo test --workspace --release 2>&1 | tee test_output.txt

echo "done — see results/, test_output.txt"
