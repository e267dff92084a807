#!/usr/bin/env bash
# Regenerates every golden CSV under tests/golden/ from a built tree.
#
# Run this after a deliberate model change (new timing calibration, protocol
# fix, table layout change), then review `git diff tests/golden/` like any
# other code change: every moved number should be explainable by the change
# you made.
#
# Usage: scripts/update_goldens.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
golden_dir="$repo_root/tests/golden"

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: $build_dir/bench not found — configure and build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

benches=(
  fig4_latency_source fig5_latency_homesnoop fig6_latency_cod
  fig7_latency_shared fig8_bandwidth_source fig9_bandwidth_shared
  fig10_applications
  table1_uarch table2_system table3_latency_summary
  table4_shared_l3_matrix table5_memory_directory
  table6_bandwidth_summary table7_bandwidth_scaling table8_bandwidth_cod
  attribution_breakdown protocol_matrix sharing_patterns
)

for bench in "${benches[@]}"; do
  echo "golden: $bench"
  # The exact invocation the golden_* CTests replay (tests/golden/run_golden.cmake).
  "$build_dir/bench/$bench" --quick --seed 1 --jobs 2 \
    --csv "$golden_dir/$bench.csv" > /dev/null
done

echo "golden: engine_spans"
# The engine's span trees (the golden_engine_spans CTest byte-compares them).
"$build_dir/tests/engine_spans" "$golden_dir/engine_spans.csv"

echo "done — review with: git diff $golden_dir"
