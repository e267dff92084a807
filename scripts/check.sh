#!/usr/bin/env bash
# One-shot verification: configure + build + full ctest in the default
# configuration, the Tier-1 command in an empty build directory, the
# trace/metrics/line-stats smoke tests (checks no ctest makes), the whole
# ctest suite again under AddressSanitizer, then the perf guard (perfbench's
# per-layer metrics against scripts/perf_baseline.json).
#
# Usage: scripts/check.sh [extra ctest args...]
#   HSWSIM_CHECK_SANITIZER=undefined|thread|address  (default: address)
#   HSWSIM_CHECK_SKIP_SANITIZER=1                    (default build only)
#   HSWSIM_CHECK_SKIP_PERF=1                         (skip the perf guard)
#   HSWSIM_PERF_TOLERANCE=<percent>                  (one limit for every
#                                                     metric; default: each
#                                                     metric's own, from
#                                                     the baseline)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitizer="${HSWSIM_CHECK_SANITIZER:-address}"

run_config() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S "$repo_root" "$@"
  # One compiler per CPU: an unbounded make -j runs out of memory.
  cmake --build "$build_dir" -j "$(nproc)"
  # Start without the artifacts of an earlier run, so a test that writes
  # into golden_out/ without requiring its setup fixture fails here.
  rm -rf "$build_dir/tests/golden_out"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "${ctest_args[@]}"
}

ctest_args=("$@")

echo "== default configuration =="
run_config "$repo_root/build"

echo "== pristine Tier-1 =="
# The exact Tier-1 command (ROADMAP.md) in a fresh, empty build directory:
# a test that needs another test's output without declaring it (the
# golden_out/ ordering race) fails here under ctest -j even when the
# incremental build above passed.
pristine_dir="$(mktemp -d)"
trap 'rm -rf "$pristine_dir"' EXIT
(cd "$pristine_dir" && cmake -B build -S "$repo_root" && cmake --build build -j \
  && cd build && ctest --output-on-failure -j)
rm -rf "$pristine_dir"

echo "== trace smoke =="
# One traced run of the attribution bench must export a Perfetto JSON that
# names every protocol component the span taxonomy promises (the COD rows
# exercise directory, HitME, QPI, and DRAM in a single quick run), and a
# CSV export must carry the same spans row-wise.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
"$repo_root/build/bench/attribution_breakdown" --quick --seed 1 \
  --trace "$trace_dir/attribution.json" > /dev/null
for span in dir_remote_invalid hitme_lookup qpi_link dram_page; do
  grep -q "$span" "$trace_dir/attribution.json" \
    || { echo "trace smoke: span '$span' missing from JSON export"; exit 1; }
done
"$repo_root/build/bench/attribution_breakdown" --quick --seed 1 \
  --trace "$trace_dir/attribution.csv" > /dev/null
grep -q "hitme_lookup" "$trace_dir/attribution.csv" \
  || { echo "trace smoke: CSV export missing spans"; exit 1; }
echo "trace smoke: ok"

echo "== metrics smoke =="
# An --observe metrics run of the same bench must emit a report whose uncore
# counters capture the paper's two signature COD effects with nonzero
# counts (Table V stale broadcasts, Fig. 7 HitME hits), and
# hswsim-report must call a report equal to itself.
"$repo_root/build/bench/attribution_breakdown" --quick --seed 1 \
  --observe metrics --report "$trace_dir/attribution.report.json" > /dev/null
grep -Eq '"HA_DIRECTORY_STALE_BCAST": [1-9]' "$trace_dir/attribution.report.json" \
  || { echo "metrics smoke: HA_DIRECTORY_STALE_BCAST is zero or missing"; exit 1; }
grep -Eq '"uncore_ha.hitme_hit": [1-9]' "$trace_dir/attribution.report.json" \
  || { echo "metrics smoke: uncore_ha.hitme_hit is zero or missing"; exit 1; }
"$repo_root/build/src/metrics/hswsim-report" diff \
  "$trace_dir/attribution.report.json" "$trace_dir/attribution.report.json" \
  > /dev/null \
  || { echo "metrics smoke: hswsim-report diff report vs itself failed"; exit 1; }
echo "metrics smoke: ok"

echo "== line-stats smoke =="
# An --observe lines run must emit a report whose lines section
# hswsim-report can render (lines + transitions views).  (That the report
# bytes do not depend on --jobs is the linestats_determinism_* ctest, and
# the sharing-pattern protocol gates are golden_sharing_patterns, both run
# above.)
"$repo_root/build/bench/fig4_latency_source" --quick --seed 1 --jobs 1 \
  --observe lines --report "$trace_dir/fig4.lines.json" > /dev/null
"$repo_root/build/src/metrics/hswsim-report" lines \
  "$trace_dir/fig4.lines.json" > /dev/null \
  || { echo "line-stats smoke: hswsim-report lines failed"; exit 1; }
"$repo_root/build/src/metrics/hswsim-report" transitions \
  "$trace_dir/fig4.lines.json" > /dev/null \
  || { echo "line-stats smoke: hswsim-report transitions failed"; exit 1; }
echo "line-stats smoke: ok"

if [[ "${HSWSIM_CHECK_SKIP_SANITIZER:-0}" != "1" ]]; then
  echo "== ${sanitizer} sanitizer configuration =="
  run_config "$repo_root/build-${sanitizer}" "-DHSWSIM_SANITIZE=${sanitizer}"
fi

if [[ "${HSWSIM_CHECK_SKIP_PERF:-0}" != "1" ]]; then
  echo "== perf guard =="
  # Last, so a slow host cannot hide a result of the stages above.
  # perfbench (Release, built under .bench_build/) runs its four workloads
  # traced and the resource recorder's cost is timed on fig8; perf_guard.py
  # compares the fast-path metrics (placement, chase, closed loop, program
  # replay: a per-event allocation or a broken lookup) and each observer's
  # attached/detached cost against scripts/perf_baseline.json.  Every
  # metric's limit derives from its spread over the baseline runs;
  # HSWSIM_PERF_TOLERANCE=<percent> replaces them all.
  python3 "$repo_root/scripts/perf_guard.py" measure \
    "$repo_root/.bench_build" "$trace_dir/perf"
  python3 "$repo_root/scripts/perf_guard.py" compare \
    "$repo_root/scripts/perf_baseline.json" "$trace_dir/perf" \
    ${HSWSIM_PERF_TOLERANCE:+--tolerance "$HSWSIM_PERF_TOLERANCE"} \
    || { echo "perf guard: a metric regressed past its limit"; exit 1; }
  echo "perf guard: ok"
fi

echo "check.sh: all green"
