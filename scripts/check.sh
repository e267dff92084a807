#!/usr/bin/env bash
# One-shot verification: configure + build + full ctest in the default
# configuration, the Tier-1 command in an empty build directory, the
# trace/metrics/line-stats/protocol/simulated-engine smoke tests, the whole
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
grep -Eq '"HA_HITME_HIT": [1-9]' "$trace_dir/attribution.report.json" \
  || { echo "metrics smoke: HA_HITME_HIT is zero or missing"; exit 1; }
"$repo_root/build/src/metrics/hswsim-report" diff \
  "$trace_dir/attribution.report.json" "$trace_dir/attribution.report.json" \
  > /dev/null \
  || { echo "metrics smoke: hswsim-report diff report vs itself failed"; exit 1; }
echo "metrics smoke: ok"

echo "== line-stats smoke =="
# An --observe lines run must emit a report whose lines section
# hswsim-report can render (lines + transitions views), and the
# sharing-pattern matrix bench must hold its own protocol-contrast gates.
# (That the report bytes do not depend on --jobs is the
# linestats_determinism_* ctest, run above.)
"$repo_root/build/bench/fig4_latency_source" --quick --seed 1 --jobs 1 \
  --observe lines --report "$trace_dir/fig4.lines.json" > /dev/null
"$repo_root/build/src/metrics/hswsim-report" lines \
  "$trace_dir/fig4.lines.json" > /dev/null \
  || { echo "line-stats smoke: hswsim-report lines failed"; exit 1; }
"$repo_root/build/src/metrics/hswsim-report" transitions \
  "$trace_dir/fig4.lines.json" > /dev/null \
  || { echo "line-stats smoke: hswsim-report transitions failed"; exit 1; }
"$repo_root/build/bench/sharing_patterns" --quick --seed 1 > /dev/null \
  || { echo "line-stats smoke: sharing_patterns protocol gates failed"; exit 1; }
echo "line-stats smoke: ok"

echo "== protocol differential smoke =="
# Every coherence-protocol family (MESIF/MESI/MOESI/Dragon) replays a short
# seeded trace through the engine and its timing-free reference with
# full-state diffing after every step; any divergence fails the run with a
# minimized repro.  The full protocol x snoop-mode grid runs in check_tests
# (ctest -L protocol); this is the seconds-scale shell gate.
"$repo_root/build/src/check/protocol_diff" --steps 500 \
  || { echo "protocol smoke: engine diverged from a protocol reference"; exit 1; }
echo "protocol smoke: ok"

echo "== simulated-engine smoke =="
# The event-driven bandwidth engine must (a) run the Fig. 8 quick sweep
# end to end under --engine simulated with byte-identical CSVs for any
# --jobs value, and (b) agree with the analytic solver point-for-point:
# validate_bw_model exits nonzero if a hand-built fluid-vs-closed-loop
# scenario diverges more than 1%, any quick-sweep point more than 10%, or
# the simulated Table VII scaling dips before the knee.
"$repo_root/build/bench/fig8_bandwidth_source" --quick --seed 1 --jobs 1 \
  --engine simulated --csv "$trace_dir/fig8.sim.jobs1.csv" > /dev/null
"$repo_root/build/bench/fig8_bandwidth_source" --quick --seed 1 --jobs 8 \
  --engine simulated --csv "$trace_dir/fig8.sim.jobs8.csv" > /dev/null
cmp -s "$trace_dir/fig8.sim.jobs1.csv" "$trace_dir/fig8.sim.jobs8.csv" \
  || { echo "simulated smoke: --jobs 1 vs 8 CSVs differ"; exit 1; }
"$repo_root/build/bench/validate_bw_model" --quick > /dev/null \
  || { echo "simulated smoke: analytic-vs-simulated agreement gate failed"; exit 1; }
# bottleneck_knee exits nonzero if the throughput knee and the first
# resource saturation land on different core counts for either snoop mode.
"$repo_root/build/bench/bottleneck_knee" --quick --seed 1 > /dev/null \
  || { echo "simulated smoke: bottleneck knee does not match first saturation"; exit 1; }
echo "simulated smoke: ok"

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
