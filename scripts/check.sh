#!/usr/bin/env bash
# One-shot verification: configure + build + full ctest in the default
# configuration, the Tier-1 command in an empty build directory, a
# trace-export smoke test, a tracing-overhead guard, then the whole ctest
# suite again under AddressSanitizer.
#
# Usage: scripts/check.sh [extra ctest args...]
#   HSWSIM_CHECK_SANITIZER=undefined|thread|address  (default: address)
#   HSWSIM_CHECK_SKIP_SANITIZER=1                    (default build only)
#   HSWSIM_CHECK_SKIP_PERF=1                         (skip perf-ratio guard)
#   HSWSIM_PERF_TOLERANCE=<percent>                  (default: 50)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitizer="${HSWSIM_CHECK_SANITIZER:-address}"

run_config() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S "$repo_root" "$@"
  cmake --build "$build_dir" -j
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
# A --metrics run of the same bench must emit a report whose uncore
# counters capture the paper's two signature COD effects with nonzero
# counts (Table V stale broadcasts, Fig. 7 HitME hits), and
# hswsim-report must call a report equal to itself.
"$repo_root/build/bench/attribution_breakdown" --quick --seed 1 \
  --metrics "$trace_dir/attribution.metrics.json" > /dev/null
grep -Eq '"HA_DIRECTORY_STALE_BCAST": [1-9]' "$trace_dir/attribution.metrics.json" \
  || { echo "metrics smoke: HA_DIRECTORY_STALE_BCAST is zero or missing"; exit 1; }
grep -Eq '"HA_HITME_HIT": [1-9]' "$trace_dir/attribution.metrics.json" \
  || { echo "metrics smoke: HA_HITME_HIT is zero or missing"; exit 1; }
"$repo_root/build/src/metrics/hswsim-report" diff \
  "$trace_dir/attribution.metrics.json" "$trace_dir/attribution.metrics.json" \
  > /dev/null \
  || { echo "metrics smoke: hswsim-report diff report vs itself failed"; exit 1; }
echo "metrics smoke: ok"

echo "== line-stats smoke =="
# A --linestats run must emit a flight-recorder report hswsim-report can
# render (lines + transitions views), the report bytes must not depend on
# --jobs (beyond the masked manifest jobs line), and the sharing-pattern
# matrix bench must hold its own protocol-contrast gates.
"$repo_root/build/bench/fig4_latency_source" --quick --seed 1 --jobs 1 \
  --linestats "$trace_dir/fig4.jobs1.linestats.json" > /dev/null
"$repo_root/build/bench/fig4_latency_source" --quick --seed 1 --jobs 8 \
  --linestats "$trace_dir/fig4.jobs8.linestats.json" > /dev/null
for jobs in 1 8; do
  sed 's/"jobs": [0-9]*/"jobs": MASKED/' \
    "$trace_dir/fig4.jobs$jobs.linestats.json" \
    > "$trace_dir/fig4.jobs$jobs.linestats.masked"
done
cmp -s "$trace_dir/fig4.jobs1.linestats.masked" \
  "$trace_dir/fig4.jobs8.linestats.masked" \
  || { echo "line-stats smoke: --jobs 1 vs 8 reports differ"; exit 1; }
"$repo_root/build/src/metrics/hswsim-report" lines \
  "$trace_dir/fig4.jobs1.linestats.json" > /dev/null \
  || { echo "line-stats smoke: hswsim-report lines failed"; exit 1; }
"$repo_root/build/src/metrics/hswsim-report" transitions \
  "$trace_dir/fig4.jobs1.linestats.json" > /dev/null \
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

if [[ "${HSWSIM_CHECK_SKIP_PERF:-0}" != "1" ]]; then
  echo "== perf-ratio guard =="
  # Absolute ns/op is not gateable on shared/virtualized hardware: identical
  # code measures +-30% run to run (steal time, frequency, layout), so a
  # tight bound against BENCH_simcore.json flaps no matter the tolerance.
  # What IS stable is a same-run ratio — both sides of each pair run in one
  # process seconds apart, so machine state cancels.  The guard therefore
  # compares pair ratios against the same ratios in the committed
  # BENCH_simcore.json:
  #  * fast-path vs frozen-legacy pairs (BM_X / BM_XLegacy: cache array,
  #    event kernel, MESIF tables, aggregate access path) — catches a
  #    reintroduced per-event allocation or a broken tag-scan fast path,
  #    which show up as 2x+ ratio jumps;
  #  * instrumentation on/off pairs (attribution vs null tracer, metrics
  #    attached vs detached, flight recorder attached vs detached, resource
  #    telemetry attached vs detached) — catches overhead creep on the
  #    observability hot paths.
  # A genuine regression moves a ratio by 2x+; run-to-run ratio noise on
  # the ns-scale rows is up to ~25%, hence the generous default
  # HSWSIM_PERF_TOLERANCE (50%).  Raise it or set HSWSIM_CHECK_SKIP_PERF=1
  # on very noisy machines.
  "$repo_root/build/bench/simbench" \
    --benchmark_filter='TracingOff|Attribution|MetricsOn|MetricsOff|LineStatsOn|LineStatsOff|ResStatsOn|ResStatsOff|BM_Cache|BM_EventKernelChurn|BM_MesifTransition|BM_AccessThroughput' \
    --benchmark_repetitions=3 --benchmark_min_time=0.1 \
    --benchmark_out="$trace_dir/perf.json" --benchmark_out_format=json \
    > /dev/null 2>&1
  python3 - "$repo_root/BENCH_simcore.json" "$trace_dir/perf.json" \
      "${HSWSIM_PERF_TOLERANCE:-50}" <<'PY'
import json, statistics, sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
tol = float(sys.argv[3])
PAIRS = [  # (numerator, denominator): gated on numerator/denominator growth
    ("BM_CacheLookupHit", "BM_CacheLookupHitLegacy"),
    ("BM_CacheLookupMiss", "BM_CacheLookupMissLegacy"),
    ("BM_CacheInsertEvict", "BM_CacheInsertEvictLegacy"),
    ("BM_CacheInsertPlru", "BM_CacheInsertPlruLegacy"),
    ("BM_CacheFillFlush", "BM_CacheFillFlushLegacy"),
    ("BM_EventKernelChurn", "BM_EventKernelChurnLegacy"),
    ("BM_AccessThroughput", "BM_AccessThroughputLegacy"),
    ("BM_MesifTransitionTable", "BM_MesifTransitionLadder"),
    ("BM_L1HitAttribution", "BM_L1HitTracingOff"),
    ("BM_MemoryReadAttribution", "BM_MemoryReadTracingOff"),
    ("BM_L1HitMetricsOn", "BM_L1HitMetricsOff"),
    ("BM_MemoryReadMetricsOn", "BM_MemoryReadMetricsOff"),
    ("BM_L1HitLineStatsOn", "BM_L1HitLineStatsOff"),
    ("BM_MemoryReadLineStatsOn", "BM_MemoryReadLineStatsOff"),
    ("BM_ClosedLoopResStatsOn", "BM_ClosedLoopResStatsOff"),
]

def times(path):
    out = {}
    for b in json.load(open(path))["benchmarks"]:
        if b.get("run_type", "iteration") == "iteration":
            out.setdefault(b["name"].split("/")[0], []).append(b["cpu_time"])
    return out

def ratio(table, num, den):
    if num not in table or den not in table:
        return None
    return statistics.median(table[num]) / statistics.median(table[den])

baseline, fresh = times(baseline_path), times(fresh_path)
failed = False
for num, den in PAIRS:
    base_r, fresh_r = ratio(baseline, num, den), ratio(fresh, num, den)
    if base_r is None:
        print(f"  {num}/{den}: missing from BENCH_simcore.json "
              "(regenerate via build/bench/simbench)")
        failed = True
        continue
    if fresh_r is None:
        print(f"  {num}/{den}: missing from the fresh run")
        failed = True
        continue
    delta = (fresh_r / base_r - 1.0) * 100.0
    verdict = "ok" if delta <= tol else "REGRESSION"
    print(f"  {num}/{den}: ratio {fresh_r:.2f} vs baseline {base_r:.2f} "
          f"({delta:+.1f}%, limit +{tol:.0f}%) {verdict}")
    failed |= delta > tol
sys.exit(1 if failed else 0)
PY
fi

echo "== sampling agreement smoke =="
# Sampled sweeps must track exact runs within 2% on the quick Fig. 4/8
# grids, reproduce bit-identically per (ratio, seed), and leave
# under-floor points exact; the full-size sweep runs in CI via
# bench_validate_sampling_quick and here end to end.
"$repo_root/build/bench/validate_sampling" --quick > /dev/null \
  || { echo "sampling smoke: sampled-vs-full divergence gate failed"; exit 1; }
echo "sampling smoke: ok"

if [[ "${HSWSIM_CHECK_SKIP_SANITIZER:-0}" != "1" ]]; then
  echo "== ${sanitizer} sanitizer configuration =="
  run_config "$repo_root/build-${sanitizer}" "-DHSWSIM_SANITIZE=${sanitizer}"
fi

echo "check.sh: all green"
