#!/usr/bin/env python3
"""Gate hswsim's per-layer speed against a committed Release baseline.

Usage (from the repository root):

    scripts/perf_guard.py measure BUILD_DIR DIR
    scripts/perf_guard.py compare BASELINE DIR [--tolerance PCT]
    scripts/perf_guard.py record BUILD_DIR DIR... > scripts/perf_baseline.json

`measure` runs every workload of GATED RUNS times through perfbench,
building under BUILD_DIR (perfbench's CARGO_TARGET_DIR),

    python3 perfbench/run.py --workload <workload> --seed 1 --seconds 3 --trace 1

and writes DIR/<workload>.json in the shape of perfbench's result line
({"correct", "attempted", "failed", "metrics"}), each metric the least over
the runs and `correct` only if every run was.  perfbench has no metric
for the resource recorder, so DIR/resources.json is written in the same
shape: `hswsim_cli bandwidth --engine simulated` of the same build runs
RESOURCE_PAIRS times without and with --observe resources, alternating,
and obs.resources_cost_x is the median over the pairs of attached CPU time
over detached.

`compare` fails (exit 1) when a result is missing or not correct, when a
gated metric is missing, or when one exceeds its baseline value by more
than its tolerance.  Every gated metric is lower-is-better.  Each metric's
tolerance comes from the spread `record` measured over the baseline runs;
--tolerance overrides all of them with one percentage.

`record` writes a baseline from several `measure` runs, one DIR each
(a DIR may lack some workloads): per metric the median, the largest
deviation from it, and the tolerance derived from that deviation, with
BUILD_DIR's build type and compiler and the host.
"""
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# What each workload gates: the fast paths a stray allocation or a broken
# lookup slows ((i)), and each observer's attached cost against its detached
# twin ((ii)).  The detached read path itself is core.chase_ns_per_access.
GATED = {
    "latency_sweep": ["core.place_ns_per_line", "core.chase_ns_per_access"],
    "bandwidth_sim": ["exec.closed_loop_ns_per_line"],
    "coherence_replay": ["exec.programs_ns_per_access"],
    "observed_sweep": ["obs.attribution_cost_x", "obs.metrics_cost_x",
                       "obs.linestats_cost_x"],
    "resources": ["obs.resources_cost_x"],
}
# A metric's tolerance is the largest deviation from the median seen while
# recording plus this margin, rounded up to 5%.
MARGIN_PCT = 10.0
# perfbench runs per workload (each metric keeps its least value), and
# alternating detached/attached runs behind obs.resources_cost_x.
RUNS = 2
RESOURCE_PAIRS = 25


def load_result(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        return {"error": str(e)}


def perfbench(workload, env):
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "3",
         "--trace", "1"], env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def best_of(results):
    # Other tenants only ever slow a run down, so the least of each metric
    # over the runs is the steadiest estimate of the code's own cost.
    names = set.intersection(*(set(r["metrics"]) for r in results))
    return {"correct": all(r["correct"] is True for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {n: {"value": min(r["metrics"][n]["value"]
                                         for r in results),
                            "unit": results[0]["metrics"][n]["unit"]}
                        for n in sorted(names)}}


def resources_cost(build_dir):
    # The median over alternating pairs of the CPU time with the recorder
    # attached over the time without, all on one CPU.  Twelve streams over
    # L1-sized buffers make the closed loop, whose every service the
    # recorder sees, most of the run; in a figure bench, placement would
    # hide it.
    cli = [os.path.join(build_dir, "hswsim", "examples", "hswsim_cli"),
           "bandwidth", "--mode", "source", "--cores", "12", "--size",
           "16KiB", "--engine", "simulated"]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    ratios = []
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        observe = ["--observe", "resources", "--report",
                   os.path.join(tmp, "resources.report.json")]
        for _ in range(RESOURCE_PAIRS):
            pair = []
            for extra in ([], observe):
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                rc = subprocess.run(cli + extra,
                                    stdout=subprocess.DEVNULL).returncode
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                failed += rc != 0
                pair.append(after.ru_utime + after.ru_stime -
                            before.ru_utime - before.ru_stime)
            ratios.append(pair[1] / max(pair[0], 1e-6))
    os.sched_setaffinity(0, allowed)
    return {"correct": failed == 0, "attempted": 2 * RESOURCE_PAIRS,
            "failed": failed,
            "metrics": {"obs.resources_cost_x":
                        {"value": statistics.median(ratios), "unit": "x"}}}


def measure(build_dir, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(build_dir))
    for workload in GATED:
        if workload == "resources":
            result = resources_cost(build_dir)
        else:
            result = best_of([perfbench(workload, env)
                              for _ in range(RUNS)])
        with open(os.path.join(out_dir, workload + ".json"), "w") as f:
            f.write(json.dumps(result) + "\n")
    return 0


def compare(baseline_path, result_dir, tolerance):
    with open(baseline_path) as f:
        baseline = json.load(f)
    print(f"  baseline: {baseline['build_type']} build, {baseline['host']}")
    failed = False
    for workload, gated in baseline["workloads"].items():
        result = load_result(os.path.join(result_dir, workload + ".json"))
        if "error" in result:
            print(f"  {workload}: no result ({result['error']})")
            failed = True
            continue
        if result.get("correct") is not True or result.get("failed", 0):
            print(f"  {workload}: run not correct (correct="
                  f"{result.get('correct')}, failed={result.get('failed')})")
            failed = True
        for name, ref in gated.items():
            got = result.get("metrics", {}).get(name)
            if got is None:
                print(f"  {workload} {name}: missing from the result")
                failed = True
                continue
            tol = ref["tolerance_pct"] if tolerance is None else tolerance
            limit = ref["value"] * (1.0 + tol / 100.0)
            delta = (got["value"] / ref["value"] - 1.0) * 100.0
            verdict = "ok" if got["value"] <= limit else "REGRESSION"
            print(f"  {workload} {name}: {got['value']:.4g} vs baseline "
                  f"{ref['value']:.4g} ({delta:+.1f}%, limit +{tol:.0f}%) "
                  f"{verdict}")
            failed |= got["value"] > limit
    return 1 if failed else 0


def cmake_cache(build_dir, key):
    with open(os.path.join(build_dir, "hswsim", "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "?"


def host():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{os.cpu_count()} x {model}"


def record(build_dir, run_dirs):
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "-dumpfullversion"],
                             capture_output=True, text=True).stdout.strip()
    out = {"host": host(), "build_type": cmake_cache(build_dir,
                                                     "CMAKE_BUILD_TYPE"),
           "compiler": f"{os.path.basename(compiler)} {version}",
           "runs": {}, "workloads": {}}
    for workload, names in GATED.items():
        results = [load_result(os.path.join(d, workload + ".json"))
                   for d in run_dirs]
        results = [r for r in results if "error" not in r]
        if not results or any(r["correct"] is not True for r in results):
            print(f"record: no {workload} result, or one not correct",
                  file=sys.stderr)
            return 1
        out["runs"][workload] = len(results)
        gated = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            spread = max(abs(v / median - 1.0) for v in values) * 100.0
            tol = 5.0 * math.ceil((spread + MARGIN_PCT) / 5.0)
            gated[name] = {"value": round(median, 4),
                           "spread_pct": round(spread, 1),
                           "tolerance_pct": tol}
        out["workloads"][workload] = gated
    print(json.dumps(out, indent=2))
    return 0


def main(argv):
    if len(argv) == 3 and argv[0] == "measure":
        return measure(argv[1], argv[2])
    if len(argv) in (3, 5) and argv[0] == "compare":
        tolerance = None
        if len(argv) == 5 and argv[3] == "--tolerance":
            tolerance = float(argv[4])
        elif len(argv) == 5:
            print(__doc__, file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], tolerance)
    if len(argv) >= 3 and argv[0] == "record":
        return record(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
