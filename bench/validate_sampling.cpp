// Validation of the set-sampling estimator (core/sampling.h).  Four layers:
//
//  1. Accuracy, latency: Fig. 4-style sweep points across the L3/memory
//     transition (the regime sampling is for, and where its error peaks)
//     measured exactly and at the sampled ratio.  Any point diverging more
//     than 2% fails the run.
//  2. Accuracy, bandwidth: the same check on Fig. 8-style stream classes.
//  3. Determinism: the sampled pass re-run with the same (ratio, seed) must
//     reproduce every value bit-for-bit — estimates are a pure function of
//     the configuration, never of scheduling.
//  4. The small-point floor: a point under SamplingConfig::min_sampled_bytes
//     must ignore the ratio entirely and match the exact run byte-for-byte
//     (the plan collapses to denominator 1).
//
// Exits 1 on any violation so scripts/check.sh catches estimator
// regressions.  --quick trims the size axis and series list for CI.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"

namespace {

// One sweep point measured exactly and under sampling.
struct SampledPoint {
  std::string series;
  std::uint64_t bytes = 0;
  double exact = 0.0;
  double sampled = 0.0;

  [[nodiscard]] double divergence() const {
    return exact != 0.0 ? sampled / exact - 1.0 : 0.0;
  }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<hswbench::LatencySeriesPlan> latency_plans(
    const std::vector<std::uint64_t>& sizes, std::uint64_t seed,
    const hsw::SamplingConfig& sampling, bool quick) {
  std::vector<hswbench::LatencySeriesPlan> plans;
  auto sweep = [&](std::string name, int owner, int sharer,
                   hsw::Mesif state) {
    hsw::LatencySweepConfig sc;
    sc.system = hsw::SystemConfig::source_snoop();
    sc.reader_core = 0;
    sc.placement.owner_core = owner;
    sc.placement.memory_node = owner >= 12 ? 1 : 0;
    sc.placement.state = state;
    if (sharer >= 0) sc.placement.sharers = {sharer};
    sc.sizes = sizes;
    sc.max_measured_lines = 8192;
    sc.seed = seed;
    sc.sampling = sampling;
    plans.push_back({std::move(name), std::move(sc)});
  };
  sweep("local M", 0, -1, hsw::Mesif::kModified);
  sweep("socket2 S", 12, 13, hsw::Mesif::kShared);
  if (!quick) {
    sweep("node E", 1, -1, hsw::Mesif::kExclusive);
    sweep("node S", 1, 2, hsw::Mesif::kShared);
  }
  return plans;
}

std::vector<hswbench::BandwidthSeriesPlan> bandwidth_plans(
    const std::vector<std::uint64_t>& sizes, std::uint64_t seed,
    const hsw::SamplingConfig& sampling, bool quick) {
  std::vector<hswbench::BandwidthSeriesPlan> plans;
  auto sweep = [&](std::string name, int owner, hsw::Mesif state) {
    hsw::BandwidthSweepConfig sc;
    sc.system = hsw::SystemConfig::source_snoop();
    sc.stream.core = 0;
    sc.stream.width = hsw::bw::LoadWidth::kAvx256;
    sc.stream.placement.owner_core = owner;
    sc.stream.placement.memory_node = owner >= 12 ? 1 : 0;
    sc.stream.placement.state = state;
    sc.sizes = sizes;
    sc.seed = seed;
    sc.sampling = sampling;
    plans.push_back({std::move(name), std::move(sc)});
  };
  sweep("local M", 0, hsw::Mesif::kModified);
  sweep("socket2 M", 12, hsw::Mesif::kModified);
  if (!quick) sweep("node E", 1, hsw::Mesif::kExclusive);
  return plans;
}

// Zips an exact and a sampled series grid into comparable points.
std::vector<SampledPoint> zip_points(
    const std::vector<std::uint64_t>& sizes,
    const std::vector<hswbench::Series>& exact,
    const std::vector<hswbench::Series>& sampled, const char* kind) {
  std::vector<SampledPoint> points;
  for (std::size_t p = 0; p < exact.size(); ++p) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      SampledPoint point;
      point.series = std::string(kind) + " " + exact[p].name;
      point.bytes = sizes[i];
      point.exact = exact[p].values[i];
      point.sampled = sampled[p].values[i];
      points.push_back(std::move(point));
    }
  }
  return points;
}

// Reports every point beyond `tolerance`; returns the failure count.
int check_tolerance(const std::vector<SampledPoint>& points, double tolerance,
                    const char* unit) {
  int failures = 0;
  double worst = 0.0;
  const SampledPoint* worst_point = nullptr;
  for (const SampledPoint& point : points) {
    const double d = point.divergence();
    if (std::abs(d) > std::abs(worst)) {
      worst = d;
      worst_point = &point;
    }
    if (std::abs(d) > tolerance) {
      std::printf("DIVERGED %-20s @ %-8s exact %8.2f %s, sampled %8.2f %s "
                  "(%+.2f%%)\n",
                  point.series.c_str(), hsw::format_bytes(point.bytes).c_str(),
                  point.exact, unit, point.sampled, unit, 100.0 * d);
      ++failures;
    }
  }
  if (worst_point != nullptr) {
    std::printf("%zu points, worst divergence %+.2f%% at %s @ %s\n",
                points.size(), 100.0 * worst, worst_point->series.c_str(),
                hsw::format_bytes(worst_point->bytes).c_str());
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv,
      "Validation: set-sampled sweeps vs exact runs (accuracy, determinism, "
      "small-point floor)");
  hswbench::warn_untraced(args);

  // Validate the ratio the figure benches advertise unless the caller picked
  // another one.
  hsw::SamplingConfig sampling = args.sampling;
  if (!sampling.active()) sampling.ratio = 1.0 / 16.0;

  // The size axis spans the L3/memory transition — above the floor so every
  // point actually samples, and exactly the regime where per-set populations
  // are smallest relative to the transition sharpness.
  const std::vector<std::uint64_t> sizes =
      args.quick
          ? std::vector<std::uint64_t>{hsw::mib(16), hsw::mib(32), hsw::mib(64)}
          : hsw::sweep_sizes(hsw::mib(8), hsw::mib(64));
  constexpr double kTolerance = 0.02;

  std::printf("set-sampling validation: ratio %.4f (1/%llu), seed %llu, %zu "
              "sizes %s..%s\n\n",
              sampling.ratio,
              static_cast<unsigned long long>(sampling.requested_denominator()),
              static_cast<unsigned long long>(sampling.seed), sizes.size(),
              hsw::format_bytes(sizes.front()).c_str(),
              hsw::format_bytes(sizes.back()).c_str());

  const hsw::SamplingConfig exact;  // ratio 1

  // --- accuracy: latency ---------------------------------------------------
  auto t0 = std::chrono::steady_clock::now();
  const std::vector<hswbench::Series> lat_exact = hswbench::run_latency_series(
      latency_plans(sizes, args.seed, exact, args.quick), args.jobs);
  const double lat_exact_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  const std::vector<hswbench::Series> lat_sampled =
      hswbench::run_latency_series(
          latency_plans(sizes, args.seed, sampling, args.quick), args.jobs);
  const double lat_sampled_s = seconds_since(t0);
  int failures =
      check_tolerance(zip_points(sizes, lat_exact, lat_sampled, "latency"),
                      kTolerance, "ns");
  std::printf("latency pass: exact %.2fs, sampled %.2fs (%.1fx)\n\n",
              lat_exact_s, lat_sampled_s, lat_exact_s / lat_sampled_s);

  // --- accuracy: bandwidth -------------------------------------------------
  t0 = std::chrono::steady_clock::now();
  const std::vector<hswbench::Series> bw_exact = hswbench::run_bandwidth_series(
      bandwidth_plans(sizes, args.seed, exact, args.quick), args.jobs);
  const double bw_exact_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  const std::vector<hswbench::Series> bw_sampled =
      hswbench::run_bandwidth_series(
          bandwidth_plans(sizes, args.seed, sampling, args.quick), args.jobs);
  const double bw_sampled_s = seconds_since(t0);
  failures +=
      check_tolerance(zip_points(sizes, bw_exact, bw_sampled, "bandwidth"),
                      kTolerance, "GB/s");
  std::printf("bandwidth pass: exact %.2fs, sampled %.2fs (%.1fx)\n\n",
              bw_exact_s, bw_sampled_s, bw_exact_s / bw_sampled_s);

  // --- determinism: same (ratio, seed) => bit-identical --------------------
  const std::vector<hswbench::Series> lat_again = hswbench::run_latency_series(
      latency_plans(sizes, args.seed, sampling, args.quick), args.jobs);
  int nondeterministic = 0;
  for (std::size_t p = 0; p < lat_sampled.size(); ++p) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (lat_sampled[p].values[i] != lat_again[p].values[i]) {
        std::printf("NON-DETERMINISTIC %s @ %s: %.17g vs %.17g\n",
                    lat_sampled[p].name.c_str(),
                    hsw::format_bytes(sizes[i]).c_str(),
                    lat_sampled[p].values[i], lat_again[p].values[i]);
        ++nondeterministic;
      }
    }
  }
  std::printf("determinism: sampled pass re-run %s\n\n",
              nondeterministic == 0 ? "bit-identical" : "DIVERGED");
  failures += nondeterministic;

  // --- the floor: small points ignore the ratio ----------------------------
  {
    hsw::LatencySweepConfig sc =
        latency_plans({hsw::mib(1)}, args.seed, exact, true)[0].config;
    const hsw::LatencyResult exact_point =
        hsw::latency_sweep_point(sc, 0).result;
    sc.sampling = sampling;
    const hsw::LatencyResult floored_point =
        hsw::latency_sweep_point(sc, 0).result;
    const bool identical =
        exact_point.mean_ns == floored_point.mean_ns &&
        exact_point.counters == floored_point.counters;
    std::printf("floor: 1 MiB point under sampling %s the exact run\n",
                identical ? "matches" : "DIVERGED from");
    if (!identical) ++failures;
  }

  if (failures > 0) {
    std::fprintf(stderr, "\nFAIL: %d violation(s)\n", failures);
    return 1;
  }
  std::printf("\nall checks passed (tolerance %.0f%%)\n", 100.0 * kTolerance);
  return 0;
}
