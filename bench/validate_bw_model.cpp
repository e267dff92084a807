// Cross-validation of the analytic (max-min fluid) bandwidth model against
// the event-driven exec engine.  Three layers, each exiting 1 on failure so
// CI catches it:
//
//  1. Hand-built scenarios: fluid solver vs exec::run_closed_loop on
//     single-bottleneck flows; every scenario must agree within 1%.
//  2. Fig. 8 quick sweep: measure_bandwidth with engine=analytic vs
//     engine=simulated on every (stream class, size) point.  The exec
//     engine's closed loops run the *same* flows over the *same* resource
//     capacities, so any divergence > 10% is a modelling bug.
//  3. Table VII core scaling under engine=simulated: aggregate bandwidth
//     must grow monotonically with the core count until the saturation
//     knee (queueing artefacts would show up as dips).
//
// Two independent formalisms agreeing is the evidence that the fluid
// model's saturation shapes are not artefacts.
#include <cmath>
#include <cstdio>

#include "common.h"
#include "exec/engine.h"
#include "obs/resource_stats.h"

namespace {

struct Scenario {
  const char* name;
  int flows;
  double per_flow_demand;    // MLP-limited single-stream rate (GB/s)
  double base_latency_ns;    // uncontended round trip
  double capacity;           // shared bottleneck (GB/s)
  double weight;             // protocol bytes per payload byte
};

// One Fig. 8 sweep point measured under both engines.
struct EnginePoint {
  std::string series;
  std::uint64_t bytes = 0;
  double analytic = 0.0;
  double simulated = 0.0;

  [[nodiscard]] double divergence() const {
    return analytic > 0.0 ? simulated / analytic - 1.0 : 0.0;
  }
};

// Measures every (series, size) point of the Fig. 8 quick sweep under one
// engine.  Same plans as fig8_bandwidth_source --quick.
std::vector<EnginePoint> fig8_quick_sweep(hsw::BandwidthEngine engine,
                                          std::uint64_t seed, unsigned jobs) {
  const std::vector<std::uint64_t> sizes =
      hsw::sweep_sizes(hsw::kib(16), hsw::mib(4));
  std::vector<hswbench::BandwidthSeriesPlan> plans;
  auto sweep = [&](std::string name, int owner, hsw::Mesif state,
                   hsw::bw::LoadWidth width) {
    hsw::BandwidthSweepConfig sc;
    sc.system = hsw::SystemConfig::source_snoop();
    sc.stream.core = 0;
    sc.stream.width = width;
    sc.stream.placement.owner_core = owner;
    sc.stream.placement.memory_node = owner >= 12 ? 1 : 0;
    sc.stream.placement.state = state;
    sc.sizes = sizes;
    sc.seed = seed;
    sc.engine = engine;
    plans.push_back({std::move(name), std::move(sc)});
  };
  sweep("local M avx", 0, hsw::Mesif::kModified, hsw::bw::LoadWidth::kAvx256);
  sweep("local M sse", 0, hsw::Mesif::kModified, hsw::bw::LoadWidth::kSse128);
  sweep("node M", 1, hsw::Mesif::kModified, hsw::bw::LoadWidth::kAvx256);
  sweep("node E", 1, hsw::Mesif::kExclusive, hsw::bw::LoadWidth::kAvx256);
  sweep("socket2 M", 12, hsw::Mesif::kModified, hsw::bw::LoadWidth::kAvx256);
  sweep("socket2 E", 12, hsw::Mesif::kExclusive, hsw::bw::LoadWidth::kAvx256);

  const std::vector<hswbench::Series> series =
      hswbench::run_bandwidth_series(plans, jobs);
  std::vector<EnginePoint> points;
  for (std::size_t p = 0; p < series.size(); ++p) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EnginePoint point;
      point.series = series[p].name;
      point.bytes = sizes[i];
      (engine == hsw::BandwidthEngine::kAnalytic ? point.analytic
                                                 : point.simulated) =
          series[p].values[i];
      points.push_back(std::move(point));
    }
  }
  return points;
}

// Table VII local-read scaling point under the simulated engine.
double simulated_scaling_point(int cores, std::uint64_t seed) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  hsw::BandwidthConfig bc;
  for (int c = 0; c < cores; ++c) {
    hsw::StreamConfig stream;
    stream.core = c;
    stream.placement.owner_core = c;
    stream.placement.memory_node = 0;
    stream.placement.state = hsw::Mesif::kModified;
    stream.placement.level = hsw::CacheLevel::kMemory;
    bc.streams.push_back(stream);
  }
  bc.buffer_bytes = hsw::mib(2);
  bc.seed = seed;
  bc.engine = hsw::BandwidthEngine::kSimulated;
  return hsw::measure_bandwidth(sys, bc).total_gbps;
}

}  // namespace

int main(int argc, char** argv) {
  const hswbench::BenchArgs args =
      hswbench::parse_args(argc, argv,
                           "Cross-check: fluid max-min model vs the "
                           "event-driven exec closed loops");
  hswbench::warn_untraced(args);

  const Scenario scenarios[] = {
      {"12 local readers vs DRAM (Table VII)", 12, 11.2, 96.4, 62.8, 1.0},
      {"6 local readers vs DRAM", 6, 11.2, 96.4, 62.8, 1.0},
      {"3 local readers (unsaturated)", 3, 11.2, 96.4, 62.8, 1.0},
      {"6 remote readers vs QPI, source snoop", 6, 8.4, 146.0, 38.4, 2.29},
      {"6 remote readers vs QPI, home snoop", 6, 8.4, 146.0, 38.4, 1.25},
      {"6 COD readers vs bridge (Table VIII)", 6, 6.2, 96.0, 18.8, 1.0},
  };

  constexpr double kScenarioTolerance = 0.01;
  int scenario_failures = 0;
  hsw::Table table({"scenario", "fluid model", "closed loop", "difference"});
  for (const Scenario& s : scenarios) {
    // Fluid model.
    std::vector<hsw::bw::Flow> flows(
        static_cast<std::size_t>(s.flows),
        hsw::bw::Flow{s.per_flow_demand, {{0, s.weight}}});
    const auto fluid_rates = hsw::bw::max_min_rates(flows, {s.capacity});
    double fluid = 0.0;
    for (double r : fluid_rates) fluid += r;

    // Closed loops: each stream's request slots are calibrated so its
    // unloaded throughput equals the fluid demand.
    std::vector<hsw::exec::StreamTask> tasks;
    for (int c = 0; c < s.flows; ++c) {
      hsw::exec::StreamTask task;
      task.core = c;
      task.demand_gbps = s.per_flow_demand;
      task.latency_ns = s.base_latency_ns;
      task.path = {{0, s.weight}};
      tasks.push_back(std::move(task));
    }
    const double des =
        hsw::exec::run_closed_loop(tasks, {s.capacity}).total_gbps;

    const double d = des / fluid - 1.0;
    char diff[32];
    std::snprintf(diff, sizeof diff, "%+.2f%%", 100.0 * d);
    table.add_row({s.name, hsw::format_gbps(fluid), hsw::format_gbps(des),
                   diff});
    if (std::abs(d) > kScenarioTolerance) ++scenario_failures;
  }
  std::printf("Bandwidth-model cross-validation\n%s", table.to_string().c_str());
  std::printf(
      "\nThe fluid model is exact for saturated deterministic servers, and\n"
      "the closed-loop calibration reproduces the demand caps, so the two\n"
      "must agree within %.0f%%.\n",
      100.0 * kScenarioTolerance);
  if (scenario_failures > 0) {
    std::fprintf(stderr, "FAIL: %d scenario(s) diverged beyond %.0f%%\n",
                 scenario_failures, 100.0 * kScenarioTolerance);
    return 1;
  }

  // --- engine=analytic vs engine=simulated on the Fig. 8 quick sweep -------
  constexpr double kTolerance = 0.10;
  std::vector<EnginePoint> points =
      fig8_quick_sweep(hsw::BandwidthEngine::kAnalytic, args.seed, args.jobs);
  const std::vector<EnginePoint> sim_points =
      fig8_quick_sweep(hsw::BandwidthEngine::kSimulated, args.seed, args.jobs);
  double worst = 0.0;
  const EnginePoint* worst_point = nullptr;
  int failures = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].simulated = sim_points[i].simulated;
    const double d = points[i].divergence();
    if (std::abs(d) > std::abs(worst)) {
      worst = d;
      worst_point = &points[i];
    }
    if (std::abs(d) > kTolerance) {
      std::printf("DIVERGED %-14s @ %-8s analytic %7.2f GB/s, simulated "
                  "%7.2f GB/s (%+.1f%%)\n",
                  points[i].series.c_str(),
                  hsw::format_bytes(points[i].bytes).c_str(),
                  points[i].analytic, points[i].simulated, 100.0 * d);
      ++failures;
    }
  }
  std::printf(
      "\nFig. 8 quick sweep, engine=analytic vs engine=simulated: %zu points, "
      "worst divergence %+.2f%%%s%s\n",
      points.size(), 100.0 * worst,
      worst_point != nullptr ? " at " : "",
      worst_point != nullptr
          ? (worst_point->series + " @ " + hsw::format_bytes(worst_point->bytes))
                .c_str()
          : "");
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d points diverged beyond %.0f%%\n", failures,
                 100.0 * kTolerance);
    return 1;
  }
  std::printf("all points within %.0f%%\n", 100.0 * kTolerance);

  // --- simulated Table VII scaling: monotone until the saturation knee -----
  const int max_cores = args.quick ? 6 : 12;
  std::vector<double> scaling;
  for (int c = 1; c <= max_cores; ++c) {
    scaling.push_back(simulated_scaling_point(c, args.seed));
  }
  double peak = 0.0;
  for (double v : scaling) peak = std::max(peak, v);
  bool monotone = true;
  std::printf("\nsimulated local-read scaling (GB/s):");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    std::printf(" %.1f", scaling[i]);
    // Before the knee (here: until within 2% of the peak) every added core
    // must raise the aggregate; past it, small queueing wiggle is fine.
    if (i > 0 && scaling[i - 1] < 0.98 * peak &&
        scaling[i] < scaling[i - 1] * (1.0 - 1e-9)) {
      monotone = false;
    }
  }
  std::printf("\n");
  if (!monotone) {
    std::fprintf(stderr,
                 "FAIL: simulated scaling is not monotone before the knee\n");
    return 1;
  }
  std::printf("scaling is monotone up to the saturation knee (peak %.1f GB/s)\n",
              peak);

  // --- measured busy fraction vs analytic max-min utilization --------------
  // The same flows once more, judged at the *resource* level: the analytic
  // utilization of every shared box (sum over flows of rate x weight,
  // divided by the box's capacity) must match the busy fraction the
  // per-resource telemetry measures on the closed loops.  This calibration
  // is what the bottleneck attribution and the bottleneck_knee golden rest
  // on: "measured utilization ~ 1.0" must mean the same thing in both
  // formalisms.
  constexpr double kUtilTolerance = 0.05;
  struct UtilCase {
    const char* name;
    int readers;
  };
  const UtilCase util_cases[] = {
      {"2 local readers (unsaturated)", 2},
      {"8 local readers (DRAM saturated)", 8},
  };
  hsw::System util_sys(hsw::SystemConfig::source_snoop());
  const hsw::bw::BandwidthModel util_model(util_sys);
  const std::vector<double>& caps = util_model.capacities();
  const std::vector<std::string> res_names =
      hsw::bw::resource_names(caps.size());
  int util_failures = 0;
  std::printf("\nper-resource utilization, analytic vs measured busy fraction\n");
  for (const UtilCase& uc : util_cases) {
    std::vector<hsw::bw::Flow> flows;
    std::vector<hsw::exec::StreamTask> tasks;
    for (int c = 0; c < uc.readers; ++c) {
      hsw::bw::StreamSpec spec;
      spec.core = c;
      spec.source = hsw::ServiceSource::kLocalDram;
      spec.source_node = 0;
      spec.home_node = 0;
      spec.latency_ns = 96.4;
      flows.push_back(util_model.flow_for(spec));
      hsw::exec::StreamTask task;
      task.core = c;
      task.demand_gbps = flows.back().demand;
      task.latency_ns = spec.latency_ns;
      task.path = flows.back().uses;
      tasks.push_back(std::move(task));
    }
    const std::vector<double> rates = hsw::bw::max_min_rates(flows, caps);
    std::vector<double> analytic_util(caps.size(), 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      for (const hsw::bw::Flow::Use& use : flows[f].uses) {
        const auto r = static_cast<std::size_t>(use.resource);
        analytic_util[r] += rates[f] * use.weight / caps[r];
      }
    }

    hsw::obs::ResourceStatsRecorder recorder;
    hsw::exec::ClosedLoopConfig loop;
    loop.resstats = &recorder;
    hsw::exec::run_closed_loop(tasks, caps, loop);
    hsw::obs::ResourceStatsHub hub;
    hub.absorb(std::move(recorder));
    const hsw::obs::MergedResourceStats merged = hub.merged();

    for (std::size_t r = 0; r < caps.size(); ++r) {
      const double measured = merged.utilization(r);
      if (analytic_util[r] < 0.01 && measured < 0.01) continue;
      const double delta = measured - analytic_util[r];
      std::printf("  %-32s %-9s analytic %.3f  measured %.3f  (%+.3f)\n",
                  uc.name, res_names[r].c_str(), analytic_util[r], measured,
                  delta);
      if (std::abs(delta) > kUtilTolerance) ++util_failures;
    }
  }
  if (util_failures > 0) {
    std::fprintf(stderr,
                 "FAIL: %d resource(s) diverge beyond %.2f absolute "
                 "utilization\n",
                 util_failures, kUtilTolerance);
    return 1;
  }
  std::printf("all active resources within %.2f absolute utilization\n",
              kUtilTolerance);
  return 0;
}
