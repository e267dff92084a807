// Unit tests of the per-resource queueing telemetry (obs/resource_stats.h):
// exact FIFO accounting on hand-driven services, the Little's-law
// self-check (L = lambda x W) on both hand-driven and real closed-loop
// runs, the hub fold's sums, depth-series decimation, and the report
// writer's failure path.  Absorb-order independence of the merge is covered
// for every hub by stream_hub_test.cpp.  Engine integration
// (which closed loop feeds which recorder) is covered by the
// bottleneck_knee golden and the resstats determinism ctest script.
#include "obs/resource_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bw/model.h"
#include "exec/engine.h"
#include "metrics/report.h"

namespace {

using hsw::obs::MergedResourceStats;
using hsw::obs::ResourceStatsHub;
using hsw::obs::ResourceStatsRecorder;
using hsw::obs::ResourceUsage;

ResourceStatsRecorder two_resource_recorder(std::uint32_t stream = 0) {
  ResourceStatsRecorder recorder(stream);
  recorder.bind({"A", "B"}, {10.0, 20.0});
  return recorder;
}

TEST(ResourceStats, HandDrivenAccountingIsExact) {
  ResourceStatsRecorder recorder = two_resource_recorder();
  // Two services on A: back-to-back, the second arrives while the first is
  // still in service and waits 1 ns.
  recorder.on_service(0, /*arrival=*/0.0, /*start=*/0.0, /*done=*/2.0, 64.0);
  recorder.on_service(0, /*arrival=*/1.0, /*start=*/2.0, /*done=*/4.0, 64.0);
  recorder.finalize(10.0);

  const ResourceUsage& a = recorder.usage()[0];
  EXPECT_DOUBLE_EQ(a.busy_ns, 4.0);        // service intervals never overlap
  EXPECT_EQ(a.services, 2u);
  EXPECT_DOUBLE_EQ(a.bytes, 128.0);
  EXPECT_DOUBLE_EQ(a.wait_ns, 1.0);
  EXPECT_DOUBLE_EQ(a.wait_max_ns, 1.0);
  EXPECT_DOUBLE_EQ(a.residence_ns, 5.0);   // (2-0) + (4-1)
  // Depth integral: depth 1 over [0,1), 2 over [1,2), 1 over [2,4), 0 after.
  EXPECT_DOUBLE_EQ(a.depth_area, 5.0);
  EXPECT_EQ(a.depth_max, 2u);
  EXPECT_DOUBLE_EQ(a.mean_wait_ns(), 0.5);
  EXPECT_DOUBLE_EQ(a.mean_service_ns(), 2.0);

  const ResourceUsage& b = recorder.usage()[1];
  EXPECT_EQ(b.services, 0u);
  EXPECT_DOUBLE_EQ(b.busy_ns, 0.0);
  EXPECT_DOUBLE_EQ(recorder.elapsed_ns(), 10.0);
}

TEST(ResourceStats, LittlesLawExactForDrainedHandDrivenRun) {
  ResourceStatsRecorder recorder = two_resource_recorder();
  recorder.on_service(0, 0.0, 0.0, 2.0, 64.0);
  recorder.on_service(0, 1.0, 2.0, 4.0, 64.0);
  recorder.on_service(1, 3.0, 3.0, 3.5, 64.0);
  recorder.finalize(10.0);

  ResourceStatsHub hub;
  hub.absorb(std::move(recorder));
  const MergedResourceStats m = hub.merged();
  // Every request drained before the end, so the time integral of queue
  // depth equals total residence exactly: L == lambda x W, not just within
  // tolerance.
  for (std::size_t r = 0; r < m.usage.size(); ++r) {
    EXPECT_DOUBLE_EQ(m.mean_depth(r), m.littles_depth(r)) << m.names[r];
  }
  EXPECT_DOUBLE_EQ(m.utilization(0), 0.4);  // 4 busy ns over 10 elapsed
}

TEST(ResourceStats, LittlesLawHoldsOnRealClosedLoops) {
  // Four saturated streams on one 10 GB/s box: heavy queueing, thousands of
  // services, FIFO back-pressure — the invariant must survive the real
  // engine, not only hand-picked numbers.
  std::vector<hsw::exec::StreamTask> tasks(4);
  for (std::size_t f = 0; f < tasks.size(); ++f) {
    tasks[f].core = static_cast<int>(f);
    tasks[f].demand_gbps = 8.0;
    tasks[f].latency_ns = 50.0;
    tasks[f].path = {{0, 1.0}};
  }
  ResourceStatsRecorder recorder;
  hsw::exec::ClosedLoopConfig config;
  config.resstats = &recorder;
  const hsw::exec::ClosedLoopResult result =
      hsw::exec::run_closed_loop(tasks, {10.0}, config);
  EXPECT_NEAR(result.total_gbps, 10.0, 0.5);  // the box caps the aggregate

  ResourceStatsHub hub;
  hub.absorb(std::move(recorder));
  const MergedResourceStats m = hub.merged();
  ASSERT_EQ(m.usage.size(), 1u);
  EXPECT_GT(m.usage[0].services, 1000u);
  EXPECT_GT(m.utilization(0), 0.95);  // saturated
  // L vs lambda x W: equal up to floating-point accumulation order.
  const double l = m.mean_depth(0);
  const double lw = m.littles_depth(0);
  ASSERT_GT(lw, 0.0);
  EXPECT_NEAR(l / lw, 1.0, 1e-9);
  // Busy time also equals services x service time exactly (FIFO servers
  // never overlap service intervals).
  EXPECT_NEAR(m.usage[0].busy_ns,
              static_cast<double>(m.usage[0].services) * (64.0 / 10.0),
              1e-6 * m.usage[0].busy_ns);
}

TEST(ResourceStats, DepthSeriesDecimationIsDeterministicAndBounded) {
  auto drive = [](int events) {
    ResourceStatsRecorder r;
    r.bind({"A"}, {10.0});
    double t = 0.0;
    for (int i = 0; i < events; ++i) {
      r.on_service(0, t, t, t + 1.0, 64.0);
      t += 1.5;
    }
    r.finalize(t + 10.0);
    return r;
  };
  const ResourceStatsRecorder a = drive(5000);
  const ResourceStatsRecorder b = drive(5000);
  const auto& series_a = a.usage()[0].depth_series;
  const auto& series_b = b.usage()[0].depth_series;
  // Stride-doubling keeps the series bounded at twice the target cap...
  EXPECT_LE(series_a.size(), 2 * hsw::obs::kDepthSeriesCap);
  EXPECT_GE(series_a.size(), hsw::obs::kDepthSeriesCap / 2);
  // ...and the retained points are a pure function of the event order.
  ASSERT_EQ(series_a.size(), series_b.size());
  for (std::size_t i = 0; i < series_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(series_a[i].ns, series_b[i].ns);
    EXPECT_EQ(series_a[i].depth, series_b[i].depth);
  }
  // Timestamps are nondecreasing (event order, not reshuffled).
  for (std::size_t i = 1; i < series_a.size(); ++i) {
    EXPECT_GE(series_a[i].ns, series_a[i - 1].ns);
  }
}

TEST(ResourceStats, MergedDepthSeriesKeptOnlyForSingleStream) {
  auto make = [](std::uint32_t stream) {
    ResourceStatsRecorder r(stream);
    r.bind({"A"}, {10.0});
    r.on_service(0, 0.0, 0.0, 1.0, 64.0);
    r.finalize(2.0);
    return r;
  };
  ResourceStatsHub one;
  one.absorb(make(1));
  EXPECT_FALSE(one.merged().usage[0].depth_series.empty());

  ResourceStatsHub two;
  two.absorb(make(2));
  two.absorb(make(1));
  const MergedResourceStats m = two.merged();
  // Concatenating event-time series from independent runs would interleave
  // unrelated clocks, so the merged view drops them...
  EXPECT_TRUE(m.usage[0].depth_series.empty());
  // ...while the scalars sum, and the observation window is the sum of the
  // per-run lengths.
  EXPECT_EQ(m.streams, 2u);
  EXPECT_EQ(m.usage[0].services, 2u);
  EXPECT_DOUBLE_EQ(m.elapsed_ns, 4.0);
}

TEST(ResourceStats, FinalizedRecorderIgnoresLateServices) {
  ResourceStatsRecorder recorder = two_resource_recorder();
  recorder.on_service(0, 0.0, 0.0, 2.0, 64.0);
  recorder.finalize(5.0);
  // The event clock restarts at 0 for the next run; accepting this service
  // would corrupt the settled depth marks.
  recorder.on_service(0, 0.0, 0.0, 2.0, 64.0);
  EXPECT_EQ(recorder.usage()[0].services, 1u);
  EXPECT_DOUBLE_EQ(recorder.elapsed_ns(), 5.0);
}

TEST(ResourceStats, ResourceNamesMatchModelLayoutWithFallback) {
  // 2-node layout: 2 rings, 2 iMCs, 2 QPI directions, 2 bridges.
  const std::vector<std::string> names = hsw::bw::resource_names(8);
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names[0], "RING_0");
  EXPECT_EQ(names[2], "IMC_0");
  EXPECT_EQ(names[4], "QPI_0");
  EXPECT_EQ(names[6], "BRIDGE_0");
  // A hand-built solver scenario gets positional names.
  const std::vector<std::string> fallback = hsw::bw::resource_names(3);
  ASSERT_EQ(fallback.size(), 3u);
  EXPECT_EQ(fallback[0], "RES_0");
  EXPECT_EQ(fallback[2], "RES_2");
}

TEST(ResourceStats, ReportWriterFailsLoudlyOnBadPath) {
  ResourceStatsHub hub;
  hub.absorb(two_resource_recorder());
  hsw::metrics::ReportManifest manifest;
  manifest.tool = "resource_stats_test";
  const std::vector<std::string> sections{
      hsw::obs::render_resources_section(hub.merged())};
  EXPECT_FALSE(hsw::metrics::write_report("/nonexistent-dir/resources.json",
                                          manifest, sections));
}

}  // namespace
