// Determinism contract of the parallel sweep path: for identical configs
// and seeds, --jobs 1 and --jobs 8 must produce bit-identical points.  This
// test is also the ThreadSanitizer workout for the sweep harness (build
// with -DHSWSIM_SANITIZE=thread).
#include "core/sweep.h"

#include "util/units.h"

#include <gtest/gtest.h>

namespace hsw {
namespace {

LatencySweepConfig latency_config() {
  LatencySweepConfig config;
  config.system = SystemConfig::source_snoop();
  config.reader_core = 0;
  config.placement = Placement{.owner_core = 1, .memory_node = 0,
                               .state = Mesif::kModified, .sharers = {},
                               .level = CacheLevel::kL1L2};
  config.sizes = sweep_sizes(kib(16), mib(2));
  config.max_measured_lines = 2048;
  config.seed = 7;
  return config;
}

TEST(ParallelSweep, LatencyPointsBitIdenticalAcrossJobCounts) {
  LatencySweepConfig serial = latency_config();
  serial.jobs = 1;
  LatencySweepConfig parallel = latency_config();
  parallel.jobs = 8;

  const auto a = latency_sweep(serial);
  const auto b = latency_sweep(parallel);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    // Bit-identical, not approximately equal: the parallel path must run
    // the exact same computation per slot.
    EXPECT_EQ(a[i].result.mean_ns, b[i].result.mean_ns);
    EXPECT_EQ(a[i].result.min_ns, b[i].result.min_ns);
    EXPECT_EQ(a[i].result.max_ns, b[i].result.max_ns);
    EXPECT_EQ(a[i].result.lines_measured, b[i].result.lines_measured);
    EXPECT_EQ(a[i].result.source_counts, b[i].result.source_counts);
    EXPECT_EQ(a[i].result.dominant_source, b[i].result.dominant_source);
  }
}

TEST(ParallelSweep, BandwidthPointsBitIdenticalAcrossJobCounts) {
  BandwidthSweepConfig config;
  config.system = SystemConfig::source_snoop();
  config.stream.core = 0;
  config.stream.placement = Placement{.owner_core = 1, .memory_node = 0,
                                      .state = Mesif::kExclusive,
                                      .sharers = {},
                                      .level = CacheLevel::kL1L2};
  config.sizes = sweep_sizes(kib(16), mib(2));
  config.seed = 7;

  BandwidthSweepConfig serial = config;
  serial.jobs = 1;
  BandwidthSweepConfig parallel = config;
  parallel.jobs = 8;

  const auto a = bandwidth_sweep(serial);
  const auto b = bandwidth_sweep(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].gbps, b[i].gbps);
    EXPECT_EQ(a[i].source, b[i].source);
  }
}

TEST(ParallelSweep, PointFunctionMatchesTheFullSweep) {
  LatencySweepConfig config = latency_config();
  config.jobs = 1;
  const auto points = latency_sweep(config);
  const auto lone = latency_sweep_point(config, 2);
  EXPECT_EQ(lone.bytes, points[2].bytes);
  EXPECT_EQ(lone.result.mean_ns, points[2].result.mean_ns);
}

// Stream ids come from a point's index, not its size: a repeated size gets
// its own id, so the merged report (double meters included) cannot depend
// on which worker finished first.
TEST(ParallelSweep, DuplicatedSizeMetricsReportBitIdenticalAcrossJobCounts) {
  const auto report = [](unsigned jobs) {
    LatencySweepConfig config = latency_config();
    config.sizes = {kib(64), kib(32), kib(64), kib(64)};
    config.jobs = jobs;
    ObserverHubs hubs;
    config.trace.observe.metrics = true;
    config.trace.hubs = &hubs;
    (void)latency_sweep(config);
    const metrics::MergedMetrics merged = hubs.metrics.merged();
    EXPECT_EQ(merged.streams, config.sizes.size());
    return metrics::render_metrics_section(merged);
  };
  EXPECT_EQ(report(1), report(4));
}

TEST(ParallelSweep, RejectsAnExplicitPlacementLevel) {
  LatencySweepConfig config = latency_config();
  config.placement.level = CacheLevel::kL3;
  EXPECT_THROW(latency_sweep(config), std::invalid_argument);
  EXPECT_THROW(latency_sweep_point(config, 0), std::invalid_argument);

  BandwidthSweepConfig bw;
  bw.system = SystemConfig::source_snoop();
  bw.stream.placement.level = CacheLevel::kMemory;
  bw.sizes = {kib(64)};
  EXPECT_THROW(bandwidth_sweep(bw), std::invalid_argument);
  EXPECT_THROW(bandwidth_sweep_point(bw, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hsw
