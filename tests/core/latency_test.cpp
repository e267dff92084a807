#include "core/latency.h"

#include "util/units.h"

#include <gtest/gtest.h>

namespace hsw {
namespace {

LatencyConfig config(int reader, int owner, Mesif state, std::uint64_t bytes,
                     CacheLevel level = CacheLevel::kL1L2) {
  LatencyConfig lc;
  lc.reader_core = reader;
  lc.placement = Placement{.owner_core = owner, .memory_node = 0,
                           .state = state, .sharers = {}, .level = level};
  lc.buffer_bytes = bytes;
  lc.max_measured_lines = 4096;
  return lc;
}

TEST(Latency, L1ResidentSet) {
  System sys(SystemConfig::source_snoop());
  const LatencyResult r =
      measure_latency(sys, config(0, 0, Mesif::kModified, kib(16)));
  EXPECT_NEAR(r.mean_ns, 1.6, 0.01);
  EXPECT_EQ(r.dominant_source, ServiceSource::kL1);
  EXPECT_DOUBLE_EQ(r.source_fraction(ServiceSource::kL1), 1.0);
  EXPECT_EQ(r.lines_measured, kib(16) / kLineSize);
}

TEST(Latency, L2ResidentSetIsAllL2) {
  // A cyclic chase over a >L1 set defeats LRU entirely — the paper's Fig. 4
  // plateau between 32 KiB and 256 KiB sits flat at the L2 latency.
  System sys(SystemConfig::source_snoop());
  const LatencyResult r =
      measure_latency(sys, config(0, 0, Mesif::kModified, kib(128)));
  EXPECT_EQ(r.dominant_source, ServiceSource::kL2);
  EXPECT_GT(r.source_fraction(ServiceSource::kL2), 0.9);
  EXPECT_NEAR(r.mean_ns, 4.8, 0.1);
}

TEST(Latency, L3ResidentSet) {
  System sys(SystemConfig::source_snoop());
  const LatencyResult r =
      measure_latency(sys, config(0, 0, Mesif::kModified, mib(4)));
  EXPECT_EQ(r.dominant_source, ServiceSource::kL3);
  EXPECT_NEAR(r.mean_ns, 21.2, 3.0);
}

TEST(Latency, BeyondL3GoesToMemory) {
  System sys(SystemConfig::source_snoop());
  const LatencyResult r = measure_latency(
      sys, config(0, 0, Mesif::kModified, mib(4), CacheLevel::kMemory));
  EXPECT_EQ(r.dominant_source, ServiceSource::kLocalDram);
  EXPECT_NEAR(r.mean_ns, 96.4, 5.0);
}

TEST(Latency, MonotoneAcrossLevels) {
  double previous = 0.0;
  for (std::uint64_t bytes : {kib(16), kib(128), mib(1)}) {
    System sys(SystemConfig::source_snoop());
    const double mean =
        measure_latency(sys, config(0, 0, Mesif::kModified, bytes)).mean_ns;
    EXPECT_GT(mean, previous) << format_bytes(bytes);
    previous = mean;
  }
}

TEST(Latency, CountersMatchSourceCounts) {
  System sys(SystemConfig::source_snoop());
  const LatencyResult r = measure_latency(
      sys, config(0, 12, Mesif::kModified, kib(64), CacheLevel::kL3));
  EXPECT_EQ(r.dominant_source, ServiceSource::kRemoteFwd);
  EXPECT_EQ(r.counters[static_cast<std::size_t>(Ctr::kLoadsRemoteFwd)],
            r.source_counts[static_cast<std::size_t>(ServiceSource::kRemoteFwd)]);
}

TEST(Latency, RemoteLoadsCrossQpiAsDataFlits) {
  // Source snoop has one node per socket: every load served by the other
  // node's memory or caches returns its data across QPI exactly once.
  for (CacheLevel level : {CacheLevel::kL3, CacheLevel::kMemory}) {
    System sys(SystemConfig::source_snoop());
    LatencyConfig lc = config(0, 12, Mesif::kExclusive, kib(512), level);
    lc.placement.memory_node = 1;
    const LatencyResult r = measure_latency(sys, lc);
    const auto ctr = [&](Ctr c) {
      return r.counters[static_cast<std::size_t>(c)];
    };
    const std::uint64_t remote =
        ctr(Ctr::kLoadsRemoteDram) + ctr(Ctr::kLoadsRemoteFwd);
    EXPECT_GT(remote, 0u) << to_string(level);
    EXPECT_EQ(ctr(Ctr::kQpiDataFlits), remote) << to_string(level);
  }
}

TEST(Latency, MeasuredLinesCapped) {
  System sys(SystemConfig::source_snoop());
  LatencyConfig lc = config(0, 0, Mesif::kModified, mib(1));
  lc.max_measured_lines = 100;
  const LatencyResult r = measure_latency(sys, lc);
  EXPECT_EQ(r.lines_measured, 100u);
}

TEST(Latency, MinMaxBracketMean) {
  System sys(SystemConfig::source_snoop());
  // Memory chase: DRAM row-buffer hits vs conflicts spread the samples.
  const LatencyResult r = measure_latency(
      sys, config(0, 0, Mesif::kModified, mib(2), CacheLevel::kMemory));
  EXPECT_LE(r.min_ns, r.mean_ns);
  EXPECT_GE(r.max_ns, r.mean_ns);
  EXPECT_LT(r.min_ns, r.max_ns);  // page-hit vs page-conflict accesses
}

}  // namespace
}  // namespace hsw
