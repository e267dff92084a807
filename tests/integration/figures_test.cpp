// End-to-end shape tests: the qualitative structure of every figure —
// level staircases, protocol crossovers, HitME size dependence — must hold
// for the reproduction to be meaningful, independent of exact calibration.
#include <gtest/gtest.h>

#include "core/hswbench.h"
#include "workload/apps.h"

namespace hsw {
namespace {

// The costs of one SystemConfig factory, probed at most once per test
// process.
template <SystemConfig (*Make)()>
const MachineCosts& probed() {
  static const MachineCosts costs = probe_machine(Make());
  return costs;
}

LatencySweepConfig base_sweep(const SystemConfig& system, int reader,
                              Placement placement,
                              std::vector<std::uint64_t> sizes) {
  LatencySweepConfig config;
  config.system = system;
  config.reader_core = reader;
  config.placement = std::move(placement);
  config.sizes = std::move(sizes);
  config.max_measured_lines = 4096;
  return config;
}

TEST(Fig4Shape, LocalStaircaseHasFourPlateaus) {
  const auto points = latency_sweep(base_sweep(
      SystemConfig::source_snoop(), 0,
      Placement{.owner_core = 0, .memory_node = 0, .state = Mesif::kModified,
                .sharers = {}, .level = CacheLevel::kL1L2},
      {kib(16), kib(128), mib(2), mib(48)}));
  const double l1 = points[0].result.mean_ns;
  const double l2 = points[1].result.mean_ns;
  const double l3 = points[2].result.mean_ns;
  const double mem = points[3].result.mean_ns;
  EXPECT_LT(l1, l2);
  EXPECT_LT(l2, l3);
  EXPECT_LT(l3, mem);
  // The paper's ratios: L2/L1 = 3, L3/L2 ~ 4.4, mem/L3 ~ 4.5.
  EXPECT_NEAR(l2 / l1, 3.0, 0.8);
  EXPECT_GT(l3 / l2, 3.0);
  EXPECT_GT(mem / l3, 3.0);
}

TEST(Fig4Shape, CapacityTransitionsAtTheRightSizes) {
  // 32 KiB L1, 256 KiB L2, 30 MiB socket L3.
  const auto points = latency_sweep(base_sweep(
      SystemConfig::source_snoop(), 0,
      Placement{.owner_core = 0, .memory_node = 0, .state = Mesif::kModified,
                .sharers = {}, .level = CacheLevel::kL1L2},
      {kib(32), kib(48), kib(256), kib(384)}));
  // Within L1 vs just beyond.
  EXPECT_NEAR(points[0].result.mean_ns, 1.6, 0.01);
  EXPECT_GT(points[1].result.mean_ns, points[0].result.mean_ns * 1.2);
  // Within L2 reach vs just beyond.
  EXPECT_GT(points[3].result.mean_ns, points[2].result.mean_ns * 1.5);
}

TEST(Fig4Shape, StateOrderingWithinNode) {
  // For cache-resident sets read from another core: M (core forward) is the
  // slowest, E (L3 + snoop) next, S (plain L3) fastest.
  auto mean = [&](Mesif state, std::vector<int> sharers) {
    System sys(SystemConfig::source_snoop());
    LatencyConfig lc;
    lc.reader_core = 0;
    lc.placement = Placement{.owner_core = 1, .memory_node = 0, .state = state,
                             .sharers = std::move(sharers),
                             .level = CacheLevel::kL1L2};
    lc.buffer_bytes = kib(64);
    lc.max_measured_lines = 1024;
    return measure_latency(sys, lc).mean_ns;
  };
  const double m = mean(Mesif::kModified, {});
  const double e = mean(Mesif::kExclusive, {});
  const double s = mean(Mesif::kShared, {2});
  EXPECT_GT(m, e);
  EXPECT_GT(e, s);
  EXPECT_NEAR(m, 53.0, 3.0);
  EXPECT_NEAR(s, 21.2, 2.0);
}

TEST(Fig5Shape, HomeSnoopPenaltyOnlyWhereExpected) {
  auto l3_local = [](const SystemConfig& c) {
    System sys(c);
    LatencyConfig lc;
    lc.reader_core = 0;
    lc.placement = Placement{.owner_core = 0, .memory_node = 0,
                             .state = Mesif::kExclusive, .sharers = {},
                             .level = CacheLevel::kL3};
    lc.buffer_bytes = kib(256);
    lc.max_measured_lines = 1024;
    return measure_latency(sys, lc).mean_ns;
  };
  // Local L3 identical in both modes (no external requests involved).
  EXPECT_DOUBLE_EQ(l3_local(SystemConfig::source_snoop()),
                   l3_local(SystemConfig::home_snoop()));
}

TEST(Fig6Shape, LatencyGrowsWithHopCount) {
  System probe(SystemConfig::cluster_on_die());
  const SystemTopology& topo = probe.topology();
  std::vector<double> by_hops;
  for (int node : {0, 1, 2, 3}) {
    System sys(SystemConfig::cluster_on_die());
    LatencyConfig lc;
    lc.reader_core = 0;
    const int owner = node == 0 ? 1 : topo.node(node).cores[0];
    lc.placement = Placement{.owner_core = owner, .memory_node = node,
                             .state = Mesif::kModified, .sharers = {},
                             .level = CacheLevel::kL3};
    lc.buffer_bytes = kib(256);
    lc.max_measured_lines = 1024;
    by_hops.push_back(measure_latency(sys, lc).mean_ns);
  }
  // local < on-chip < 1-hop QPI < 2-hop.
  EXPECT_LT(by_hops[0], by_hops[1]);
  EXPECT_LT(by_hops[1], by_hops[2]);
  EXPECT_LT(by_hops[2], by_hops[3]);
}

TEST(Fig7Shape, HitmeCrossoverWithSize) {
  // Small shared sets: served by home memory (REMOTE_DRAM); large sets:
  // forwarded by the F-holder (REMOTE_FWD) at higher latency.
  auto run = [&](std::uint64_t bytes) {
    System sys(SystemConfig::cluster_on_die());
    const SystemTopology& topo = sys.topology();
    LatencyConfig lc;
    lc.reader_core = 0;
    lc.placement = Placement{.owner_core = topo.node(1).cores[1],
                             .memory_node = 1, .state = Mesif::kShared,
                             .sharers = {topo.node(2).cores[1]},
                             .level = CacheLevel::kL3};
    lc.buffer_bytes = bytes;
    lc.max_measured_lines = 2048;
    return measure_latency(sys, lc);
  };
  const LatencyResult small = run(kib(128));
  const LatencyResult large = run(mib(4));
  EXPECT_GT(small.source_fraction(ServiceSource::kRemoteDram), 0.9);
  EXPECT_GT(large.source_fraction(ServiceSource::kRemoteFwd), 0.9);
  EXPECT_GT(large.mean_ns, small.mean_ns * 1.5);
  EXPECT_GT(small.counters[static_cast<std::size_t>(Ctr::kHitmeHit)], 0u);
}

TEST(Fig8Shape, BandwidthStaircaseInvertsLatencyStaircase) {
  BandwidthSweepConfig config;
  config.system = SystemConfig::source_snoop();
  config.stream.core = 0;
  config.stream.placement =
      Placement{.owner_core = 0, .memory_node = 0, .state = Mesif::kModified,
                .sharers = {}, .level = CacheLevel::kL1L2};
  config.sizes = {kib(16), kib(128), mib(2), mib(48)};
  const auto points = bandwidth_sweep(config);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i].gbps, points[i - 1].gbps);
  }
  EXPECT_NEAR(points.back().gbps, 10.3, 1.5);  // memory plateau
}

TEST(Fig10Shape, CodWinnersAndLosers) {
  // COD must hurt the sharing-heavy OMP codes and help (or be neutral for)
  // the NUMA-local MPI codes — the paper's overall conclusion.
  double worst_omp = 0.0;
  for (const AppProfile& app : spec_omp2012()) {
    const double rel =
        estimate_runtime(app, probed<SystemConfig::cluster_on_die>()).runtime /
        estimate_runtime(app, probed<SystemConfig::source_snoop>()).runtime;
    worst_omp = std::max(worst_omp, rel);
  }
  EXPECT_GT(worst_omp, 1.10);

  double mean_mpi = 0.0;
  for (const AppProfile& app : spec_mpi2007()) {
    mean_mpi +=
        estimate_runtime(app, probed<SystemConfig::cluster_on_die>()).runtime /
        estimate_runtime(app, probed<SystemConfig::source_snoop>()).runtime;
  }
  mean_mpi /= static_cast<double>(spec_mpi2007().size());
  EXPECT_LT(mean_mpi, 1.01);
}

}  // namespace
}  // namespace hsw
