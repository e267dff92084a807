// Acceptance cross-check: the uncore metric counters must tell the same
// story as the engine's perf-style counters and the attribution rows for
// the paper's two signature COD effects — Table V's stale-directory
// broadcasts and Fig. 7's HitME short-circuit (the regimes
// bench/attribution_breakdown.cpp names "stale shared DRAM" and
// "migratory S").
#include <gtest/gtest.h>

#include <cstddef>

#include "core/latency.h"
#include "machine/system.h"
#include "metrics/registry.h"
#include "util/units.h"

namespace hsw {
namespace {

std::uint64_t mctr(const metrics::MetricsRegistry& reg, metrics::MCtr c) {
  return reg.counters()[static_cast<std::size_t>(c)];
}

std::uint64_t engine_ctr(const metrics::MetricsRegistry& reg, Ctr c) {
  return reg.engine_counters()[static_cast<std::size_t>(c)];
}

// Runs one COD latency measurement with a metrics registry attached and
// returns the registry (counters + captured engine delta, same scope).
metrics::MetricsRegistry measure_cod(const LatencyConfig& lc) {
  System sys(SystemConfig::cluster_on_die());
  metrics::MetricsRegistry registry(0, 0);
  LatencyConfig config = lc;
  config.instrumentation.metrics = &registry;
  const LatencyResult r = measure_latency(sys, config);
  EXPECT_GT(r.lines_measured, 0u);
  return registry;
}

TEST(MetricsConsistency, StaleSharedDramPaysDirectoryBroadcasts) {
  System probe(SystemConfig::cluster_on_die());
  const SystemTopology& topo = probe.topology();
  const int last = probe.node_count() - 1;

  // Table V regime: lines shared across nodes then silently evicted, set
  // larger than the HitME coverage — the in-memory directory still says
  // snoop-all, so every miss broadcasts and nobody answers.
  LatencyConfig lc;
  lc.reader_core = 0;
  lc.placement.state = Mesif::kShared;
  lc.placement.level = CacheLevel::kMemory;
  lc.placement.owner_core = topo.node(last).cores[1];
  lc.placement.memory_node = last;
  lc.placement.sharers = {topo.node(0).cores[2]};
  lc.buffer_bytes = mib(2);
  lc.max_measured_lines = 2048;

  const metrics::MetricsRegistry reg = measure_cod(lc);
  using MC = metrics::MCtr;
  const std::uint64_t stale = mctr(reg, MC::kHaStaleBroadcast);
  const std::uint64_t snoop_all = mctr(reg, MC::kHaSnoopAllBroadcast);
  EXPECT_GT(stale, 0u);
  // Every stale broadcast is a snoop-all broadcast that came up empty.
  EXPECT_LE(stale, snoop_all);
  // A broadcast fans out to at least one peer, visible to the engine too.
  EXPECT_GE(engine_ctr(reg, Ctr::kSnoopBroadcasts), snoop_all);
  // Every broadcast followed a directory lookup.
  EXPECT_LE(snoop_all, engine_ctr(reg, Ctr::kDirectoryLookups));

  // The reader (node 0) and the home (the last node) sit on different
  // sockets, so every request crosses QPI once, every load's data returns
  // from the home's memory across it once, and the snoop-all broadcast
  // crosses it once per peer on the reader's socket.  The per-link families
  // must carry exactly those messages, broadcasts included (Table V's
  // stale-directory traffic).
  ASSERT_TRUE(topo.crosses_qpi(0, last));
  std::uint64_t crossings = 0;
  for (std::uint64_t c : reg.families()[static_cast<std::size_t>(
           metrics::MFamily::kQpiLinkCrossings)]) {
    crossings += c;
  }
  const std::uint64_t requests = mctr(reg, MC::kSadRemoteHome);
  const std::uint64_t snoops = engine_ctr(reg, Ctr::kQpiSnoopFlits);
  const std::uint64_t data_returns = engine_ctr(reg, Ctr::kLoadsRemoteDram);
  EXPECT_GT(snoops, 0u);
  EXPECT_EQ(data_returns, lc.max_measured_lines);
  EXPECT_EQ(crossings, requests + snoops + data_returns);
}

TEST(MetricsConsistency, MigratorySharedHitsTheHitmeCache) {
  System probe(SystemConfig::cluster_on_die());
  const SystemTopology& topo = probe.topology();
  const int last = probe.node_count() - 1;
  const int fwd = last >= 2 ? 2 : 1;

  // Fig. 7 small-set regime: shared lines within the HitME coverage — the
  // home agent short-circuits to memory without waiting on snoops.
  LatencyConfig lc;
  lc.reader_core = 0;
  lc.placement.state = Mesif::kShared;
  lc.placement.level = CacheLevel::kL3;
  lc.placement.owner_core = topo.node(1).cores[1];
  lc.placement.memory_node = 1;
  lc.placement.sharers = {fwd == 1 ? topo.node(1).cores[2]
                                   : topo.node(fwd).cores[1]};
  lc.buffer_bytes = kib(128);
  lc.max_measured_lines = 2048;

  const metrics::MetricsRegistry reg = measure_cod(lc);
  using MC = metrics::MCtr;
  const std::uint64_t hitme_hit = engine_ctr(reg, Ctr::kHitmeHit);
  EXPECT_GT(hitme_hit, 0u);
  // Every hit bypassed the snoops.
  EXPECT_GE(mctr(reg, MC::kHaBypass), hitme_hit);
}

TEST(MetricsConsistency, ImcPageOutcomesSumToEngineDramReads) {
  System probe(SystemConfig::cluster_on_die());
  const int last = probe.node_count() - 1;

  LatencyConfig lc;
  lc.reader_core = 0;
  lc.placement.state = Mesif::kModified;
  lc.placement.level = CacheLevel::kMemory;
  lc.placement.owner_core = 0;
  lc.placement.memory_node = last;
  lc.buffer_bytes = mib(1);
  lc.max_measured_lines = 2048;

  const metrics::MetricsRegistry reg = measure_cod(lc);
  using MC = metrics::MCtr;
  const std::uint64_t pages = mctr(reg, MC::kImcPageHit) +
                              mctr(reg, MC::kImcPageEmpty) +
                              mctr(reg, MC::kImcPageConflict);
  EXPECT_GT(pages, 0u);
  // Every directed DRAM read resolves to exactly one row-buffer outcome.
  EXPECT_EQ(pages, engine_ctr(reg, Ctr::kDramReads));
  // SAD decoded every home request as remote (memory lives on `last`).
  EXPECT_GT(mctr(reg, MC::kSadRemoteHome), 0u);
  EXPECT_EQ(mctr(reg, MC::kSadLocalHome), 0u);
}

}  // namespace
}  // namespace hsw
