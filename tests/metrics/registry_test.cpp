// MetricsRegistry unit tests: hot-path semantics, family auto-sizing, and
// sampling cadence.  The hub merge (absorb-order independence, the
// (stream, seq) sample order) is covered by tests/obs/stream_hub_test.cpp.
#include <gtest/gtest.h>

#include <utility>

#include "metrics/registry.h"

namespace hsw::metrics {
namespace {

TEST(MetricsRegistry, BumpsAccumulateAcrossEveryKind) {
  MetricsRegistry reg(7, 0);
  reg.bump(MCtr::kHaBypass);
  reg.bump(MCtr::kHaBypass, 4);
  reg.meter(MMeter::kRingHops, 2.5);
  reg.meter(MMeter::kRingHops, 1.5);
  reg.set_gauge(MGauge::kHitmeEntries, 42);
  reg.observe(MHist::kAccessNs, 100.0);
  reg.observe(MHist::kAccessNs, 250.0);

  EXPECT_EQ(reg.stream(), 7u);
  EXPECT_EQ(reg.counters()[static_cast<std::size_t>(MCtr::kHaBypass)], 5u);
  EXPECT_DOUBLE_EQ(reg.meters()[static_cast<std::size_t>(MMeter::kRingHops)],
                   4.0);
  EXPECT_EQ(reg.gauges()[static_cast<std::size_t>(MGauge::kHitmeEntries)], 42);
  EXPECT_EQ(
      reg.histograms()[static_cast<std::size_t>(MHist::kAccessNs)].total(),
      2u);
}

TEST(MetricsRegistry, FamiliesAutoSizeAndPreSize) {
  MetricsRegistry reg(0, 0);
  // bump_family grows the vector on demand...
  reg.bump_family(MFamily::kQpiLinkBytes, 3, 72);
  const auto& bytes =
      reg.families()[static_cast<std::size_t>(MFamily::kQpiLinkBytes)];
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[3], 72u);
  EXPECT_EQ(bytes[0], 0u);

  // ...size_family pre-sizes from the topology but never truncates.
  reg.size_family(MFamily::kQpiLinkBytes, 6);
  EXPECT_EQ(bytes.size(), 6u);
  reg.size_family(MFamily::kQpiLinkBytes, 2);
  EXPECT_EQ(bytes.size(), 6u);
  EXPECT_EQ(bytes[3], 72u);
}

TEST(MetricsRegistry, SamplerFiresOnIntervalAndNeverForZero) {
  MetricsRegistry off(0, 0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(off.access_tick());
  off.take_final_sample();  // interval 0: must stay empty
  EXPECT_TRUE(off.samples().empty());

  MetricsRegistry on(0, 4);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (on.access_tick()) {
      on.set_gauge(MGauge::kHitmeEntries, fired);
      on.take_sample();
      ++fired;
    }
  }
  EXPECT_EQ(fired, 2);  // accesses 4 and 8
  ASSERT_EQ(on.samples().size(), 2u);
  EXPECT_EQ(on.samples()[0].access, 4u);
  EXPECT_EQ(on.samples()[1].access, 8u);
  EXPECT_EQ(on.samples()[1].seq, 1u);

  // The detach-time census appends the tail...
  on.take_final_sample();
  ASSERT_EQ(on.samples().size(), 3u);
  EXPECT_EQ(on.samples()[2].access, 10u);
  // ...but not twice when the run ended exactly on the interval.
  MetricsRegistry exact(0, 5);
  for (int i = 0; i < 5; ++i) {
    if (exact.access_tick()) exact.take_sample();
  }
  exact.take_final_sample();
  EXPECT_EQ(exact.samples().size(), 1u);
}

}  // namespace
}  // namespace hsw::metrics
