// The exactness invariant behind latency attribution: for EVERY traced
// access, in EVERY protocol configuration, the span tree replays the
// engine's latency arithmetic bit for bit —
//
//   * fold(0, spans) == AccessResult.ns with exact double equality
//     (serial terms re-added left-associated, parallel joins re-max()-ed);
//   * every kGroup's children fold from zero to exactly its cost;
//   * AccessAttribution::total (the critical-path walk) equals ns exactly.
//
// Randomized operation soup over all four snoop configurations (source
// snoop, home snoop, COD, and the COD directory-without-HitME ablation)
// under MESIF, and over the three snoop modes under MESI, MOESI and Dragon,
// with flushes/evictions mixed in so accesses hit every engine path: L1/L2
// hits, clean and dirty L3 forwards, local/remote DRAM with all three page
// outcomes, directory hits and stale-directory broadcasts, HitME hits.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "machine/system.h"
#include "support/test_seed.h"
#include "trace/span.h"
#include "trace/tracer.h"
#include "util/rng.h"

namespace hsw {
namespace {

struct Scenario {
  const char* name;
  SnoopMode mode;
  bool das_ablation;  // directory on, HitME off (SystemConfig::feature_override)
  std::uint64_t seed;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  return std::string(info.param.name) + "_seed" +
         std::to_string(info.param.seed);
}

SystemConfig config_for(const Scenario& s) {
  SystemConfig config;
  config.snoop_mode = s.mode;
  if (s.das_ablation) {
    ProtocolFeatures features = ProtocolFeatures::for_mode(s.mode);
    features.directory = true;
    features.hitme = false;
    config.feature_override = features;
  }
  return config;
}

class AttributionInvariant : public ::testing::TestWithParam<Scenario> {};

// Runs a seeded op soup and checks every traced access recomposes exactly.
void expect_soup_recomposes(const SystemConfig& config, std::uint64_t seed) {
  System sys(config);
  Xoshiro256 rng(hswtest::effective_seed(seed) ^ 0x5117ce);

  // Retain every record: capacity above the access count.
  trace::Tracer tracer(trace::Tracer::Mode::kFull, 0, 1u << 15);
  sys.set_tracer(&tracer);

  // Two small regions (home on the first and last node) so lines collide,
  // migrate, and exercise both the local and the QPI-crossing paths.
  const MemRegion region_a = sys.alloc_on_node(0, 64 * 96);
  const MemRegion region_b = sys.alloc_on_node(sys.node_count() - 1, 64 * 96);
  const int cores = sys.core_count();

  constexpr int kOps = 12000;
  int traced = 0;
  int flushes = 0;
  for (int step = 0; step < kOps; ++step) {
    const MemRegion& region = rng.bernoulli(0.5) ? region_a : region_b;
    const PhysAddr addr =
        region.addr_at(rng.bounded(region.line_count()) * kLineSize);
    const int core =
        static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cores)));
    const double dice = rng.uniform();
    AccessResult access;
    if (dice < 0.48) {
      access = sys.read(core, addr);
    } else if (dice < 0.90) {
      access = sys.write(core, addr);
    } else if (dice < 0.95) {
      // Placement-style churn between accesses: pushes lines down the
      // hierarchy so later accesses take the memory/directory paths.
      // (Flushes are traced too, as op 'F' records.)
      sys.flush_line(addr);
      ++flushes;
      ASSERT_TRUE(trace::recomposes_exactly(*tracer.last_record()))
          << "flush recomposition failure at step " << step;
      continue;
    } else {
      sys.evict_core_caches(core);
      continue;
    }
    ++traced;

    ASSERT_NE(access.attribution, nullptr) << "step " << step;
    const trace::TraceRecord* record = tracer.last_record();
    ASSERT_NE(record, nullptr) << "step " << step;

    // The three exactness checks.  No tolerance: bit-for-bit equality.
    ASSERT_EQ(trace::fold(0.0, record->spans), access.ns)
        << "fold mismatch at step " << step << " (op " << record->op
        << ", source " << record->source << ")";
    ASSERT_TRUE(trace::recomposes_exactly(*record))
        << "group-consistency failure at step " << step << " (op "
        << record->op << ", source " << record->source << ")";
    ASSERT_EQ(access.attribution->total, access.ns)
        << "attribution total mismatch at step " << step << " (op "
        << record->op << ", source " << record->source << ")";
  }
  sys.set_tracer(nullptr);
  // Sanity: the soup actually traced a large sample.
  EXPECT_GT(traced, 10000);
  EXPECT_EQ(tracer.records().size(),
            static_cast<std::size_t>(traced + flushes));
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST_P(AttributionInvariant, EveryAccessRecomposesExactly) {
  const Scenario scenario = GetParam();
  SCOPED_TRACE(hswtest::seed_note(scenario.seed));
  expect_soup_recomposes(config_for(scenario), scenario.seed);
}

// The per-flow latencies the benches report must be reproduced by the
// attribution machinery end to end: flush-heavy single-line ping-pong that
// leans on the dirty-forward and writeback paths.
TEST_P(AttributionInvariant, DirtyPingPongRecomposesExactly) {
  const Scenario scenario = GetParam();
  SCOPED_TRACE(hswtest::seed_note(scenario.seed));
  System sys(config_for(scenario));
  trace::Tracer tracer(trace::Tracer::Mode::kFull, 0, 1024);
  sys.set_tracer(&tracer);

  const MemRegion region = sys.alloc_on_node(0, 64 * 4);
  const PhysAddr addr = region.addr_at(0);
  const int far_core = sys.core_count() - 1;
  for (int round = 0; round < 64; ++round) {
    for (const int core : {0, far_core}) {
      const AccessResult w = sys.write(core, addr);
      ASSERT_NE(w.attribution, nullptr);
      ASSERT_EQ(w.attribution->total, w.ns) << "round " << round;
      ASSERT_TRUE(trace::recomposes_exactly(*tracer.last_record()));
      const AccessResult r = sys.read(core == 0 ? far_core : 0, addr);
      ASSERT_EQ(r.attribution->total, r.ns) << "round " << round;
      ASSERT_TRUE(trace::recomposes_exactly(*tracer.last_record()));
    }
    if (round % 8 == 0) sys.flush_line(addr);
  }
  sys.set_tracer(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, AttributionInvariant,
    ::testing::Values(
        Scenario{"source", SnoopMode::kSourceSnoop, false, 1},
        Scenario{"source", SnoopMode::kSourceSnoop, false, 2},
        Scenario{"home", SnoopMode::kHomeSnoop, false, 1},
        Scenario{"home", SnoopMode::kHomeSnoop, false, 2},
        Scenario{"cod", SnoopMode::kCod, false, 1},
        Scenario{"cod", SnoopMode::kCod, false, 2},
        Scenario{"cod_das", SnoopMode::kCod, true, 1},
        Scenario{"cod_das", SnoopMode::kCod, true, 2}),
    scenario_name);

// The same soup under the other protocol families and every snoop mode:
// MOESI's Owned forwards, MESI's missing Forward state, and Dragon's
// write-allocate stores (a read fill, then the update) must recompose as
// exactly as MESIF's flows.
struct FamilyScenario {
  const char* name;
  Protocol protocol;
  SnoopMode mode;
};

class FamilyAttributionInvariant
    : public ::testing::TestWithParam<FamilyScenario> {};

TEST_P(FamilyAttributionInvariant, EveryAccessRecomposesExactly) {
  SystemConfig config = SystemConfig::for_mode(GetParam().mode);
  config.protocol = GetParam().protocol;
  constexpr std::uint64_t kSeed = 1;
  SCOPED_TRACE(hswtest::seed_note(kSeed));
  expect_soup_recomposes(config, kSeed);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyAttributionInvariant,
    ::testing::Values(
        FamilyScenario{"mesi_source", Protocol::kMesi, SnoopMode::kSourceSnoop},
        FamilyScenario{"mesi_home", Protocol::kMesi, SnoopMode::kHomeSnoop},
        FamilyScenario{"mesi_cod", Protocol::kMesi, SnoopMode::kCod},
        FamilyScenario{"moesi_source", Protocol::kMoesi,
                       SnoopMode::kSourceSnoop},
        FamilyScenario{"moesi_home", Protocol::kMoesi, SnoopMode::kHomeSnoop},
        FamilyScenario{"moesi_cod", Protocol::kMoesi, SnoopMode::kCod},
        FamilyScenario{"dragon_source", Protocol::kDragon,
                       SnoopMode::kSourceSnoop},
        FamilyScenario{"dragon_home", Protocol::kDragon, SnoopMode::kHomeSnoop},
        FamilyScenario{"dragon_cod", Protocol::kDragon, SnoopMode::kCod}),
    [](const ::testing::TestParamInfo<FamilyScenario>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace hsw
