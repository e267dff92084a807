// Property-based coherence invariants: random operation sequences from
// random cores must never violate MESIF single-writer / inclusivity /
// directory-soundness invariants, in any protocol configuration.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <type_traits>
#include <vector>

#include "coh/engine.h"
#include "machine/system.h"
#include "support/test_seed.h"
#include "util/rng.h"

namespace hsw {
namespace {

enum class Variant { kStock, kDirectoryNoHitme, kNoCoreValid };

// gtest prints a parameter without a printer as its raw bytes, and those
// bytes become part of each ctest name.  A pointer member would leak an
// ASLR-dependent address into the names, and padding would leak garbage,
// so the name is stored inline and the fields are packed without gaps.
struct Scenario {
  std::uint64_t seed;
  SnoopMode mode;
  char name[19];
  Variant variant = Variant::kStock;
};
static_assert(std::has_unique_object_representations_v<Scenario>,
              "Scenario must have no padding bytes");

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  return std::string(info.param.name) + "_seed" +
         std::to_string(info.param.seed);
}

class CoherenceInvariants : public ::testing::TestWithParam<Scenario> {
 protected:
  static SystemConfig config_for(SnoopMode mode,
                                 Variant variant = Variant::kStock) {
    SystemConfig config;
    config.snoop_mode = mode;
    if (variant == Variant::kDirectoryNoHitme) {
      ProtocolFeatures features = ProtocolFeatures::for_mode(mode);
      features.directory = true;
      features.hitme = false;
      config.feature_override = features;
    } else if (variant == Variant::kNoCoreValid) {
      ProtocolFeatures features = ProtocolFeatures::for_mode(mode);
      features.core_valid_bits = false;
      config.feature_override = features;
    }
    return config;
  }

  struct LineView {
    int m_holders = 0;
    int f_nodes = 0;
    int em_nodes = 0;
    int valid_nodes = 0;
    bool remote_copy = false;  // valid L3 entry outside the home node
  };

  static void check_invariants(System& sys, const MemRegion& region) {
    MachineState& m = sys.state();
    const SystemTopology& topo = m.topo;
    for (LineAddr line = region.first_line();
         line < region.first_line() + region.line_count(); ++line) {
      LineView view;
      const int home = home_node_of_line(line);
      for (const NumaNode& node : topo.nodes()) {
        const std::optional<CacheEntry> entry =
            m.l3[static_cast<std::size_t>(node.socket)]
                [static_cast<std::size_t>(m.slice_for(node.id, line))]
                    .peek(line);
        if (entry.has_value()) {
          ++view.valid_nodes;
          if (entry->state == Mesif::kForward) ++view.f_nodes;
          if (entry->state == Mesif::kExclusive ||
              entry->state == Mesif::kModified) {
            ++view.em_nodes;
          }
          if (node.id != home) view.remote_copy = true;
        }
        for (int core : node.cores) {
          const CoreCaches& cc = m.cores[static_cast<std::size_t>(core)];
          const std::optional<CacheEntry> l1 = cc.l1.peek(line);
          const std::optional<CacheEntry> l2 = cc.l2.peek(line);
          const bool dirty = (l1 && l1->state == Mesif::kModified) ||
                             (l2 && l2->state == Mesif::kModified);
          if (dirty) ++view.m_holders;
          if (l1 || l2) {
            // Inclusivity: a core copy requires the node L3 entry with the
            // core's valid bit.
            ASSERT_TRUE(entry.has_value())
                << "core " << core << " holds line " << line
                << " without an L3 entry in its node";
            ASSERT_TRUE(entry->core_valid &
                        (1u << static_cast<unsigned>(topo.local_core(core))))
                << "core " << core << " holds line " << line
                << " without its core-valid bit";
            if (dirty && m.features.core_valid_bits) {
              // The CA must be able to find the single dirty copy.  (The
              // no-core-valid ablation intentionally gives this guarantee
              // up — that is exactly what the bits buy.)
              ASSERT_EQ(std::popcount(entry->core_valid), 1)
                  << "dirty core copy with multiple core-valid bits, line "
                  << line;
              ASSERT_TRUE(entry->state == Mesif::kExclusive ||
                          entry->state == Mesif::kModified)
                  << "dirty core copy under a shared L3 state, line " << line;
            }
          }
        }
      }
      ASSERT_LE(view.m_holders, 1) << "two modified copies of line " << line;
      ASSERT_LE(view.f_nodes, 1) << "two forward copies of line " << line;
      if (view.em_nodes > 0 && m.features.core_valid_bits) {
        // Node-level exclusivity.  The no-core-valid ablation knowingly
        // loses this: without the bits a CA cannot find a silently
        // modified core copy, so a peer can be granted a (stale) share
        // while dirty data hides in a core — which is precisely why the
        // hardware pays the 23.2 ns snoop penalty to keep them.
        ASSERT_EQ(view.valid_nodes, 1)
            << "exclusive/modified node coexists with other copies, line "
            << line;
      }
      if (m.features.directory && view.remote_copy) {
        const DirState dir = m.home_of(line).ha->directory.get(line);
        ASSERT_NE(dir, DirState::kRemoteInvalid)
            << "remote copy of line " << line
            << " while the directory says remote-invalid";
      }
    }
  }
};

TEST_P(CoherenceInvariants, RandomOperationFuzz) {
  const Scenario scenario = GetParam();
  SCOPED_TRACE(hswtest::seed_note(scenario.seed));
  System sys(config_for(scenario.mode, scenario.variant));
  Xoshiro256 rng(hswtest::effective_seed(scenario.seed));

  // A small region so lines collide in interesting ways, spread over the
  // first two nodes' memory.
  const MemRegion region_a = sys.alloc_on_node(0, 64 * 64);
  const MemRegion region_b =
      sys.alloc_on_node(sys.node_count() - 1, 64 * 64);

  const int cores = sys.core_count();
  for (int step = 0; step < 4000; ++step) {
    const MemRegion& region = rng.bernoulli(0.5) ? region_a : region_b;
    const PhysAddr addr =
        region.addr_at(rng.bounded(region.line_count()) * kLineSize);
    const int core = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(cores)));
    const double dice = rng.uniform();
    if (dice < 0.45) {
      sys.read(core, addr);
    } else if (dice < 0.85) {
      sys.write(core, addr);
    } else if (dice < 0.92) {
      sys.flush_line(addr);
    } else if (dice < 0.97) {
      sys.evict_core_caches(core);
    } else {
      sys.flush_node_l3(sys.topology().node_of_core(core));
    }
    if (step % 250 == 0) {
      check_invariants(sys, region_a);
      check_invariants(sys, region_b);
      if (HasFatalFailure()) return;
    }
  }
  check_invariants(sys, region_a);
  check_invariants(sys, region_b);
}

TEST_P(CoherenceInvariants, LatenciesAreAlwaysPositiveAndBounded) {
  const Scenario scenario = GetParam();
  SCOPED_TRACE(hswtest::seed_note(scenario.seed));
  System sys(config_for(scenario.mode, scenario.variant));
  Xoshiro256 rng(hswtest::effective_seed(scenario.seed) ^ 0xabcdef);
  const MemRegion region = sys.alloc_on_node(0, 64 * 256);
  for (int step = 0; step < 2000; ++step) {
    const PhysAddr addr =
        region.addr_at(rng.bounded(region.line_count()) * kLineSize);
    const int core = static_cast<int>(
        rng.bounded(static_cast<std::uint64_t>(sys.core_count())));
    const AccessResult r =
        rng.bernoulli(0.5) ? sys.read(core, addr) : sys.write(core, addr);
    ASSERT_GT(r.ns, 0.0);
    ASSERT_LT(r.ns, 500.0) << "implausible latency at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CoherenceInvariants,
    ::testing::Values(Scenario{1, SnoopMode::kSourceSnoop, "source"},
                      Scenario{2, SnoopMode::kSourceSnoop, "source"},
                      Scenario{3, SnoopMode::kSourceSnoop, "source"},
                      Scenario{1, SnoopMode::kHomeSnoop, "home"},
                      Scenario{2, SnoopMode::kHomeSnoop, "home"},
                      Scenario{3, SnoopMode::kHomeSnoop, "home"},
                      Scenario{1, SnoopMode::kCod, "cod"},
                      Scenario{2, SnoopMode::kCod, "cod"},
                      Scenario{3, SnoopMode::kCod, "cod"},
                      Scenario{1, SnoopMode::kCod, "cod_das",
                               Variant::kDirectoryNoHitme},
                      Scenario{2, SnoopMode::kCod, "cod_das",
                               Variant::kDirectoryNoHitme},
                      Scenario{1, SnoopMode::kSourceSnoop, "source_nocv",
                               Variant::kNoCoreValid},
                      Scenario{1, SnoopMode::kHomeSnoop, "home_dir",
                               Variant::kDirectoryNoHitme}),
    scenario_name);

}  // namespace
}  // namespace hsw
