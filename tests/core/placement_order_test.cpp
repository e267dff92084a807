// place_lines visits the lines one channel class at a time
// (MachineState::line_classes(); DESIGN.md, "Channel-major placement"), and
// sets up Exclusive and Shared lines with the owner's read alone (DESIGN.md,
// "Read-only placement").  These tests place the same lines into two
// Systems, one through place_lines and one through the paper's passes in
// plain chase order (write, clflush, read for Exclusive and Shared), and
// require all the machine state a measurement can read to match: cache
// contents and replacement victims, HitME, directory, open DRAM rows, and a
// follow-up measurement.  Where only Modified lines are placed, both make
// the same accesses, so every channel's row-buffer statistics and the
// whole-run counters must match too, which pins the order each channel
// sees; an Exclusive or Shared placement must make exactly the DRAM
// accesses of the write and clflush passes fewer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/latency.h"
#include "core/placement.h"

namespace hsw {
namespace {

// The paper's passes over every line, in chase order (§V-B): the placement
// place_lines must be equivalent to.
void place_in_chase_order(System& system, std::span<const LineAddr> order,
                          const Placement& p) {
  for (LineAddr line : order) system.write(p.owner_core, addr_of(line));
  if (p.state == Mesif::kExclusive || p.state == Mesif::kShared) {
    for (LineAddr line : order) system.flush_line(addr_of(line));
    for (LineAddr line : order) system.read(p.owner_core, addr_of(line));
  }
  if (p.state == Mesif::kShared) {
    for (int sharer : p.sharers) {
      for (LineAddr line : order) system.read(sharer, addr_of(line));
    }
  }
  if (p.level == CacheLevel::kL3 || p.level == CacheLevel::kMemory) {
    system.evict_core_caches(p.owner_core);
    for (int sharer : p.sharers) system.evict_core_caches(sharer);
  }
  if (p.level == CacheLevel::kMemory) {
    const SystemTopology& topo = system.topology();
    std::vector<int> nodes{topo.node_of_core(p.owner_core)};
    for (int sharer : p.sharers) nodes.push_back(topo.node_of_core(sharer));
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    for (int node : nodes) system.flush_node_l3(node);
  }
}

// Every DRAM channel's lifetime access count, by
// MachineState::channel_index.
std::vector<std::uint64_t> dram_accesses(const System& system) {
  std::vector<std::uint64_t> accesses;
  for (const auto& socket : system.state().agents) {
    for (const HomeAgentState& ha : socket) {
      for (const DramChannel& channel : ha.channels) {
        accesses.push_back(channel.stats().accesses());
      }
    }
  }
  return accesses;
}

bool same_entry(const std::optional<CacheEntry>& a,
                const std::optional<CacheEntry>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->line == b->line && a->state == b->state &&
                a->core_valid == b->core_valid);
}

// The line's entry and its set's replacement victim agree, and so do the
// arrays' valid-line counts.
bool same_set(const CacheArray& a, const CacheArray& b, LineAddr line) {
  return same_entry(a.peek(line), b.peek(line)) &&
         same_entry(a.replacement_victim(line), b.replacement_victim(line)) &&
         a.valid_count() == b.valid_count();
}

// The first difference between the two machines' cache, HitME, directory
// and (with `open_rows`) open-row state, or success.  With `same_traffic`,
// also every channel's row-buffer statistics and the whole-run counters.
::testing::AssertionResult same_state(const System& sa, const System& sb,
                                      std::span<const LineAddr> lines,
                                      bool open_rows, bool same_traffic) {
  const MachineState& a = sa.state();
  const MachineState& b = sb.state();
  for (LineAddr line : lines) {
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
      if (!same_set(a.cores[c].l1, b.cores[c].l1, line) ||
          !same_set(a.cores[c].l2, b.cores[c].l2, line)) {
        return ::testing::AssertionFailure()
               << "core " << c << " L1/L2 differ at line " << line;
      }
    }
    for (std::size_t s = 0; s < a.l3.size(); ++s) {
      for (std::size_t k = 0; k < a.l3[s].size(); ++k) {
        if (!same_set(a.l3[s][k], b.l3[s][k], line)) {
          return ::testing::AssertionFailure() << "socket " << s << " slice "
                                               << k << " differs at line "
                                               << line;
        }
      }
    }
    for (std::size_t s = 0; s < a.agents.size(); ++s) {
      for (std::size_t i = 0; i < a.agents[s].size(); ++i) {
        const HomeAgentState& ha = a.agents[s][i];
        const HomeAgentState& hb = b.agents[s][i];
        const auto pa = ha.hitme.peek(line);
        const auto pb = hb.hitme.peek(line);
        if (pa.has_value() != pb.has_value() ||
            (pa && pa->presence != pb->presence) ||
            ha.directory.get(line) != hb.directory.get(line)) {
          return ::testing::AssertionFailure()
                 << "home agent " << s << "/" << i
                 << " HitME or directory differs at line " << line;
        }
      }
    }
  }
  for (std::size_t s = 0; s < a.agents.size(); ++s) {
    for (std::size_t i = 0; i < a.agents[s].size(); ++i) {
      const HomeAgentState& ha = a.agents[s][i];
      const HomeAgentState& hb = b.agents[s][i];
      if (ha.directory.tracked_lines() != hb.directory.tracked_lines() ||
          ha.hitme.valid_entries() != hb.hitme.valid_entries()) {
        return ::testing::AssertionFailure()
               << "home agent " << s << "/" << i
               << " tracks a different number of lines";
      }
      for (std::size_t c = 0; open_rows && c < ha.channels.size(); ++c) {
        for (std::size_t bank = 0; bank < sa.config().geometry.dram.banks;
             ++bank) {
          if (ha.channels[c].open_row(bank) != hb.channels[c].open_row(bank)) {
            return ::testing::AssertionFailure()
                   << "home agent " << s << "/" << i << " channel " << c
                   << " bank " << bank << " holds another row open";
          }
        }
      }
      for (std::size_t c = 0; same_traffic && c < ha.channels.size(); ++c) {
        const DramChannel::Stats& x = ha.channels[c].stats();
        const DramChannel::Stats& y = hb.channels[c].stats();
        if (x.page_hits != y.page_hits || x.page_empties != y.page_empties ||
            x.page_conflicts != y.page_conflicts) {
          return ::testing::AssertionFailure()
                 << "home agent " << s << "/" << i << " channel " << c
                 << " row-buffer statistics differ";
        }
      }
    }
  }
  if (same_traffic && sa.counters().snapshot() != sb.counters().snapshot()) {
    return ::testing::AssertionFailure() << "counters differ";
  }
  return ::testing::AssertionSuccess();
}

// Caches small enough that a few hundred KiB overflow every level: L1 8
// sets, L2 32, L3 slice 16 (of 20 ways), HitME 32.  Two banks of 1 KiB
// rows per channel make row conflicts, and so the order each channel
// sees, show in its statistics.
CacheGeometry small_geometry() {
  CacheGeometry g;
  g.l1_bytes = 4 * 1024;
  g.l2_bytes = 16 * 1024;
  g.l3_slice_bytes = 20 * 1024;
  g.hitme.entries = 256;
  g.dram.banks = 2;
  g.dram.row_bytes = 1024;
  return g;
}

// Places `order` on both Systems, through place_lines and through the
// paper's passes, and checks the placement's own DRAM traffic, which is
// not machine state: the write and clflush of an Exclusive or Shared line
// each make one access on its home channel (the fill of the read for
// ownership and the writeback), and place_lines makes every other access
// of the paper's passes.
void place_both_ways(System& by_class, System& by_chase,
                     std::span<const LineAddr> order, const Placement& p) {
  const std::vector<std::uint64_t> class_before = dram_accesses(by_class);
  const std::vector<std::uint64_t> chase_before = dram_accesses(by_chase);
  place_lines(by_class, order, p);
  place_in_chase_order(by_chase, order, p);
  std::vector<std::uint64_t> reset(class_before.size(), 0);
  if (p.state == Mesif::kExclusive || p.state == Mesif::kShared) {
    MachineState& m = by_chase.state();
    for (LineAddr line : order) reset[m.channel_index(m.home_of(line))] += 2;
  }
  const std::vector<std::uint64_t> class_after = dram_accesses(by_class);
  const std::vector<std::uint64_t> chase_after = dram_accesses(by_chase);
  for (std::size_t c = 0; c < class_after.size(); ++c) {
    EXPECT_EQ(class_after[c] - class_before[c] + reset[c],
              chase_after[c] - chase_before[c])
        << "DRAM channel " << c;
  }
}

// Places one buffer both ways for every state and level and compares, then
// measures once more on each System and compares again.  With `first`, each
// System already holds another buffer in that state, placed both ways at the
// same level by another core of the owner's node (the shape of a
// multi-stream measure_bandwidth), whose lines the second placement evicts.
// A dirty victim's writeback moves from the paper's write pass into
// place_lines' read pass, so an Exclusive or Shared buffer placed after a
// Modified one may leave a bank on another row (DESIGN.md, "Read-only
// placement").
void expect_order_equivalent(const SystemConfig& config,
                             std::uint64_t buffer_bytes,
                             std::optional<Mesif> first = std::nullopt) {
  const Mesif states[] = {Mesif::kModified, Mesif::kExclusive,
                          Mesif::kShared};
  const CacheLevel levels[] = {CacheLevel::kL1L2, CacheLevel::kL3,
                               CacheLevel::kMemory};
  for (Mesif state : states) {
    for (CacheLevel level : levels) {
      SCOPED_TRACE(std::string(to_string(config.protocol)) + " " +
                   std::string(to_string(state)) + " " + to_string(level) +
                   " " + std::to_string(buffer_bytes) + " B");
      Placement p;
      p.owner_core = 1;
      p.memory_node = 1;  // remote home: the COD directory takes part
      p.state = state;
      if (state == Mesif::kShared) p.sharers = {13, 7};
      p.level = level;

      System by_class(config);
      System by_chase(config);
      std::vector<LineAddr> lines;
      if (first) {
        const MemRegion region = by_class.alloc_on_node(1, buffer_bytes);
        ASSERT_EQ(by_chase.alloc_on_node(1, buffer_bytes).base, region.base);
        lines = chase_order(region, 3);
        place_both_ways(by_class, by_chase, lines,
                        Placement{.owner_core = 2, .memory_node = 1,
                                  .state = *first, .sharers = {},
                                  .level = level});
      }
      const MemRegion region = by_class.alloc_on_node(1, buffer_bytes);
      ASSERT_EQ(by_chase.alloc_on_node(1, buffer_bytes).base, region.base);
      const std::vector<LineAddr> order = chase_order(region, 5);
      place_both_ways(by_class, by_chase, order, p);
      lines.insert(lines.end(), order.begin(), order.end());
      const auto reads_only = [](Mesif m) {
        return m == Mesif::kExclusive || m == Mesif::kShared;
      };
      const bool same_traffic =
          !reads_only(state) && !(first && reads_only(*first));
      ASSERT_TRUE(same_state(
          by_class, by_chase, lines,
          /*open_rows=*/first != Mesif::kModified || !reads_only(state),
          same_traffic));

      LatencyConfig follow_up;
      follow_up.reader_core = 0;
      follow_up.placement = p;
      follow_up.buffer_bytes = buffer_bytes;
      const LatencyResult ra = measure_latency(by_class, follow_up);
      const LatencyResult rb = measure_latency(by_chase, follow_up);
      EXPECT_EQ(ra.mean_ns, rb.mean_ns);
      EXPECT_EQ(ra.max_ns, rb.max_ns);
      EXPECT_EQ(ra.source_counts, rb.source_counts);
      EXPECT_EQ(ra.counters, rb.counters);
    }
  }
}

TEST(PlacementOrder, LineClassesFollowChannelsAndSets) {
  EXPECT_EQ(System(SystemConfig::source_snoop()).state().line_classes(), 4u);
  EXPECT_EQ(System(SystemConfig::home_snoop()).state().line_classes(), 4u);
  EXPECT_EQ(System(SystemConfig::cluster_on_die()).state().line_classes(), 2u);
  SystemConfig one_set = SystemConfig::source_snoop();
  one_set.geometry.l1_bytes = one_set.geometry.l1_assoc * kLineSize;
  EXPECT_EQ(System(one_set).state().line_classes(), 1u);
}

using ProtocolMode = std::tuple<Protocol, SnoopMode>;

class PlacementOrderTest : public ::testing::TestWithParam<ProtocolMode> {};

// A buffer that fits the small L2, and one that overflows a node's L3.
TEST_P(PlacementOrderTest, MatchesChaseOrder) {
  SystemConfig config = SystemConfig::for_mode(std::get<1>(GetParam()));
  config.protocol = std::get<0>(GetParam());
  config.geometry = small_geometry();
  ASSERT_EQ(System(config).state().line_classes(),
            std::get<1>(GetParam()) == SnoopMode::kCod ? 2u : 4u);
  expect_order_equivalent(config, 12 * 1024);
  expect_order_equivalent(config, 384 * 1024);
}

// A buffer placed on a System that is not fresh, after a clean buffer and
// after a dirty one.  At this size some of the dirty buffer's writebacks
// come late in the read pass: every mode leaves a bank on another row.
TEST_P(PlacementOrderTest, MatchesChaseOrderAfterAnotherBuffer) {
  SystemConfig config = SystemConfig::for_mode(std::get<1>(GetParam()));
  config.protocol = std::get<0>(GetParam());
  config.geometry = small_geometry();
  expect_order_equivalent(config, 96 * 1024, Mesif::kExclusive);
  expect_order_equivalent(config, 96 * 1024, Mesif::kModified);
}

std::string protocol_mode_name(
    const ::testing::TestParamInfo<ProtocolMode>& info) {
  const char* const modes[] = {"source", "home", "cod"};
  return std::string(to_string(std::get<0>(info.param))) + "_" +
         modes[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndModes, PlacementOrderTest,
    ::testing::Combine(::testing::Values(Protocol::kMesif, Protocol::kMesi,
                                         Protocol::kMoesi, Protocol::kDragon),
                       ::testing::Values(SnoopMode::kSourceSnoop,
                                         SnoopMode::kHomeSnoop,
                                         SnoopMode::kCod)),
    protocol_mode_name);

// One channel per IMC: two line classes outside COD, one inside it.
class PlacementOrderChannelsTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(PlacementOrderChannelsTest, MatchesChaseOrderWithTwoLineClasses) {
  SystemConfig config = SystemConfig::source_snoop();
  config.protocol = GetParam();
  config.geometry = small_geometry();
  config.geometry.channels_per_imc = 1;
  ASSERT_EQ(System(config).state().line_classes(), 2u);
  expect_order_equivalent(config, 384 * 1024);
}

TEST_P(PlacementOrderChannelsTest, MatchesChaseOrderWithOneLineClass) {
  SystemConfig config = SystemConfig::cluster_on_die();
  config.protocol = GetParam();
  config.geometry = small_geometry();
  config.geometry.channels_per_imc = 1;
  ASSERT_EQ(System(config).state().line_classes(), 1u);
  expect_order_equivalent(config, 384 * 1024);
}

std::string protocol_name(const ::testing::TestParamInfo<Protocol>& info) {
  return std::string(to_string(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, PlacementOrderChannelsTest,
    ::testing::Values(Protocol::kMesif, Protocol::kMesi, Protocol::kMoesi,
                      Protocol::kDragon),
    protocol_name);

}  // namespace
}  // namespace hsw
