#include "core/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "coh/slice_hash.h"

namespace hsw {
namespace {

class PlacementTest : public ::testing::Test {
 protected:
  System sys_{SystemConfig::source_snoop()};

  std::optional<CacheEntry> l3_entry(int node, LineAddr line) {
    MachineState& m = sys_.state();
    const NumaNode& n = m.topo.node(node);
    return m.l3[static_cast<std::size_t>(n.socket)]
               [static_cast<std::size_t>(m.slice_for(node, line))]
        .peek(line);
  }
};

TEST(ChaseOrder, IsAPermutationOfTheRegion) {
  AddressSpace space;
  const MemRegion region = space.alloc(0, 64 * 128);
  const auto order = chase_order(region, 7);
  EXPECT_EQ(order.size(), 128u);
  std::set<LineAddr> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 128u);
  EXPECT_EQ(*unique.begin(), region.first_line());
  EXPECT_EQ(*unique.rbegin(), region.first_line() + 127);
}

TEST(ChaseOrder, SeedChangesOrderDeterministically) {
  AddressSpace space;
  const MemRegion region = space.alloc(0, 64 * 128);
  EXPECT_EQ(chase_order(region, 3), chase_order(region, 3));
  EXPECT_NE(chase_order(region, 3), chase_order(region, 4));
}

TEST_F(PlacementTest, ModifiedPlacementLeavesDirtyCoreCopies) {
  const MemRegion region = sys_.alloc_on_node(0, 64 * 16);
  place_lines(sys_, chase_order(region, 1),
              Placement{.owner_core = 1, .memory_node = 0,
                        .state = Mesif::kModified, .sharers = {},
                        .level = CacheLevel::kL1L2});
  const CoreCaches& cc = sys_.state().cores[1];
  for (LineAddr line = region.first_line();
       line < region.first_line() + region.line_count(); ++line) {
    const std::optional<CacheEntry> entry = cc.l1.peek(line);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->state, Mesif::kModified);
  }
}

TEST_F(PlacementTest, ExclusivePlacementLeavesCleanExclusive) {
  const MemRegion region = sys_.alloc_on_node(0, 64 * 16);
  place_lines(sys_, chase_order(region, 1),
              Placement{.owner_core = 1, .memory_node = 0,
                        .state = Mesif::kExclusive, .sharers = {},
                        .level = CacheLevel::kL1L2});
  const CoreCaches& cc = sys_.state().cores[1];
  for (LineAddr line = region.first_line();
       line < region.first_line() + region.line_count(); ++line) {
    const std::optional<CacheEntry> entry = cc.l1.peek(line);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->state, Mesif::kExclusive);
    EXPECT_EQ(l3_entry(0, line)->state, Mesif::kExclusive);
  }
}

TEST_F(PlacementTest, SharedPlacementPutsForwardInLastReadersNode) {
  const MemRegion region = sys_.alloc_on_node(0, 64 * 16);
  Placement placement;
  placement.owner_core = 1;
  placement.memory_node = 0;
  placement.state = Mesif::kShared;
  placement.sharers = {12};  // socket 1 reads last -> holds Forward
  place_lines(sys_, chase_order(region, 1), placement);
  for (LineAddr line = region.first_line();
       line < region.first_line() + region.line_count(); ++line) {
    ASSERT_TRUE(l3_entry(0, line).has_value());
    ASSERT_TRUE(l3_entry(1, line).has_value());
    EXPECT_EQ(l3_entry(0, line)->state, Mesif::kShared);
    EXPECT_EQ(l3_entry(1, line)->state, Mesif::kForward);
  }
}

TEST_F(PlacementTest, L3LevelEvictsCoreCachesOnly) {
  const MemRegion region = sys_.alloc_on_node(0, 64 * 16);
  place_lines(sys_, chase_order(region, 1),
              Placement{.owner_core = 1, .memory_node = 0,
                        .state = Mesif::kModified, .sharers = {},
                        .level = CacheLevel::kL3});
  const CoreCaches& cc = sys_.state().cores[1];
  for (LineAddr line = region.first_line();
       line < region.first_line() + region.line_count(); ++line) {
    EXPECT_FALSE(cc.l1.peek(line).has_value());
    EXPECT_FALSE(cc.l2.peek(line).has_value());
    const std::optional<CacheEntry> entry = l3_entry(0, line);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->state, Mesif::kModified);  // written back
    EXPECT_EQ(entry->core_valid, 0u);
  }
}

TEST_F(PlacementTest, MemoryLevelLeavesNothingCached) {
  const MemRegion region = sys_.alloc_on_node(0, 64 * 16);
  place_lines(sys_, chase_order(region, 1),
              Placement{.owner_core = 1, .memory_node = 0,
                        .state = Mesif::kExclusive, .sharers = {},
                        .level = CacheLevel::kMemory});
  for (LineAddr line = region.first_line();
       line < region.first_line() + region.line_count(); ++line) {
    EXPECT_FALSE(l3_entry(0, line).has_value());
    EXPECT_FALSE(sys_.state().cores[1].l1.peek(line).has_value());
  }
}

TEST_F(PlacementTest, DropAllCachesEmptiesEveryArray) {
  const MemRegion region = sys_.alloc_on_node(1, 64 * 1024);
  place_lines(sys_, chase_order(region, 1),
              Placement{.owner_core = 1, .memory_node = 1,
                        .state = Mesif::kShared, .sharers = {13},
                        .level = CacheLevel::kL1L2});
  const MachineState& m = sys_.state();
  EXPECT_EQ(m.cores[1].l2.valid_count(), region.line_count());
  EXPECT_EQ(m.cores[13].l2.valid_count(), region.line_count());
  std::size_t l3_lines = 0;
  for (const auto& socket : m.l3) {
    for (const CacheArray& slice : socket) l3_lines += slice.valid_count();
  }
  EXPECT_EQ(l3_lines, 2 * region.line_count());  // one copy per node
  sys_.drop_all_caches();
  for (const CoreCaches& cc : m.cores) {
    EXPECT_EQ(cc.l1.valid_count(), 0u);
    EXPECT_EQ(cc.l2.valid_count(), 0u);
  }
  for (const auto& socket : m.l3) {
    for (const CacheArray& slice : socket) EXPECT_EQ(slice.valid_count(), 0u);
  }
}

}  // namespace
}  // namespace hsw
