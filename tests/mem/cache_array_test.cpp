#include "mem/cache_array.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "util/rng.h"

namespace hsw {
namespace {

// A tiny 4-set, 2-way array: capacity = 4 * 2 * 64 = 512 B.
CacheArray tiny() { return CacheArray(512, 2); }

TEST(CacheArray, RejectsBadGeometry) {
  EXPECT_THROW(CacheArray(100, 2), std::invalid_argument);
  EXPECT_THROW(CacheArray(0, 2), std::invalid_argument);
  EXPECT_THROW(CacheArray(3 * 2 * 64, 2), std::invalid_argument);  // 3 sets
  EXPECT_NO_THROW(CacheArray(512, 2));
  // PLRU needs power-of-two associativity (the 20-way L3 must use LRU).
  EXPECT_THROW(CacheArray(64 * 4 * 20, 20, Replacement::kTreePlru),
               std::invalid_argument);
  EXPECT_NO_THROW(CacheArray(1024, 4, Replacement::kTreePlru));
}

TEST(CacheArray, InsertAndLookup) {
  CacheArray cache = tiny();
  EXPECT_FALSE(cache.lookup(7));
  auto ins = cache.insert(7, Mesif::kExclusive);
  EXPECT_FALSE(ins.victim.has_value());
  ASSERT_TRUE(cache.lookup(7));
  EXPECT_EQ(cache.lookup(7).state(), Mesif::kExclusive);
  EXPECT_EQ(cache.valid_count(), 1u);
}

TEST(CacheArray, EraseReturnsPriorEntry) {
  CacheArray cache = tiny();
  cache.insert(5, Mesif::kModified);
  auto prior = cache.erase(5);
  ASSERT_TRUE(prior.has_value());
  EXPECT_EQ(prior->state, Mesif::kModified);
  EXPECT_FALSE(cache.contains(5));
  EXPECT_FALSE(cache.erase(5).has_value());
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed) {
  CacheArray cache = tiny();  // sets indexed by line % 4
  cache.insert(0, Mesif::kExclusive);   // set 0
  cache.insert(4, Mesif::kExclusive);   // set 0 -> full
  cache.lookup(0);                      // refresh line 0
  auto ins = cache.insert(8, Mesif::kExclusive);  // set 0 -> evict 4
  ASSERT_TRUE(ins.victim.has_value());
  EXPECT_EQ(ins.victim->line, 4u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(8));
}

TEST(CacheArray, UntouchedLookupDoesNotRefresh) {
  CacheArray cache = tiny();
  cache.insert(0, Mesif::kExclusive);
  cache.insert(4, Mesif::kExclusive);
  cache.lookup(0, /*touch=*/false);  // must NOT refresh
  auto ins = cache.insert(8, Mesif::kExclusive);
  ASSERT_TRUE(ins.victim.has_value());
  EXPECT_EQ(ins.victim->line, 0u);
}

TEST(CacheArray, VictimPreviewMatchesEviction) {
  CacheArray cache = tiny();
  EXPECT_FALSE(cache.replacement_victim(0).has_value());  // set not full
  cache.insert(0, Mesif::kExclusive);
  cache.insert(4, Mesif::kExclusive);
  const std::optional<CacheEntry> victim = cache.replacement_victim(0);
  ASSERT_TRUE(victim.has_value());
  const LineAddr predicted = victim->line;
  auto ins = cache.insert(8, Mesif::kExclusive);
  ASSERT_TRUE(ins.victim.has_value());
  EXPECT_EQ(ins.victim->line, predicted);
}

TEST(CacheArray, FlushInvokesCallbackForValidEntries) {
  CacheArray cache = tiny();
  cache.insert(1, Mesif::kModified);
  cache.insert(2, Mesif::kShared);
  std::set<LineAddr> flushed;
  cache.flush([&](const CacheEntry& e) { flushed.insert(e.line); });
  EXPECT_EQ(flushed, (std::set<LineAddr>{1, 2}));
  EXPECT_EQ(cache.valid_count(), 0u);
}

TEST(CacheArray, CapacityWorksAtScale) {
  // L3-slice geometry: 2.5 MiB, 20-way.
  CacheArray slice(2560 * 1024, 20);
  EXPECT_EQ(slice.set_count(), 2048u);
  for (LineAddr line = 0; line < slice.capacity_bytes() / kLineSize; ++line) {
    slice.insert(line, Mesif::kExclusive);
  }
  EXPECT_EQ(slice.valid_count(), slice.capacity_bytes() / kLineSize);
  // One more insert in any set must evict exactly one line.
  auto ins = slice.insert(1u << 30, Mesif::kExclusive);
  EXPECT_TRUE(ins.victim.has_value());
  EXPECT_EQ(slice.valid_count(), slice.capacity_bytes() / kLineSize);
}

TEST(CacheArrayPlru, TouchedWaySurvives) {
  CacheArray cache(64 * 4 * 8, 8, Replacement::kTreePlru);  // 4 sets, 8-way
  for (LineAddr i = 0; i < 8; ++i) cache.insert(i * 4, Mesif::kExclusive);
  cache.lookup(0);  // make line 0 most recently used
  auto ins = cache.insert(8 * 4, Mesif::kExclusive);
  ASSERT_TRUE(ins.victim.has_value());
  EXPECT_NE(ins.victim->line, 0u);
  EXPECT_TRUE(cache.contains(0));
}

TEST(CacheArrayPlru, BehavesSanelyUnderRandomWorkload) {
  CacheArray plru(64 * 16 * 8, 8, Replacement::kTreePlru);
  Xoshiro256 rng(3);
  std::size_t hits = 0;
  const std::uint64_t lines = 64;  // half the capacity: should mostly hit
  for (int i = 0; i < 20000; ++i) {
    const LineAddr line = rng.bounded(lines);
    if (plru.lookup(line)) {
      ++hits;
    } else {
      plru.insert(line, Mesif::kExclusive);
    }
  }
  EXPECT_GT(hits, 19000u);
}

TEST(CacheArray, DirectMappedEvictsResidentOnEveryConflict) {
  CacheArray cache(4 * 64, 1);  // 4 sets, 1 way: fully direct-mapped
  EXPECT_EQ(cache.associativity(), 1u);
  auto first = cache.insert(0, Mesif::kExclusive);
  EXPECT_FALSE(first.victim.has_value());
  // Same set, different tag: the resident line must always be the victim.
  for (LineAddr line = 4; line <= 40; line += 4) {
    auto ins = cache.insert(line, Mesif::kShared);
    ASSERT_TRUE(ins.victim.has_value());
    EXPECT_EQ(ins.victim->line, line - 4);
    EXPECT_FALSE(cache.contains(line - 4));
    EXPECT_TRUE(cache.contains(line));
    EXPECT_EQ(cache.valid_count(), 1u);
  }
  // A different set is untouched by the conflict churn.
  cache.insert(1, Mesif::kModified);
  EXPECT_EQ(cache.valid_count(), 2u);
}

TEST(CacheArray, FullSetEvictionCyclesKeepExactlyOneVictimPerInsert) {
  CacheArray cache = tiny();  // 4 sets, 2 ways
  cache.insert(0, Mesif::kExclusive);
  cache.insert(4, Mesif::kExclusive);
  // 50 conflicting inserts into the full set: each one must evict exactly
  // the LRU resident, never an invalid way, never more than one line.
  LineAddr expected_victim = 0;
  for (LineAddr line = 8; line < 8 + 50 * 4; line += 4) {
    auto ins = cache.insert(line, Mesif::kExclusive);
    ASSERT_TRUE(ins.victim.has_value()) << "line " << line;
    EXPECT_EQ(ins.victim->line, expected_victim);
    EXPECT_EQ(cache.valid_count(), 2u);
    expected_victim = line - 4;  // the other resident becomes LRU
  }
}

TEST(CacheArray, EraseFreesTheWayForTheNextInsert) {
  CacheArray cache = tiny();
  cache.insert(0, Mesif::kExclusive);
  cache.insert(4, Mesif::kExclusive);  // set 0 full
  ASSERT_TRUE(cache.erase(0).has_value());
  // With a free way the set must not report a replacement victim, and the
  // next insert must use the freed way instead of evicting line 4.
  EXPECT_FALSE(cache.replacement_victim(0).has_value());
  auto ins = cache.insert(8, Mesif::kExclusive);
  EXPECT_FALSE(ins.victim.has_value());
  EXPECT_TRUE(cache.contains(4));
  EXPECT_TRUE(cache.contains(8));
}

TEST(CacheArray, FlushInterleavedWithLookupsAndReinserts) {
  CacheArray cache = tiny();
  for (int cycle = 0; cycle < 4; ++cycle) {
    // Repopulate every set fully, with lookups refreshing half the lines.
    for (LineAddr line = 0; line < 8; ++line) {
      EXPECT_FALSE(cache.lookup(line)) << "cycle " << cycle;
      auto ins = cache.insert(line, Mesif::kModified);
      EXPECT_FALSE(ins.victim.has_value()) << "cycle " << cycle;
      if (line % 2 == 0) {
        EXPECT_TRUE(cache.lookup(line));
      }
    }
    EXPECT_EQ(cache.valid_count(), 8u);
    std::size_t flushed = 0;
    cache.flush([&](const CacheEntry& e) {
      ++flushed;
      EXPECT_EQ(e.state, Mesif::kModified);
    });
    EXPECT_EQ(flushed, 8u);
    EXPECT_EQ(cache.valid_count(), 0u);
  }
}

TEST(CacheArray, ValidWayMaskStaysCoherentAcrossInsertFlushCycles) {
  // If the per-set valid-way bitmask went stale, an insert after a flush
  // would either evict a phantom resident or silently overwrite a valid
  // way.  Exercise full fill -> flush -> refill with disjoint tags.
  CacheArray cache = tiny();
  for (int cycle = 0; cycle < 6; ++cycle) {
    const LineAddr tag_base = static_cast<LineAddr>(cycle) * 64;
    for (LineAddr i = 0; i < 8; ++i) {
      auto ins = cache.insert(tag_base + i, Mesif::kExclusive);
      EXPECT_FALSE(ins.victim.has_value())
          << "phantom victim in cycle " << cycle << ", line " << i;
    }
    // Now every set is full again: one more insert per set must evict.
    for (LineAddr set = 0; set < 4; ++set) {
      auto ins = cache.insert(tag_base + 32 + set, Mesif::kExclusive);
      EXPECT_TRUE(ins.victim.has_value());
    }
    cache.flush([](const CacheEntry&) {});
    EXPECT_EQ(cache.valid_count(), 0u);
    for (LineAddr i = 0; i < 8; ++i) {
      EXPECT_FALSE(cache.contains(tag_base + i));
    }
  }
}

// The valid-mask front door: peek/contains/lookup on an empty set must
// miss from the mask alone, and a stale tag left in the tag stripe by
// erase/flush must never match (the mask, not the tag, is the authority).
TEST(CacheArray, EmptySetFastPathMissesAndIgnoresStaleTags) {
  CacheArray cache = tiny();
  // Entirely empty array: every probe misses.
  for (LineAddr line = 0; line < 16; ++line) {
    EXPECT_FALSE(cache.contains(line));
    EXPECT_FALSE(cache.peek(line).has_value());
    EXPECT_FALSE(cache.lookup(line));
  }
  // Erase leaves the tag bytes in the stripe; the probe must still miss.
  cache.insert(5, Mesif::kModified);
  ASSERT_TRUE(cache.contains(5));
  cache.erase(5);
  EXPECT_FALSE(cache.contains(5));
  EXPECT_FALSE(cache.peek(5).has_value());
  EXPECT_FALSE(cache.lookup(5));
  // Same through flush, including sets that were full.
  cache.insert(1, Mesif::kExclusive);
  cache.insert(1 + 4, Mesif::kShared);  // same set, second way
  cache.flush([](const CacheEntry&) {});
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(1 + 4));
  EXPECT_EQ(cache.valid_count(), 0u);
  // And the array is fully usable afterwards.
  cache.insert(1, Mesif::kForward);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.peek(1)->state, Mesif::kForward);
}

TEST(CacheArray, PayloadAndCoreValidPersist) {
  CacheArray cache = tiny();
  auto ins = cache.insert(3, Mesif::kExclusive);
  ins.entry.core_valid() = 0b1010;
  ins.entry.payload() = 0x5a;
  EXPECT_EQ(cache.lookup(3).core_valid(), 0b1010u);
  EXPECT_EQ(cache.lookup(3).payload(), 0x5a);
}

// The maintained valid-line count against the lines a probe finds, across
// inserts (with and without a victim), erases (hit and miss) and flushes.
TEST(CacheArray, ValidCountTracksInsertEraseAndFlush) {
  CacheArray cache = tiny();
  const auto resident = [&] {
    std::size_t n = 0;
    for (LineAddr line = 0; line < 64; ++line) n += cache.contains(line);
    return n;
  };
  EXPECT_EQ(cache.valid_count(), 0u);
  for (LineAddr line = 0; line < 12; ++line) {  // the last 4 evict
    cache.insert(line, Mesif::kExclusive);
    EXPECT_EQ(cache.valid_count(), resident()) << "insert " << line;
  }
  EXPECT_EQ(cache.valid_count(), 8u);
  EXPECT_TRUE(cache.erase(11).has_value());
  EXPECT_FALSE(cache.erase(11).has_value());  // a miss changes nothing
  EXPECT_FALSE(cache.erase(40).has_value());
  EXPECT_EQ(cache.valid_count(), 7u);
  EXPECT_EQ(cache.census().valid, 7u);
  cache.flush([](const CacheEntry&) {});
  EXPECT_EQ(cache.valid_count(), 0u);
  EXPECT_EQ(resident(), 0u);
  cache.flush([](const CacheEntry&) { ADD_FAILURE() << "empty flush evicted"; });
  cache.insert(3, Mesif::kModified);
  EXPECT_EQ(cache.valid_count(), 1u);
}

// A flush callback may erase lines of the array being flushed (an L3
// victim's back-invalidation of a core cache); the count stays exact.
TEST(CacheArray, ValidCountSurvivesEraseDuringFlush) {
  CacheArray cache = tiny();
  for (LineAddr line = 0; line < 8; ++line) cache.insert(line, Mesif::kShared);
  std::size_t evicted = 0;
  cache.flush([&](const CacheEntry& e) {
    ++evicted;
    if (e.line == 0) cache.erase(7);  // a set not yet flushed
  });
  EXPECT_EQ(evicted, 7u);
  EXPECT_EQ(cache.valid_count(), 0u);
  cache.insert(9, Mesif::kShared);
  EXPECT_EQ(cache.valid_count(), 1u);
}

TEST(CacheArray, AtWayFindsTheLineThroughAnyHint) {
  CacheArray cache = tiny();
  cache.insert(1, Mesif::kExclusive);  // set 1, way 0
  cache.insert(5, Mesif::kModified);   // set 1, way 1
  const CacheArray::Ref ref = cache.lookup(5, /*touch=*/false);
  ASSERT_TRUE(ref);
  const unsigned way = cache.way_index(ref);
  EXPECT_EQ(way, 1u);
  EXPECT_EQ(cache.way_index(cache.lookup(1, /*touch=*/false)), 0u);
  // The right hint, a way holding another tag, and an out-of-range way all
  // reach the same record.
  for (unsigned hint : {way, 0u, 2u, 255u}) {
    const CacheArray::Ref at = cache.at_way(5, hint);
    ASSERT_TRUE(at) << "hint " << hint;
    EXPECT_EQ(at.line(), 5u);
    at.core_valid() = hint;
    EXPECT_EQ(ref.core_valid(), hint);
  }
  // An invalid way: the hint's record still holds the erased tag.
  cache.erase(5);
  EXPECT_FALSE(cache.at_way(5, way));
  EXPECT_FALSE(cache.at_way(5, 255));
}

TEST(CacheArray, AtWayMissesAbsentLinesAndKeepsRecency) {
  CacheArray cache = tiny();
  cache.insert(2, Mesif::kShared);  // set 2, way 0, LRU once way 1 fills
  cache.insert(6, Mesif::kShared);  // set 2, way 1
  EXPECT_FALSE(cache.at_way(10, 0));  // same set, wrong tag at every way
  EXPECT_FALSE(cache.at_way(10, 1));
  EXPECT_FALSE(cache.at_way(3, 0));  // empty set
  ASSERT_TRUE(cache.at_way(2, 0));
  EXPECT_EQ(cache.replacement_victim(2)->line, 2u);  // no touch
}

}  // namespace
}  // namespace hsw
