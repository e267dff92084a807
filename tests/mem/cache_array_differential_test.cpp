// Differential property test: the production CacheArray against the frozen
// reference (tests/support/legacy_cache_array.h): one flat array of ways
// scanned serially, with 64-bit LRU clocks.
//
// The production array packs partial tags for a SWAR scan, keeps each way
// in one record, and tracks exact LRU as 8-bit move-to-front ranks that are
// reset when a set is refilled from empty; none of that may change
// *behaviour*.  Randomized interleavings of lookup / peek / contains /
// insert / erase / flush / metadata writes are replayed against both
// arrays, and every observable — hit/miss, returned metadata, valid counts,
// the replacement-victim preview, and the exact victim sequence — must
// match, across associativities 1..64 (20 is the L3: three rank words, the
// last with pad lanes) and both replacement policies.  A second mix empties
// whole sets by erase and by flush and refills them at once, so the rank
// reset is followed by evictions in the same set.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "mem/cache_array.h"
#include "support/legacy_cache_array.h"
#include "support/test_seed.h"
#include "util/rng.h"

namespace hsw {
namespace {

bool same_entry(const CacheEntry& a, const CacheEntry& b) {
  return a.line == b.line && a.state == b.state &&
         a.core_valid == b.core_valid && a.payload == b.payload;
}

Mesif random_valid_state(Xoshiro256& rng) {
  static constexpr Mesif kStates[] = {Mesif::kModified, Mesif::kExclusive,
                                      Mesif::kShared, Mesif::kForward};
  return kStates[rng() % 4];
}

enum class Mix {
  kRandom,       // the operations at production-like rates
  kDrainRefill,  // plus frequent flushes and whole-set erases with refills
};

// Drives both arrays through random operations and checks every observable
// after every step.
void run_differential(unsigned assoc, Replacement replacement,
                      std::uint64_t seed, Mix mix = Mix::kRandom) {
  const std::size_t sets = 8;
  const std::uint64_t capacity = sets * assoc * kLineSize;
  CacheArray soa(capacity, assoc, replacement);
  hswtest::LegacyCacheArray aos(capacity, assoc, replacement);

  // 4x the line count of the array: plenty of conflict misses.
  const LineAddr address_space = 4 * sets * assoc;
  Xoshiro256 rng(seed ^ hswtest::seed_override());

  // Insert-if-absent; the victim preview and the victim must agree exactly.
  auto insert_both = [&](LineAddr line) {
    if (soa.contains(line)) return;
    const std::optional<CacheEntry> preview = soa.replacement_victim(line);
    const CacheEntry* legacy_preview = aos.replacement_victim(line);
    ASSERT_EQ(preview.has_value(), legacy_preview != nullptr);
    if (preview) {
      ASSERT_TRUE(same_entry(*preview, *legacy_preview));
    }

    const Mesif state = random_valid_state(rng);
    CacheArray::InsertResult ins = soa.insert(line, state);
    hswtest::LegacyCacheArray::InsertResult legacy = aos.insert(line, state);
    ASSERT_EQ(ins.victim.has_value(), legacy.victim.has_value());
    if (ins.victim) {
      ASSERT_TRUE(same_entry(*ins.victim, *legacy.victim));
    }
  };
  // Fills the set of `line` past capacity with random lines of that set,
  // touching a random line of it between inserts.
  auto refill_set = [&](LineAddr line) {
    const LineAddr set = line % sets;
    for (unsigned i = 0; i < 2 * assoc; ++i) {
      ASSERT_NO_FATAL_FAILURE(insert_both(set + sets * (rng() % (4 * assoc))));
      const LineAddr touched = set + sets * (rng() % (4 * assoc));
      ASSERT_EQ(static_cast<bool>(soa.lookup(touched)),
                aos.lookup(touched) != nullptr);
    }
  };

  const bool drain = mix == Mix::kDrainRefill;
  // Enough operations for the widest sets to fill and evict.
  const int ops = std::max(4000, 200 * static_cast<int>(assoc));
  for (int op = 0; op < ops; ++op) {
    const LineAddr line = rng() % address_space;
    switch (rng() % (drain ? 9 : 8)) {
      case 0:    // touching lookup
      case 1: {  // (twice as likely: the dominant production op)
        CacheArray::Ref ref = soa.lookup(line);
        CacheEntry* legacy = aos.lookup(line);
        ASSERT_EQ(static_cast<bool>(ref), legacy != nullptr);
        if (ref) {
          ASSERT_TRUE(same_entry(ref.entry(), *legacy));
        }
        break;
      }
      case 2: {  // non-touching lookup (must not perturb recency)
        CacheArray::Ref ref = soa.lookup(line, /*touch=*/false);
        CacheEntry* legacy = aos.lookup(line, /*touch=*/false);
        ASSERT_EQ(static_cast<bool>(ref), legacy != nullptr);
        if (ref) {
          ASSERT_TRUE(same_entry(ref.entry(), *legacy));
        }
        break;
      }
      case 3: {  // peek + contains
        const std::optional<CacheEntry> entry = soa.peek(line);
        const CacheEntry* legacy = aos.peek(line);
        ASSERT_EQ(entry.has_value(), legacy != nullptr);
        if (entry) {
          ASSERT_TRUE(same_entry(*entry, *legacy));
        }
        ASSERT_EQ(soa.contains(line), aos.contains(line));
        break;
      }
      case 4:  // insert-if-absent
        ASSERT_NO_FATAL_FAILURE(insert_both(line));
        break;
      case 5: {  // erase
        const std::optional<CacheEntry> prior = soa.erase(line);
        const std::optional<CacheEntry> legacy_prior = aos.erase(line);
        ASSERT_EQ(prior.has_value(), legacy_prior.has_value());
        if (prior) {
          ASSERT_TRUE(same_entry(*prior, *legacy_prior));
        }
        break;
      }
      case 6: {  // metadata writes through the hit handle
        CacheArray::Ref ref = soa.lookup(line);
        CacheEntry* legacy = aos.lookup(line);
        ASSERT_EQ(static_cast<bool>(ref), legacy != nullptr);
        if (ref) {
          const Mesif state = random_valid_state(rng);
          const auto cv = static_cast<std::uint32_t>(rng() & 0x3ffff);
          const auto payload = static_cast<std::uint8_t>(rng());
          ref.state() = state;
          ref.core_valid() = cv;
          ref.payload() = payload;
          legacy->state = state;
          legacy->core_valid = cv;
          legacy->payload = payload;
        }
        break;
      }
      case 7: {  // flush: evicted sets must be identical
        if (rng() % (drain ? 10 : 50) != 0) break;
        std::vector<CacheEntry> soa_evicted;
        std::vector<CacheEntry> aos_evicted;
        soa.flush([&](const CacheEntry& e) { soa_evicted.push_back(e); });
        aos.flush([&](const CacheEntry& e) { aos_evicted.push_back(e); });
        // Walk orders differ (bitmask walk vs serial scan); compare as sets.
        auto by_line = [](const CacheEntry& a, const CacheEntry& b) {
          return a.line < b.line;
        };
        std::sort(soa_evicted.begin(), soa_evicted.end(), by_line);
        std::sort(aos_evicted.begin(), aos_evicted.end(), by_line);
        ASSERT_EQ(soa_evicted.size(), aos_evicted.size());
        for (std::size_t i = 0; i < soa_evicted.size(); ++i) {
          ASSERT_TRUE(same_entry(soa_evicted[i], aos_evicted[i]));
        }
        if (drain) {
          ASSERT_NO_FATAL_FAILURE(refill_set(line));
        }
        break;
      }
      case 8: {  // empty the set of `line` by erase, then refill it
        for (LineAddr l = line % sets; l < address_space; l += sets) {
          const std::optional<CacheEntry> prior = soa.erase(l);
          const std::optional<CacheEntry> legacy_prior = aos.erase(l);
          ASSERT_EQ(prior.has_value(), legacy_prior.has_value());
          if (prior) {
            ASSERT_TRUE(same_entry(*prior, *legacy_prior));
          }
        }
        ASSERT_NO_FATAL_FAILURE(refill_set(line));
        break;
      }
    }
    ASSERT_EQ(soa.valid_count(), aos.valid_count()) << "op " << op;
  }

  // Final structural agreement: census vs a manual walk of the legacy array.
  const CacheArray::Census census = soa.census();
  ASSERT_EQ(census.valid, aos.valid_count());
  for (LineAddr line = 0; line < address_space; ++line) {
    ASSERT_EQ(soa.contains(line), aos.contains(line)) << "line " << line;
  }
}

TEST(CacheArrayDifferential, LruMatchesLegacyAcrossAssociativities) {
  for (unsigned assoc : {1u, 2u, 3u, 4u, 8u, 16u, 20u, 24u, 64u}) {
    SCOPED_TRACE("assoc " + std::to_string(assoc));
    run_differential(assoc, Replacement::kLru, 0x1234 + assoc);
  }
}

TEST(CacheArrayDifferential, LruMatchesLegacyWhenSetsDrainAndRefill) {
  for (unsigned assoc : {1u, 2u, 3u, 8u, 20u, 24u, 64u}) {
    SCOPED_TRACE("assoc " + std::to_string(assoc));
    run_differential(assoc, Replacement::kLru, 0x5a5a + assoc,
                     Mix::kDrainRefill);
  }
}

TEST(CacheArrayDifferential, TreePlruMatchesLegacyAcrossAssociativities) {
  // PLRU requires power-of-two associativity.
  for (unsigned assoc : {1u, 2u, 4u, 8u, 16u}) {
    SCOPED_TRACE("assoc " + std::to_string(assoc));
    run_differential(assoc, Replacement::kTreePlru, 0x9876 + assoc);
  }
}

TEST(CacheArrayDifferential, TreePlruMatchesLegacyWhenSetsDrainAndRefill) {
  for (unsigned assoc : {2u, 8u, 16u}) {
    SCOPED_TRACE("assoc " + std::to_string(assoc));
    run_differential(assoc, Replacement::kTreePlru, 0xa5a5 + assoc,
                     Mix::kDrainRefill);
  }
}

}  // namespace
}  // namespace hsw
