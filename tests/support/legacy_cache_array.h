// The original array-of-structures CacheArray, frozen as the differential
// oracle of the production array.
//
// This is the implementation the CacheArray in src/mem/cache_array.h
// replaced: one flat array of {entry, lru} ways scanned serially, with
// 64-bit LRU clocks and the same tree-PLRU logic.  The differential test
// (tests/mem/cache_array_differential_test.cpp) drives both through
// randomized op interleavings and demands equal hits, metadata, and
// *exact* victim sequences.
//
// Deliberately not shared with src/: the point is an independent copy that
// does not evolve with the production array.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mem/cache_array.h"  // hsw::Replacement, hsw::CacheEntry
#include "mem/line.h"

namespace hswtest {

class LegacyCacheArray {
 public:
  LegacyCacheArray(std::uint64_t capacity_bytes, unsigned associativity,
                   hsw::Replacement replacement = hsw::Replacement::kLru)
      : assoc_(associativity), replacement_(replacement) {
    if (associativity == 0 || capacity_bytes == 0 ||
        capacity_bytes %
                (static_cast<std::uint64_t>(associativity) * hsw::kLineSize) !=
            0) {
      throw std::invalid_argument(
          "cache capacity must be a multiple of assoc * 64B");
    }
    const std::uint64_t set_count =
        capacity_bytes /
        (static_cast<std::uint64_t>(associativity) * hsw::kLineSize);
    if (!std::has_single_bit(set_count)) {
      throw std::invalid_argument("cache set count must be a power of two");
    }
    if (replacement == hsw::Replacement::kTreePlru &&
        !std::has_single_bit(static_cast<std::uint64_t>(associativity))) {
      throw std::invalid_argument("tree-PLRU requires power-of-two assoc");
    }
    if (associativity > 64) {
      throw std::invalid_argument("associativity above 64 is unsupported");
    }
    set_count_ = static_cast<std::size_t>(set_count);
    set_mask_ = set_count_ - 1;
    full_mask_ = assoc_ == 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << assoc_) - 1;
    ways_.resize(set_count_ * assoc_);
    valid_mask_.assign(set_count_, 0);
    plru_.assign(set_count_, 0);
  }

  [[nodiscard]] unsigned associativity() const { return assoc_; }
  [[nodiscard]] std::size_t set_count() const { return set_count_; }

  hsw::CacheEntry* lookup(hsw::LineAddr line, bool touch = true) {
    const std::size_t idx = set_index(line);
    Way* const base = ways_.data() + idx * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
      Way& way = base[w];
      if (way.entry.line == line && hsw::is_valid(way.entry.state)) {
        if (touch) touch_way(idx, w);
        return &way.entry;
      }
    }
    return nullptr;
  }

  [[nodiscard]] const hsw::CacheEntry* peek(hsw::LineAddr line) const {
    const std::size_t idx = set_index(line);
    const Way* const base = ways_.data() + idx * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
      const Way& way = base[w];
      if (way.entry.line == line && hsw::is_valid(way.entry.state)) {
        return &way.entry;
      }
    }
    return nullptr;
  }
  [[nodiscard]] bool contains(hsw::LineAddr line) const {
    return peek(line) != nullptr;
  }

  struct InsertResult {
    hsw::CacheEntry* entry = nullptr;
    std::optional<hsw::CacheEntry> victim;
  };
  InsertResult insert(hsw::LineAddr line, hsw::Mesif state) {
    assert(hsw::is_valid(state));
    assert(!contains(line) && "insert of an already-present line");
    const std::size_t idx = set_index(line);
    Way* const set = ways_.data() + idx * assoc_;

    InsertResult result;
    std::size_t target;
    const std::uint64_t valid = valid_mask_[idx];
    if (valid != full_mask_) {
      target = static_cast<std::size_t>(std::countr_one(valid));
    } else {
      target = victim_way(set, idx);
      result.victim = set[target].entry;
    }
    set[target].entry = hsw::CacheEntry{line, state, 0, 0};
    valid_mask_[idx] = valid | (std::uint64_t{1} << target);
    touch_way(idx, target);
    result.entry = &set[target].entry;
    return result;
  }

  std::optional<hsw::CacheEntry> erase(hsw::LineAddr line) {
    const std::size_t idx = set_index(line);
    Way* const set = ways_.data() + idx * assoc_;
    for (std::size_t w = 0; w < assoc_; ++w) {
      hsw::CacheEntry& entry = set[w].entry;
      if (entry.line == line && hsw::is_valid(entry.state)) {
        hsw::CacheEntry prior = entry;
        entry = hsw::CacheEntry{};
        valid_mask_[idx] &= ~(std::uint64_t{1} << w);
        return prior;
      }
    }
    return std::nullopt;
  }

  template <typename OnEvict>
  void flush(OnEvict&& on_evict) {
    for (Way& way : ways_) {
      if (hsw::is_valid(way.entry.state)) {
        on_evict(std::as_const(way.entry));
        way.entry = hsw::CacheEntry{};
      }
    }
    valid_mask_.assign(set_count_, 0);
  }

  [[nodiscard]] std::size_t valid_count() const {
    std::size_t n = 0;
    for (const Way& way : ways_) {
      if (hsw::is_valid(way.entry.state)) ++n;
    }
    return n;
  }

  [[nodiscard]] const hsw::CacheEntry* replacement_victim(
      hsw::LineAddr line_in_set) const {
    const std::size_t idx = set_index(line_in_set);
    if (valid_mask_[idx] != full_mask_) return nullptr;
    const Way* const set = ways_.data() + idx * assoc_;
    return &set[victim_way(set, idx)].entry;
  }

 private:
  struct Way {
    hsw::CacheEntry entry;
    std::uint64_t lru = 0;  // larger == more recent
  };

  [[nodiscard]] std::size_t set_index(hsw::LineAddr line) const {
    return static_cast<std::size_t>(line) & set_mask_;
  }
  [[nodiscard]] std::size_t victim_way(const Way* set,
                                       std::size_t set_idx) const {
    if (replacement_ == hsw::Replacement::kLru) {
      std::size_t victim = 0;
      for (std::size_t w = 1; w < assoc_; ++w) {
        if (set[w].lru < set[victim].lru) victim = w;
      }
      return victim;
    }
    const std::uint32_t tree = plru_[set_idx];
    std::size_t node = 0;
    std::size_t width = assoc_;
    std::size_t base = 0;
    while (width > 1) {
      const bool right = (tree >> node) & 1u;
      width /= 2;
      if (right) base += width;
      node = 2 * node + (right ? 2 : 1);
    }
    return base;
  }
  void touch_way(std::size_t set_idx, std::size_t way) {
    ways_[set_idx * assoc_ + way].lru = ++clock_;
    if (replacement_ == hsw::Replacement::kTreePlru) touch_plru(set_idx, way);
  }
  void touch_plru(std::size_t set_idx, std::size_t way) {
    std::uint32_t tree = plru_[set_idx];
    std::size_t node = 0;
    std::size_t width = assoc_;
    std::size_t base = 0;
    while (width > 1) {
      width /= 2;
      const bool in_right_half = way >= base + width;
      if (in_right_half) {
        tree &= ~(1u << node);
        base += width;
        node = 2 * node + 2;
      } else {
        tree |= (1u << node);
        node = 2 * node + 1;
      }
    }
    plru_[set_idx] = tree;
  }

  unsigned assoc_;
  std::size_t set_count_;
  std::size_t set_mask_;
  std::uint64_t full_mask_;
  hsw::Replacement replacement_;
  std::vector<Way> ways_;
  std::vector<std::uint64_t> valid_mask_;
  std::vector<std::uint32_t> plru_;
  std::uint64_t clock_ = 0;
};

}  // namespace hswtest
