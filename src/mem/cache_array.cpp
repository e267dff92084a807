#include "mem/cache_array.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

namespace hsw {

namespace {

// Metadata blocks released by this thread's arrays.  Sweeps build a fresh
// System per point; without reuse, glibc (2.36, default settings) trims
// the heap after each System and the next one page-faults its caches back
// in as placement touches them (fig4 --quick --jobs 1: 228k minor faults,
// 0.7 s system time).  Capped so a thread keeps at most a few Systems'
// worth; what does not fit is freed.
constexpr std::size_t kMaxSpareBytes = std::size_t{64} << 20;

struct SpareBlocks {
  std::vector<std::pair<std::size_t, std::byte*>> blocks;  // (bytes, block)
  std::size_t bytes = 0;

  SpareBlocks() = default;
  SpareBlocks(const SpareBlocks&) = delete;
  SpareBlocks& operator=(const SpareBlocks&) = delete;
  ~SpareBlocks() {
    for (const auto& [size, block] : blocks) delete[] block;
  }

  std::byte* take(std::size_t size) {
    for (auto it = blocks.begin(); it != blocks.end(); ++it) {
      if (it->first != size) continue;
      std::byte* const block = it->second;
      *it = blocks.back();
      blocks.pop_back();
      bytes -= size;
      return block;
    }
    return new std::byte[size];
  }
};

thread_local SpareBlocks t_spare_blocks;

}  // namespace

void CacheArray::Recycle::operator()(std::byte* block) const noexcept {
  SpareBlocks& spare = t_spare_blocks;
  if (spare.bytes + bytes <= kMaxSpareBytes) {
    try {
      spare.blocks.emplace_back(bytes, block);
      spare.bytes += bytes;
      return;
    } catch (const std::bad_alloc&) {
    }
  }
  delete[] block;
}

CacheArray::CacheArray(std::uint64_t capacity_bytes, unsigned associativity,
                       Replacement replacement)
    : assoc_(associativity), replacement_(replacement) {
  if (associativity == 0 || capacity_bytes == 0 ||
      capacity_bytes % (static_cast<std::uint64_t>(associativity) * kLineSize) != 0) {
    throw std::invalid_argument("cache capacity must be a multiple of assoc * 64B");
  }
  const std::uint64_t set_count =
      capacity_bytes / (static_cast<std::uint64_t>(associativity) * kLineSize);
  if (!std::has_single_bit(set_count)) {
    throw std::invalid_argument("cache set count must be a power of two");
  }
  if (replacement == Replacement::kTreePlru && !std::has_single_bit(static_cast<std::uint64_t>(associativity))) {
    throw std::invalid_argument("tree-PLRU requires power-of-two associativity");
  }
  if (associativity > 64) {
    throw std::invalid_argument("associativity above 64 is unsupported");
  }
  set_count_ = static_cast<std::size_t>(set_count);
  set_mask_ = set_count_ - 1;
  set_shift_ = static_cast<unsigned>(std::countr_zero(set_count));
  full_mask_ = assoc_ == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << assoc_) - 1;
  pwords_ = (assoc_ + 7) / 8;
  pstride_ = static_cast<std::size_t>(pwords_) * 8;
  ptags_.assign(set_count_ * pstride_, 0);
  valid_mask_.assign(set_count_, 0);
  const std::size_t way_bytes = set_count_ * assoc_ * sizeof(Way);
  const std::size_t rank_bytes =
      replacement_ == Replacement::kLru ? set_count_ * pstride_ : 0;
  const std::size_t bytes = way_bytes + rank_bytes;
  block_ = {t_spare_blocks.take(bytes), Recycle{bytes}};
  ways_ = reinterpret_cast<Way*>(block_.get());
  if (replacement_ == Replacement::kLru) {
    ranks_ = reinterpret_cast<std::uint8_t*>(block_.get() + way_bytes);
    rank_reset_.fill(0x7f);
    for (unsigned w = 0; w < assoc_; ++w) {
      rank_reset_[w] = static_cast<std::uint8_t>(w);
    }
  } else {
    plru_.assign(set_count_, 0);
  }
}

CacheArray::InsertResult CacheArray::insert(LineAddr line, Mesif state) {
  assert(is_valid(state));
  assert(!contains(line) && "insert of an already-present line");
  const std::size_t idx = set_index(line);

  InsertResult result;
  std::size_t target;
  const std::uint64_t valid = valid_mask_[idx];
  if (valid != full_mask_) {
    // Free way available: its index is one bit scan away, no tag walk and
    // no victim scan (the first invalid way, matching a serial search).
    target = static_cast<std::size_t>(std::countr_one(valid));
    ++valid_lines_;
    if (valid == 0 && ranks_ != nullptr) {
      std::memcpy(ranks_ + idx * pstride_, rank_reset_.data(), pstride_);
    }
  } else {
    target = victim_way(idx);
    result.victim = entry_of(ways_[idx * assoc_ + target]);
  }
  Way* const way = new (ways_ + idx * assoc_ + target) Way{line, 0, state, 0};
  ptags_[idx * pstride_ + target] = ptag_of(line);
  valid_mask_[idx] = valid | (std::uint64_t{1} << target);
  touch_way(idx, target);
  result.entry = Ref{way};
  return result;
}

std::optional<CacheEntry> CacheArray::erase(LineAddr line) {
  const std::size_t idx = set_index(line);
  const std::uint64_t match = match_mask(idx, line);
  if (match == 0) return std::nullopt;
  const auto w = static_cast<std::size_t>(std::countr_zero(match));
  valid_mask_[idx] &= ~(std::uint64_t{1} << w);
  --valid_lines_;
  return entry_of(ways_[idx * assoc_ + w]);
}

CacheArray::Census CacheArray::census() const {
  Census census;
  for (std::size_t idx = 0; idx < set_count_; ++idx) {
    std::uint64_t mask = valid_mask_[idx];
    while (mask != 0) {
      const auto w = static_cast<std::size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      const Way& way = ways_[idx * assoc_ + w];
      ++census.by_state[static_cast<std::size_t>(way.state)];
      ++census.valid;
      census.core_valid_bits +=
          static_cast<std::size_t>(std::popcount(way.core_valid));
    }
  }
  return census;
}

std::optional<CacheEntry> CacheArray::replacement_victim(
    LineAddr line_in_set) const {
  const std::size_t idx = set_index(line_in_set);
  if (valid_mask_[idx] != full_mask_) return std::nullopt;
  return entry_of(ways_[idx * assoc_ + victim_way(idx)]);
}

std::size_t CacheArray::victim_way(std::size_t set_idx) const {
  if (replacement_ == Replacement::kLru) {
    // The lane holding rank assoc-1; ranks are a permutation, so exactly
    // one lane matches and the lowest zero-byte flag is exact.
    constexpr std::uint64_t kLanes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighBits = 0x8080808080808080ull;
    const std::uint64_t splat = kLanes * (assoc_ - 1u);
    const std::uint8_t* const ranks = ranks_ + set_idx * pstride_;
    for (unsigned k = 0; k < pwords_; ++k) {
      std::uint64_t v;
      std::memcpy(&v, ranks + 8 * k, 8);
      const std::uint64_t x = v ^ splat;
      const std::uint64_t z = (x - kLanes) & ~x & kHighBits;
      if (z != 0) {
        return 8 * k + (static_cast<std::size_t>(std::countr_zero(z)) >> 3);
      }
    }
    assert(false && "LRU ranks are not a permutation");
    return 0;
  }
  // Tree-PLRU: walk the bit tree; a 0 bit points left, 1 points right.  The
  // victim is the leaf the pointers lead to.
  const std::uint32_t tree = plru_[set_idx];
  std::size_t node = 0;  // root of the implicit binary tree over ways
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

void CacheArray::touch_plru(std::size_t set_idx, std::size_t way) {
  // Flip the tree pointers along the path to `way` to point away from it.
  std::uint32_t tree = plru_[set_idx];
  std::size_t node = 0;
  std::size_t width = assoc_;
  std::size_t base = 0;
  while (width > 1) {
    width /= 2;
    const bool in_right_half = way >= base + width;
    // Point the node away from the accessed half.
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

}  // namespace hsw
