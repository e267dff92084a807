// Set-associative cache tag/state array.
//
// A purely functional model (no data payloads — the simulator only tracks
// placement and coherence state).  One class serves L1D, L2, L3 slices and
// the HitME directory cache; the per-line metadata carries the MESIF state,
// the core-valid bit vector (used by L3/CBo), and a small payload byte (the
// HitME cache's presence vector; in L1/L2, the way of the line's L3 copy).
//
// Replacement is true LRU by default; tree-PLRU is available to study how
// far the approximation changes eviction patterns (the L3 uses an
// approximation on real silicon).
//
// Layout.  The miss probe reads two compact stripes: a per-set valid-way
// bitmask, which rejects empty sets in one load and gates stale lanes left
// by erase, and a packed stripe of 8-bit partial tags (one byte per way,
// eight ways per 64-bit word).  A lookup XORs the set's packed words
// against the probe's splatted partial tag and uses the SWAR zero-byte
// trick to produce a candidate-way bitmask in a handful of ALU ops, with no
// per-way loop.  Candidates (usually exactly one) are verified against the
// full tag, so partial-tag collisions cost one extra compare and can never
// produce a wrong hit.  Everything else about a way (full tag, core-valid
// vector, MESIF state, payload byte) sits in one 16-byte record, so a hit
// or a victim touches one cache line of metadata, not one per field.
//
// Exact LRU keeps one 8-bit move-to-front rank per way in a stripe shaped
// like the partial tags (pad lanes hold 0x7f): rank 0 is the most recent
// way and rank assoc-1 the victim.  A touch is a SWAR compare-and-add over
// the set's rank words.  The ranks of a set are reset to the identity
// when insert finds the set empty, so every way of a full set was touched
// since the reset and the ranks order the ways by last touch exactly.
//
// The records and the ranks share one block that is never zero-filled:
// insert writes a way's record before any read of it (reads are gated by
// the valid mask), and a set's ranks before any touch.  Blocks are
// recycled per thread, so a sweep that builds a System per point neither
// writes nor page-faults in the bulk of each new System's metadata.
// lookup() and the scan helpers are header-inline because they dominate
// the whole simulator's profile.
//
// The array also counts its valid lines.  A probe of an empty array (a
// peer node's L3 during placement on a fresh System) is a miss without a
// load of any set metadata, and valid_count() is O(1).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "mem/line.h"
#include "mem/spare_blocks.h"

// The tag-scan dispatch below is deliberately bigger than GCC's -O2
// inlining budget (one unrolled body per supported associativity); without
// the hint every lookup pays an out-of-line call on its hottest path.
#if defined(__GNUC__) || defined(__clang__)
#define HSW_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define HSW_ALWAYS_INLINE inline
#endif

namespace hsw {

enum class Replacement : std::uint8_t { kLru, kTreePlru };

// Value snapshot of one cached line's metadata.  The array itself stores
// each way as a packed record (see the layout note above); CacheEntry is
// the materialized form handed to callers that keep copies (victims, flush
// callbacks, peeks).
struct CacheEntry {
  LineAddr line = 0;
  Mesif state = Mesif::kInvalid;
  std::uint32_t core_valid = 0;  // CBo core-valid bits (L3 only)
  std::uint8_t payload = 0;      // HitME presence vector / L3 way hint
};

class CacheArray {
  // One way's metadata.  No default member initializers: the record array
  // is allocated uninitialized and insert writes every field first.
  struct Way {
    LineAddr tag;
    std::uint32_t core_valid;
    Mesif state;
    std::uint8_t payload;
  };
  static_assert(sizeof(Way) == 16);

 public:
  // Mutable handle to one resident line: a pointer to its way record.
  // Invalidated by any subsequent insert/erase/flush on the array (same
  // lifetime rule the old CacheEntry* had).  A default-constructed Ref is
  // "miss" and converts to false.
  class Ref {
   public:
    Ref() = default;
    explicit operator bool() const { return way_ != nullptr; }
    [[nodiscard]] LineAddr line() const { return way_->tag; }
    [[nodiscard]] Mesif& state() const { return way_->state; }
    [[nodiscard]] std::uint32_t& core_valid() const { return way_->core_valid; }
    [[nodiscard]] std::uint8_t& payload() const { return way_->payload; }
    [[nodiscard]] CacheEntry entry() const { return entry_of(*way_); }

   private:
    friend class CacheArray;
    explicit Ref(Way* way) : way_(way) {}
    Way* way_ = nullptr;
  };

  // `capacity_bytes` must be a multiple of `associativity * kLineSize` and
  // yield a power-of-two set count.
  CacheArray(std::uint64_t capacity_bytes, unsigned associativity,
             Replacement replacement = Replacement::kLru);

  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(set_count_) * assoc_ * kLineSize;
  }
  [[nodiscard]] unsigned associativity() const { return assoc_; }
  [[nodiscard]] std::size_t set_count() const { return set_count_; }

  // Looks up a line; touch=true refreshes recency.  Returns a false Ref on
  // miss.
  Ref lookup(LineAddr line, bool touch = true) {
    const std::size_t idx = set_index(line);
    const std::uint64_t match = match_mask(idx, line);
    if (match == 0) return Ref{};
    const auto w = static_cast<std::size_t>(std::countr_zero(match));
    if (touch) touch_way(idx, w);
    return Ref{ways_ + idx * assoc_ + w};
  }

  // Recency-neutral lookup through a way hint: returns the line's way
  // `way` when that way is valid and holds `line`, and otherwise falls back
  // to lookup(line, /*touch=*/false).  A stale or out-of-range hint is
  // therefore never wrong, only slower.
  Ref at_way(LineAddr line, unsigned way) {
    const std::size_t idx = set_index(line);
    if (way < assoc_ && ((valid_mask_[idx] >> way) & 1) != 0) {
      Way* const w = ways_ + idx * assoc_ + way;
      if (w->tag == line) return Ref{w};
    }
    return lookup(line, /*touch=*/false);
  }
  // Way index of a resident line's record (the hint at_way takes).
  [[nodiscard]] std::uint8_t way_index(Ref ref) const {
    return static_cast<std::uint8_t>(
        static_cast<std::size_t>(ref.way_ - ways_) -
        set_index(ref.line()) * assoc_);
  }

  [[nodiscard]] std::optional<CacheEntry> peek(LineAddr line) const {
    const std::size_t idx = set_index(line);
    const std::uint64_t match = match_mask(idx, line);
    if (match == 0) return std::nullopt;
    const auto w = static_cast<std::size_t>(std::countr_zero(match));
    return entry_of(ways_[idx * assoc_ + w]);
  }
  [[nodiscard]] bool contains(LineAddr line) const {
    return match_mask(set_index(line), line) != 0;
  }

  // Inserts `line` (must not be present), evicting the replacement victim if
  // the set is full.  The victim (if any, and if it was valid) is returned so
  // the caller can handle writebacks / inclusive back-invalidations.
  struct InsertResult {
    Ref entry;
    std::optional<CacheEntry> victim;
  };
  InsertResult insert(LineAddr line, Mesif state);

  // Invalidates a line if present; returns the prior entry.
  std::optional<CacheEntry> erase(LineAddr line);

  // Invalidates everything, invoking `on_evict` for each valid entry
  // (used by the benchmark's cache-flush placement step).  Templated on the
  // callable so per-flush std::function allocation never happens.
  // `on_evict` may erase lines of this array (an L3 victim's
  // back-invalidation); the count drops by what is left of each set.
  template <typename OnEvict>
  void flush(OnEvict&& on_evict) {
    if (valid_lines_ == 0) return;
    for (std::size_t idx = 0; idx < set_count_; ++idx) {
      std::uint64_t mask = valid_mask_[idx];
      while (mask != 0) {
        const auto w = static_cast<std::size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        on_evict(entry_of(ways_[idx * assoc_ + w]));
      }
      valid_lines_ -= static_cast<std::size_t>(std::popcount(valid_mask_[idx]));
      valid_mask_[idx] = 0;
    }
  }

  [[nodiscard]] std::size_t valid_count() const { return valid_lines_; }

  // One structural-census pass: per-line-state counts plus the
  // core-valid-filter population, walking only the valid-way bitmasks
  // (O(sets + valid lines)).  Feeds the metrics occupancy gauges.
  struct Census {
    std::array<std::size_t, 6> by_state{};  // indexed by Mesif value
    std::size_t valid = 0;
    std::size_t core_valid_bits = 0;

    Census& operator+=(const Census& other) {
      for (std::size_t i = 0; i < by_state.size(); ++i) {
        by_state[i] += other.by_state[i];
      }
      valid += other.valid;
      core_valid_bits += other.core_valid_bits;
      return *this;
    }
  };
  [[nodiscard]] Census census() const;

  // Victim the true-LRU / PLRU way would choose for this set right now, or
  // nullopt if the set still has an invalid way.  Exposed for tests.
  [[nodiscard]] std::optional<CacheEntry> replacement_victim(
      LineAddr line_in_set) const;

 private:
  [[nodiscard]] std::size_t set_index(LineAddr line) const {
    return static_cast<std::size_t>(line) & set_mask_;
  }
  // The partial tag folds the line bits above the set index (the bits that
  // actually distinguish lines within one set) into one byte.
  [[nodiscard]] std::uint8_t ptag_of(LineAddr line) const {
    return static_cast<std::uint8_t>(line >> set_shift_);
  }
  // Bitmask of ways in set `idx` holding `line` (0 or a single bit: insert
  // rejects duplicates).  The valid mask front-door makes the empty-set
  // case one load; the candidate scan is the SWAR zero-byte trick over the
  // packed partial-tag words — the borrow-propagation false positives it
  // can produce (and genuine partial-tag collisions) are filtered by the
  // full-tag verification of each candidate, so the result is exact.
  [[nodiscard]] HSW_ALWAYS_INLINE std::uint64_t match_mask(
      std::size_t idx, LineAddr line) const {
    constexpr std::uint64_t kLanes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighBits = 0x8080808080808080ull;
    if (valid_lines_ == 0) return 0;
    const std::uint64_t valid = valid_mask_[idx];
    if (valid == 0) return 0;
    const std::uint64_t splat = kLanes * ptag_of(line);
    const std::uint8_t* const pt = ptags_.data() + idx * pstride_;
    const Way* const ways = ways_ + idx * assoc_;
    for (unsigned k = 0; k < pwords_; ++k) {  // one iteration for assoc <= 8
      std::uint64_t v;
      std::memcpy(&v, pt + 8 * k, 8);
      const std::uint64_t x = v ^ splat;  // zero byte == candidate lane
      std::uint64_t z = (x - kLanes) & ~x & kHighBits;
      while (z != 0) {  // candidate lanes, almost always exactly one
        const auto w =
            8 * k + (static_cast<unsigned>(std::countr_zero(z)) >> 3);
        z &= z - 1;
        if (((valid >> w) & 1) != 0 && ways[w].tag == line) {
          return std::uint64_t{1} << w;
        }
      }
    }
    return 0;
  }
  static CacheEntry entry_of(const Way& w) {
    return CacheEntry{w.tag, w.state, w.core_valid, w.payload};
  }
  // Index of the way to replace in the set (all ways valid).
  [[nodiscard]] std::size_t victim_way(std::size_t set_idx) const;
  void touch_way(std::size_t set_idx, std::size_t way) {
    if (replacement_ == Replacement::kLru) {
      touch_lru(set_idx, way);
    } else {
      touch_plru(set_idx, way);
    }
  }
  // Move-to-front: every rank below the touched way's rank ages by one and
  // the touched way becomes rank 0.  Per lane, (0x80 | (old - 1)) - rank
  // keeps its high bit iff rank < old; ranks and pad lanes stay below 0x80,
  // so no lane borrows from or carries into its neighbour.
  void touch_lru(std::size_t set_idx, std::size_t way) {
    constexpr std::uint64_t kLanes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighBits = 0x8080808080808080ull;
    std::uint8_t* const ranks = ranks_ + set_idx * pstride_;
    const std::uint8_t old = ranks[way];
    if (old == 0) return;
    const std::uint64_t below = (kLanes * (old - 1u)) | kHighBits;
    for (unsigned k = 0; k < pwords_; ++k) {
      std::uint64_t v;
      std::memcpy(&v, ranks + 8 * k, 8);
      v += ((below - v) & kHighBits) >> 7;
      std::memcpy(ranks + 8 * k, &v, 8);
    }
    ranks[way] = 0;
  }
  void touch_plru(std::size_t set_idx, std::size_t way);

  unsigned assoc_;
  std::size_t set_count_;
  std::size_t set_mask_;
  std::uint64_t full_mask_;  // all `assoc_` way bits set
  Replacement replacement_;
  // Packed partial-tag stripe: one byte per way, `pstride_` bytes per set
  // (assoc rounded up to whole 64-bit words; pad lanes are gated off by the
  // valid mask).  This is the only stripe the scan reads on a miss.
  std::vector<std::uint8_t> ptags_;
  std::size_t pstride_ = 8;
  unsigned pwords_ = 1;     // pstride_ / 8
  unsigned set_shift_ = 0;  // log2(set_count_), for ptag_of
  // One uninitialized block holds the way records, then (LRU only) the
  // ranks.  Blocks come from and return to the per-thread spare list
  // (mem/spare_blocks.h).
  spare::Block block_;
  // Way records, `set * assoc + way` (unwritten until insert).
  Way* ways_ = nullptr;
  // LRU ranks, laid out like ptags_ (unwritten until a set's first insert;
  // null for tree-PLRU).
  std::uint8_t* ranks_ = nullptr;
  // What a set's ranks are reset to: the identity, then 0x7f pad lanes.
  std::array<std::uint8_t, 64> rank_reset_{};
  // Per-set bitmask of valid ways: the miss fast path for lookup/peek/
  // contains, and insert's free-way scan (one countr_one instead of a tag
  // walk).
  std::vector<std::uint64_t> valid_mask_;
  // Valid lines in the whole array (the popcount of valid_mask_).
  std::size_t valid_lines_ = 0;
  // Tree-PLRU state: one bit-tree per set, stored as an integer of
  // (assoc-1) bits (assoc must be a power of two for PLRU).
  std::vector<std::uint32_t> plru_;
};

}  // namespace hsw
