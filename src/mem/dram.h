// DDR4 channel model with row-buffer (open-page) behaviour and the
// in-memory coherence directory.
//
// The paper's footnote 7 attributes sub-256 KiB memory-latency variation to
// "the portion of accesses that read from already open pages"; reproducing
// Fig. 7 therefore needs a row-buffer model, not a flat DRAM latency.  Each
// channel tracks the open row per bank: an access is a page hit (row already
// open), a page empty (bank precharged), or a page conflict (different row
// open, needs precharge + activate).
//
// The 2-bit in-memory directory (paper §IV-A) is stored alongside: real
// hardware keeps it in the ECC bits of each line, so reading memory always
// returns the directory state for free, and updating it costs a write.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/line.h"
#include "mem/spare_blocks.h"

namespace hsw {

enum class RowBufferOutcome : std::uint8_t { kHit, kEmpty, kConflict };

struct DramGeometry {
  unsigned banks = 16;
  std::uint64_t row_bytes = 8192;  // 8 KiB row per bank per channel

  [[nodiscard]] std::uint64_t lines_per_row() const { return row_bytes / kLineSize; }
};

// One DDR4 channel: per-bank open-row registers.
class DramChannel {
 public:
  // Throws std::invalid_argument unless `banks` and lines_per_row() are
  // powers of two: access() decodes bank and row with shifts and masks.
  explicit DramChannel(const DramGeometry& geometry = {});

  // Lifetime row-buffer outcome counts (reads and writes alike; every
  // directed access goes through access()).
  struct Stats {
    std::uint64_t page_hits = 0;
    std::uint64_t page_empties = 0;
    std::uint64_t page_conflicts = 0;

    [[nodiscard]] std::uint64_t accesses() const {
      return page_hits + page_empties + page_conflicts;
    }
    [[nodiscard]] double hit_rate() const {
      const std::uint64_t n = accesses();
      return n == 0 ? 0.0 : static_cast<double>(page_hits) / static_cast<double>(n);
    }
  };

  // `channel_line` is the line index within this channel's address space
  // (i.e. the node-relative line index divided by the channel count).
  RowBufferOutcome access(std::uint64_t channel_line) {
    const std::uint64_t global_row = channel_line >> row_shift_;
    const auto bank = static_cast<std::size_t>(global_row & bank_mask_);
    const auto row = static_cast<std::int64_t>(global_row >> bank_shift_);

    if (open_row_[bank] == row) {
      ++stats_.page_hits;
      return RowBufferOutcome::kHit;
    }
    const bool was_open = open_row_[bank] >= 0;
    open_row_[bank] = row;
    if (was_open) {
      ++stats_.page_conflicts;
      return RowBufferOutcome::kConflict;
    }
    ++stats_.page_empties;
    return RowBufferOutcome::kEmpty;
  }

  // Precharges all banks (e.g. after idle periods between measurements).
  void close_all();

  [[nodiscard]] const DramGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  DramGeometry geometry_;
  unsigned row_shift_ = 0;       // log2(lines_per_row)
  unsigned bank_shift_ = 0;      // log2(banks)
  std::uint64_t bank_mask_ = 0;  // banks - 1
  std::vector<std::int64_t> open_row_;  // -1 == precharged
  Stats stats_;
};

// Sparse in-memory directory: 2 bits per line, default remote-invalid.
// Owned by each home agent for the lines it is home to; only lines in a
// non-remote-invalid state take space.
//
// A flat open-addressing table: linear probing, backward-shift erase, load
// at most 3/4.  Each slot packs the line and its state into one word.  A
// LineAddr is a 64-bit address shifted right by 6, so its top bits are free
// for the state, and an empty slot is 0 because remote-invalid is never
// stored.  Released tables go to the per-thread spare list
// (mem/spare_blocks.h) that the next directory's growth reuses.
class DirectoryStore {
 public:
  [[nodiscard]] DirState get(LineAddr line) const {
    if (size_ == 0) return DirState::kRemoteInvalid;
    for (std::size_t i = home_slot(line);; i = (i + 1) & mask_) {
      const std::uint64_t slot = slots()[i];
      if (slot == 0) return DirState::kRemoteInvalid;
      if ((slot & kLineMask) == line) {
        return static_cast<DirState>(slot >> kStateShift);
      }
    }
  }

  // Returns whether the home agent pays a directory write (a real machine
  // pays a memory write for it).  That is true for *every* set to a
  // non-remote-invalid state, even when the line already held that state,
  // and for a remote-invalid set exactly when the line was tracked.
  bool set(LineAddr line, DirState state);

  // Forgets every line; keeps the table's capacity.
  void clear();
  [[nodiscard]] std::size_t tracked_lines() const { return size_; }

  // Table geometry, exposed so tests can build probe collisions.
  [[nodiscard]] std::size_t capacity() const { return table_ ? mask_ + 1 : 0; }
  // Slot where the probe for `line` starts; capacity() > 0.
  [[nodiscard]] std::size_t home_slot(LineAddr line) const {
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ull) >> hash_shift_);
  }

 private:
  static constexpr unsigned kStateShift = 62;
  static constexpr std::uint64_t kLineMask = (1ull << kStateShift) - 1;

  bool erase(LineAddr line);
  void grow();

  [[nodiscard]] std::uint64_t* slots() const {
    return reinterpret_cast<std::uint64_t*>(table_.get());
  }

  // The slots: line | state << kStateShift; 0 = empty.
  spare::Block table_;
  std::size_t mask_ = 0;              // capacity() - 1
  unsigned hash_shift_ = 64;          // 64 - log2(capacity())
  std::size_t size_ = 0;
};

}  // namespace hsw
