#include "mem/dram.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace hsw {

DramChannel::DramChannel(const DramGeometry& geometry) : geometry_(geometry) {
  if (!std::has_single_bit(geometry_.banks) ||
      !std::has_single_bit(geometry_.lines_per_row())) {
    throw std::invalid_argument(
        "DRAM banks and lines per row must be powers of two");
  }
  row_shift_ = static_cast<unsigned>(std::countr_zero(geometry_.lines_per_row()));
  bank_shift_ = static_cast<unsigned>(std::countr_zero(geometry_.banks));
  bank_mask_ = geometry_.banks - 1;
  open_row_.assign(geometry_.banks, -1);
}

void DramChannel::close_all() {
  open_row_.assign(geometry_.banks, -1);
}

bool DirectoryStore::set(LineAddr line, DirState state) {
  assert(line <= kLineMask);
  if (state == DirState::kRemoteInvalid) return erase(line);
  if ((size_ + 1) * 4 > capacity() * 3) grow();
  const std::uint64_t packed =
      line | (static_cast<std::uint64_t>(state) << kStateShift);
  for (std::size_t i = home_slot(line);; i = (i + 1) & mask_) {
    std::uint64_t& slot = slots_[i];
    if (slot == 0) {
      slot = packed;
      ++size_;
      return true;
    }
    if ((slot & kLineMask) == line) {
      slot = packed;
      return true;
    }
  }
}

bool DirectoryStore::erase(LineAddr line) {
  if (size_ == 0) return false;
  std::size_t hole = home_slot(line);
  for (;; hole = (hole + 1) & mask_) {
    if (slots_[hole] == 0) return false;
    if ((slots_[hole] & kLineMask) == line) break;
  }
  // Backward shift: pull each later entry of the probe run into the hole
  // unless the hole lies before that entry's home slot, so every remaining
  // line stays reachable from its home without tombstones.
  for (std::size_t j = (hole + 1) & mask_; slots_[j] != 0; j = (j + 1) & mask_) {
    const std::size_t home = home_slot(slots_[j] & kLineMask);
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
  --size_;
  return true;
}

void DirectoryStore::clear() {
  std::fill_n(slots_.get(), capacity(), 0);
  size_ = 0;
}

namespace {

// Spare directory tables of this thread, at most one per power-of-two
// capacity, so they hold less than twice the largest table the thread built.
// Sweeps build a fresh System per point.  Without reuse, each point's
// directory grows by freeing and reallocating buffers of up to a few MiB,
// and with glibc's default malloc settings that lets the heap be trimmed
// after every System and re-faulted by the next one (glibc 2.36, fig10
// --quick --jobs 1: 65k -> 2.0M minor faults, 0.2 -> 5.5 s system time).
thread_local std::array<std::unique_ptr<std::uint64_t[]>, 64> t_spare_tables;

}  // namespace

void DirectoryStore::Recycle::operator()(std::uint64_t* slots) const noexcept {
  std::unique_ptr<std::uint64_t[]>& spare = t_spare_tables[log2_capacity];
  if (spare) {
    delete[] slots;
  } else {
    spare.reset(slots);
  }
}

void DirectoryStore::grow() {
  const std::size_t old_capacity = capacity();
  const unsigned log2 =
      old_capacity == 0 ? 4u : static_cast<unsigned>(std::countr_zero(old_capacity)) + 1;
  const std::size_t new_capacity = std::size_t{1} << log2;
  std::unique_ptr<std::uint64_t[]>& spare = t_spare_tables[log2];
  std::uint64_t* fresh = spare ? spare.release() : new std::uint64_t[new_capacity];
  std::fill_n(fresh, new_capacity, 0);

  const auto old = std::exchange(slots_, {fresh, Recycle{log2}});
  mask_ = new_capacity - 1;
  hash_shift_ = 64u - log2;
  for (std::size_t j = 0; j < old_capacity; ++j) {
    const std::uint64_t slot = old[j];
    if (slot == 0) continue;
    std::size_t i = home_slot(slot & kLineMask);
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

}  // namespace hsw
