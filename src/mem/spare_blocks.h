// Per-thread recycling of large uninitialized blocks: cache-array way
// records and directory tables.
//
// Sweeps build a fresh System per point.  Without reuse, glibc (2.36,
// default settings) trims the heap after each System and the next one
// page-faults its caches and directories back in as placement touches them
// (fig4 --quick --jobs 1: 228k minor faults, 0.7 s system time; fig10
// --quick --jobs 1: 2.0M minor faults, 5.5 s system time).  A released
// block goes to its thread's spare list and the next request for exactly
// its size takes it back.  The list holds at most 64 MiB, a few Systems'
// worth; what does not fit is freed.
#pragma once

#include <cstddef>
#include <memory>

namespace hsw::spare {

// An uninitialized block of `bytes`: a spare one of exactly that size, or a
// new one.  Aligned for any scalar type.
[[nodiscard]] std::byte* take(std::size_t bytes);
// Hands back a block that take(bytes) returned.
void give(std::byte* block, std::size_t bytes) noexcept;

// unique_ptr deleter that gives the block back.  (No member initializer:
// GCC would then not see the nested type as default-constructible inside
// its owner; unique_ptr value-initializes it.)
struct Give {
  std::size_t bytes;
  void operator()(std::byte* block) const noexcept { give(block, bytes); }
};
using Block = std::unique_ptr<std::byte[], Give>;

[[nodiscard]] inline Block take_block(std::size_t bytes) {
  return {take(bytes), Give{bytes}};
}

}  // namespace hsw::spare
