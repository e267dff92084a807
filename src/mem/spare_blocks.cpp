#include "mem/spare_blocks.h"

#include <new>
#include <utility>
#include <vector>

namespace hsw::spare {

namespace {

constexpr std::size_t kMaxSpareBytes = std::size_t{64} << 20;

struct SpareList {
  std::vector<std::pair<std::size_t, std::byte*>> blocks;  // (bytes, block)
  std::size_t bytes = 0;

  SpareList() = default;
  SpareList(const SpareList&) = delete;
  SpareList& operator=(const SpareList&) = delete;
  ~SpareList() {
    for (const auto& [size, block] : blocks) delete[] block;
  }
};

thread_local SpareList t_spare;

}  // namespace

std::byte* take(std::size_t bytes) {
  SpareList& spare = t_spare;
  for (auto& entry : spare.blocks) {
    if (entry.first != bytes) continue;
    std::byte* const block = entry.second;
    entry = spare.blocks.back();
    spare.blocks.pop_back();
    spare.bytes -= bytes;
    return block;
  }
  return new std::byte[bytes];
}

void give(std::byte* block, std::size_t bytes) noexcept {
  SpareList& spare = t_spare;
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

}  // namespace hsw::spare
