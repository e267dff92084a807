#include "mem/spare_blocks.h"

#include <gtest/gtest.h>

namespace hsw {
namespace {

// A block given back is taken again by the next request for exactly its
// size, and only by such a request.  (Sizes no other test uses, so the
// thread's list holds no other block of them.)
TEST(SpareBlocks, GivenBlockReturnsForItsSizeOnly) {
  constexpr std::size_t kBytes = 4096 + 24;
  std::byte* const block = spare::take(kBytes);
  spare::give(block, kBytes);
  std::byte* const other = spare::take(kBytes + 8);
  EXPECT_NE(other, block);
  std::byte* const again = spare::take(kBytes);
  EXPECT_EQ(again, block);
  spare::give(again, kBytes);
  spare::give(other, kBytes + 8);
}

// The unique_ptr form gives its block back on destruction.
TEST(SpareBlocks, BlockGivesBackOnDestruction) {
  constexpr std::size_t kBytes = 4096 + 40;
  std::byte* raw = nullptr;
  {
    const spare::Block block = spare::take_block(kBytes);
    raw = block.get();
  }
  const spare::Block again = spare::take_block(kBytes);
  EXPECT_EQ(again.get(), raw);
}

}  // namespace
}  // namespace hsw
