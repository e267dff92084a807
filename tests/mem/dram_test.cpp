#include "mem/dram.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <stdexcept>

namespace hsw {
namespace {

TEST(DramChannel, FirstAccessOpensPage) {
  DramChannel channel;
  EXPECT_EQ(channel.access(0), RowBufferOutcome::kEmpty);
}

TEST(DramChannel, SequentialLinesHitOpenRow) {
  DramChannel channel;
  channel.access(0);
  const std::uint64_t lines_per_row = channel.geometry().lines_per_row();
  for (std::uint64_t l = 1; l < lines_per_row; ++l) {
    EXPECT_EQ(channel.access(l), RowBufferOutcome::kHit) << l;
  }
}

TEST(DramChannel, NextRowSameBankConflicts) {
  DramChannel channel;
  const DramGeometry& g = channel.geometry();
  const std::uint64_t lines_per_row = g.lines_per_row();
  channel.access(0);  // row 0, bank 0
  // Row `banks` lands on bank 0 again with a different row.
  EXPECT_EQ(channel.access(lines_per_row * g.banks), RowBufferOutcome::kConflict);
}

TEST(DramChannel, AdjacentRowsMapToDifferentBanks) {
  DramChannel channel;
  const std::uint64_t lines_per_row = channel.geometry().lines_per_row();
  EXPECT_EQ(channel.access(0), RowBufferOutcome::kEmpty);
  EXPECT_EQ(channel.access(lines_per_row), RowBufferOutcome::kEmpty);
  // Both rows stay open simultaneously.
  EXPECT_EQ(channel.access(1), RowBufferOutcome::kHit);
  EXPECT_EQ(channel.access(lines_per_row + 1), RowBufferOutcome::kHit);
}

TEST(DramChannel, CloseAllPrecharges) {
  DramChannel channel;
  channel.access(0);
  channel.close_all();
  EXPECT_EQ(channel.access(0), RowBufferOutcome::kEmpty);
}

TEST(DramChannel, OpenPageCoverage) {
  // 16 banks x 8 KiB rows = 128 KiB of simultaneously open rows per channel;
  // with 2 channels per COD node that is the paper's footnote-7 observation
  // that sub-256 KiB sets behave differently.
  DramChannel channel;
  const DramGeometry& g = channel.geometry();
  EXPECT_EQ(g.banks * g.row_bytes, 128u * 1024);
}

TEST(DramChannel, RejectsNonPowerOfTwoGeometry) {
  // access() decodes bank and row with shifts and masks.
  EXPECT_THROW(DramChannel(DramGeometry{12, 8192}), std::invalid_argument);
  EXPECT_THROW(DramChannel(DramGeometry{0, 8192}), std::invalid_argument);
  EXPECT_THROW(DramChannel(DramGeometry{16, 3 * kLineSize}), std::invalid_argument);
  EXPECT_THROW(DramChannel(DramGeometry{16, 0}), std::invalid_argument);
  EXPECT_NO_THROW(DramChannel(DramGeometry{8, 2 * kLineSize}));
}

TEST(DramChannel, ShiftDecodeMatchesDivisionDecode) {
  std::mt19937_64 rng(3);
  for (const DramGeometry g : {DramGeometry{}, DramGeometry{8, 2048},
                               DramGeometry{1, kLineSize}, DramGeometry{32, 65536}}) {
    DramChannel channel(g);
    std::map<std::uint64_t, std::uint64_t> open_row;  // bank -> row
    for (int i = 0; i < 20000; ++i) {
      // Mostly nearby lines (row hits and conflicts), sometimes far ones.
      const std::uint64_t line = i % 8 == 0 ? rng() >> 20 : rng() % 4096;
      const std::uint64_t global_row = line / g.lines_per_row();
      const std::uint64_t bank = global_row % g.banks;
      const std::uint64_t row = global_row / g.banks;
      const auto it = open_row.find(bank);
      const RowBufferOutcome expected =
          it == open_row.end() ? RowBufferOutcome::kEmpty
          : it->second == row  ? RowBufferOutcome::kHit
                               : RowBufferOutcome::kConflict;
      open_row[bank] = row;
      ASSERT_EQ(channel.access(line), expected) << "line " << line;
    }
  }
}

TEST(Directory, DefaultsToRemoteInvalid) {
  DirectoryStore dir;
  EXPECT_EQ(dir.get(123), DirState::kRemoteInvalid);
  EXPECT_EQ(dir.tracked_lines(), 0u);
}

TEST(Directory, SetAndGet) {
  DirectoryStore dir;
  EXPECT_TRUE(dir.set(1, DirState::kSnoopAll));
  EXPECT_EQ(dir.get(1), DirState::kSnoopAll);
  EXPECT_TRUE(dir.set(1, DirState::kShared));
  EXPECT_EQ(dir.get(1), DirState::kShared);
  EXPECT_EQ(dir.tracked_lines(), 1u);
}

TEST(Directory, EverySetToATrackedStateReportsAWrite) {
  // Pinned behaviour: set() reports a directory write for every
  // non-remote-invalid set, including one that leaves the stored state
  // unchanged, so the engine charges dir_update for it.
  DirectoryStore dir;
  EXPECT_TRUE(dir.set(1, DirState::kSnoopAll));
  EXPECT_TRUE(dir.set(1, DirState::kSnoopAll));
  EXPECT_TRUE(dir.set(1, DirState::kShared));
  EXPECT_TRUE(dir.set(1, DirState::kShared));
  EXPECT_EQ(dir.tracked_lines(), 1u);
}

TEST(Directory, RemoteInvalidErasesTracking) {
  DirectoryStore dir;
  dir.set(1, DirState::kSnoopAll);
  EXPECT_TRUE(dir.set(1, DirState::kRemoteInvalid));
  EXPECT_EQ(dir.tracked_lines(), 0u);
  // Clearing an untracked line is a no-op.
  EXPECT_FALSE(dir.set(2, DirState::kRemoteInvalid));
}

}  // namespace
}  // namespace hsw
