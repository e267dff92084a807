// Differential test of the flat DirectoryStore against a std::unordered_map
// reference with the store's documented contract: set() to a non-remote-
// invalid state always reports a write, a remote-invalid set reports whether
// the line was tracked, get() defaults to remote-invalid.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "mem/dram.h"

namespace hsw {
namespace {

class ReferenceDirectory {
 public:
  DirState get(LineAddr line) const {
    const auto it = states_.find(line);
    return it == states_.end() ? DirState::kRemoteInvalid : it->second;
  }
  bool set(LineAddr line, DirState state) {
    if (state == DirState::kRemoteInvalid) return states_.erase(line) > 0;
    states_[line] = state;
    return true;
  }
  void clear() { states_.clear(); }
  std::size_t size() const { return states_.size(); }
  const std::unordered_map<LineAddr, DirState>& states() const { return states_; }

 private:
  std::unordered_map<LineAddr, DirState> states_;
};

constexpr DirState kStates[] = {DirState::kRemoteInvalid, DirState::kSnoopAll,
                                DirState::kShared};

// Applies one set to both and checks the return value, the tracked count and
// the line's state.
void set_both(DirectoryStore& dir, ReferenceDirectory& ref, LineAddr line,
              DirState state) {
  ASSERT_EQ(dir.set(line, state), ref.set(line, state))
      << "line " << line << " -> " << to_string(state);
  ASSERT_EQ(dir.tracked_lines(), ref.size());
  ASSERT_EQ(dir.get(line), ref.get(line));
}

void expect_same_contents(const DirectoryStore& dir, const ReferenceDirectory& ref) {
  ASSERT_EQ(dir.tracked_lines(), ref.size());
  for (const auto& [line, state] : ref.states()) {
    ASSERT_EQ(dir.get(line), state) << "line " << line;
  }
}

// Lines whose probe starts in `slot` of the current table.
std::vector<LineAddr> lines_homed_at(const DirectoryStore& dir, std::size_t slot,
                                     std::size_t count, LineAddr start) {
  std::vector<LineAddr> lines;
  for (LineAddr line = start; lines.size() < count; ++line) {
    if (dir.home_slot(line) == slot) lines.push_back(line);
  }
  return lines;
}

TEST(DirectoryDifferential, SeededRandomOpsMatchReference) {
  // 100k ops over a few key universes: a tiny one keeps the table small and
  // its probe runs long (collisions, wraparound, mid-chain erases), a large
  // one forces repeated growth, and sequential lines mimic a swept buffer.
  std::mt19937_64 rng(16);
  DirectoryStore dir;
  ReferenceDirectory ref;
  for (int op = 0; op < 100000; ++op) {
    const int phase = op / 20000;
    LineAddr line = 0;
    switch (phase) {
      case 0: line = rng() % 24; break;
      case 1: line = rng() % 4096; break;
      case 2: line = (LineAddr{5} << 38) + static_cast<LineAddr>(op % 3000); break;
      case 3: line = rng() >> 6; break;  // any LineAddr: top bits stay free
      default: line = rng() % 64; break;
    }
    if (op % 25000 == 24999) {
      dir.clear();
      ref.clear();
      ASSERT_EQ(dir.tracked_lines(), 0u);
    }
    const DirState state = kStates[rng() % 3];
    if (rng() % 4 == 0) {
      ASSERT_EQ(dir.get(line), ref.get(line)) << "line " << line;
    } else {
      set_both(dir, ref, line, state);
    }
    if (op % 997 == 0) expect_same_contents(dir, ref);
    if (HasFatalFailure()) return;
  }
  expect_same_contents(dir, ref);
}

TEST(DirectoryDifferential, EraseInsideAWrappingProbeRun) {
  DirectoryStore dir;
  ReferenceDirectory ref;
  set_both(dir, ref, 0, DirState::kSnoopAll);  // allocates the table
  const std::size_t last = dir.capacity() - 1;
  // Five lines homed at the last slot run past the end of the table and
  // wrap around, followed by two lines homed at slot 0 that the erases below
  // must shift backwards.
  std::vector<LineAddr> run = lines_homed_at(dir, last, 5, 1);
  for (LineAddr line : lines_homed_at(dir, 0, 2, 1)) run.push_back(line);
  for (LineAddr line : run) set_both(dir, ref, line, DirState::kShared);
  ASSERT_EQ(dir.capacity(), last + 1) << "the run must fit without growth";
  expect_same_contents(dir, ref);

  set_both(dir, ref, run[2], DirState::kRemoteInvalid);  // mid-chain, pre-wrap
  expect_same_contents(dir, ref);
  set_both(dir, ref, run[0], DirState::kRemoteInvalid);  // head of the run
  expect_same_contents(dir, ref);
  set_both(dir, ref, run[4], DirState::kRemoteInvalid);  // after the wrap
  expect_same_contents(dir, ref);
  set_both(dir, ref, run[5], DirState::kRemoteInvalid);  // slot-0 home
  expect_same_contents(dir, ref);
  // Erasing an absent line whose probe crosses the run is a no-op.
  set_both(dir, ref, run[2], DirState::kRemoteInvalid);
  for (LineAddr line : run) set_both(dir, ref, line, DirState::kSnoopAll);
  expect_same_contents(dir, ref);
}

TEST(DirectoryDifferential, GrowthKeepsEveryLineAndClearKeepsCapacity) {
  DirectoryStore dir;
  ReferenceDirectory ref;
  EXPECT_EQ(dir.capacity(), 0u);  // an unused directory allocates nothing
  for (LineAddr line = 0; line < 5000; ++line) {
    set_both(dir, ref, line * 7, line % 2 ? DirState::kShared : DirState::kSnoopAll);
  }
  expect_same_contents(dir, ref);
  EXPECT_LE(dir.tracked_lines() * 4, dir.capacity() * 3);  // load <= 3/4
  const std::size_t capacity = dir.capacity();
  dir.clear();
  ref.clear();
  EXPECT_EQ(dir.capacity(), capacity);
  expect_same_contents(dir, ref);
  EXPECT_EQ(dir.get(7), DirState::kRemoteInvalid);
  set_both(dir, ref, 7, DirState::kShared);
}

TEST(DirectoryDifferential, RecycledTablesStartEmpty) {
  // A destroyed directory's tables are reused by the next one that grows
  // to the same capacities; none of the old lines may show through.
  {
    DirectoryStore first;
    for (LineAddr line = 0; line < 3000; ++line) first.set(line, DirState::kSnoopAll);
  }
  DirectoryStore dir;
  ReferenceDirectory ref;
  for (LineAddr line = 3000; line < 6000; ++line) {
    set_both(dir, ref, line, DirState::kShared);
  }
  expect_same_contents(dir, ref);
  for (LineAddr line = 0; line < 3000; ++line) {
    ASSERT_EQ(dir.get(line), DirState::kRemoteInvalid) << "line " << line;
  }
}

}  // namespace
}  // namespace hsw
