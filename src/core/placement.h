// Data placement and coherence-state control (the paper's §V-B).
//
// The paper's central methodological contribution: before each measurement,
// every cache line of the working set is put into a fully specified
// combination of (owning core / sharing cores, cache level, MESIF state):
//
//   * modified   — the placer writes the data;
//   * exclusive  — write, clflush, read (the clflush removes the modified
//                  copy and updates memory, the re-read installs E);
//   * shared/forward — place exclusive, then other cores read it; the order
//                  of the reads determines which node holds the Forward copy
//                  (the most recent reader).
//
// On hardware the write and clflush drive a line out of whatever state it
// held.  The simulator places only lines cached nowhere, so exclusive is the
// owner's read alone: it leaves the caches, directory, HitME and open DRAM
// rows as write, clflush, read would, with less placement traffic in the
// cumulative row-buffer statistics and counters (DESIGN.md, "Read-only
// placement").
//
// The cache *level* is controlled the way the paper does it: a data set that
// exceeds a level naturally lives in the next one, and explicit cache
// flushes push lines down (core caches -> L3 -> memory) without disturbing
// the coherence state machinery (clean evictions stay silent).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "machine/system.h"
#include "mem/line.h"

namespace hsw {

enum class CacheLevel : std::uint8_t { kL1L2, kL3, kMemory };

[[nodiscard]] const char* to_string(CacheLevel level);

struct Placement {
  // Core that establishes the initial (M or E) copy.
  int owner_core = 0;
  // NUMA node whose memory backs the buffer (libnuma affinity).
  int memory_node = 0;
  // Target coherence state: kModified, kExclusive, or kShared (which also
  // creates a Forward copy).
  Mesif state = Mesif::kModified;
  // For state kShared: cores that read the data after the owner, in order.
  // The last reader's node ends up holding the Forward copy.
  std::vector<int> sharers;
  // Where the data should reside before measurement.
  CacheLevel level = CacheLevel::kL1L2;
};

// Applies `placement` to the given lines, which must be cached nowhere (the
// experiments pass a fresh region's chase order).  Lines are visited one
// channel class (MachineState::line_classes()) at a time, in the given
// order within each class; classes share no cache set and no DRAM channel,
// so the result is the one the plain given order produces, and the order
// each channel's row buffers see is unchanged.  The System must have no
// tracer, metrics registry or line recorder attached.
void place_lines(System& system, std::span<const LineAddr> order,
                 const Placement& placement);

// Builds the paper's pointer-chase order: a pseudo-random permutation of the
// region's lines (each line visited exactly once per pass).
std::vector<LineAddr> chase_order(const MemRegion& region, std::uint64_t seed = 1);

}  // namespace hsw
