#include "core/placement.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/rng.h"

namespace hsw {

const char* to_string(CacheLevel level) {
  switch (level) {
    case CacheLevel::kL1L2: return "L1/L2";
    case CacheLevel::kL3: return "L3";
    case CacheLevel::kMemory: return "memory";
  }
  return "?";
}

std::vector<LineAddr> chase_order(const MemRegion& region, std::uint64_t seed) {
  std::vector<LineAddr> lines(region.line_count());
  std::iota(lines.begin(), lines.end(), region.first_line());
  Xoshiro256 rng(seed);
  // Fisher-Yates shuffle: a uniformly random single-cycle visiting order is
  // what the real benchmark's pointer chain provides.
  for (std::size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.bounded(i)]);
  }
  return lines;
}

void place_lines(System& system, std::span<const LineAddr> order,
                 const Placement& placement) {
  // The passes run one line class at a time (see DESIGN.md, "Channel-major
  // placement"): lines of different classes share no cache set and no DRAM
  // channel, so only the order within a class is observable, and each
  // class keeps its chase order.  A class's state is a fraction of the
  // machine's metadata, which the host caches hold better.  An attached
  // observer would see the reordering, so placement runs detached.
  assert(system.tracer() == nullptr && system.metrics() == nullptr &&
         system.linestats() == nullptr && "placement runs detached");
  const LineAddr classes = system.state().line_classes();
  for (LineAddr cls = 0; cls < classes; ++cls) {
    const auto each = [&](auto&& op) {
      for (LineAddr line : order) {
        if ((line & (classes - 1)) == cls) op(addr_of(line));
      }
    };
    // 1. Establish the owner's copy: a read of an uncached line installs
    // it Exclusive (DESIGN.md, "Read-only placement"), a write Modified.
    if (placement.state == Mesif::kExclusive ||
        placement.state == Mesif::kShared) {
      each([&](PhysAddr addr) { system.read(placement.owner_core, addr); });
    } else {
      each([&](PhysAddr addr) { system.write(placement.owner_core, addr); });
    }
    // 2. Spread shared copies; the last reader's node receives Forward.
    if (placement.state == Mesif::kShared) {
      for (int sharer : placement.sharers) {
        each([&](PhysAddr addr) { system.read(sharer, addr); });
      }
    }
  }

  // 3. Push the lines down to the requested level.
  if (placement.level == CacheLevel::kL3 ||
      placement.level == CacheLevel::kMemory) {
    system.evict_core_caches(placement.owner_core);
    for (int sharer : placement.sharers) system.evict_core_caches(sharer);
  }
  if (placement.level == CacheLevel::kMemory) {
    // Evict the involved nodes' L3s.  Clean lines drop silently, which is
    // exactly what leaves the in-memory directory stale (Table V).
    const SystemTopology& topo = system.topology();
    std::vector<int> nodes{topo.node_of_core(placement.owner_core)};
    for (int sharer : placement.sharers) {
      nodes.push_back(topo.node_of_core(sharer));
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    for (int node : nodes) system.flush_node_l3(node);
  }
}

}  // namespace hsw
