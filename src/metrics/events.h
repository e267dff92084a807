// The metric vocabulary, modeled on the Haswell-EP *uncore* PMU event
// classes the paper validates against (CBo = caching agent / LLC slice,
// SAD = source address decoder, HA = home agent, QPI = socket link,
// iMC = integrated memory controller).  Every enumerator carries an
// uncore-style event name so reports read like `perf stat` on the real
// machine's uncore boxes.
//
// Events the engine's always-on CounterSet already counts (sim/counters.h:
// directory lookups and updates, HitME hits/misses/allocations/evictions,
// update broadcasts, QPI flits, ...) are not repeated here: a report
// carries them as its `engine_counters`, over the same attach window.
//
// Four metric kinds:
//   MCtr    - scalar monotonic counters (event occurrences)
//   MGauge  - point-in-time structural state (MESIF occupancy, directory
//             population), refreshed by MachineState::update_structural_gauges
//   MMeter  - monotonic double accumulators (ring hops weighted by distance)
//   MFamily - indexed counter vectors (per QPI link, per DRAM channel,
//             per ring stop), sized from the topology at attach time
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hsw::metrics {

enum class MCtr : std::uint8_t {
  // CBo: eviction causes per cache level.  Clean victims leave silently
  // (no message, directory and core-valid bits go stale); Modified victims
  // cost a writeback.  The split is exactly the mechanism behind the
  // paper's stale-directory broadcasts (Table V).
  kL1VictimDirty,
  kL1VictimCleanSilent,
  kL2VictimDirty,
  kL2VictimCleanSilent,
  kL3VictimDirty,
  kL3VictimCleanSilent,
  // SAD: who decoded the request's home — the local or a remote node.
  kSadLocalHome,
  kSadRemoteHome,
  // HA: how the directory state and the HitME cache routed a request.
  kHaSnoopAllBroadcast,  // directory said snoop-all: speculative broadcast
  kHaStaleBroadcast,     // ...and nobody answered (directory was stale)
  kHaBypass,             // served without waiting on any snoop response
  // iMC: row-buffer outcome of every directed DRAM read.
  kImcPageHit,
  kImcPageEmpty,
  kImcPageConflict,
  kCount,
};
inline constexpr std::size_t kMCtrCount = static_cast<std::size_t>(MCtr::kCount);

enum class MGauge : std::uint8_t {
  // Per-level line-state occupancy (valid lines per state, machine-wide).
  // Owned is populated only under MOESI/Dragon.
  kL1OccModified,
  kL1OccExclusive,
  kL1OccShared,
  kL1OccForward,
  kL1OccOwned,
  kL2OccModified,
  kL2OccExclusive,
  kL2OccShared,
  kL2OccForward,
  kL2OccOwned,
  kL3OccModified,
  kL3OccExclusive,
  kL3OccShared,
  kL3OccForward,
  kL3OccOwned,
  // Population of the L3 core-valid filters (set bits across all slices).
  kL3CoreValidBits,
  // HitME directory-cache and in-memory directory population.
  kHitmeEntries,
  kDirectoryTracked,
  kCount,
};
inline constexpr std::size_t kMGaugeCount =
    static_cast<std::size_t>(MGauge::kCount);

enum class MMeter : std::uint8_t {
  kRingHops,  // bidirectional-ring hops traversed, weighted by distance
  kCount,
};
inline constexpr std::size_t kMMeterCount =
    static_cast<std::size_t>(MMeter::kCount);

enum class MHist : std::uint8_t {
  kAccessNs,  // per-access latency, log-bucketed
  kCount,
};
inline constexpr std::size_t kMHistCount =
    static_cast<std::size_t>(MHist::kCount);

enum class MFamily : std::uint8_t {
  kQpiLinkCrossings,     // messages that crossed each socket link
  kQpiLinkBytes,         // ...and their payload bytes
  kImcChannelReadBytes,  // per DRAM channel, machine-wide channel index
  kImcChannelWriteBytes,
  kRingStopCbo,  // L3/CA pipeline visits per NUMA node's ring stop
  kRingStopHa,   // home-agent visits per NUMA node's ring stop
  kCount,
};
inline constexpr std::size_t kMFamilyCount =
    static_cast<std::size_t>(MFamily::kCount);

// QPI message payload accounting (request/snoop header vs. full-line data
// response).  Crossings count requests, snoops, and data returns — not the
// ack flits — so bytes/crossing stays interpretable.
inline constexpr std::uint64_t kQpiHeaderBytes = 8;
inline constexpr std::uint64_t kQpiDataBytes = 72;  // 64 B line + header

[[nodiscard]] std::string_view to_string(MCtr c);
[[nodiscard]] std::string_view to_string(MGauge g);
[[nodiscard]] std::string_view to_string(MMeter m);
[[nodiscard]] std::string_view to_string(MHist h);
[[nodiscard]] std::string_view to_string(MFamily f);

}  // namespace hsw::metrics
