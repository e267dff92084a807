// Aggregate mutable state of the simulated machine.
//
// Ownership layout mirrors the hardware: every core owns a private L1D and
// L2; every socket owns one L3 tag array per slice (the CBo/CA co-located
// with each core); every memory controller hosts a home agent with its DRAM
// channels, the in-memory directory for the lines it is home to, and the
// HitME directory cache.  The coherence engine (engine.h) is the only writer.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "coh/hitme.h"
#include "coh/protocol.h"
#include "coh/slice_hash.h"
#include "coh/timing.h"
#include "mem/address.h"
#include "mem/cache_array.h"
#include "mem/dram.h"
#include "metrics/registry.h"
#include "sim/counters.h"
#include "topo/topology.h"

namespace hsw::obs {
class LineStatsRecorder;
}  // namespace hsw::obs

namespace hsw {

struct CacheGeometry {
  std::uint64_t l1_bytes = 32 * 1024;
  unsigned l1_assoc = 8;
  std::uint64_t l2_bytes = 256 * 1024;
  unsigned l2_assoc = 8;
  std::uint64_t l3_slice_bytes = 2560 * 1024;  // 2.5 MiB per slice
  unsigned l3_assoc = 20;
  unsigned channels_per_imc = 2;
  DramGeometry dram;
  HitmeConfig hitme;
};

// Protocol feature switches.  The defaults follow the BIOS semantics the
// paper describes; ablation benches override individual flags.
struct ProtocolFeatures {
  // In-memory 2-bit directory consulted by the home agent.  The paper infers
  // it is off in both 2-socket non-COD modes and on in COD.
  bool directory = false;
  // HitME directory cache (requires directory).
  bool hitme = false;
  // Core-valid bits in the L3 (the E-state snoop penalty).  Always on in
  // real hardware; exposed for the ablation study.
  bool core_valid_bits = true;
  // Coherence protocol the engine runs (coh/protocol.h).  Orthogonal to the
  // snoop mode: every (protocol x snoop-config) cell is a valid machine.
  Protocol protocol = Protocol::kMesif;

  static ProtocolFeatures for_mode(SnoopMode mode) {
    ProtocolFeatures f;
    f.directory = mode == SnoopMode::kCod;
    f.hitme = mode == SnoopMode::kCod;
    return f;
  }
};

struct CoreCaches {
  CacheArray l1;
  CacheArray l2;

  CoreCaches(const CacheGeometry& g)
      : l1(g.l1_bytes, g.l1_assoc), l2(g.l2_bytes, g.l2_assoc) {}
};

struct HomeAgentState {
  DirectoryStore directory;
  HitmeCache hitme;
  std::vector<DramChannel> channels;

  HomeAgentState(const CacheGeometry& g) : hitme(g.hitme) {
    for (unsigned c = 0; c < g.channels_per_imc; ++c) {
      channels.emplace_back(g.dram);
    }
  }
};

class MachineState {
 public:
  // Throws std::invalid_argument when a node's channel count
  // (channels_per_imc x its IMCs), the DRAM bank count or the lines per DRAM
  // row is not a power of two: home_of() and DramChannel decode with shifts.
  MachineState(const TopologyConfig& topo_config, const TimingParams& timing,
               const CacheGeometry& geometry, const ProtocolFeatures& features);

  // Fixed at construction: the lookup tables below are derived from them.
  const SystemTopology topo;
  const TimingParams timing;
  const CacheGeometry geometry;
  const ProtocolFeatures features;

  std::vector<CoreCaches> cores;                    // [global core]
  std::vector<std::vector<CacheArray>> l3;          // [socket][local slice]
  std::vector<std::vector<HomeAgentState>> agents;  // [socket][local imc]
  AddressSpace address_space;
  CounterSet counters;
  // Uncore-PMU-style metrics registry (nullptr = detached; the engine's
  // instrumentation sites then cost one null-pointer test, same contract
  // as the tracer).  Attached via System::attach_metrics.
  metrics::MetricsRegistry* metrics = nullptr;
  // Per-line coherence flight recorder (nullptr = detached, same one-branch
  // contract).  Attached via System::attach_linestats.
  obs::LineStatsRecorder* linestats = nullptr;

  // --- lookups --------------------------------------------------------------
  // Every lookup below is a table read built at construction; none divides.

  // Local slice id of the CA responsible for `line` within `node`:
  // local_slices[slice_index(line, slice count)], bit for bit.
  [[nodiscard]] int slice_for(int node, LineAddr line) const {
    const NodeSlices& n = node_slices_[static_cast<std::size_t>(node)];
    return n.slice[n.reduce(mix_line(line))];
  }
  CacheArray& l3_slice(int socket, int local_slice) {
    return l3[static_cast<std::size_t>(socket)]
             [static_cast<std::size_t>(local_slice)];
  }
  // Home agent (imc index within the home node) for `line`.
  struct HomeRef {
    int node;
    int socket;
    int imc;           // local imc id on the socket
    HomeAgentState* ha;
    int channel;       // channel index within the imc
    std::uint64_t channel_line;  // line index within that channel
  };
  // Consecutive lines stripe across all channels of the home node (64-B
  // channel interleave), so a streaming access pattern spreads over every
  // channel.
  [[nodiscard]] HomeRef home_of(LineAddr line) {
    HomeRef ref;
    ref.node = home_node_of_line(line);
    assert(ref.node < topo.node_count() && "address homed on a non-existent node");
    const HomeDecode& d = home_decode_[static_cast<std::size_t>(ref.node)];
    ref.socket = d.socket;
    const std::uint64_t ch_index = line & d.node_channel_mask;
    ref.imc = d.imcs[static_cast<std::size_t>(ch_index >> d.imc_shift)];
    ref.ha = &agents[static_cast<std::size_t>(ref.socket)]
                    [static_cast<std::size_t>(ref.imc)];
    ref.channel = static_cast<int>(ch_index & d.imc_channel_mask);
    ref.channel_line = line >> d.node_channel_shift;
    return ref;
  }

  // Machine-wide flat channel index (socket-major, then imc, then channel)
  // for the per-channel metric families.
  [[nodiscard]] std::size_t channel_index(const HomeRef& home) const {
    const std::size_t imcs = agents.empty() ? 0 : agents[0].size();
    return (static_cast<std::size_t>(home.socket) * imcs +
            static_cast<std::size_t>(home.imc)) *
               geometry.channels_per_imc +
           static_cast<std::size_t>(home.channel);
  }
  [[nodiscard]] std::size_t channel_count() const {
    const std::size_t imcs = agents.empty() ? 0 : agents[0].size();
    return agents.size() * imcs * geometry.channels_per_imc;
  }

  // Number of line classes `line & (line_classes() - 1)` that share no
  // mutable state but counters and the directory: no L1, L2, L3-slice or
  // HitME set and no DRAM channel holds lines of two classes.  The least
  // of the node channel counts and those set counts (all powers of two).
  // Placement visits the classes one after another (core/placement.cpp).
  [[nodiscard]] std::uint64_t line_classes() const { return line_classes_; }

  // Runs one structural census (every cache array's valid-way bitmask, the
  // HitME caches, the directories) and refreshes the registry's occupancy
  // gauges.  Called by the engine at sampling ticks and at detach.
  void update_structural_gauges(metrics::MetricsRegistry& registry) const;

  // Precomputed mean ring distances (hops), used by the timing composition.
  [[nodiscard]] double core_to_ca_hops(int global_core) const {
    return core_to_ca_hops_[static_cast<std::size_t>(global_core)];
  }
  [[nodiscard]] double ca_to_imc_hops(int node) const {
    return ca_to_imc_hops_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] double qpi_to_imc_hops(int node) const {
    return qpi_to_imc_hops_[static_cast<std::size_t>(node)];
  }

  // Precomputed transport (ns).  One-way between agents in two nodes (0
  // within a node):
  [[nodiscard]] double link_ns(int node_a, int node_b) const {
    return link_ns_[pair(node_a, node_b)];
  }
  // Ring segment from a node's CAs to its home agent.
  [[nodiscard]] double ca_to_ha_ns(int node) const {
    return ca_to_imc_hops(node) * timing.ring_hop;
  }
  // Ring segment from the die's QPI agent to a node's home agent.
  [[nodiscard]] double qpi_to_ha_ns(int node) const {
    return qpi_to_imc_hops(node) * timing.ring_hop;
  }
  // Total request transport from the requester CA to the home agent: the
  // local ring for in-node requests, or link + home-side ring ingress.
  [[nodiscard]] double request_to_ha(int req_node, int home_node) const {
    return request_to_ha_[pair(req_node, home_node)];
  }

  // Removes every cached copy everywhere without touching directory state
  // for clean lines (used between experiments; mirrors a quiescent machine).
  void drop_all_caches();

 private:
  // slice_for(): the node's slice list and a division-free `% size`.
  struct NodeSlices {
    FastMod reduce;
    std::array<std::uint8_t, kMaxCoresPerDie> slice{};
  };
  // home_of(): the node's channel interleave as shifts and masks.
  struct HomeDecode {
    int socket = 0;
    std::array<int, 2> imcs{};           // local imc ids (at most two), in node order
    std::uint64_t node_channel_mask = 0;  // channels in the node - 1
    unsigned node_channel_shift = 0;      // log2(channels in the node)
    unsigned imc_shift = 0;               // log2(channels_per_imc)
    std::uint64_t imc_channel_mask = 0;   // channels_per_imc - 1
  };
  [[nodiscard]] static std::size_t pair(int a, int b) {
    return static_cast<std::size_t>(a) * kMaxNodes + static_cast<std::size_t>(b);
  }

  std::uint64_t line_classes_ = 1;
  std::vector<double> core_to_ca_hops_;
  std::vector<double> ca_to_imc_hops_;
  std::vector<double> qpi_to_imc_hops_;
  std::array<NodeSlices, kMaxNodes> node_slices_{};
  std::array<HomeDecode, kMaxNodes> home_decode_{};
  std::array<double, kMaxNodes * kMaxNodes> link_ns_{};        // [a][b]
  std::array<double, kMaxNodes * kMaxNodes> request_to_ha_{};  // [req][home]
};

}  // namespace hsw
