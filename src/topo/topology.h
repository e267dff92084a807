// Physical system topology: dies, sockets, NUMA nodes, QPI.
//
// Models the three Haswell-EP die variants (paper §III-B): an eight-core die
// with a single ring, and 12-/18-core dies with two rings coupled by buffered
// queues.  Each core is co-located with one L3 slice/CBo at the same ring
// stop.  The first ring additionally hosts the first memory controller (IMC0),
// the QPI agent, and PCIe; the second ring hosts IMC1.
//
// Cluster-on-Die (COD) partitions a die into two clusters with an equal
// number of cores, each owning one IMC.  Crucially — and this drives the
// paper's Table III asymmetry — the *cluster* split does not match the *ring*
// split on the 12-core die: cluster0 is cores 0-5 (all on ring0), cluster1 is
// cores 6-7 (ring0) plus 8-11 (ring1), served by IMC1 on ring1.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "topo/ring.h"

namespace hsw {

enum class DieSku : std::uint8_t {
  kEightCore,    // 1 ring, 1 IMC with all four channels
  kTwelveCore,   // 2 rings: 8 cores + 4 cores (the paper's test system)
  kEighteenCore  // 2 rings: 8 cores + 10 cores
};

// The largest die (18 cores) bounds every per-node slice list.
inline constexpr int kMaxCoresPerDie = 18;

[[nodiscard]] const char* to_string(DieSku sku);
[[nodiscard]] int cores_per_die(DieSku sku);
[[nodiscard]] int imcs_per_die(DieSku sku);

// One die (one socket).  Local core / slice ids are 0..cores-1.
class Die {
 public:
  explicit Die(DieSku sku);

  [[nodiscard]] DieSku sku() const { return sku_; }
  [[nodiscard]] int core_count() const { return core_count_; }
  [[nodiscard]] int imc_count() const { return imc_count_; }
  [[nodiscard]] const RingFabric& fabric() const { return fabric_; }

  [[nodiscard]] RingStop core_stop(int local_core) const;
  // L3 slice i (CBo i) shares core i's ring stop.
  [[nodiscard]] RingStop slice_stop(int local_slice) const;
  [[nodiscard]] RingStop imc_stop(int imc) const;
  [[nodiscard]] RingStop qpi_stop() const { return qpi_stop_; }

  // Which ring a local core sits on (0 or 1).
  [[nodiscard]] int ring_of_core(int local_core) const;

  // COD support: requires two IMCs (one per cluster).
  [[nodiscard]] bool supports_cod() const { return imc_count_ == 2; }
  // Local core ids belonging to COD cluster 0 / 1 (equal split, in id order).
  [[nodiscard]] std::vector<int> cod_cluster_cores(int cluster) const;

 private:
  DieSku sku_;
  int core_count_;
  int imc_count_;
  std::vector<RingStop> core_stops_;
  std::vector<RingStop> imc_stops_;
  RingStop qpi_stop_;
  RingFabric fabric_;
};

// Snoop behaviour of the platform (BIOS "Early Snoop" and COD knobs).
enum class SnoopMode : std::uint8_t {
  kSourceSnoop,  // default: CAs broadcast snoops on L3 miss
  kHomeSnoop,    // Early Snoop disabled: HAs send snoops
  kCod           // Cluster-on-Die: home snoop + directory + HitME cache
};

[[nodiscard]] const char* to_string(SnoopMode mode);

// A NUMA node as exposed to the operating system.
struct NumaNode {
  int id = 0;
  int socket = 0;
  int cluster = 0;                // 0 in non-COD
  std::vector<int> cores;         // global core ids
  std::vector<int> local_slices;  // local slice ids on the socket
  std::vector<int> imcs;          // local IMC ids owned by this node
};

struct TopologyConfig {
  DieSku sku = DieSku::kTwelveCore;
  int sockets = 2;
  SnoopMode snoop_mode = SnoopMode::kSourceSnoop;
};

// The full machine: `sockets` identical dies joined by QPI links between
// their ring-0 QPI agents, partitioned into NUMA nodes.
class SystemTopology {
 public:
  explicit SystemTopology(const TopologyConfig& config);

  [[nodiscard]] const TopologyConfig& config() const { return config_; }
  [[nodiscard]] bool cod() const { return config_.snoop_mode == SnoopMode::kCod; }
  [[nodiscard]] int socket_count() const { return config_.sockets; }
  [[nodiscard]] int core_count() const {
    return static_cast<int>(core_place_.size());
  }
  [[nodiscard]] const Die& die(int socket) const;

  // Core and node lookups are table reads: the engine asks them on every
  // access, so the constructor precomputes each core's place once.
  [[nodiscard]] int socket_of_core(int global_core) const {
    return place(global_core).socket;
  }
  [[nodiscard]] int local_core(int global_core) const {
    return place(global_core).local;
  }
  [[nodiscard]] int global_core(int socket, int local_core) const {
    assert(socket >= 0 && socket < config_.sockets);
    assert(local_core >= 0 && local_core < cores_per_die_);
    return socket * cores_per_die_ + local_core;
  }

  [[nodiscard]] int node_count() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const NumaNode& node(int id) const {
    assert(id >= 0 && id < node_count());
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] int node_of_core(int global_core) const {
    return place(global_core).node;
  }
  [[nodiscard]] std::span<const NumaNode> nodes() const { return nodes_; }

  // Coarse inter-node hop count: 0 same node, +1 per on-chip cluster
  // crossing, +1 per QPI crossing.  Matches the paper's Fig. 6 taxonomy
  // (node0-node2 = 1 hop, node0-node3 / node1-node2 = 2, node1-node3 = 3).
  [[nodiscard]] int internode_hops(int node_a, int node_b) const;
  // True when the path between the nodes crosses QPI (different sockets).
  [[nodiscard]] bool crosses_qpi(int node_a, int node_b) const {
    return node(node_a).socket != node(node_b).socket;
  }

  // Mean one-way ring distance from a core to the CA slices of its own node
  // (uniform address interleaving).  This is the quantity behind the
  // per-core L3 latency differences in COD mode (Table III columns).
  [[nodiscard]] double mean_core_to_ca_hops(int global_core) const;
  // Mean one-way ring distance from a node's CA slices to one of its IMCs.
  [[nodiscard]] double mean_ca_to_imc_hops(int node_id) const;
  // Mean one-way distance from a core to its node's IMC-adjacent HA.
  [[nodiscard]] double mean_core_to_imc_hops(int global_core) const;
  // Mean one-way distance from a node's CAs to the die's QPI agent.
  [[nodiscard]] double mean_ca_to_qpi_hops(int node_id) const;
  // Mean one-way distance from the die's QPI agent to the node's IMCs —
  // the home-side ring segment an incoming remote request traverses.
  [[nodiscard]] double mean_qpi_to_imc_hops(int node_id) const;

 private:
  struct CorePlace {
    int socket = 0;
    int local = 0;
    int node = 0;
  };
  [[nodiscard]] const CorePlace& place(int global_core) const {
    assert(global_core >= 0 && global_core < core_count());
    return core_place_[static_cast<std::size_t>(global_core)];
  }

  TopologyConfig config_;
  int cores_per_die_ = 0;
  std::vector<Die> dies_;
  std::vector<NumaNode> nodes_;
  std::vector<CorePlace> core_place_;  // [global core]
};

}  // namespace hsw
