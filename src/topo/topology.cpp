#include "topo/topology.h"

#include <cassert>
#include <stdexcept>

namespace hsw {
namespace {

// Crossing the buffered inter-ring queue costs roughly two ring hops.
constexpr double kBridgePenaltyHops = 2.0;

RingFabric build_fabric(DieSku sku) {
  switch (sku) {
    case DieSku::kEightCore:
      // cores 0-7, IMC0, QPI, PCIe on one ring.
      return RingFabric({Ring(11)}, {}, kBridgePenaltyHops);
    case DieSku::kTwelveCore:
      // ring0: cores 0-7 + IMC0 + QPI + PCIe; ring1: cores 8-11 + IMC1.
      return RingFabric({Ring(11), Ring(5)},
                        {RingBridge{{0, 0}, {1, 0}}, RingBridge{{0, 7}, {1, 3}}},
                        kBridgePenaltyHops);
    case DieSku::kEighteenCore:
      // ring0: cores 0-7 + IMC0 + QPI + PCIe; ring1: cores 8-17 + IMC1.
      return RingFabric({Ring(11), Ring(11)},
                        {RingBridge{{0, 0}, {1, 0}}, RingBridge{{0, 7}, {1, 9}}},
                        kBridgePenaltyHops);
  }
  throw std::invalid_argument("unknown DieSku");
}

}  // namespace

const char* to_string(DieSku sku) {
  switch (sku) {
    case DieSku::kEightCore: return "8-core die";
    case DieSku::kTwelveCore: return "12-core die";
    case DieSku::kEighteenCore: return "18-core die";
  }
  return "?";
}

int cores_per_die(DieSku sku) {
  switch (sku) {
    case DieSku::kEightCore: return 8;
    case DieSku::kTwelveCore: return 12;
    case DieSku::kEighteenCore: return 18;
  }
  return 0;
}

int imcs_per_die(DieSku sku) { return sku == DieSku::kEightCore ? 1 : 2; }

const char* to_string(SnoopMode mode) {
  switch (mode) {
    case SnoopMode::kSourceSnoop: return "source snoop (Early Snoop enabled)";
    case SnoopMode::kHomeSnoop: return "home snoop (Early Snoop disabled)";
    case SnoopMode::kCod: return "Cluster-on-Die";
  }
  return "?";
}

Die::Die(DieSku sku)
    : sku_(sku),
      core_count_(cores_per_die(sku)),
      imc_count_(imcs_per_die(sku)),
      fabric_(build_fabric(sku)) {
  core_stops_.reserve(static_cast<std::size_t>(core_count_));
  const int ring0_cores = core_count_ > 8 ? 8 : core_count_;
  for (int c = 0; c < ring0_cores; ++c) core_stops_.push_back(RingStop{0, c});
  for (int c = ring0_cores; c < core_count_; ++c) {
    core_stops_.push_back(RingStop{1, c - ring0_cores});
  }
  imc_stops_.push_back(RingStop{0, 8});  // IMC0 next to the last ring-0 core
  if (imc_count_ == 2) {
    imc_stops_.push_back(RingStop{1, core_count_ - ring0_cores});
  }
  qpi_stop_ = RingStop{0, 9};
}

RingStop Die::core_stop(int local_core) const {
  assert(local_core >= 0 && local_core < core_count_);
  return core_stops_[static_cast<std::size_t>(local_core)];
}

RingStop Die::slice_stop(int local_slice) const { return core_stop(local_slice); }

RingStop Die::imc_stop(int imc) const {
  assert(imc >= 0 && imc < imc_count_);
  return imc_stops_[static_cast<std::size_t>(imc)];
}

int Die::ring_of_core(int local_core) const { return core_stop(local_core).ring; }

std::vector<int> Die::cod_cluster_cores(int cluster) const {
  assert(cluster == 0 || cluster == 1);
  assert(supports_cod());
  std::vector<int> cores;
  const int half = core_count_ / 2;
  const int begin = cluster == 0 ? 0 : half;
  const int end = cluster == 0 ? half : core_count_;
  for (int c = begin; c < end; ++c) cores.push_back(c);
  return cores;
}

SystemTopology::SystemTopology(const TopologyConfig& config) : config_(config) {
  if (config.sockets < 1 || config.sockets > 2) {
    throw std::invalid_argument("SystemTopology supports 1 or 2 sockets");
  }
  for (int s = 0; s < config.sockets; ++s) dies_.emplace_back(config.sku);
  const Die& die0 = dies_.front();
  if (cod() && !die0.supports_cod()) {
    throw std::invalid_argument(
        "Cluster-on-Die requires a die with two memory controllers");
  }

  cores_per_die_ = die0.core_count();
  core_place_.resize(static_cast<std::size_t>(cores_per_die_ * config.sockets));
  for (int s = 0; s < config.sockets; ++s) {
    for (int local = 0; local < cores_per_die_; ++local) {
      CorePlace& p = core_place_[static_cast<std::size_t>(global_core(s, local))];
      p.socket = s;
      p.local = local;
    }
  }
  for (int s = 0; s < config.sockets; ++s) {
    if (cod()) {
      for (int cluster = 0; cluster < 2; ++cluster) {
        NumaNode node;
        node.id = s * 2 + cluster;
        node.socket = s;
        node.cluster = cluster;
        node.local_slices = dies_[static_cast<std::size_t>(s)].cod_cluster_cores(cluster);
        for (int local : node.local_slices) {
          node.cores.push_back(global_core(s, local));
          core_place_[static_cast<std::size_t>(global_core(s, local))].node = node.id;
        }
        node.imcs = {cluster};
        nodes_.push_back(std::move(node));
      }
    } else {
      NumaNode node;
      node.id = s;
      node.socket = s;
      node.cluster = 0;
      for (int local = 0; local < cores_per_die_; ++local) {
        node.cores.push_back(global_core(s, local));
        node.local_slices.push_back(local);
        core_place_[static_cast<std::size_t>(global_core(s, local))].node = node.id;
      }
      for (int imc = 0; imc < die0.imc_count(); ++imc) node.imcs.push_back(imc);
      nodes_.push_back(std::move(node));
    }
  }
}

const Die& SystemTopology::die(int socket) const {
  assert(socket >= 0 && socket < config_.sockets);
  return dies_[static_cast<std::size_t>(socket)];
}

int SystemTopology::internode_hops(int node_a, int node_b) const {
  const NumaNode& a = node(node_a);
  const NumaNode& b = node(node_b);
  if (a.id == b.id) return 0;
  if (a.socket == b.socket) return 1;  // on-chip cluster crossing
  // QPI attaches to ring 0, which hosts cluster 0.  A cluster-1 endpoint
  // pays one extra on-chip crossing to reach (or leave) the QPI agent.
  int hops = 1;  // the QPI crossing itself
  if (a.cluster == 1) ++hops;
  if (b.cluster == 1) ++hops;
  return hops;
}

double SystemTopology::mean_core_to_ca_hops(int core) const {
  const int socket = socket_of_core(core);
  const Die& d = die(socket);
  const NumaNode& n = node(node_of_core(core));
  std::vector<RingStop> targets;
  targets.reserve(n.local_slices.size());
  for (int slice : n.local_slices) targets.push_back(d.slice_stop(slice));
  return d.fabric().mean_distance(d.core_stop(local_core(core)), targets);
}

double SystemTopology::mean_ca_to_imc_hops(int node_id) const {
  const NumaNode& n = node(node_id);
  const Die& d = die(n.socket);
  double total = 0.0;
  for (int slice : n.local_slices) {
    double per_slice = 0.0;
    for (int imc : n.imcs) {
      per_slice += d.fabric().distance(d.slice_stop(slice), d.imc_stop(imc));
    }
    total += per_slice / static_cast<double>(n.imcs.size());
  }
  return total / static_cast<double>(n.local_slices.size());
}

double SystemTopology::mean_core_to_imc_hops(int core) const {
  const int socket = socket_of_core(core);
  const Die& d = die(socket);
  const NumaNode& n = node(node_of_core(core));
  double total = 0.0;
  for (int imc : n.imcs) {
    total += d.fabric().distance(d.core_stop(local_core(core)), d.imc_stop(imc));
  }
  return total / static_cast<double>(n.imcs.size());
}

double SystemTopology::mean_qpi_to_imc_hops(int node_id) const {
  const NumaNode& n = node(node_id);
  const Die& d = die(n.socket);
  double total = 0.0;
  for (int imc : n.imcs) {
    total += d.fabric().distance(d.qpi_stop(), d.imc_stop(imc));
  }
  return total / static_cast<double>(n.imcs.size());
}

double SystemTopology::mean_ca_to_qpi_hops(int node_id) const {
  const NumaNode& n = node(node_id);
  const Die& d = die(n.socket);
  double total = 0.0;
  for (int slice : n.local_slices) {
    total += d.fabric().distance(d.slice_stop(slice), d.qpi_stop());
  }
  return total / static_cast<double>(n.local_slices.size());
}

}  // namespace hsw
