#include "coh/state.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace hsw {

MachineState::MachineState(const TopologyConfig& topo_config,
                           const TimingParams& timing_params,
                           const CacheGeometry& geometry_params,
                           const ProtocolFeatures& feature_flags)
    : topo(topo_config),
      timing(timing_params),
      geometry(geometry_params),
      features(feature_flags) {
  // Per-node tables first: a bad channel interleave fails before any cache
  // is allocated.
  const auto n_nodes = static_cast<std::size_t>(topo.node_count());
  ca_to_imc_hops_.resize(n_nodes);
  qpi_to_imc_hops_.resize(n_nodes);
  for (const NumaNode& n : topo.nodes()) {
    const std::uint64_t n_channels =
        static_cast<std::uint64_t>(n.imcs.size()) * geometry.channels_per_imc;
    if (!std::has_single_bit(n_channels)) {
      throw std::invalid_argument(
          "channels_per_imc x IMCs per node must be a power of two");
    }
    const auto id = static_cast<std::size_t>(n.id);
    ca_to_imc_hops_[id] = topo.mean_ca_to_imc_hops(n.id);
    qpi_to_imc_hops_[id] = topo.mean_qpi_to_imc_hops(n.id);

    NodeSlices& slices = node_slices_[id];
    slices.reduce = FastMod(static_cast<std::uint32_t>(n.local_slices.size()));
    for (std::size_t i = 0; i < n.local_slices.size(); ++i) {
      slices.slice[i] = static_cast<std::uint8_t>(n.local_slices[i]);
    }

    HomeDecode& home = home_decode_[id];
    home.socket = n.socket;
    for (std::size_t i = 0; i < n.imcs.size(); ++i) home.imcs[i] = n.imcs[i];
    home.node_channel_mask = n_channels - 1;
    home.node_channel_shift = static_cast<unsigned>(std::countr_zero(n_channels));
    home.imc_shift = static_cast<unsigned>(std::countr_zero(geometry.channels_per_imc));
    home.imc_channel_mask = geometry.channels_per_imc - 1;
  }

  for (const NumaNode& a : topo.nodes()) {
    for (const NumaNode& b : topo.nodes()) {
      double ns = 0.0;
      if (a.id != b.id) {
        if (a.socket == b.socket) {
          ns = timing.cluster_oneway;
        } else {
          ns = timing.qpi_oneway;
          if (a.cluster == 1) ns += timing.cluster_oneway;
          if (b.cluster == 1) ns += timing.cluster_oneway;
        }
      }
      link_ns_[pair(a.id, b.id)] = ns;
    }
  }
  for (const NumaNode& req : topo.nodes()) {
    for (const NumaNode& home : topo.nodes()) {
      double ns = ca_to_ha_ns(home.id);
      if (req.id != home.id) {
        // Same die: the bridge crossing is in link_ns(); ride the peer ring
        // to the home agent.  Across QPI: enter the home die at its QPI agent.
        ns = req.socket == home.socket
                 ? link_ns(req.id, home.id) + ca_to_ha_ns(home.id)
                 : link_ns(req.id, home.id) + qpi_to_ha_ns(home.id);
      }
      request_to_ha_[pair(req.id, home.id)] = ns;
    }
  }

  const int n_cores = topo.core_count();
  cores.reserve(static_cast<std::size_t>(n_cores));
  for (int c = 0; c < n_cores; ++c) cores.emplace_back(geometry);

  for (int s = 0; s < topo.socket_count(); ++s) {
    const Die& d = topo.die(s);
    auto& slices = l3.emplace_back();
    for (int slice = 0; slice < d.core_count(); ++slice) {
      slices.emplace_back(geometry.l3_slice_bytes, geometry.l3_assoc);
    }
    auto& socket_agents = agents.emplace_back();
    for (int imc = 0; imc < d.imc_count(); ++imc) {
      socket_agents.emplace_back(geometry);
    }
  }

  // The arrays above accepted the geometry: every set count is a power of
  // two, and so is every node's channel count.
  const auto sets = [](std::uint64_t bytes, unsigned assoc) {
    return bytes / (static_cast<std::uint64_t>(assoc) * kLineSize);
  };
  line_classes_ = std::min(
      {sets(geometry.l1_bytes, geometry.l1_assoc),
       sets(geometry.l2_bytes, geometry.l2_assoc),
       sets(geometry.l3_slice_bytes, geometry.l3_assoc),
       sets(std::uint64_t{geometry.hitme.entries} * kLineSize,
            geometry.hitme.associativity)});
  for (const NumaNode& n : topo.nodes()) {
    line_classes_ = std::min(
        line_classes_,
        home_decode_[static_cast<std::size_t>(n.id)].node_channel_mask + 1);
  }

  core_to_ca_hops_.resize(static_cast<std::size_t>(n_cores));
  for (int c = 0; c < n_cores; ++c) {
    core_to_ca_hops_[static_cast<std::size_t>(c)] = topo.mean_core_to_ca_hops(c);
  }
}

void MachineState::update_structural_gauges(
    metrics::MetricsRegistry& registry) const {
  using metrics::MGauge;
  CacheArray::Census l1;
  CacheArray::Census l2;
  CacheArray::Census l3c;
  for (const CoreCaches& core : cores) {
    l1 += core.l1.census();
    l2 += core.l2.census();
  }
  for (const auto& socket : l3) {
    for (const CacheArray& slice : socket) l3c += slice.census();
  }

  const auto occ = [&](const CacheArray::Census& census, MGauge modified,
                       MGauge exclusive, MGauge shared, MGauge forward,
                       MGauge owned) {
    const auto count = [&](Mesif s) {
      return static_cast<std::int64_t>(
          census.by_state[static_cast<std::size_t>(s)]);
    };
    registry.set_gauge(modified, count(Mesif::kModified));
    registry.set_gauge(exclusive, count(Mesif::kExclusive));
    registry.set_gauge(shared, count(Mesif::kShared));
    registry.set_gauge(forward, count(Mesif::kForward));
    registry.set_gauge(owned, count(Mesif::kOwned));
  };
  occ(l1, MGauge::kL1OccModified, MGauge::kL1OccExclusive, MGauge::kL1OccShared,
      MGauge::kL1OccForward, MGauge::kL1OccOwned);
  occ(l2, MGauge::kL2OccModified, MGauge::kL2OccExclusive, MGauge::kL2OccShared,
      MGauge::kL2OccForward, MGauge::kL2OccOwned);
  occ(l3c, MGauge::kL3OccModified, MGauge::kL3OccExclusive,
      MGauge::kL3OccShared, MGauge::kL3OccForward, MGauge::kL3OccOwned);
  registry.set_gauge(MGauge::kL3CoreValidBits,
                     static_cast<std::int64_t>(l3c.core_valid_bits));

  std::size_t hitme_entries = 0;
  std::size_t directory_tracked = 0;
  for (const auto& socket : agents) {
    for (const HomeAgentState& agent : socket) {
      hitme_entries += agent.hitme.valid_entries();
      directory_tracked += agent.directory.tracked_lines();
    }
  }
  registry.set_gauge(MGauge::kHitmeEntries,
                     static_cast<std::int64_t>(hitme_entries));
  registry.set_gauge(MGauge::kDirectoryTracked,
                     static_cast<std::int64_t>(directory_tracked));
}

void MachineState::drop_all_caches() {
  auto drop = [](CacheArray& array) {
    array.flush([](const CacheEntry&) {});
  };
  for (CoreCaches& core : cores) {
    drop(core.l1);
    drop(core.l2);
  }
  for (auto& socket : l3) {
    for (CacheArray& slice : socket) drop(slice);
  }
}

}  // namespace hsw
