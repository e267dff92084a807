// MachineState's lookup tables: slice_for(), home_of(), link_ns() and
// request_to_ha() are built once at construction and must reproduce, bit
// for bit, the per-access arithmetic they replace.
#include "coh/state.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "coh/slice_hash.h"
#include "mem/address.h"

namespace hsw {
namespace {

struct Config {
  DieSku sku;
  SnoopMode mode;
};

// Every SKU x snoop mode the topology accepts: slice counts 6, 8, 9, 12, 18.
std::vector<Config> all_configs() {
  std::vector<Config> configs;
  for (DieSku sku : {DieSku::kEightCore, DieSku::kTwelveCore, DieSku::kEighteenCore}) {
    for (SnoopMode mode :
         {SnoopMode::kSourceSnoop, SnoopMode::kHomeSnoop, SnoopMode::kCod}) {
      if (mode == SnoopMode::kCod && imcs_per_die(sku) != 2) continue;
      configs.push_back({sku, mode});
    }
  }
  return configs;
}

MachineState make_state(const Config& c, const CacheGeometry& geometry = {}) {
  return MachineState(TopologyConfig{c.sku, 2, c.mode}, TimingParams::haswell_ep(),
                      geometry, ProtocolFeatures::for_mode(c.mode));
}

std::string name(const Config& c) {
  return std::string(to_string(c.sku)) + " / " + to_string(c.mode);
}

constexpr LineAddr kNodeLineShift = kNodeShift - kLineBits;

TEST(FastMod, ExactForEverySliceCountAndEdgeNumerator) {
  std::mt19937_64 rng(42);
  for (std::uint32_t d : {1u, 2u, 3u, 6u, 7u, 8u, 9u, 12u, 18u, 0xffffffffu}) {
    const FastMod mod(d);
    for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{d - 1},
                            std::uint64_t{d}, ~std::uint64_t{0},
                            ~std::uint64_t{0} - 1, std::uint64_t{1} << 63}) {
      EXPECT_EQ(mod(x), x % d) << x << " % " << d;
    }
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t x = rng();
      ASSERT_EQ(mod(x), x % d) << x << " % " << d;
    }
  }
}

TEST(MachineStateTables, SliceForMatchesSliceIndexOnEveryNode) {
  std::mt19937_64 rng(2015);
  const LineAddr all_node_bits = LineAddr{kMaxNodes - 1} << kNodeLineShift;
  for (const Config& c : all_configs()) {
    SCOPED_TRACE(name(c));
    const MachineState m = make_state(c);
    for (const NumaNode& node : m.topo.nodes()) {
      const int n = static_cast<int>(node.local_slices.size());
      auto expected = [&](LineAddr line) {
        return node.local_slices[static_cast<std::size_t>(slice_index(line, n))];
      };
      for (LineAddr line : {LineAddr{0}, all_node_bits, ~LineAddr{0} >> kLineBits}) {
        EXPECT_EQ(m.slice_for(node.id, line), expected(line)) << line;
      }
      for (int i = 0; i < 100000; ++i) {
        const LineAddr line = rng() >> kLineBits;
        ASSERT_EQ(m.slice_for(node.id, line), expected(line)) << line;
      }
    }
  }
}

TEST(MachineStateTables, HomeOfMatchesDivisionDecode) {
  std::mt19937_64 rng(7);
  for (const Config& c : all_configs()) {
    for (unsigned per_imc : {1u, 2u, 4u}) {
      SCOPED_TRACE(name(c) + " / " + std::to_string(per_imc) + " channel(s) per IMC");
      CacheGeometry geometry;
      geometry.channels_per_imc = per_imc;
      MachineState m = make_state(c, geometry);
      for (const NumaNode& node : m.topo.nodes()) {
        const std::uint64_t n_channels = node.imcs.size() * per_imc;
        for (int i = 0; i < 2000; ++i) {
          const LineAddr offset = i < 64 ? static_cast<LineAddr>(i)
                                         : rng() & ((LineAddr{1} << kNodeLineShift) - 1);
          const LineAddr line =
              (static_cast<LineAddr>(node.id) << kNodeLineShift) | offset;
          const MachineState::HomeRef ref = m.home_of(line);
          const std::uint64_t ch_index = line & (n_channels - 1);
          const int imc = node.imcs[static_cast<std::size_t>(ch_index / per_imc)];
          ASSERT_EQ(ref.node, node.id) << line;
          ASSERT_EQ(ref.socket, node.socket) << line;
          ASSERT_EQ(ref.imc, imc) << line;
          ASSERT_EQ(ref.ha, &m.agents[static_cast<std::size_t>(node.socket)]
                                     [static_cast<std::size_t>(imc)]);
          ASSERT_EQ(ref.channel, static_cast<int>(ch_index % per_imc)) << line;
          ASSERT_EQ(ref.channel_line, line / n_channels) << line;
        }
      }
    }
  }
}

// The transport composition as the engine computed it per request before
// the tables existed.
double link_formula(const MachineState& m, int a, int b) {
  if (a == b) return 0.0;
  const NumaNode& na = m.topo.node(a);
  const NumaNode& nb = m.topo.node(b);
  if (na.socket == nb.socket) return m.timing.cluster_oneway;
  double ns = m.timing.qpi_oneway;
  if (na.cluster == 1) ns += m.timing.cluster_oneway;
  if (nb.cluster == 1) ns += m.timing.cluster_oneway;
  return ns;
}

double request_to_ha_formula(const MachineState& m, int req, int home) {
  const double ca_to_ha = m.topo.mean_ca_to_imc_hops(home) * m.timing.ring_hop;
  if (req == home) return ca_to_ha;
  if (!m.topo.crosses_qpi(req, home)) return link_formula(m, req, home) + ca_to_ha;
  return link_formula(m, req, home) +
         m.topo.mean_qpi_to_imc_hops(home) * m.timing.ring_hop;
}

TEST(MachineStateTables, TransportTablesAreBitEqualToTheFormula) {
  for (const Config& c : all_configs()) {
    for (int sockets = 1; sockets <= 2; ++sockets) {
      SCOPED_TRACE(name(c) + " / " + std::to_string(sockets) + " socket(s)");
      const MachineState m(TopologyConfig{c.sku, sockets, c.mode},
                           TimingParams::haswell_ep(), CacheGeometry{},
                           ProtocolFeatures::for_mode(c.mode));
      for (int a = 0; a < m.topo.node_count(); ++a) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(m.qpi_to_imc_hops(a)),
                  std::bit_cast<std::uint64_t>(m.topo.mean_qpi_to_imc_hops(a)));
        for (int b = 0; b < m.topo.node_count(); ++b) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(m.link_ns(a, b)),
                    std::bit_cast<std::uint64_t>(link_formula(m, a, b)))
              << a << " -> " << b;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(m.request_to_ha(a, b)),
                    std::bit_cast<std::uint64_t>(request_to_ha_formula(m, a, b)))
              << a << " -> " << b;
        }
      }
    }
  }
}

TEST(MachineStateTables, RejectsNonPowerOfTwoChannelInterleave) {
  // home_of() decodes the channel with shifts, so a channel count that is
  // not a power of two must fail at construction, not map lines wrongly.
  for (const Config& c : all_configs()) {
    SCOPED_TRACE(name(c));
    for (unsigned per_imc : {0u, 3u, 6u}) {
      CacheGeometry geometry;
      geometry.channels_per_imc = per_imc;
      EXPECT_THROW(make_state(c, geometry), std::invalid_argument) << per_imc;
    }
  }
}

TEST(MachineStateTables, RejectsNonPowerOfTwoDramGeometry) {
  const Config c{DieSku::kTwelveCore, SnoopMode::kSourceSnoop};
  CacheGeometry banks;
  banks.dram.banks = 12;
  EXPECT_THROW(make_state(c, banks), std::invalid_argument);
  CacheGeometry rows;
  rows.dram.row_bytes = 3 * kLineSize;
  EXPECT_THROW(make_state(c, rows), std::invalid_argument);
}

}  // namespace
}  // namespace hsw
