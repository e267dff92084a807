#include "topo/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace hsw {
namespace {

TopologyConfig twelve_core(SnoopMode mode, int sockets = 2) {
  return TopologyConfig{DieSku::kTwelveCore, sockets, mode};
}

TEST(Die, SkuProperties) {
  EXPECT_EQ(cores_per_die(DieSku::kEightCore), 8);
  EXPECT_EQ(cores_per_die(DieSku::kTwelveCore), 12);
  EXPECT_EQ(cores_per_die(DieSku::kEighteenCore), 18);
  EXPECT_EQ(imcs_per_die(DieSku::kEightCore), 1);
  EXPECT_EQ(imcs_per_die(DieSku::kTwelveCore), 2);
}

TEST(Die, TwelveCoreRingSplit) {
  Die die(DieSku::kTwelveCore);
  // Paper Fig. 1: cores 0-7 on ring 0, cores 8-11 on ring 1.
  for (int c = 0; c < 8; ++c) EXPECT_EQ(die.ring_of_core(c), 0) << c;
  for (int c = 8; c < 12; ++c) EXPECT_EQ(die.ring_of_core(c), 1) << c;
  EXPECT_EQ(die.imc_stop(0).ring, 0);
  EXPECT_EQ(die.imc_stop(1).ring, 1);
  EXPECT_EQ(die.qpi_stop().ring, 0);
}

TEST(Die, CodClusterSplitDoesNotMatchRingSplit) {
  Die die(DieSku::kTwelveCore);
  // COD clusters are 0-5 / 6-11: cluster 1 spans both rings (the source of
  // the paper's Table III asymmetry).
  EXPECT_EQ(die.cod_cluster_cores(0), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(die.cod_cluster_cores(1), (std::vector<int>{6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(die.ring_of_core(6), 0);
  EXPECT_EQ(die.ring_of_core(8), 1);
}

TEST(Die, EightCoreCannotCod) {
  Die die(DieSku::kEightCore);
  EXPECT_FALSE(die.supports_cod());
}

TEST(Topology, NonCodHasOneNodePerSocket) {
  SystemTopology topo(twelve_core(SnoopMode::kSourceSnoop));
  EXPECT_EQ(topo.node_count(), 2);
  EXPECT_EQ(topo.core_count(), 24);
  EXPECT_EQ(topo.node(0).cores.size(), 12u);
  EXPECT_EQ(topo.node(0).imcs.size(), 2u);
  EXPECT_EQ(topo.node_of_core(0), 0);
  EXPECT_EQ(topo.node_of_core(12), 1);
}

TEST(Topology, CodSplitsEachSocket) {
  SystemTopology topo(twelve_core(SnoopMode::kCod));
  EXPECT_EQ(topo.node_count(), 4);
  // Paper numbering: node0/1 = socket 0 clusters, node2/3 = socket 1.
  EXPECT_EQ(topo.node(0).socket, 0);
  EXPECT_EQ(topo.node(1).socket, 0);
  EXPECT_EQ(topo.node(2).socket, 1);
  EXPECT_EQ(topo.node(3).socket, 1);
  EXPECT_EQ(topo.node(1).cluster, 1);
  EXPECT_EQ(topo.node(0).cores, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(topo.node(1).cores, (std::vector<int>{6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(topo.node(1).imcs, (std::vector<int>{1}));
  EXPECT_EQ(topo.node_of_core(7), 1);
  EXPECT_EQ(topo.node_of_core(14), 2);
}

TEST(Topology, CodRequiresTwoImcs) {
  EXPECT_THROW(SystemTopology(TopologyConfig{DieSku::kEightCore, 2,
                                             SnoopMode::kCod}),
               std::invalid_argument);
}

TEST(Topology, InternodeHopsMatchPaperFig6Taxonomy) {
  SystemTopology topo(twelve_core(SnoopMode::kCod));
  EXPECT_EQ(topo.internode_hops(0, 0), 0);
  EXPECT_EQ(topo.internode_hops(0, 1), 1);  // on-chip
  EXPECT_EQ(topo.internode_hops(0, 2), 1);  // 1 hop QPI
  EXPECT_EQ(topo.internode_hops(0, 3), 2);  // QPI + cluster crossing
  EXPECT_EQ(topo.internode_hops(1, 2), 2);
  EXPECT_EQ(topo.internode_hops(1, 3), 3);  // worst case in the paper
  EXPECT_EQ(topo.internode_hops(3, 1), 3);
}

TEST(Topology, CrossesQpi) {
  SystemTopology topo(twelve_core(SnoopMode::kCod));
  EXPECT_FALSE(topo.crosses_qpi(0, 1));
  EXPECT_TRUE(topo.crosses_qpi(0, 2));
  EXPECT_TRUE(topo.crosses_qpi(1, 3));
}

TEST(Topology, MeanCaDistanceOrderingDrivesTableIII) {
  // The per-core L3 latency differences in COD mode follow the mean ring
  // distance from a core to its node's six CA slices: the second node's
  // ring-0 cores (6, 7) are farthest from their slices.
  SystemTopology topo(twelve_core(SnoopMode::kCod));
  auto group_mean = [&](std::initializer_list<int> cores) {
    double total = 0.0;
    for (int c : cores) total += topo.mean_core_to_ca_hops(c);
    return total / static_cast<double>(cores.size());
  };
  const double first_node = group_mean({0, 1, 2, 3, 4, 5});
  const double second_ring0 = group_mean({6, 7});
  const double second_ring1 = group_mean({8, 9, 10, 11});
  EXPECT_LT(first_node, second_ring0);
  EXPECT_LT(second_ring1, second_ring0);
}

TEST(Topology, NonCodMeanCaDistanceExceedsCod) {
  SystemTopology non_cod(twelve_core(SnoopMode::kSourceSnoop));
  SystemTopology cod(twelve_core(SnoopMode::kCod));
  // Interleaving over all 12 slices reaches farther than over 6 local ones.
  EXPECT_GT(non_cod.mean_core_to_ca_hops(0), cod.mean_core_to_ca_hops(0));
}

TEST(Topology, SingleSocketSupported) {
  SystemTopology topo(twelve_core(SnoopMode::kSourceSnoop, 1));
  EXPECT_EQ(topo.node_count(), 1);
  EXPECT_EQ(topo.core_count(), 12);
}

TEST(Topology, RejectsBadSocketCounts) {
  EXPECT_THROW(SystemTopology(twelve_core(SnoopMode::kSourceSnoop, 0)),
               std::invalid_argument);
  EXPECT_THROW(SystemTopology(twelve_core(SnoopMode::kSourceSnoop, 3)),
               std::invalid_argument);
}

TEST(Topology, GlobalLocalCoreRoundTrip) {
  SystemTopology topo(twelve_core(SnoopMode::kSourceSnoop));
  for (int c = 0; c < topo.core_count(); ++c) {
    EXPECT_EQ(topo.global_core(topo.socket_of_core(c), topo.local_core(c)), c);
  }
}

TEST(Topology, CoreTablesRoundTripForEverySkuModeAndSocketCount) {
  // The per-core lookups are tables built once in the constructor; each
  // must agree with the arithmetic and the node lists they replace.
  for (DieSku sku : {DieSku::kEightCore, DieSku::kTwelveCore, DieSku::kEighteenCore}) {
    for (SnoopMode mode :
         {SnoopMode::kSourceSnoop, SnoopMode::kHomeSnoop, SnoopMode::kCod}) {
      if (mode == SnoopMode::kCod && imcs_per_die(sku) != 2) continue;
      for (int sockets = 1; sockets <= 2; ++sockets) {
        SCOPED_TRACE(std::string(to_string(sku)) + " / " + to_string(mode) +
                     " / " + std::to_string(sockets) + " socket(s)");
        const SystemTopology topo(TopologyConfig{sku, sockets, mode});
        const int per_die = cores_per_die(sku);
        ASSERT_EQ(topo.core_count(), per_die * sockets);
        for (int c = 0; c < topo.core_count(); ++c) {
          EXPECT_EQ(topo.socket_of_core(c), c / per_die) << c;
          EXPECT_EQ(topo.local_core(c), c % per_die) << c;
          EXPECT_EQ(topo.global_core(topo.socket_of_core(c), topo.local_core(c)), c);
          const NumaNode& n = topo.node(topo.node_of_core(c));
          EXPECT_EQ(n.socket, topo.socket_of_core(c)) << c;
          EXPECT_EQ(std::count(n.cores.begin(), n.cores.end(), c), 1) << c;
        }
        for (int id = 0; id < topo.node_count(); ++id) {
          EXPECT_EQ(topo.node(id).id, id);
          for (int c : topo.node(id).cores) EXPECT_EQ(topo.node_of_core(c), id);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hsw
