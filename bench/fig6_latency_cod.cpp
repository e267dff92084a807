// Fig. 6: read latency in Cluster-on-Die mode, by inter-node distance.
//
// COD doubles the number of distinct distances: local, within the node,
// the other on-chip cluster (1 hop on-chip), the directly connected remote
// node (1 hop QPI), and the 2- and 3-hop combinations.
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv, "Fig. 6: read latency vs size in COD mode");
  const std::vector<std::uint64_t> sizes =
      hswbench::figure_sizes(args, hsw::mib(32));

  const hsw::SystemConfig config = hsw::SystemConfig::cluster_on_die();
  hsw::System probe(config);
  const hsw::SystemTopology& topo = probe.topology();

  std::vector<hswbench::LatencySeriesPlan> plans;
  auto sweep = [&](std::string name, int reader, int owner_node,
                   hsw::Mesif state) {
    hsw::LatencySweepConfig sc;
    sc.system = config;
    sc.reader_core = reader;
    // First core of the owner node performs the placement (paper caption).
    sc.placement.owner_core = reader == topo.node(owner_node).cores[0]
                                  ? topo.node(owner_node).cores[1]
                                  : topo.node(owner_node).cores[0];
    sc.placement.memory_node = owner_node;
    sc.placement.state = state;
    sc.sizes = sizes;
    sc.max_measured_lines = 8192;
    sc.seed = args.seed;
    plans.push_back({std::move(name), std::move(sc)});
  };

  for (hsw::Mesif state : {hsw::Mesif::kModified, hsw::Mesif::kExclusive}) {
    const char suffix = state == hsw::Mesif::kModified ? 'M' : 'E';
    auto title = [&](const char* base) {
      return std::string(base) + " " + suffix;
    };
    sweep(title("local"), 0, 0, state);                 // own node (reader 0)
    sweep(title("1hop-chip"), 0, 1, state);             // node0 -> node1
    sweep(title("1hop-qpi"), 0, 2, state);              // node0 -> node2
    sweep(title("2hops"), 0, 3, state);                 // node0 -> node3
    sweep(title("3hops"), topo.node(1).cores[0], 3, state);  // node1 -> node3
  }

  hswbench::BenchTrace trace(args);
  hswbench::extend_plans_for_trace(trace, plans);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    plans[p].config.trace = trace.latency_plan_options(p);
  }

  const std::vector<std::vector<hsw::LatencyResult>> grid =
      hswbench::run_latency_grid(plans, args);
  hswbench::print_sized_series("Fig. 6: read latency in COD mode", sizes,
                               hswbench::mean_series(plans, grid), args.csv,
                               "ns");
  hswbench::print_latency_percentiles(plans, sizes, grid);
  hswbench::print_paper_note(
      "local L3 18.0 (M) / 37.2 (E); L3 of the 2nd on-chip node 57.2 / 73.6; "
      "remote L3 90/104 (1 hop), 96/111 (2 hops), 103/118 (3 hops); memory "
      "89.6 local, 96 on-chip, 141/147/153 ns remote by hop count");
  hswbench::note_largest_size(trace, plans, sizes, grid);
  trace.finish();
  return 0;
}
