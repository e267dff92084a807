// Fig. 9: single-threaded read bandwidth of *shared* cache lines.
//
// The headline effect: local L1/L2 bandwidth collapses to L3 bandwidth when
// the Forward copy lives on the other socket, because every access notifies
// the CA to reclaim the forward state.
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv, "Fig. 9: read bandwidth of shared lines, source snoop",
      /*engine_flag=*/true);
  const std::vector<std::uint64_t> sizes =
      hswbench::figure_sizes(args, hsw::mib(64));
  const hsw::SystemConfig config = hsw::SystemConfig::source_snoop();

  std::vector<hswbench::BandwidthSeriesPlan> plans;
  auto sweep = [&](std::string name, int owner, int node,
                   std::vector<int> sharers) {
    hsw::BandwidthSweepConfig sc;
    sc.system = config;
    sc.stream.core = 0;
    sc.stream.placement.owner_core = owner;
    sc.stream.placement.memory_node = node;
    sc.stream.placement.state = hsw::Mesif::kShared;
    sc.stream.placement.sharers = std::move(sharers);
    sc.sizes = sizes;
    sc.seed = args.seed;
    sc.engine = args.engine;
    plans.push_back({std::move(name), std::move(sc)});
  };

  // Reader 0 shares with core 2; the node keeps its exclusivity: full speed.
  sweep("F in own node", 1, 0, {0, 2});
  // Socket 1 read last and took the Forward copy; reader 0 holds S.
  sweep("F in other socket", 1, 0, {0, 12});
  // Data shared only within the other socket; reader 0 holds nothing.
  sweep("S in remote L3", 12, 1, {13});

  hswbench::BenchTrace trace(args);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    plans[p].config.trace = trace.bandwidth_plan_options(p);
  }

  const std::vector<hswbench::Series> series =
      hswbench::run_bandwidth_series(plans, args);
  hswbench::print_sized_series(
      "Fig. 9: single-threaded read bandwidth, shared lines", sizes, series,
      args.csv, "GB/s");
  hswbench::print_paper_note(
      "with F in the own node: full L1/L2 speed (127.2 / 69.1 GB/s); with F "
      "on the other socket: limited to the 26.2 GB/s L3 bandwidth even for "
      "L1-resident sets; shared remote L3: 9.1 GB/s");
  trace.finish();
  return 0;
}
