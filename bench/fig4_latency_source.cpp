// Fig. 4: memory read latency in the default configuration (source snoop).
//
// Curves: the reading core's own hierarchy (local), cache lines of another
// core in the same NUMA node, and cache lines on the second processor —
// each for coherence states modified, exclusive, and shared.
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv, "Fig. 4: read latency vs data-set size, source snoop");
  const std::vector<std::uint64_t> sizes =
      hswbench::figure_sizes(args, hsw::mib(64));

  const hsw::SystemConfig config = hsw::SystemConfig::source_snoop();
  std::vector<hswbench::LatencySeriesPlan> plans;

  auto sweep = [&](std::string name, int reader, int owner, int sharer,
                   hsw::Mesif state) {
    hsw::LatencySweepConfig sc;
    sc.system = config;
    sc.reader_core = reader;
    sc.placement.owner_core = owner;
    sc.placement.memory_node = 0;
    sc.placement.state = state;
    if (sharer >= 0) sc.placement.sharers = {sharer};
    sc.sizes = sizes;
    sc.max_measured_lines = 8192;
    sc.seed = args.seed;
    plans.push_back({std::move(name), std::move(sc)});
  };

  // Local hierarchy.
  sweep("local M", 0, 0, -1, hsw::Mesif::kModified);
  sweep("local E", 0, 0, -1, hsw::Mesif::kExclusive);
  // Within the NUMA node (owner core 1; shared with core 2).
  sweep("node M", 0, 1, -1, hsw::Mesif::kModified);
  sweep("node E", 0, 1, -1, hsw::Mesif::kExclusive);
  sweep("node S", 0, 1, 2, hsw::Mesif::kShared);
  // Other NUMA node / socket (owner core 12; shared with core 13).
  sweep("socket2 M", 0, 12, -1, hsw::Mesif::kModified);
  sweep("socket2 E", 0, 12, -1, hsw::Mesif::kExclusive);
  sweep("socket2 S", 0, 12, 13, hsw::Mesif::kShared);

  hswbench::BenchTrace trace(args);
  hswbench::extend_plans_for_trace(trace, plans);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    plans[p].config.trace = trace.latency_plan_options(p);
  }

  const std::vector<std::vector<hsw::LatencyResult>> grid =
      hswbench::run_latency_grid(plans, args);
  hswbench::print_sized_series(
      "Fig. 4: memory read latency, default configuration (source snoop)",
      sizes, hswbench::mean_series(plans, grid), args.csv, "ns");
  hswbench::print_latency_percentiles(plans, sizes, grid);
  hswbench::print_paper_note(
      "L1 1.6 / L2 4.8 / L3 21.2 ns; node: M-in-cache 53 (L1) and 49 (L2), "
      "E-in-L3 44.4, S 21.2; socket2: M 113/109 (cache) 86 (L3), E 104, "
      "S 86; local memory 96.4, remote memory 146 ns");
  hswbench::note_largest_size(trace, plans, sizes, grid);
  trace.finish();
  return 0;
}
