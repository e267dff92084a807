// Fig. 5: source snoop vs home snoop, cached data in state exclusive.
//
// The home snoop penalty appears exactly where the paper says: remote cache
// accesses (+10.5%) and local memory (+12%), while local caches and remote
// memory are unchanged.
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv, "Fig. 5: source snoop vs home snoop, exclusive lines");
  const std::vector<std::uint64_t> sizes =
      hswbench::figure_sizes(args, hsw::mib(64));

  std::vector<hswbench::LatencySeriesPlan> plans;
  for (auto [prefix, config] :
       {std::pair{"source", hsw::SystemConfig::source_snoop()},
        {"home", hsw::SystemConfig::home_snoop()}}) {
    for (auto [where, owner] : {std::pair{"local", 0}, {"socket2", 12}}) {
      hsw::LatencySweepConfig sc;
      sc.system = config;
      sc.reader_core = 0;
      sc.placement.owner_core = owner;
      sc.placement.memory_node = owner >= 12 ? 1 : 0;
      sc.placement.state = hsw::Mesif::kExclusive;
      sc.sizes = sizes;
      sc.max_measured_lines = 8192;
      sc.seed = args.seed;
      plans.push_back({std::string(prefix) + " " + where, std::move(sc)});
    }
  }
  hswbench::BenchTrace trace(args);
  hswbench::extend_plans_for_trace(trace, plans);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    plans[p].config.trace = trace.latency_plan_options(p);
  }

  const std::vector<std::vector<hsw::LatencyResult>> grid =
      hswbench::run_latency_grid(plans, args);
  hswbench::print_sized_series(
      "Fig. 5: read latency, source vs home snoop (state exclusive)", sizes,
      hswbench::mean_series(plans, grid), args.csv, "ns");
  hswbench::print_latency_percentiles(plans, sizes, grid);
  hswbench::print_paper_note(
      "remote L3: 104 -> 115 ns (+10.5%); local memory: 96.4 -> 108 ns "
      "(+12%); local caches and remote memory unchanged (146 ns)");
  hswbench::note_largest_size(trace, plans, sizes, grid);
  trace.finish();
  return 0;
}
