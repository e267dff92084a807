// Fig. 8: single-threaded read bandwidth vs data-set size, default
// configuration — own hierarchy with AVX vs SSE loads, plus core-to-core
// and cross-socket streams for modified and exclusive lines.
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv, "Fig. 8: single-threaded read bandwidth, source snoop",
      /*engine_flag=*/true);
  const std::vector<std::uint64_t> sizes =
      hswbench::figure_sizes(args, hsw::mib(64));
  const hsw::SystemConfig config = hsw::SystemConfig::source_snoop();

  std::vector<hswbench::BandwidthSeriesPlan> plans;
  auto sweep = [&](std::string name, int owner, hsw::Mesif state,
                   hsw::bw::LoadWidth width) {
    hsw::BandwidthSweepConfig sc;
    sc.system = config;
    sc.stream.core = 0;
    sc.stream.width = width;
    sc.stream.placement.owner_core = owner;
    sc.stream.placement.memory_node = owner >= 12 ? 1 : 0;
    sc.stream.placement.state = state;
    sc.sizes = sizes;
    sc.seed = args.seed;
    sc.engine = args.engine;
    plans.push_back({std::move(name), std::move(sc)});
  };

  sweep("local M avx", 0, hsw::Mesif::kModified, hsw::bw::LoadWidth::kAvx256);
  sweep("local M sse", 0, hsw::Mesif::kModified, hsw::bw::LoadWidth::kSse128);
  sweep("node M", 1, hsw::Mesif::kModified, hsw::bw::LoadWidth::kAvx256);
  sweep("node E", 1, hsw::Mesif::kExclusive, hsw::bw::LoadWidth::kAvx256);
  sweep("socket2 M", 12, hsw::Mesif::kModified, hsw::bw::LoadWidth::kAvx256);
  sweep("socket2 E", 12, hsw::Mesif::kExclusive, hsw::bw::LoadWidth::kAvx256);

  hswbench::BenchTrace trace(args);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    plans[p].config.trace = trace.bandwidth_plan_options(p);
  }

  const std::vector<hswbench::Series> series =
      hswbench::run_bandwidth_series(plans, args);
  hswbench::print_sized_series(
      "Fig. 8: single-threaded read bandwidth, default configuration", sizes,
      series, args.csv, "GB/s");
  hswbench::print_paper_note(
      "L1 127.2 (AVX) / 77.1 (SSE); L2 69.1 / 48.2; local L3 26.2; "
      "core-to-core M: 7.8 (L1) 10.6 (L2) on-chip, 6.7/8.1 cross-socket; "
      "M in L3: 26.2 local / 9.1 remote; E with core snoop: 15.0 local / "
      "8.7 remote; local memory 10.3, remote memory 8.0 GB/s");
  trace.finish();
  return 0;
}
