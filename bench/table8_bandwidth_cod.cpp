// Table VIII: memory read bandwidth scaling in COD mode, from node0 cores to
// each node's memory (1-6 cores: a COD node has six cores).
#include <cstdio>

#include "common.h"

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv, "Table VIII: COD memory bandwidth scaling",
      /*engine_flag=*/true);
  hswbench::BenchTrace trace(args);
  const hsw::SystemConfig config = hsw::SystemConfig::cluster_on_die();
  hsw::System probe(config);
  const hsw::SystemTopology& topo = probe.topology();

  const int max_cores = args.quick ? 3 : 6;
  std::vector<std::string> header{"source"};
  for (int c = 1; c <= max_cores; ++c) header.push_back(std::to_string(c));
  hsw::Table table(header);

  struct Row {
    std::string name;
    int reader_node;
    int memory_node;
  };
  const Row rows[] = {
      {"local memory", 0, 0},
      {"node0 -> node1", 0, 1},
      {"node0 -> node2", 0, 2},
      {"node0 -> node3", 0, 3},
      {"node1 -> node3", 1, 3},
  };
  for (const Row& row : rows) {
    std::vector<std::string> cells{row.name};
    for (int c = 1; c <= max_cores; ++c) {
      hsw::System sys(config);
      hsw::BandwidthConfig bc;
      for (int i = 0; i < c; ++i) {
        hsw::StreamConfig stream;
        stream.core = topo.node(row.reader_node).cores[static_cast<std::size_t>(i)];
        stream.placement.owner_core = stream.core;
        stream.placement.memory_node = row.memory_node;
        stream.placement.state = hsw::Mesif::kModified;
        stream.placement.level = hsw::CacheLevel::kMemory;
        bc.streams.push_back(stream);
      }
      bc.buffer_bytes = hsw::mib(2);
      bc.seed = args.seed;
      bc.engine = args.engine;
      cells.push_back(hsw::cell(trace.measure_bw(sys, bc).total_gbps, 1));
    }
    table.add_row(std::move(cells));
  }

  hswbench::print_table("Table VIII: COD-mode memory read bandwidth (GB/s)",
                        table, args.csv);
  hswbench::print_paper_note(
      "local 12.6 -> 32.5 GB/s; node0->node1 7.0 -> 18.8 (inter-ring queue); "
      "node0->node2 5.9 -> 15.6; node0->node3 / node1->node3 5.5 -> 14.7 "
      "(stale-directory broadcasts keep QPI busy)");
  trace.finish();
  return 0;
}
