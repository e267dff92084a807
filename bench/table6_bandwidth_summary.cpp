// Table VI: single-threaded read bandwidth across the three configurations
// (L3 values for state exclusive).
#include <cstdio>

#include "common.h"

namespace {

double stream_bw(hswbench::BenchTrace& trace, const hsw::SystemConfig& config,
                 int reader, int owner, int node, hsw::Mesif state,
                 hsw::CacheLevel level, std::uint64_t bytes,
                 std::uint64_t seed, hsw::BandwidthEngine engine) {
  hsw::System sys(config);
  hsw::BandwidthConfig bc;
  hsw::StreamConfig stream;
  stream.core = reader;
  stream.placement.owner_core = owner;
  stream.placement.memory_node = node;
  stream.placement.state = state;
  stream.placement.level = level;
  bc.streams = {stream};
  bc.buffer_bytes = bytes;
  bc.seed = seed;
  bc.engine = engine;
  // Table VI measures fresh buffers (clean directory state), unlike the
  // streaming loops of Tables VII/VIII.
  bc.steady_state = false;
  return trace.measure_bw(sys, bc).total_gbps;
}

}  // namespace

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv, "Table VI: single-threaded read bandwidth summary",
      /*engine_flag=*/true);
  const std::uint64_t seed = args.seed;
  hswbench::BenchTrace trace(args);

  const hsw::SystemConfig source = hsw::SystemConfig::source_snoop();
  const hsw::SystemConfig home = hsw::SystemConfig::home_snoop();
  const hsw::SystemConfig cod = hsw::SystemConfig::cluster_on_die();
  hsw::System probe(cod);
  const hsw::SystemTopology& topo = probe.topology();

  struct Group {
    int reader;
    int local_node;
  };
  const Group groups[] = {{0, 0}, {6, 1}, {8, 1}};

  auto l3 = [&](const hsw::SystemConfig& c, int reader, int owner, int node) {
    return stream_bw(trace, c, reader, owner, node, hsw::Mesif::kExclusive,
                     hsw::CacheLevel::kL3, hsw::kib(512), seed, args.engine);
  };
  auto mem = [&](const hsw::SystemConfig& c, int reader, int node) {
    return stream_bw(trace, c, reader, reader, node, hsw::Mesif::kModified,
                     hsw::CacheLevel::kMemory, hsw::mib(4), seed, args.engine);
  };
  auto fmt = [](double v) { return hsw::cell(v, 1); };

  hsw::Table table({"", "source", "default", "Early Snoop off",
                    "COD 1st node", "COD 2nd/ring0", "COD 2nd/ring1"});
  {
    std::vector<std::string> row{"L3", "local",
                                 fmt(l3(source, 0, 0, 0)),
                                 fmt(l3(home, 0, 0, 0))};
    for (const Group& g : groups) {
      row.push_back(fmt(l3(cod, g.reader, g.reader, g.local_node)));
    }
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"L3", "remote 1st node",
                                 fmt(l3(source, 0, 12, 1)),
                                 fmt(l3(home, 0, 12, 1))};
    for (const Group& g : groups) {
      row.push_back(fmt(l3(cod, g.reader, topo.node(2).cores[0], 2)));
    }
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"L3", "remote 2nd node", "", ""};
    for (const Group& g : groups) {
      row.push_back(fmt(l3(cod, g.reader, topo.node(3).cores[0], 3)));
    }
    table.add_row(std::move(row));
  }
  table.add_separator();
  {
    std::vector<std::string> row{"memory", "local", fmt(mem(source, 0, 0)),
                                 fmt(mem(home, 0, 0))};
    for (const Group& g : groups) {
      row.push_back(fmt(mem(cod, g.reader, g.local_node)));
    }
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"memory", "remote 1st node",
                                 fmt(mem(source, 0, 1)), fmt(mem(home, 0, 1))};
    for (const Group& g : groups) {
      row.push_back(fmt(mem(cod, g.reader, 2)));
    }
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"memory", "remote 2nd node", "", ""};
    for (const Group& g : groups) {
      row.push_back(fmt(mem(cod, g.reader, 3)));
    }
    table.add_row(std::move(row));
  }

  hswbench::print_table(
      "Table VI: single-threaded read bandwidth in GB/s (L3 rows: state E)",
      table, args.csv);
  hswbench::print_paper_note(
      "L3 local 26.2 | 26.2 | 29.0 | 27.2 | 27.6;  L3 remote 8.8 | 8.9 | "
      "8.7/8.3 | 8.3/8.0 | 8.4/8.1;  memory local 10.3 | 9.5 | 12.6 | 12.4 | "
      "12.6;  memory remote 8.0 | 8.2 | 8.3/8.0 | 7.8/7.4 | 8.1/7.5");
  trace.finish();
  return 0;
}
