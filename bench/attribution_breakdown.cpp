// Per-component latency attribution across the protocol configurations.
//
// The observability counterpart of Tables III-V: every (configuration,
// placement) pair is measured with the transaction tracer attached and the
// mean per-access nanoseconds are split over the protocol components on the
// critical path (ring, CBo, QPI, home agent, directory, HitME, DRAM, core
// snoops).  This is where the narrative effects become numbers in named
// columns:
//
//   * Table V's stale-directory broadcasts: the `ha` + `qpi` columns of the
//     "stale shared DRAM" row under COD vs the same row elsewhere;
//   * Fig. 7's HitME short-circuit: the `hitme` column paying a probe while
//     the `core-snoop`/`qpi` forward legs disappear in the small-set regime;
//   * the home-snoop penalty: `ha` time appearing on local-memory reads.
#include <cstdio>

#include "common.h"

namespace {

struct Config {
  const char* name;
  hsw::SystemConfig config;
};

struct Case {
  const char* name;
  // Placement relative to the reader (core 0) and the machine's last node
  // (the other socket in 2-node configurations, the 3-hop node under COD).
  hsw::Mesif state;
  hsw::CacheLevel level;
  enum class Where { kLocal, kNode, kRemote, kStaleShared, kMigratory } where;
  std::uint64_t buffer;
  std::uint64_t lines;
};

hsw::SystemConfig cod_das() {
  hsw::SystemConfig config = hsw::SystemConfig::cluster_on_die();
  hsw::ProtocolFeatures features =
      hsw::ProtocolFeatures::for_mode(hsw::SnoopMode::kCod);
  features.directory = true;
  features.hitme = false;  // classic directory-assisted snoop, no HitME cache
  config.feature_override = features;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv,
      "Latency attribution: mean ns per access by protocol component, per "
      "(configuration, placement, state)");

  const Config configs[] = {
      {"source", hsw::SystemConfig::source_snoop()},
      {"home", hsw::SystemConfig::home_snoop()},
      {"cod", hsw::SystemConfig::cluster_on_die()},
      {"cod_das", cod_das()},
  };

  using Where = Case::Where;
  const Case cases[] = {
      {"local L3 E", hsw::Mesif::kExclusive, hsw::CacheLevel::kL3,
       Where::kLocal, hsw::kib(512), 2048},
      {"node M", hsw::Mesif::kModified, hsw::CacheLevel::kL1L2, Where::kNode,
       hsw::kib(128), 2048},
      {"remote M", hsw::Mesif::kModified, hsw::CacheLevel::kL3, Where::kRemote,
       hsw::kib(512), 2048},
      {"remote E", hsw::Mesif::kExclusive, hsw::CacheLevel::kL3,
       Where::kRemote, hsw::kib(512), 2048},
      {"remote S", hsw::Mesif::kShared, hsw::CacheLevel::kL3, Where::kRemote,
       hsw::kib(512), 2048},
      {"local DRAM", hsw::Mesif::kModified, hsw::CacheLevel::kMemory,
       Where::kLocal, hsw::mib(1), 2048},
      {"remote DRAM", hsw::Mesif::kModified, hsw::CacheLevel::kMemory,
       Where::kRemote, hsw::mib(1), 2048},
      // Table V regime: lines shared across nodes, then silently evicted —
      // the in-memory directory is left saying snoop-all.  The buffer
      // exceeds the HitME coverage so the stale state actually governs.
      {"stale shared DRAM", hsw::Mesif::kShared, hsw::CacheLevel::kMemory,
       Where::kStaleShared, hsw::mib(2), 2048},
      // Fig. 7 small-set regime: shared lines in a remote L3, within the
      // HitME coverage — under COD the home agent short-circuits.
      {"migratory S", hsw::Mesif::kShared, hsw::CacheLevel::kL3,
       Where::kMigratory, hsw::kib(128), 2048},
  };

  std::vector<std::string> header{"config", "placement", "ns/access"};
  for (std::size_t c = 0; c < hsw::trace::kComponentCount; ++c) {
    header.push_back(
        hsw::trace::to_string(static_cast<hsw::trace::Component>(c)));
  }
  hsw::Table table(header);

  // Every case runs an attribution tracer; --trace retains its span trees
  // and --observe adds the report observers, all on the case's stream id,
  // so the report's per-stream rows name the (configuration, placement)
  // case they came from.
  hsw::ObserverHubs hubs;
  hsw::ObserverSet observe = args.observe.set;
  observe.trace = !args.trace.empty();
  observe.attribution = true;
  observe.resources = false;
  observe.trace_capacity = hswbench::kBenchTraceCapacity;
  std::uint32_t stream = 0;
  for (const Config& cfg : configs) {
    hsw::System probe(cfg.config);
    const hsw::SystemTopology& topo = probe.topology();
    const int last = probe.node_count() - 1;
    for (const Case& c : cases) {
      hsw::System sys(cfg.config);
      hsw::LatencyConfig lc;
      lc.reader_core = 0;
      lc.placement.state = c.state;
      lc.placement.level = c.level;
      switch (c.where) {
        case Where::kLocal:
          lc.placement.owner_core = 0;
          lc.placement.memory_node = 0;
          break;
        case Where::kNode:
          lc.placement.owner_core = 1;
          lc.placement.memory_node = 0;
          break;
        case Where::kRemote:
          lc.placement.owner_core = topo.node(last).cores[1];
          lc.placement.memory_node = last;
          if (c.state == hsw::Mesif::kShared) {
            lc.placement.sharers = {topo.node(last).cores[2]};
          }
          break;
        case Where::kStaleShared:
          // Home on the last node, Forward copy taken by a core in the
          // reader's node (Table V off-diagonal), everything evicted.
          lc.placement.owner_core = topo.node(last).cores[1];
          lc.placement.memory_node = last;
          lc.placement.sharers = {topo.node(0).cores[2]};
          break;
        case Where::kMigratory: {
          // Fig. 7's three-node shape (H:n1 F:n2) where the machine has the
          // nodes for it: the home CA misses, so the home agent's HitME
          // probe decides whether memory is served without a broadcast.
          // Two-node machines degenerate to H:n1 F:n1.
          const int fwd = last >= 2 ? 2 : 1;
          lc.placement.owner_core = topo.node(1).cores[1];
          lc.placement.memory_node = 1;
          lc.placement.sharers = {fwd == 1 ? topo.node(1).cores[2]
                                           : topo.node(fwd).cores[1]};
          break;
        }
      }
      lc.buffer_bytes = c.buffer;
      lc.max_measured_lines = c.lines;
      lc.seed = args.seed;

      hsw::PointObservers observers(observe, cfg.config.protocol, stream++);
      lc.instrumentation = observers.scope();
      const hsw::LatencyResult r = hsw::measure_latency(sys, lc);
      observers.absorb_into(hubs);

      const double n = static_cast<double>(r.lines_measured);
      std::vector<std::string> row{cfg.name, c.name,
                                   hsw::cell(r.mean_ns, 1)};
      for (std::size_t comp = 0; comp < hsw::trace::kComponentCount; ++comp) {
        row.push_back(hsw::cell(r.component_ns[comp] / n, 1));
      }
      table.add_row(std::move(row));
    }
    if (&cfg != &configs[std::size(configs) - 1]) table.add_separator();
  }

  hswbench::print_table(
      "Latency attribution: mean ns per access on the critical path, by "
      "protocol component",
      table, args.csv);
  hswbench::print_paper_note(
      "read each row left to right as the anatomy of one access; compare "
      "`stale shared DRAM` under cod (broadcast: ha+qpi pay Table V's "
      "+78..89 ns) against source/home; compare `migratory S` under cod "
      "(hitme column, no forward legs) against cod_das (directory serves "
      "from memory) — Fig. 7's short-circuit as a named span");

  if (!args.trace.empty()) {
    const hsw::trace::MergedTrace trace = hubs.trace.merged();
    if (hsw::trace::write_trace(args.trace, trace.records)) {
      std::printf("wrote %s (%zu protocol transactions)\n",
                  args.trace.c_str(), trace.records.size());
    }
  }
  hswbench::write_report(args, hubs);
  return 0;
}
