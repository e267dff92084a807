// hswsim_cli: general-purpose driver for ad-hoc experiments.
//
// Subcommands:
//   latency    measure a placement-controlled latency
//   bandwidth  measure a single- or multi-core bandwidth
//   topo       print the machine topology and distance matrices
//   trace      run a synthetic trace and print the per-source breakdown
//
// Examples:
//   hswsim_cli latency --mode cod --reader 0 --owner 6 --state M --size 256KiB
//   hswsim_cli bandwidth --mode home --cores 4 --node 1 --size 2MiB
//   hswsim_cli topo --mode cod
//   hswsim_cli trace --pattern hotset --cores 8
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "core/hswbench.h"
#include "util/cli.h"
#include "workload/trace.h"

namespace {

// Registers the post-parse check that resolves --mode/--protocol into a
// SystemConfig.  The library parsers return std::optional; running them
// inside a CommandLine check keeps ParseStatus::kError the single
// argument-error exit path (no exit() between parse and main body).
void add_config_check(hsw::CommandLine& cli, const std::string& mode,
                      const std::string& protocol,
                      std::optional<hsw::SystemConfig>* config) {
  cli.add_check([&mode, &protocol, config]() -> std::optional<std::string> {
    const auto parsed_mode = hsw::parse_snoop_mode(mode);
    if (!parsed_mode) {
      return "unknown --mode '" + mode + "' (source|home|cod)";
    }
    const auto parsed_protocol = hsw::parse_protocol(protocol);
    if (!parsed_protocol) {
      return "unknown --protocol '" + protocol + "' (mesif|mesi|moesi|dragon)";
    }
    *config = hsw::SystemConfig::for_mode(*parsed_mode);
    (*config)->protocol = *parsed_protocol;
    return std::nullopt;
  });
}

// Writes the --report document of a one-point run; the subcommand's exit
// code.
int write_cli_report(const hsw::ObserveFlags& flags, const hsw::System& system,
                     const std::string& invocation,
                     const hsw::ObserverHubs& hubs) {
  const hsw::metrics::ReportManifest manifest = hsw::make_manifest(
      "hswsim_cli", invocation + ", " + system.config().describe(),
      system.config().protocol);
  if (!hsw::write_observer_report(flags.report, manifest, hubs, flags.set)) {
    return 1;
  }
  std::printf("wrote %s\n", flags.report.c_str());
  return 0;
}

int cmd_latency(int argc, char** argv) {
  std::string mode = "source";
  std::string state = "M";
  std::string level = "auto";
  std::int64_t reader = 0;
  std::int64_t owner = 0;
  std::int64_t sharer = -1;
  std::int64_t node = -1;
  std::uint64_t size = hsw::kib(64);
  std::string protocol = "mesif";
  hsw::CommandLine cli("hswsim_cli latency: placement-controlled latency");
  cli.add_string("mode", &mode, "source | home | cod");
  cli.add_string("protocol", &protocol, "mesif | mesi | moesi | dragon");
  cli.add_string("state", &state, "coherence state: M | E | S");
  cli.add_string("level", &level, "auto | l3 | memory");
  cli.add_int("reader", &reader, "measuring core");
  cli.add_int("owner", &owner, "core that places the data");
  cli.add_int("sharer", &sharer, "optional extra reader (takes Forward)");
  cli.add_int("node", &node, "memory NUMA node (-1: owner's node)");
  cli.add_bytes("size", &size, "data-set size");
  std::optional<hsw::SystemConfig> config;
  add_config_check(cli, mode, protocol, &config);
  std::optional<hsw::Mesif> parsed_state;
  cli.add_check([&]() -> std::optional<std::string> {
    parsed_state = hsw::parse_mesif(state);
    if (!parsed_state) return "unknown --state '" + state + "' (M|O|E|S|I|F)";
    if (level != "auto" && level != "l3" && level != "memory") {
      return "unknown --level '" + level + "' (auto|l3|memory)";
    }
    return std::nullopt;
  });
  switch (cli.parse_status(argc, argv)) {
    case hsw::CommandLine::ParseStatus::kOk: break;
    case hsw::CommandLine::ParseStatus::kHelp: return 0;
    case hsw::CommandLine::ParseStatus::kError: return 1;
  }

  hsw::System system(*config);
  hsw::LatencyConfig lc;
  lc.reader_core = static_cast<int>(reader);
  lc.placement.owner_core = static_cast<int>(owner);
  lc.placement.memory_node =
      node >= 0 ? static_cast<int>(node)
                : system.topology().node_of_core(static_cast<int>(owner));
  lc.placement.state = *parsed_state;
  if (sharer >= 0) lc.placement.sharers = {static_cast<int>(sharer)};
  if (level == "l3") lc.placement.level = hsw::CacheLevel::kL3;
  if (level == "memory") lc.placement.level = hsw::CacheLevel::kMemory;
  lc.buffer_bytes = size;

  const hsw::LatencyResult r = hsw::measure_latency(system, lc);
  std::printf("machine : %s\n", system.config().describe().c_str());
  std::printf("latency : %s (min %s, max %s over %llu loads)\n",
              hsw::format_ns(r.mean_ns).c_str(),
              hsw::format_ns(r.min_ns).c_str(),
              hsw::format_ns(r.max_ns).c_str(),
              static_cast<unsigned long long>(r.lines_measured));
  std::printf("sources :");
  for (std::size_t s = 0; s < r.source_counts.size(); ++s) {
    if (r.source_counts[s] == 0) continue;
    std::printf(" %s=%.1f%%",
                hsw::to_string(static_cast<hsw::ServiceSource>(s)),
                100.0 * r.source_fraction(static_cast<hsw::ServiceSource>(s)));
  }
  std::printf("\n");
  return 0;
}

int cmd_bandwidth(int argc, char** argv) {
  std::string mode = "source";
  std::string engine = "analytic";
  std::int64_t cores = 1;
  std::int64_t node = 0;
  std::uint64_t size = hsw::mib(2);
  bool write = false;
  std::string protocol = "mesif";
  hsw::ObserveFlags observe;
  hsw::CommandLine cli("hswsim_cli bandwidth: concurrent memory streams");
  cli.add_string("mode", &mode, "source | home | cod");
  cli.add_string("protocol", &protocol, "mesif | mesi | moesi | dragon");
  cli.add_string("engine", &engine,
                 "rate engine: analytic (max-min model) | simulated "
                 "(event-driven queueing)");
  cli.add_int("cores", &cores, "number of concurrently streaming cores (0..n-1)");
  cli.add_int("node", &node, "memory NUMA node the streams target");
  cli.add_bytes("size", &size, "buffer bytes per stream");
  cli.add_bool("write", &write, "store streams instead of loads");
  hsw::add_observe_flags(cli, &observe);
  std::optional<hsw::SystemConfig> config;
  add_config_check(cli, mode, protocol, &config);
  std::optional<hsw::BandwidthEngine> parsed_engine;
  cli.add_check([&]() -> std::optional<std::string> {
    parsed_engine = hsw::parse_bandwidth_engine(engine);
    if (!parsed_engine) {
      return "unknown --engine '" + engine + "' (analytic|simulated)";
    }
    // Only the event-driven engine has FIFO servers to observe; an analytic
    // run would write an all-zero resources section.
    if (observe.set.resources &&
        *parsed_engine != hsw::BandwidthEngine::kSimulated) {
      return std::string("--observe resources requires --engine simulated");
    }
    return std::nullopt;
  });
  switch (cli.parse_status(argc, argv)) {
    case hsw::CommandLine::ParseStatus::kOk: break;
    case hsw::CommandLine::ParseStatus::kHelp: return 0;
    case hsw::CommandLine::ParseStatus::kError: return 1;
  }

  hsw::System system(*config);
  hsw::PointObservers observers(observe.set, system.config().protocol, 0);
  hsw::BandwidthConfig bc;
  for (int c = 0; c < cores; ++c) {
    hsw::StreamConfig stream;
    stream.core = c;
    stream.write = write;
    stream.placement.owner_core = c;
    stream.placement.memory_node = static_cast<int>(node);
    stream.placement.state = hsw::Mesif::kModified;
    stream.placement.level = hsw::CacheLevel::kMemory;
    bc.streams.push_back(stream);
  }
  bc.buffer_bytes = size;
  bc.engine = *parsed_engine;
  bc.instrumentation = observers.scope();
  const hsw::BandwidthResult r = hsw::measure_bandwidth(system, bc);
  std::printf("machine   : %s\n", system.config().describe().c_str());
  std::printf("engine    : %s\n", hsw::to_string(bc.engine));
  std::printf("aggregate : %s\n", hsw::format_gbps(r.total_gbps).c_str());
  for (std::size_t i = 0; i < r.streams.size(); ++i) {
    std::printf("  core %-2zu : %s  (probe %s, %s%s%s%s)\n", i,
                hsw::format_gbps(r.streams[i].gbps).c_str(),
                hsw::format_ns(r.streams[i].probe_latency_ns).c_str(),
                hsw::to_string(r.streams[i].source),
                r.streams[i].stale_directory ? ", stale directory" : "",
                r.streams[i].bottleneck.empty() ? "" : ", bottleneck ",
                r.streams[i].bottleneck.c_str());
  }
  if (!observe.set.reports()) return 0;
  hsw::ObserverHubs hubs;
  observers.absorb_into(hubs);
  return write_cli_report(
      observe, system,
      "bandwidth --mode " + mode + " --cores " + std::to_string(cores), hubs);
}

int cmd_topo(int argc, char** argv) {
  std::string mode = "source";
  const std::string protocol = "mesif";  // topology is protocol-independent
  hsw::CommandLine cli("hswsim_cli topo: topology and distances");
  cli.add_string("mode", &mode, "source | home | cod");
  std::optional<hsw::SystemConfig> config;
  add_config_check(cli, mode, protocol, &config);
  switch (cli.parse_status(argc, argv)) {
    case hsw::CommandLine::ParseStatus::kOk: break;
    case hsw::CommandLine::ParseStatus::kHelp: return 0;
    case hsw::CommandLine::ParseStatus::kError: return 1;
  }

  hsw::System system(*config);
  const hsw::SystemTopology& topo = system.topology();
  std::printf("%s\n\n", system.config().describe().c_str());
  for (const hsw::NumaNode& n : topo.nodes()) {
    std::printf("node %d (socket %d, cluster %d): cores", n.id, n.socket,
                n.cluster);
    for (int c : n.cores) std::printf(" %d", c);
    std::printf(", L3 %s, DRAM %s\n",
                hsw::format_bytes(system.node_l3_bytes(n.id)).c_str(),
                hsw::format_gbps(system.node_dram_bandwidth_gbps(n.id)).c_str());
  }
  std::printf("\ninter-node hops:\n");
  hsw::Table table({""});
  std::vector<std::string> header{""};
  for (int b = 0; b < topo.node_count(); ++b) {
    header.push_back("node" + std::to_string(b));
  }
  hsw::Table hops(header);
  for (int a = 0; a < topo.node_count(); ++a) {
    std::vector<std::string> row{"node" + std::to_string(a)};
    for (int b = 0; b < topo.node_count(); ++b) {
      row.push_back(std::to_string(topo.internode_hops(a, b)));
    }
    hops.add_row(std::move(row));
  }
  std::printf("%s", hops.to_string().c_str());
  return 0;
}

int cmd_trace(int argc, char** argv) {
  std::string mode = "source";
  std::string pattern = "hotset";
  std::int64_t cores = 4;
  std::int64_t accesses = 20000;
  bool concurrent = false;
  std::int64_t window = 10;
  std::string protocol = "mesif";
  hsw::ObserveFlags observe;
  hsw::CommandLine cli("hswsim_cli trace: synthetic trace replay");
  cli.add_string("mode", &mode, "source | home | cod");
  cli.add_string("protocol", &protocol, "mesif | mesi | moesi | dragon");
  hsw::add_observe_flags(cli, &observe);
  cli.add_string("pattern", &pattern,
                 "stream | chase | producer-consumer | hotset | pingpong | "
                 "lock | false-sharing | false-sharing-padded");
  cli.add_int("cores", &cores, "participating cores");
  cli.add_int("accesses", &accesses, "approximate trace length");
  cli.add_bool("concurrent", &concurrent,
               "interleave per-core programs through the exec engine "
               "(MLP windows + resource back-pressure) instead of the "
               "serial replayer");
  cli.add_int("window", &window,
              "outstanding misses per core for --concurrent");
  std::optional<hsw::SystemConfig> config;
  add_config_check(cli, mode, protocol, &config);
  cli.add_check([&]() -> std::optional<std::string> {
    for (const char* known :
         {"stream", "chase", "producer-consumer", "hotset", "pingpong",
          "lock", "false-sharing", "false-sharing-padded"}) {
      if (pattern == known) return std::nullopt;
    }
    return "unknown --pattern '" + pattern + "'";
  });
  cli.add_check([&]() -> std::optional<std::string> {
    // The serial replayer drives no FIFO servers.
    if (observe.set.resources && !concurrent) {
      return std::string("--observe resources requires --concurrent");
    }
    return std::nullopt;
  });
  switch (cli.parse_status(argc, argv)) {
    case hsw::CommandLine::ParseStatus::kOk: break;
    case hsw::CommandLine::ParseStatus::kHelp: return 0;
    case hsw::CommandLine::ParseStatus::kError: return 1;
  }

  hsw::System system(*config);
  std::vector<int> core_list;
  for (int c = 0; c < cores; ++c) core_list.push_back(c);
  // Contention partner on the other socket when there is one.
  const int far_core = system.core_count() / 2;

  hsw::Trace trace;
  if (pattern == "stream") {
    trace = hsw::make_stream_trace(
        system, core_list,
        static_cast<std::uint64_t>(accesses / cores) * 64, 0.0, 1);
  } else if (pattern == "chase") {
    trace = hsw::make_chase_trace(system, core_list, hsw::mib(4),
                                  static_cast<std::uint64_t>(accesses / cores),
                                  1);
  } else if (pattern == "producer-consumer") {
    trace = hsw::make_producer_consumer_trace(
        system, 0, far_core, hsw::kib(16),
        static_cast<int>(accesses / 512), 1);
  } else if (pattern == "hotset") {
    trace = hsw::make_hotset_trace(system, core_list, 64,
                                   static_cast<std::uint64_t>(accesses), 0.3, 1);
  } else if (pattern == "pingpong") {
    trace = hsw::make_pingpong_trace(system, 0, far_core,
                                     static_cast<int>(accesses / 2));
  } else if (pattern == "lock") {
    trace = hsw::make_lock_trace(system, core_list, 4,
                                 static_cast<int>(accesses / 7), 1);
  } else {
    // The pattern check above admitted only the names handled here.
    trace = hsw::make_false_sharing_trace(
        system, core_list, static_cast<int>(accesses / cores),
        pattern == "false-sharing-padded");
  }

  std::printf("machine : %s\n", system.config().describe().c_str());

  // Optional report observers; both replayers take the same scope.
  hsw::PointObservers observers(observe.set, system.config().protocol, 0);
  const hsw::InstrumentationScope scope = observers.scope();

  hsw::ReplayStats stats;
  if (concurrent) {
    hsw::ConcurrentReplayConfig rc;
    rc.window = static_cast<int>(window);
    rc.instrumentation = scope;
    const hsw::exec::ProgramExecStats r =
        hsw::replay_concurrent(system, trace, rc);
    std::printf(
        "events  : %llu accesses + %llu flushes, mean %s per access\n"
        "timing  : makespan %s, aggregate %s, mean queue wait %s\n",
        static_cast<unsigned long long>(r.accesses),
        static_cast<unsigned long long>(r.flushes),
        hsw::format_ns(r.mean_access_ns()).c_str(),
        hsw::format_ns(r.makespan_ns).c_str(),
        hsw::format_gbps(r.aggregate_gbps).c_str(),
        hsw::format_ns(r.accesses ? r.queue_ns /
                                        static_cast<double>(r.accesses)
                                  : 0.0)
            .c_str());
    stats.events = r.accesses;  // flushes carry no service source
    stats.total_ns = r.access_ns;
    stats.by_source = r.by_source;
    stats.counters = r.counters;
  } else {
    stats = hsw::replay(system, trace, scope);
    std::printf("events  : %llu, mean %s per access\n",
                static_cast<unsigned long long>(stats.events),
                hsw::format_ns(stats.mean_ns()).c_str());
  }
  const std::uint64_t accessed = stats.events;
  std::printf("sources :");
  for (std::size_t s = 0; s < stats.by_source.size(); ++s) {
    if (stats.by_source[s] == 0) continue;
    std::printf(" %s=%.1f%%",
                hsw::to_string(static_cast<hsw::ServiceSource>(s)),
                100.0 * static_cast<double>(stats.by_source[s]) /
                    static_cast<double>(accessed));
  }
  std::printf("\ncounters:\n");
  for (std::size_t i = 0; i < hsw::kCtrCount; ++i) {
    if (stats.counters[i] == 0) continue;
    std::printf("  %-45s %llu\n",
                std::string(hsw::ctr_name(static_cast<hsw::Ctr>(i))).c_str(),
                static_cast<unsigned long long>(stats.counters[i]));
  }
  if (!observe.set.reports()) return 0;
  hsw::ObserverHubs hubs;
  observers.absorb_into(hubs);
  if (observe.set.lines) {
    const hsw::obs::MergedLineStats merged = hubs.lines.merged();
    std::printf("patterns:");
    for (std::size_t p = 0; p < hsw::obs::kSharingPatternCount; ++p) {
      if (merged.patterns[p] == 0) continue;
      std::printf(" %s=%llu",
                  hsw::obs::to_string(static_cast<hsw::obs::SharingPattern>(p)),
                  static_cast<unsigned long long>(merged.patterns[p]));
    }
    std::printf("\n");
  }
  return write_cli_report(observe, system, "trace --pattern " + pattern, hubs);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hswsim_cli <latency|bandwidth|topo|trace> [flags]\n"
                 "run a subcommand with --help for its flags\n");
    return 1;
  }
  const std::string command = argv[1];
  if (command == "latency") return cmd_latency(argc - 1, argv + 1);
  if (command == "bandwidth") return cmd_bandwidth(argc - 1, argv + 1);
  if (command == "topo") return cmd_topo(argc - 1, argv + 1);
  if (command == "trace") return cmd_trace(argc - 1, argv + 1);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}
