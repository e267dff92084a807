#include "workload/apps.h"

#include <algorithm>

#include "bw/model.h"
#include "core/latency.h"

namespace hsw {
namespace {

// Compute time per work unit is config-independent by construction: it is
// anchored to a fixed reference memory-op cost, so only the memory side of
// the runtime responds to the coherence mode.
constexpr double kReferenceMemOpNs = 30.0;

std::vector<AppProfile> make_omp2012() {
  auto app = [](std::string name, double cf, double l2, double l3, double dram,
                double locality, double sharing, double mlp, double bwb) {
    return AppProfile{std::move(name), "OMP2012", cf,   l2,  l3,
                      dram,            locality,  sharing, mlp, bwb};
  };
  return {
      app("350.md", 0.80, 0.10, 0.04, 0.02, 0.85, 0.005, 4.0, 0.10),
      app("351.bwaves", 0.30, 0.10, 0.10, 0.30, 0.80, 0.010, 8.0, 0.90),
      app("352.nab", 0.60, 0.12, 0.15, 0.05, 0.85, 0.010, 4.0, 0.30),
      app("357.bt331", 0.45, 0.10, 0.12, 0.20, 0.80, 0.010, 6.0, 0.70),
      app("358.botsalgn", 0.70, 0.20, 0.05, 0.02, 0.85, 0.010, 3.0, 0.10),
      app("359.botsspar", 0.50, 0.12, 0.20, 0.10, 0.80, 0.020, 3.0, 0.30),
      app("360.ilbdc", 0.25, 0.08, 0.10, 0.35, 0.75, 0.010, 8.0, 0.95),
      app("362.fma3d", 0.40, 0.10, 0.12, 0.15, 0.70, 0.060, 3.0, 0.40),
      app("363.swim", 0.25, 0.08, 0.10, 0.35, 0.80, 0.005, 8.0, 0.95),
      app("367.imagick", 0.75, 0.15, 0.05, 0.03, 0.85, 0.005, 4.0, 0.20),
      app("370.mgrid331", 0.35, 0.10, 0.12, 0.30, 0.80, 0.010, 7.0, 0.80),
      app("371.applu331", 0.30, 0.10, 0.12, 0.12, 0.65, 0.090, 2.5, 0.30),
      app("372.smithwa", 0.60, 0.25, 0.08, 0.02, 0.85, 0.010, 3.0, 0.10),
      app("376.kdtree", 0.55, 0.10, 0.25, 0.06, 0.80, 0.020, 1.5, 0.10),
  };
}

std::vector<AppProfile> make_mpi2007() {
  auto app = [](std::string name, double cf, double l2, double l3, double dram,
                double mlp, double bwb) {
    return AppProfile{std::move(name), "MPI2007", cf, l2, l3, dram, 0.97,
                      0.008, mlp, bwb};
  };
  return {
      app("104.milc", 0.35, 0.10, 0.12, 0.28, 6.0, 0.80),
      app("107.leslie3d", 0.30, 0.10, 0.12, 0.30, 7.0, 0.85),
      app("113.GemsFDTD", 0.35, 0.10, 0.12, 0.28, 6.0, 0.80),
      app("115.fds4", 0.50, 0.12, 0.12, 0.15, 4.0, 0.50),
      app("121.pop2", 0.45, 0.10, 0.15, 0.15, 4.0, 0.50),
      app("122.tachyon", 0.80, 0.12, 0.05, 0.02, 3.0, 0.10),
      app("126.lammps", 0.65, 0.12, 0.10, 0.06, 4.0, 0.30),
      app("127.wrf2", 0.45, 0.10, 0.15, 0.18, 5.0, 0.60),
      app("128.GAPgeofem", 0.40, 0.10, 0.15, 0.22, 5.0, 0.70),
      app("129.tera_tf", 0.50, 0.10, 0.12, 0.18, 5.0, 0.60),
      app("130.socorro", 0.45, 0.10, 0.15, 0.18, 5.0, 0.60),
      app("132.zeusmp2", 0.40, 0.10, 0.12, 0.25, 6.0, 0.70),
      app("137.lu", 0.50, 0.12, 0.15, 0.12, 3.0, 0.40),
  };
}

}  // namespace

MachineCosts probe_machine(const SystemConfig& config) {
  MachineCosts costs{};
  costs.l1 = config.timing.l1_hit;
  costs.l2 = config.timing.l2_hit;

  const int nodes = config.snoop_mode == SnoopMode::kCod ? 4 : 2;

  auto probe = [&](int reader, Placement placement, std::uint64_t bytes) {
    System system(config);
    LatencyConfig lc;
    lc.reader_core = reader;
    lc.placement = placement;
    lc.buffer_bytes = bytes;
    lc.max_measured_lines = 2048;
    return measure_latency(system, lc).mean_ns;
  };

  // Local L3: own data evicted from the core caches.
  costs.l3 = probe(0,
                   Placement{.owner_core = 0, .memory_node = 0,
                             .state = Mesif::kModified, .sharers = {},
                             .level = CacheLevel::kL3},
                   512 * 1024);
  // Local / remote memory (cold lines, chase).
  costs.dram_local = probe(0,
                           Placement{.owner_core = 0, .memory_node = 0,
                                     .state = Mesif::kModified, .sharers = {},
                                     .level = CacheLevel::kMemory},
                           2 * 1024 * 1024);
  const int far_node = nodes - 1;
  costs.dram_remote = probe(0,
                            Placement{.owner_core = 0, .memory_node = far_node,
                                      .state = Mesif::kModified, .sharers = {},
                                      .level = CacheLevel::kMemory},
                            2 * 1024 * 1024);

  // Cross-node shared line: home in the neighbour node, forward copy in a
  // third node when one exists (the COD three-node transaction).
  {
    System system(config);
    const SystemTopology& topo = system.topology();
    const int home = 1 % nodes;
    const int fwd = nodes > 2 ? 2 : 1;
    Placement placement;
    placement.owner_core = topo.node(home).cores[1];
    placement.memory_node = home;
    placement.state = Mesif::kShared;
    placement.sharers = {topo.node(fwd).cores[1]};
    placement.level = CacheLevel::kL3;
    LatencyConfig lc;
    lc.reader_core = 0;
    lc.placement = placement;
    lc.buffer_bytes = 4 * 1024 * 1024;  // beyond the HitME coverage
    lc.max_measured_lines = 2048;
    costs.shared_line = measure_latency(system, lc).mean_ns;
  }

  // Fair bandwidth shares with every core streaming.
  {
    System system(config);
    const bw::BandwidthModel model(system);
    const int threads_per_node =
        static_cast<int>(system.topology().node(0).cores.size());
    bw::StreamSpec local;
    local.core = 0;
    local.source = ServiceSource::kLocalDram;
    local.source_node = 0;
    local.home_node = 0;
    local.latency_ns = costs.dram_local;
    std::vector<bw::StreamSpec> streams(
        static_cast<std::size_t>(threads_per_node), local);
    for (std::size_t i = 0; i < streams.size(); ++i) {
      streams[i].core = system.topology().node(0).cores[i];
    }
    const auto rates = model.concurrent(streams);
    costs.dram_bw_share = rates.front();

    bw::StreamSpec remote = local;
    remote.source = ServiceSource::kRemoteDram;
    remote.home_node = far_node;
    remote.source_node = far_node;
    remote.latency_ns = costs.dram_remote;
    remote.stale_directory = config.snoop_mode == SnoopMode::kCod;
    std::vector<bw::StreamSpec> remote_streams(
        static_cast<std::size_t>(threads_per_node), remote);
    for (std::size_t i = 0; i < remote_streams.size(); ++i) {
      remote_streams[i].core = system.topology().node(0).cores[i];
    }
    const auto remote_rates = model.concurrent(remote_streams);
    costs.remote_bw_share = remote_rates.front();
  }
  return costs;
}

const std::vector<AppProfile>& spec_omp2012() {
  static const std::vector<AppProfile> apps = make_omp2012();
  return apps;
}

const std::vector<AppProfile>& spec_mpi2007() {
  static const std::vector<AppProfile> apps = make_mpi2007();
  return apps;
}

AppRunResult estimate_runtime(const AppProfile& app,
                              const MachineCosts& costs) {
  // Effective per-line DRAM service time: latency hidden by the app's MLP,
  // floored by the thread's fair bandwidth share when it streams.
  // `pressure` scales how much of the thread's streaming intensity actually
  // lands on this path: a 90%-local app only puts 10% of its stream on QPI,
  // so it rarely saturates its cross-socket share.
  auto dram_time = [&](double latency, double bw_share, double pressure) {
    const double latency_limited = latency / std::max(app.mlp, 1.0);
    const double bw_limited = 64.0 / std::max(bw_share, 0.1);
    return std::max(latency_limited,
                    app.bandwidth_bound * pressure * bw_limited);
  };

  const double f_l1 =
      std::max(0.0, 1.0 - app.f_l2 - app.f_l3 - app.f_dram - app.sharing);
  const double mem_op =
      f_l1 * costs.l1 + app.f_l2 * costs.l2 + app.f_l3 * costs.l3 +
      app.f_dram *
          (app.numa_locality * dram_time(costs.dram_local,
                                         costs.dram_bw_share,
                                         app.numa_locality) +
           (1.0 - app.numa_locality) *
               dram_time(costs.dram_remote, costs.remote_bw_share,
                         1.0 - app.numa_locality)) +
      app.sharing * costs.shared_line;

  const double compute = app.compute_fraction /
                         (1.0 - app.compute_fraction) * kReferenceMemOpNs;
  return AppRunResult{.runtime = compute + mem_op,
                      .memory_time = mem_op,
                      .sharing_time = app.sharing * costs.shared_line};
}

}  // namespace hsw
