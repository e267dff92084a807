// numa_tuning: should this workload enable Cluster-on-Die?
//
// Takes a workload description (how NUMA-local its memory accesses are, how
// much cross-thread sharing it does) and evaluates it under the three BIOS
// configurations, reporting the memory latencies/bandwidths the workload
// would see and a recommendation — the decision the paper's §IX guides
// administrators through.
//
//   $ ./numa_tuning --locality 0.9 --sharing 0.02
#include <cstdio>
#include <string>

#include "core/hswbench.h"
#include "util/cli.h"
#include "workload/apps.h"

int main(int argc, char** argv) {
  double locality = 0.9;
  double sharing = 0.02;
  double dram_fraction = 0.2;
  double bandwidth_bound = 0.5;
  hsw::CommandLine cli("numa_tuning: pick a coherence mode for a workload");
  cli.add_double("locality", &locality,
                 "fraction of DRAM accesses homed on the thread's own node");
  cli.add_double("sharing", &sharing,
                 "fraction of accesses to lines shared across nodes");
  cli.add_double("dram", &dram_fraction, "fraction of accesses going to DRAM");
  cli.add_double("bandwidth-bound", &bandwidth_bound,
                 "0 = latency bound, 1 = fully bandwidth bound");
  if (!cli.parse(argc, argv)) return 1;

  hsw::AppProfile profile;
  profile.name = "user workload";
  profile.suite = "custom";
  profile.compute_fraction = 0.4;
  profile.f_l2 = 0.1;
  profile.f_l3 = 0.1;
  profile.f_dram = dram_fraction;
  profile.numa_locality = locality;
  profile.sharing = sharing;
  profile.mlp = 4.0;
  profile.bandwidth_bound = bandwidth_bound;

  struct ModeRow {
    const char* label;
    hsw::SystemConfig config;
  };
  const ModeRow modes[] = {
      {"source snoop (default)", hsw::SystemConfig::source_snoop()},
      {"home snoop", hsw::SystemConfig::home_snoop()},
      {"cluster-on-die", hsw::SystemConfig::cluster_on_die()},
  };

  hsw::Table table({"configuration", "est. runtime", "vs default",
                    "memory ns/op", "sharing ns/op"});
  double baseline = 0.0;
  double best = 0.0;
  const char* best_label = modes[0].label;
  for (const ModeRow& mode : modes) {
    const hsw::AppRunResult r =
        hsw::estimate_runtime(profile, hsw::probe_machine(mode.config));
    if (baseline == 0.0) baseline = r.runtime;
    if (best == 0.0 || r.runtime < best) {
      best = r.runtime;
      best_label = mode.label;
    }
    char rel[32];
    std::snprintf(rel, sizeof rel, "%+.1f%%",
                  (r.runtime / baseline - 1.0) * 100.0);
    table.add_row({mode.label, hsw::cell(r.runtime, 1), rel,
                   hsw::cell(r.memory_time, 1), hsw::cell(r.sharing_time, 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nrecommendation: %s\n", best_label);
  std::printf(
      "rule of thumb (paper §IX): COD helps NUMA-aware, latency-sensitive\n"
      "codes; heavy cross-node sharing suffers from its three-node\n"
      "transactions; home snoop buys cross-socket bandwidth at the cost of\n"
      "local memory latency.\n");
  return 0;
}
