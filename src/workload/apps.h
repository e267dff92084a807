// Synthetic application models standing in for SPEC OMP2012 / SPEC MPI2007.
//
// The paper's Fig. 10 reports *relative runtime* of the SPEC suites under
// the three coherence configurations.  We cannot ship SPEC, so each
// application is modelled by its memory-access profile — the quantity that
// actually couples application performance to the coherence protocol.  The
// profiles are replayed against the simulator: per-access costs are probed
// once per configuration (so the protocol mode changes them exactly as it
// changes the microbenchmarks); a pure function composes them with a
// profile into a per-work-unit runtime.  Profile parameters were chosen to
// match each code's published characterisation (bandwidth-bound stencils,
// latency-bound irregular codes, sharing-heavy assembly/update phases in
// 362.fma3d and 371.applu331 — the two codes the paper singles out as
// COD-sensitive).
#pragma once

#include <string>
#include <vector>

#include "machine/system.h"

namespace hsw {

struct AppProfile {
  std::string name;
  std::string suite;  // "OMP2012" or "MPI2007"

  // Fraction of a work unit spent in pure compute (no memory dependence).
  double compute_fraction = 0.5;
  // Mix of the memory operations (fractions of all memory ops; remainder
  // after l2+l3+dram is L1-resident).
  double f_l2 = 0.1;
  double f_l3 = 0.1;
  double f_dram = 0.1;
  // Of the DRAM accesses, fraction homed on the thread's own NUMA node.
  // MPI ranks are ~fully local; non-NUMA-aware OpenMP codes are not.
  double numa_locality = 0.9;
  // Fraction of memory ops that read cache lines last written/forwarded by a
  // thread in another NUMA node (producer-consumer / reduction sharing).
  double sharing = 0.0;
  // Average memory-level parallelism of the DRAM accesses (1 = pointer
  // chasing, >6 = streaming with prefetch).
  double mlp = 4.0;
  // Per-thread streaming intensity: how close the code pushes its share of
  // the memory bandwidth (0 = latency bound, 1 = fully bandwidth bound).
  double bandwidth_bound = 0.3;
};

// The 14 SPEC OMP2012 application models.
[[nodiscard]] const std::vector<AppProfile>& spec_omp2012();
// The 13 SPEC MPI2007 application models.
[[nodiscard]] const std::vector<AppProfile>& spec_mpi2007();

struct AppRunResult {
  double runtime = 0.0;  // arbitrary units, comparable across configs
  double memory_time = 0.0;
  double sharing_time = 0.0;
};

// Per-access costs of one configuration, one thread per core (ns; GB/s).
struct MachineCosts {
  double l1;               // L1 hit
  double l2;               // L2 hit
  double l3;               // local L3 hit: own data evicted from core caches
  double dram_local;       // chase of cold lines homed on the own node
  double dram_remote;      // the same, homed on the farthest node
  double shared_line;      // read of a line forwarded by another node's cache
  double dram_bw_share;    // local DRAM per thread, all node cores streaming
  double remote_bw_share;  // remote DRAM over QPI per thread, likewise
};

// Probes `config` on fresh Systems: 4 latency probes, 2 bandwidth solves.
[[nodiscard]] MachineCosts probe_machine(const SystemConfig& config);

// Estimates the runtime of one work unit of `app` from `costs` alone (builds
// no System).  OMP2012 threads share data across the whole machine; MPI2007
// ranks only touch their own node's memory.
AppRunResult estimate_runtime(const AppProfile& app, const MachineCosts& costs);

}  // namespace hsw
