// Event-driven concurrent execution engine.
//
// The analytic bandwidth model (bw/model.h + bw/solver.h) is a fluid
// approximation: per-stream MLP-limited demands pushed through a max-min
// solver.  This module makes multi-core bandwidth and contention *emerge*
// from simulation instead: each core keeps a bounded window of outstanding
// misses (its MLP), every in-flight line visits the shared boxes on its
// path — ring stop, home agent / iMC channel, QPI link, inter-ring bridge —
// as FIFO servers with deterministic per-line service times, and
// back-pressure at a saturated box is what flattens the aggregate curve.
//
// Two entry points share that machinery:
//
//  * run_closed_loop() — saturated streaming: each stream is a closed loop
//    of request slots calibrated so its unloaded throughput equals the
//    MLP-limited demand exactly; contention then shows up as queueing.
//    `measure_bandwidth` uses it for BandwidthEngine::kSimulated, feeding
//    the *same* flows over the *same* resources as the analytic solver
//    (bw::BandwidthModel::flow_for / capacities), so the two engines can be
//    cross-checked point-for-point (validate_bw_model).
//
//  * run_programs() — true interleaving: per-core op sequences execute
//    against the real CoherenceEngine, so line ownership migrates,
//    directories update, and ping-pong / lock contention / false sharing
//    behave as protocol phenomena, not as fitted rates.  Ops issue in
//    event-time order; each access's resource path is derived from where
//    the engine actually serviced it.
//
// Everything is single-threaded on sim/event_kernel.h's EventKernel with
// the (timestamp, core, seq) tie-break, so a run is a pure function of its
// inputs — the byte-identical CSV/trace/metrics guarantees of the sweep
// harness carry over to simulated mode unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bw/model.h"
#include "core/instrumentation.h"
#include "machine/system.h"

namespace hsw::exec {

// --- closed-loop streaming ---------------------------------------------------

// One core's saturated stream: the MLP-limited standalone rate it would
// sustain alone, its unloaded per-line latency, and the shared resources on
// its path (indices into the capacity vector, weights = protocol bytes per
// payload byte).  Build it from bw::BandwidthModel::flow_for so both
// engines argue about the same flows.
struct StreamTask {
  int core = 0;
  double demand_gbps = 0.0;
  double latency_ns = 0.0;  // unloaded round trip per line (probe-measured)
  std::vector<bw::Flow::Use> path;
};

struct ClosedLoopConfig {
  // Measurement window (ns); throughput is counted over it after a warmup
  // of window/4.  The default keeps quantization error below 0.1% at
  // single-GB/s rates while a full Fig. 8 sweep stays interactive.
  double window_ns = 100'000.0;
  // Optional per-resource queueing telemetry (obs/resource_stats.h): one
  // on_service() per (request, resource) visit, one null-pointer test when
  // detached.  The closed loops have no System, so this is the only member
  // of the usual InstrumentationScope that applies here; callers with a
  // full scope (measure_bandwidth) pass scope.resstats through.  The
  // recorder must be fresh (one recorder accounts one run) — the engine
  // binds it to the capacity vector and finalizes it before returning.
  obs::ResourceStatsRecorder* resstats = nullptr;
};

struct ClosedLoopResult {
  std::vector<double> gbps;           // per task
  double total_gbps = 0.0;
  std::uint64_t lines_retired = 0;
  // Mean per-line queueing delay (waiting for busy resources, ns) — zero
  // when the task's path is uncontended.
  std::vector<double> mean_queue_ns;
  // Always-on per-resource busy residency over the whole run (indexed like
  // `capacities_gbps`) and the run length it is measured against — enough
  // to name each stream's bottleneck without attaching a recorder.
  std::vector<double> resource_busy_ns;
  double elapsed_ns = 0.0;
};

// Simulates the closed loops over shared FIFO resources.  Each task runs
// ceil(demand * cycle / 64) request slots with an idle pad calibrated so its
// unloaded rate equals `demand_gbps` exactly; `capacities_gbps` is indexed
// like StreamTask::path resources (bw::BandwidthModel::capacities()).
// Deterministic: same inputs, same result, independent of caller threading.
ClosedLoopResult run_closed_loop(const std::vector<StreamTask>& tasks,
                                 const std::vector<double>& capacities_gbps,
                                 const ClosedLoopConfig& config = {});

// --- concurrent program execution --------------------------------------------

enum class OpKind : std::uint8_t { kRead, kWrite, kFlush };

struct Op {
  OpKind kind = OpKind::kRead;
  PhysAddr addr = 0;
};

// One core's ordered op sequence.  Program order is preserved per core;
// cross-core order is whatever the event clock produces.
struct Program {
  int core = 0;
  std::vector<Op> ops;
};

struct ProgramExecConfig {
  // Outstanding misses per core (the MLP window).  1 reproduces the serial
  // dependent-load behaviour; 10 approximates a Haswell core's line-fill
  // capacity.
  int window = 10;
  // Minimum spacing between issue slots of one core (ns); one 2.5 GHz cycle
  // by default, so same-timestamp bursts from different cores interleave.
  double issue_ns = 0.4;
  // Resource capacities and protocol weights (same calibration as the
  // analytic model).
  bw::BwParams model;
  // Tracer/metrics attached around the whole run; the engine-counter delta
  // lands in ProgramExecStats::counters.
  InstrumentationScope instrumentation;
};

struct CoreExecStats {
  int core = 0;
  std::uint64_t accesses = 0;
  std::uint64_t flushes = 0;
  double access_ns = 0.0;   // summed unloaded access latencies
  double queue_ns = 0.0;    // summed waiting-for-resource delays
  double finish_ns = 0.0;   // completion time of the core's last op
  std::array<std::uint64_t, 7> by_source{};  // indexed by ServiceSource

  [[nodiscard]] double mean_access_ns() const {
    return accesses ? access_ns / static_cast<double>(accesses) : 0.0;
  }
};

struct ProgramExecStats {
  double makespan_ns = 0.0;  // completion time of the last op overall
  std::uint64_t accesses = 0;
  std::uint64_t flushes = 0;
  double access_ns = 0.0;
  double queue_ns = 0.0;
  // Lines moved per wall-clock: accesses * 64 B / makespan.
  double aggregate_gbps = 0.0;
  std::array<std::uint64_t, 7> by_source{};
  CounterSet::Snapshot counters{};
  std::vector<CoreExecStats> per_core;

  [[nodiscard]] double mean_access_ns() const {
    return accesses ? access_ns / static_cast<double>(accesses) : 0.0;
  }
  [[nodiscard]] double source_fraction(ServiceSource s) const {
    return accesses ? static_cast<double>(
                          by_source[static_cast<std::size_t>(s)]) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
};

// Interleaves the programs through `system`'s coherence engine under MLP
// back-pressure and shared-resource queueing.  Accesses mutate engine state
// at issue, in event-time order with the (timestamp, core, seq) tie-break,
// so the run is deterministic.  Flushes execute at issue, cost no latency,
// and do not occupy a window slot (clflush retires asynchronously).
ProgramExecStats run_programs(System& system,
                              const std::vector<Program>& programs,
                              const ProgramExecConfig& config = {});

}  // namespace hsw::exec
