// Traced twins of the library calls that compose several layers.
//
// measure_latency, measure_bandwidth and replay_concurrent each run several
// layers in one call.  The traced run drives the same steps through the
// layers' own public calls, one span per layer, and the caller checks that
// the twin reproduces the composed call's result bit for bit.  These
// functions mirror core/latency.cpp, core/bandwidth.cpp and
// workload/trace.cpp; a change there that alters results shows up as a
// traced-run digest mismatch, not as a silent drift.
#pragma once

#include "core/bandwidth.h"
#include "core/latency.h"
#include "core/sweep.h"
#include "exec/engine.h"
#include "machine/system.h"
#include "spans.h"
#include "workload/trace.h"

namespace perfbench {

// The per-point LatencyConfig latency_sweep_point builds (exact sampling).
hsw::LatencyConfig sweep_point_config(const hsw::LatencySweepConfig& sweep,
                                      std::uint64_t bytes);

// System construction, placement, chase and destruction in spans; the
// result matches hsw::measure_latency on a fresh System(system).
hsw::LatencyResult traced_latency(const hsw::SystemConfig& system,
                                  const hsw::LatencyConfig& config,
                                  Spans& spans);

// Placement, probes, bw model and closed loops in spans; matches
// hsw::measure_bandwidth (kSimulated) on a fresh System(system), and
// `totals` receives that System's counters at the end.
hsw::BandwidthResult traced_bandwidth(const hsw::SystemConfig& system,
                                      const hsw::BandwidthConfig& config,
                                      Spans& spans,
                                      hsw::CounterSet::Snapshot* totals);

// Program split and exec::run_programs in spans; matches
// hsw::replay_concurrent on a fresh System(system).
hsw::exec::ProgramExecStats traced_replay(
    const hsw::SystemConfig& system, const hsw::Trace& trace,
    const hsw::ConcurrentReplayConfig& config, Spans& spans);

// Folds a latency result into the op's access count, counters and digest.
void record_latency(OpResult& out, const hsw::LatencyResult& result);

}  // namespace perfbench
