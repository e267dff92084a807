// Data-set-size sweeps: the x-axes of the paper's Figures 4-9.
//
// A sweep constructs a fresh System per point (measurements must not inherit
// cache or directory state from the previous size), places the buffer with
// the natural level (capacity decides which level holds the data, exactly as
// on hardware), and measures latency or bandwidth.
//
// Points are independent — each one owns its System — so sweeps run the
// size axis in parallel when `jobs > 1`.  Results land in slots indexed by
// position, making the output bit-identical to the serial path for any job
// count (the determinism the regression harness relies on).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/bandwidth.h"
#include "core/latency.h"
#include "core/observers.h"
#include "machine/system.h"

namespace hsw {

// Observer options shared by the sweep drivers.  Point `i` of `sizes` runs
// the observers of `observe` on stream id `stream_base + i` — derived from
// the point's position, never from scheduling, and distinct even when two
// sizes are equal — and absorbs them into `hubs` (thread-safe) as it
// finishes.  The hubs fold by stream id, so merged traces and reports are
// byte-identical for any `jobs` value.  Benches give each plan a disjoint
// stream_base (plan_index * kStreamsPerPlan).
struct SweepTraceOptions {
  // Attribution alone aggregates per-access component breakdowns into
  // LatencyResult::component_ns without retaining anything.
  ObserverSet observe;
  // Required when `observe` retains results (trace or a report observer).
  ObserverHubs* hubs = nullptr;
  std::uint32_t stream_base = 0;
};

inline constexpr std::uint32_t kStreamsPerPlan = 4096;

// Log-spaced sizes between min and max (inclusive): {1, 1.5}x powers of two,
// e.g. 16K, 24K, 32K, 48K, 64K ...
std::vector<std::uint64_t> sweep_sizes(std::uint64_t min_bytes,
                                       std::uint64_t max_bytes);

struct LatencySweepPoint {
  std::uint64_t bytes = 0;
  LatencyResult result;
};

struct LatencySweepConfig {
  SystemConfig system;
  int reader_core = 0;
  // The sweep overrides `placement.level` with kL1L2 ("natural"): the data
  // set's size, not a flush step, decides which level holds it — that is
  // the whole point of sweeping.  The field must be left at its default;
  // a sweep with an explicit level throws std::invalid_argument.  The
  // state/owner/sharers/node fields apply unchanged.
  Placement placement;
  std::vector<std::uint64_t> sizes;
  std::uint64_t max_measured_lines = 16384;
  std::uint64_t seed = 1;
  // Worker threads for the size axis; 1 = serial, 0 = hardware_concurrency.
  unsigned jobs = 1;
  SweepTraceOptions trace;
};

// Measures point `index` of `config.sizes` on a fresh System (the unit of
// work the parallel sweep and the bench fan-out both dispatch).  Throws
// std::invalid_argument for an explicit placement level and
// std::out_of_range for an index outside `sizes`.
LatencySweepPoint latency_sweep_point(const LatencySweepConfig& config,
                                      std::size_t index);

std::vector<LatencySweepPoint> latency_sweep(const LatencySweepConfig& config);

struct BandwidthSweepPoint {
  std::uint64_t bytes = 0;
  double gbps = 0.0;
  ServiceSource source = ServiceSource::kL1;
  // Simulated engine only: mean per-line queueing delay and the busiest
  // resource on the stream's path (empty / 0 under the analytic engine).
  double mean_queue_ns = 0.0;
  std::string bottleneck;
};

struct BandwidthSweepConfig {
  SystemConfig system;
  // `stream.placement.level` follows the same rule as the latency sweep:
  // it must stay at its default (the sweep forces the natural level).
  StreamConfig stream;
  std::vector<std::uint64_t> sizes;
  std::uint64_t seed = 1;
  bw::BwParams model;
  // Analytic (default) or event-driven simulated rates; see bandwidth.h.
  // Simulated points are deterministic too, so the jobs guarantee holds.
  BandwidthEngine engine = BandwidthEngine::kAnalytic;
  // Worker threads for the size axis; 1 = serial, 0 = hardware_concurrency.
  unsigned jobs = 1;
  SweepTraceOptions trace;
};

BandwidthSweepPoint bandwidth_sweep_point(const BandwidthSweepConfig& config,
                                          std::size_t index);

std::vector<BandwidthSweepPoint> bandwidth_sweep(const BandwidthSweepConfig& config);

}  // namespace hsw
