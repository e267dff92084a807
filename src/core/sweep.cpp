#include "core/sweep.h"

#include <stdexcept>

#include "sim/thread_pool.h"

namespace hsw {
namespace {

// Sweeps force the natural level; a caller that configured one explicitly
// would be silently overridden, so reject it loudly instead.
void check_level_unset(const Placement& placement) {
  if (placement.level != CacheLevel::kL1L2) {
    throw std::invalid_argument(
        "sweep placements must leave `level` at its default: the data-set "
        "size decides the level (see sweep.h)");
  }
}

// The observers of point `index`; `set` is the sweep's observer set less
// whatever the measurement kind cannot feed.
PointObservers point_observers(const SweepTraceOptions& trace,
                               const ObserverSet& set, Protocol protocol,
                               std::size_t index) {
  if (set.retains() && trace.hubs == nullptr) {
    throw std::invalid_argument(
        "sweep observers that retain results need SweepTraceOptions::hubs");
  }
  return PointObservers(set, protocol,
                        trace.stream_base + static_cast<std::uint32_t>(index));
}

}  // namespace

std::vector<std::uint64_t> sweep_sizes(std::uint64_t min_bytes,
                                       std::uint64_t max_bytes) {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t base = 1024; base <= max_bytes; base *= 2) {
    for (std::uint64_t size : {base, base + base / 2}) {
      if (size >= min_bytes && size <= max_bytes) sizes.push_back(size);
    }
  }
  return sizes;
}

LatencySweepPoint latency_sweep_point(const LatencySweepConfig& config,
                                      std::size_t index) {
  check_level_unset(config.placement);
  const std::uint64_t bytes = config.sizes.at(index);
  System system(config.system);
  // Latency points drive no FIFO servers, so they run no resource recorder.
  ObserverSet set = config.trace.observe;
  set.resources = false;
  PointObservers observers =
      point_observers(config.trace, set, config.system.protocol, index);
  LatencyConfig lc;
  lc.reader_core = config.reader_core;
  lc.placement = config.placement;  // natural level by capacity
  lc.buffer_bytes = bytes;
  lc.max_measured_lines = config.max_measured_lines;
  lc.seed = config.seed;
  lc.instrumentation = observers.scope();
  LatencySweepPoint point{bytes, measure_latency(system, lc)};
  if (config.trace.hubs != nullptr) observers.absorb_into(*config.trace.hubs);
  return point;
}

std::vector<LatencySweepPoint> latency_sweep(const LatencySweepConfig& config) {
  std::vector<LatencySweepPoint> points(config.sizes.size());
  ThreadPool pool(config.jobs);
  parallel_for_indexed(pool, config.sizes.size(), [&](std::size_t i) {
    points[i] = latency_sweep_point(config, i);
  });
  return points;
}

BandwidthSweepPoint bandwidth_sweep_point(const BandwidthSweepConfig& config,
                                          std::size_t index) {
  check_level_unset(config.stream.placement);
  const std::uint64_t bytes = config.sizes.at(index);
  System system(config.system);
  PointObservers observers = point_observers(
      config.trace, config.trace.observe, config.system.protocol, index);
  BandwidthConfig bc;
  bc.streams = {config.stream};
  bc.buffer_bytes = bytes;
  bc.seed = config.seed;
  bc.model = config.model;
  bc.engine = config.engine;
  bc.instrumentation = observers.scope();
  const BandwidthResult result = measure_bandwidth(system, bc);
  if (config.trace.hubs != nullptr) observers.absorb_into(*config.trace.hubs);
  BandwidthSweepPoint point;
  point.bytes = bytes;
  point.gbps = result.total_gbps;
  point.source = result.streams.front().source;
  point.mean_queue_ns = result.streams.front().queue_ns;
  point.bottleneck = result.streams.front().bottleneck;
  return point;
}

std::vector<BandwidthSweepPoint> bandwidth_sweep(
    const BandwidthSweepConfig& config) {
  std::vector<BandwidthSweepPoint> points(config.sizes.size());
  ThreadPool pool(config.jobs);
  parallel_for_indexed(pool, config.sizes.size(), [&](std::size_t i) {
    points[i] = bandwidth_sweep_point(config, i);
  });
  return points;
}

}  // namespace hsw
