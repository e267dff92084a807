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
  config.sampling.validate();
  const std::uint64_t bytes = config.sizes.at(index);
  // Under set-sampling the point runs on the scaled machine (every cache
  // keeps 1/2^k of its sets) against the equally scaled buffer; the means
  // estimate the full point, counters are scaled back to full-population
  // estimates below.  An inactive plan (ratio = 1, or a point below the
  // sampled-bytes floor) leaves everything untouched.
  const SamplingPlan plan = config.sampling.plan(bytes);
  SystemConfig machine = config.system;
  machine.geometry = plan.scaled(machine.geometry);
  System system(machine);
  // Latency points drive no FIFO servers, so they run no resource recorder.
  ObserverSet set = config.trace.observe;
  set.resources = false;
  PointObservers observers =
      point_observers(config.trace, set, machine.protocol, index);
  LatencyConfig lc;
  lc.reader_core = config.reader_core;
  lc.placement = config.placement;
  lc.placement.level = CacheLevel::kL1L2;  // natural level by capacity
  lc.buffer_bytes = plan.scaled_bytes(bytes);
  lc.max_measured_lines = plan.scaled_measured_lines(config.max_measured_lines);
  lc.seed = plan.active() ? config.sampling.mix_seed(config.seed) : config.seed;
  lc.instrumentation = observers.scope();
  LatencySweepPoint point{bytes, measure_latency(system, lc)};
  plan.scale_counters(point.result.counters);
  if (config.trace.hubs != nullptr) observers.absorb_into(*config.trace.hubs);
  return point;
}

std::vector<LatencySweepPoint> latency_sweep(const LatencySweepConfig& config) {
  check_level_unset(config.placement);
  std::vector<LatencySweepPoint> points(config.sizes.size());
  ThreadPool pool(config.jobs);
  parallel_for_indexed(pool, config.sizes.size(), [&](std::size_t i) {
    points[i] = latency_sweep_point(config, i);
  });
  return points;
}

BandwidthSweepPoint bandwidth_sweep_point(const BandwidthSweepConfig& config,
                                          std::size_t index) {
  config.sampling.validate();
  const std::uint64_t bytes = config.sizes.at(index);
  // Same scaled-machine scheme as latency_sweep_point; rates derive from
  // probe means and the unscaled bandwidth model, so they need no
  // rescaling.
  const SamplingPlan plan = config.sampling.plan(bytes);
  SystemConfig machine = config.system;
  machine.geometry = plan.scaled(machine.geometry);
  System system(machine);
  PointObservers observers = point_observers(
      config.trace, config.trace.observe, machine.protocol, index);
  BandwidthConfig bc;
  StreamConfig stream = config.stream;
  stream.placement.level = CacheLevel::kL1L2;
  bc.streams = {stream};
  bc.buffer_bytes = plan.scaled_bytes(bytes);
  bc.seed = plan.active() ? config.sampling.mix_seed(config.seed) : config.seed;
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
  check_level_unset(config.stream.placement);
  std::vector<BandwidthSweepPoint> points(config.sizes.size());
  ThreadPool pool(config.jobs);
  parallel_for_indexed(pool, config.sizes.size(), [&](std::size_t i) {
    points[i] = bandwidth_sweep_point(config, i);
  });
  return points;
}

}  // namespace hsw
