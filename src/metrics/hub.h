// The metrics counterpart of the other observers' merges: MetricsHub is
// the generic StreamHub (util/stream_hub.h) over per-point registries, and
// merge_streams() is its fold — counters, meters (double summation order
// included), and the (stream, seq)-sorted sample series come out
// byte-identical for any --jobs.
#pragma once

#include <span>
#include <vector>

#include "metrics/registry.h"
#include "util/stream_hub.h"

namespace hsw::metrics {

struct MergedMetrics {
  std::uint64_t accesses = 0;
  std::size_t streams = 0;
  std::array<std::uint64_t, kMCtrCount> counters{};
  // Element-wise sum of the final per-stream censuses (for a single-stream
  // run: the machine's final structural state).
  std::array<std::int64_t, kMGaugeCount> gauges{};
  std::array<double, kMMeterCount> meters{};
  std::array<LogHistogram, kMHistCount> histograms{};
  std::array<std::vector<std::uint64_t>, kMFamilyCount> families{};
  CounterSet::Snapshot engine{};
  std::vector<MetricsSample> samples;  // sorted by (stream, seq)
};

[[nodiscard]] MergedMetrics merge_streams(
    std::span<const MetricsRegistry* const> in_stream_order);

using MetricsHub = StreamHub<MetricsRegistry>;

}  // namespace hsw::metrics
