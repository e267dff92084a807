#include "metrics/hub.h"

namespace hsw::metrics {

MergedMetrics merge_streams(
    std::span<const MetricsRegistry* const> in_stream_order) {
  MergedMetrics out;
  out.streams = in_stream_order.size();
  for (const MetricsRegistry* r : in_stream_order) {
    out.accesses += r->accesses();
    for (std::size_t i = 0; i < kMCtrCount; ++i) {
      out.counters[i] += r->counters()[i];
    }
    for (std::size_t i = 0; i < kMGaugeCount; ++i) {
      out.gauges[i] += r->gauges()[i];
    }
    for (std::size_t i = 0; i < kMMeterCount; ++i) {
      out.meters[i] += r->meters()[i];
    }
    for (std::size_t i = 0; i < kMHistCount; ++i) {
      out.histograms[i].merge(r->histograms()[i]);
    }
    for (std::size_t i = 0; i < kMFamilyCount; ++i) {
      const auto& src = r->families()[i];
      auto& dst = out.families[i];
      if (dst.size() < src.size()) dst.resize(src.size(), 0);
      for (std::size_t j = 0; j < src.size(); ++j) dst[j] += src[j];
    }
    for (std::size_t i = 0; i < out.engine.size(); ++i) {
      out.engine[i] += r->engine_counters()[i];
    }
    for (MetricsSample sample : r->samples()) {
      sample.stream = r->stream();
      out.samples.push_back(sample);
    }
  }
  // Per-registry samples are already seq-ordered; registries were folded in
  // stream order, so the series is sorted by (stream, seq) by construction.
  return out;
}

}  // namespace hsw::metrics
