// The one place the benchmark wires hswsim observers, and reads engine
// counters by name.
//
// observed_sweep attaches the tracer (attribution mode), the metrics
// registry and the per-line flight recorder to every point, the way the
// figure benches do under --trace-attribution --metrics --linestats, and
// renders the merged report.  Every other workload runs detached.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "core/instrumentation.h"
#include "metrics/hub.h"
#include "obs/line_stats.h"
#include "sim/counters.h"
#include "trace/tracer.h"

namespace perfbench {

struct ObserverSet {
  bool attribution = false;
  bool metrics = false;
  bool linestats = false;
};
inline constexpr ObserverSet kAllObservers{true, true, true};

struct ObservedHubs {
  hsw::metrics::MetricsHub metrics;
  hsw::obs::LineStatsHub linestats;
};

// The observers of one measured point, on one stream id.
class PointObservers {
 public:
  PointObservers(const ObserverSet& set, hsw::Protocol protocol,
                 std::uint32_t stream);
  PointObservers(const PointObservers&) = delete;
  PointObservers& operator=(const PointObservers&) = delete;

  [[nodiscard]] hsw::InstrumentationScope scope();
  // Moves the registry and recorder into the hubs (after the point).
  void absorb_into(ObservedHubs& hubs);

 private:
  std::optional<hsw::trace::Tracer> tracer_;
  std::optional<hsw::metrics::MetricsRegistry> registry_;
  std::optional<hsw::obs::LineStatsRecorder> recorder_;
};

// Renders the merged metrics report with the line-stats section spliced in;
// returns its size in bytes (0 when it could not be written).
std::uint64_t render_report(const ObservedHubs& hubs, const std::string& path,
                            std::uint64_t seed);

// Every engine counter by perf name ("ctr." prefix), zeros included.
std::map<std::string, std::uint64_t> counters_by_name(
    const hsw::CounterSet::Snapshot& totals);

}  // namespace perfbench
