// One observer pipeline for every measurement path (sweeps, the benches'
// BenchTrace, hswsim_cli).  Four recorders explain a simulated number: the
// tracer, the uncore metrics registry, the per-line flight recorder, and
// the per-resource queueing recorder.  ObserverSet names which ones a
// measured point runs; PointObservers owns them for one point on one
// stream id and hands the engine one InstrumentationScope; ObserverHubs is
// the set of StreamHubs (util/stream_hub.h) finished points are absorbed
// into; write_observer_report writes the one report document.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/instrumentation.h"
#include "metrics/report.h"
#include "obs/line_stats.h"
#include "obs/resource_stats.h"
#include "trace/sink.h"
#include "util/cli.h"

namespace hsw {

struct ObserverSet {
  // Tracer: `trace` retains span trees into ObserverHubs::trace;
  // `attribution` alone runs it in attribution mode (per-access component
  // breakdown only, nothing retained).
  bool trace = false;
  bool attribution = false;
  // The report observers (`--observe metrics,lines,resources`).  Resources
  // are recorded by the event-driven exec engine only.
  bool metrics = false;
  bool lines = false;
  bool resources = false;
  std::size_t trace_capacity = trace::Tracer::kDefaultCapacity;

  [[nodiscard]] bool tracer() const { return trace || attribution; }
  [[nodiscard]] bool reports() const { return metrics || lines || resources; }
  // Observers whose results land in a hub.
  [[nodiscard]] bool retains() const { return trace || reports(); }
};

// The `--observe LIST --report FILE` flag family of every bench and
// hswsim_cli subcommand.  LIST is comma-separated names from metrics,
// lines, resources; the two flags go together.
struct ObserveFlags {
  std::string list;
  std::string report;
  ObserverSet set;  // the report observers LIST names, once parsed
};

// Registers both flags on `cli`, with the check that parses them into
// `flags->set` (an unknown name or a lone flag is a parse error).
void add_observe_flags(CommandLine& cli, ObserveFlags* flags);

// A report manifest for a run of `tool` (`config` summarizes the run) on a
// `protocol` machine, with the timing-constant fingerprint and
// `git describe` filled in.
[[nodiscard]] metrics::ReportManifest make_manifest(std::string tool,
                                                    std::string config,
                                                    Protocol protocol);

// Thread-safe: sweep workers absorb finished points concurrently.
struct ObserverHubs {
  trace::TraceHub trace;
  metrics::MetricsHub metrics;
  obs::LineStatsHub lines;
  obs::ResourceStatsHub resources;
};

// All recorders of a point share its stream id, so the merged report and
// trace line up point for point.
class PointObservers {
 public:
  PointObservers(const ObserverSet& set, Protocol protocol,
                 std::uint32_t stream);
  PointObservers(const PointObservers&) = delete;
  PointObservers& operator=(const PointObservers&) = delete;

  [[nodiscard]] InstrumentationScope scope();
  // Moves every retained recorder into its hub (after the point).  An
  // attribution-only tracer retains nothing and is not absorbed.
  void absorb_into(ObserverHubs& hubs);

 private:
  bool retain_trace_;
  std::optional<trace::Tracer> tracer_;
  std::optional<metrics::MetricsRegistry> metrics_;
  std::optional<obs::LineStatsRecorder> lines_;
  std::optional<obs::ResourceStatsRecorder> resources_;
};

// The manifest, then the metrics, lines and resources sections of the
// observers `set` names.  False (with a stderr message) on a write error.
[[nodiscard]] bool write_observer_report(const std::string& path,
                                         const metrics::ReportManifest& manifest,
                                         const ObserverHubs& hubs,
                                         const ObserverSet& set);

}  // namespace hsw
