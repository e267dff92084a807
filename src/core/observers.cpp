#include "core/observers.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

namespace hsw {

void add_observe_flags(CommandLine& cli, ObserveFlags* flags) {
  cli.add_string("observe", &flags->list,
                 "comma-separated report observers: metrics (uncore-PMU-style "
                 "counters, gauges, histograms), lines (per-line coherence "
                 "flight recorder: sharing patterns, state residency, "
                 "transition matrix), resources (per-resource queueing at "
                 "every ring stop, iMC channel, QPI link, and bridge; "
                 "simulated engine only); needs --report");
  cli.add_string("report", &flags->report,
                 "write the observers' report (one versioned JSON document, "
                 "a section per observer) to this file; inspect and diff it "
                 "with hswsim-report");
  cli.add_check([flags]() -> std::optional<std::string> {
    const std::string& list = flags->list;
    if (list.empty() != flags->report.empty()) {
      return "--observe and --report go together: name the observers and "
             "the report file they write";
    }
    for (std::size_t begin = 0; !list.empty() && begin <= list.size();) {
      const std::size_t end = std::min(list.find(',', begin), list.size());
      const std::string name = list.substr(begin, end - begin);
      bool* flag = name == "metrics"     ? &flags->set.metrics
                   : name == "lines"     ? &flags->set.lines
                   : name == "resources" ? &flags->set.resources
                                         : nullptr;
      if (flag == nullptr) {
        return "--observe: unknown observer '" + name +
               "' (expected a comma-separated list of metrics, lines, "
               "resources)";
      }
      *flag = true;
      begin = end + 1;
    }
    return std::nullopt;
  });
}

metrics::ReportManifest make_manifest(std::string tool, std::string config,
                                      Protocol protocol) {
  metrics::ReportManifest manifest;
  manifest.tool = std::move(tool);
  manifest.config = std::move(config);
  manifest.protocol = std::string(to_string(protocol));
  manifest.timing_hash = timing_fingerprint(TimingParams::haswell_ep(),
                                            to_string(protocol));
  manifest.git = metrics::git_describe();
  return manifest;
}

PointObservers::PointObservers(const ObserverSet& set, Protocol protocol,
                               std::uint32_t stream)
    : retain_trace_(set.trace) {
  if (set.tracer()) {
    tracer_.emplace(set.trace ? trace::Tracer::Mode::kFull
                              : trace::Tracer::Mode::kAttribution,
                    stream, set.trace_capacity);
  }
  if (set.metrics) metrics_.emplace(stream);
  if (set.lines) lines_.emplace(protocol, stream);
  if (set.resources) resources_.emplace(stream);
}

InstrumentationScope PointObservers::scope() {
  InstrumentationScope scope;
  scope.tracer = tracer_ ? &*tracer_ : nullptr;
  scope.metrics = metrics_ ? &*metrics_ : nullptr;
  scope.linestats = lines_ ? &*lines_ : nullptr;
  scope.resstats = resources_ ? &*resources_ : nullptr;
  return scope;
}

void PointObservers::absorb_into(ObserverHubs& hubs) {
  if (tracer_ && retain_trace_) hubs.trace.absorb(std::move(*tracer_));
  if (metrics_) hubs.metrics.absorb(std::move(*metrics_));
  if (lines_) hubs.lines.absorb(std::move(*lines_));
  if (resources_) hubs.resources.absorb(std::move(*resources_));
  tracer_.reset();
  metrics_.reset();
  lines_.reset();
  resources_.reset();
}

bool write_observer_report(const std::string& path,
                           const metrics::ReportManifest& manifest,
                           const ObserverHubs& hubs, const ObserverSet& set) {
  std::vector<std::string> sections;
  if (set.metrics) {
    sections.push_back(metrics::render_metrics_section(hubs.metrics.merged()));
  }
  if (set.lines) {
    sections.push_back(obs::render_linestats_section(hubs.lines.merged()));
  }
  if (set.resources) {
    const obs::MergedResourceStats merged = hubs.resources.merged();
    if (merged.streams == 0) {
      std::fprintf(stderr,
                   "note: report '%s' has an empty resources section — "
                   "per-resource telemetry is recorded by the simulated "
                   "bandwidth engine only\n",
                   path.c_str());
    }
    sections.push_back(obs::render_resources_section(merged));
  }
  return metrics::write_report(path, manifest, sections);
}

}  // namespace hsw
