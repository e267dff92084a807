#include "observers.h"

#include <filesystem>
#include <system_error>

#include "metrics/report.h"

namespace perfbench {

PointObservers::PointObservers(const ObserverSet& set, hsw::Protocol protocol,
                               std::uint32_t stream) {
  if (set.attribution) {
    tracer_.emplace(hsw::trace::Tracer::Mode::kAttribution, stream);
  }
  if (set.metrics) registry_.emplace(stream);
  if (set.linestats) recorder_.emplace(protocol, stream);
}

hsw::InstrumentationScope PointObservers::scope() {
  hsw::InstrumentationScope scope;
  scope.tracer = tracer_ ? &*tracer_ : nullptr;
  scope.metrics = registry_ ? &*registry_ : nullptr;
  scope.linestats = recorder_ ? &*recorder_ : nullptr;
  return scope;
}

void PointObservers::absorb_into(ObservedHubs& hubs) {
  if (registry_) hubs.metrics.absorb(std::move(*registry_));
  if (recorder_) hubs.linestats.absorb(std::move(*recorder_));
  registry_.reset();
  recorder_.reset();
}

std::uint64_t render_report(const ObservedHubs& hubs, const std::string& path,
                            std::uint64_t seed) {
  hsw::metrics::ReportManifest manifest;
  manifest.tool = "perfbench";
  manifest.config = "observed_sweep";
  manifest.seed = seed;
  manifest.jobs = 1;
  manifest.git = "none";
  const std::string linestats =
      hsw::obs::render_linestats_section(hubs.linestats.merged());
  if (!hsw::metrics::write_report(path, manifest, hubs.metrics.merged(),
                                  linestats)) {
    return 0;
  }
  std::error_code error;
  const std::uintmax_t bytes = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::uint64_t>(bytes);
}

std::map<std::string, std::uint64_t> counters_by_name(
    const hsw::CounterSet::Snapshot& totals) {
  hsw::CounterSet set;
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const auto c = static_cast<hsw::Ctr>(i);
    set.bump(c, totals[i]);
    out["ctr." + std::string(hsw::ctr_name(c))] = 0;  // named() omits zeros
  }
  for (const auto& [name, value] : set.named()) out["ctr." + name] = value;
  return out;
}

}  // namespace perfbench
