#include "metrics/report.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/json.h"

namespace hsw::metrics {
namespace {

// Fixed float formatting (same discipline as the trace exporters): %.6f is
// deterministic across platforms for the magnitudes we emit.
std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", value);
  return buf;
}

std::string escape(const std::string& s) { return json::escape(s); }

}  // namespace

std::string git_describe() {
  std::FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[256] = {};
  std::string out;
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

std::string render_manifest(const ReportManifest& manifest) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "  \"manifest\": {\n"
                "    \"tool\": \"%s\",\n"
                "    \"config\": \"%s\",\n"
                "    \"protocol\": \"%s\",\n"
                "    \"timing_hash\": \"%s\",\n"
                "    \"seed\": %llu,\n"
                "    \"jobs\": %u,\n"
                "    \"quick\": %s,\n"
                "    \"git\": \"%s\"\n"
                "  }",
                escape(manifest.tool).c_str(), escape(manifest.config).c_str(),
                escape(manifest.protocol).c_str(),
                escape(manifest.timing_hash).c_str(),
                static_cast<unsigned long long>(manifest.seed), manifest.jobs,
                manifest.quick ? "true" : "false",
                escape(manifest.git).c_str());
  return buf;
}

bool write_report(const std::string& path, const ReportManifest& manifest,
                  const MergedMetrics& m, const std::string& extra_section) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics report: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }

  std::fprintf(f, "{\n  \"hswsim_metrics_version\": %d,\n", kReportVersion);
  std::fprintf(f, "%s,\n", render_manifest(manifest).c_str());
  if (!extra_section.empty()) {
    std::fprintf(f, "%s,\n", extra_section.c_str());
  }
  std::fprintf(f, "  \"accesses\": %llu,\n",
               static_cast<unsigned long long>(m.accesses));
  std::fprintf(f, "  \"streams\": %zu,\n", m.streams);

  // Every counter, zeros included: a report's schema must not depend on
  // which paths a run happened to exercise.
  std::fprintf(f, "  \"counters\": {\n");
  for (std::size_t i = 0; i < kMCtrCount; ++i) {
    std::fprintf(f, "    \"%.*s\": %llu%s\n",
                 static_cast<int>(to_string(static_cast<MCtr>(i)).size()),
                 to_string(static_cast<MCtr>(i)).data(),
                 static_cast<unsigned long long>(m.counters[i]),
                 i + 1 < kMCtrCount ? "," : "");
  }
  std::fprintf(f, "  },\n");

  std::fprintf(f, "  \"engine_counters\": {\n");
  for (std::size_t i = 0; i < kCtrCount; ++i) {
    const std::string_view name = ctr_name(static_cast<Ctr>(i));
    std::fprintf(f, "    \"%.*s\": %llu%s\n", static_cast<int>(name.size()),
                 name.data(), static_cast<unsigned long long>(m.engine[i]),
                 i + 1 < kCtrCount ? "," : "");
  }
  std::fprintf(f, "  },\n");

  std::fprintf(f, "  \"meters\": {\n");
  for (std::size_t i = 0; i < kMMeterCount; ++i) {
    const std::string_view name = to_string(static_cast<MMeter>(i));
    std::fprintf(f, "    \"%.*s\": %s%s\n", static_cast<int>(name.size()),
                 name.data(), fmt(m.meters[i]).c_str(),
                 i + 1 < kMMeterCount ? "," : "");
  }
  std::fprintf(f, "  },\n");

  std::fprintf(f, "  \"families\": {\n");
  for (std::size_t i = 0; i < kMFamilyCount; ++i) {
    const std::string_view name = to_string(static_cast<MFamily>(i));
    std::fprintf(f, "    \"%.*s\": [", static_cast<int>(name.size()),
                 name.data());
    const auto& v = m.families[i];
    for (std::size_t j = 0; j < v.size(); ++j) {
      std::fprintf(f, "%s%llu", j == 0 ? "" : ", ",
                   static_cast<unsigned long long>(v[j]));
    }
    std::fprintf(f, "]%s\n", i + 1 < kMFamilyCount ? "," : "");
  }
  std::fprintf(f, "  },\n");

  std::fprintf(f, "  \"histograms\": {\n");
  for (std::size_t i = 0; i < kMHistCount; ++i) {
    const std::string_view name = to_string(static_cast<MHist>(i));
    const LogHistogram& hist = m.histograms[i];
    std::fprintf(f, "    \"%.*s\": {\n      \"total\": %llu,\n"
                 "      \"buckets\": [",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(hist.total()));
    bool first = true;
    for (const auto& [key, count] : hist.buckets()) {
      std::fprintf(f, "%s\n        {\"lo\": %s, \"hi\": %s, \"count\": %llu}",
                   first ? "" : ",", fmt(LogHistogram::bucket_lower(key)).c_str(),
                   fmt(LogHistogram::bucket_upper(key)).c_str(),
                   static_cast<unsigned long long>(count));
      first = false;
    }
    std::fprintf(f, "%s]\n    }%s\n", first ? "" : "\n      ",
                 i + 1 < kMHistCount ? "," : "");
  }
  std::fprintf(f, "  },\n");

  std::fprintf(f, "  \"gauges\": {\n");
  for (std::size_t i = 0; i < kMGaugeCount; ++i) {
    const std::string_view name = to_string(static_cast<MGauge>(i));
    std::fprintf(f, "    \"%.*s\": %lld%s\n", static_cast<int>(name.size()),
                 name.data(), static_cast<long long>(m.gauges[i]),
                 i + 1 < kMGaugeCount ? "," : "");
  }
  std::fprintf(f, "  },\n");

  // The time series: a compact gauge-name legend once, then per-sample
  // value rows aligned with it.
  std::fprintf(f, "  \"sample_gauges\": [");
  for (std::size_t i = 0; i < kMGaugeCount; ++i) {
    const std::string_view name = to_string(static_cast<MGauge>(i));
    std::fprintf(f, "%s\"%.*s\"", i == 0 ? "" : ", ",
                 static_cast<int>(name.size()), name.data());
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"samples\": [");
  for (std::size_t s = 0; s < m.samples.size(); ++s) {
    const MetricsSample& sample = m.samples[s];
    std::fprintf(f, "%s\n    {\"stream\": %u, \"seq\": %llu, \"access\": %llu, \"g\": [",
                 s == 0 ? "" : ",", sample.stream,
                 static_cast<unsigned long long>(sample.seq),
                 static_cast<unsigned long long>(sample.access));
    for (std::size_t i = 0; i < kMGaugeCount; ++i) {
      std::fprintf(f, "%s%lld", i == 0 ? "" : ", ",
                   static_cast<long long>(sample.gauges[i]));
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "%s]\n}\n", m.samples.empty() ? "" : "\n  ");

  const bool io_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || io_error) {
    std::fprintf(stderr, "metrics report: write to '%s' failed\n",
                 path.c_str());
    return false;
  }
  return true;
}

ReportLoadError load_report_flat(const std::string& path,
                                 std::map<std::string, std::string>* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return ReportLoadError::kUnreadable;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  if (!json::parse_flat(text, out)) return ReportLoadError::kMalformed;
  // Any report flavour qualifies, but only at the schema version this
  // binary understands: a future version must be refused, not misread.
  const std::string expected = std::to_string(kReportVersion);
  for (const char* key : {"hswsim_metrics_version", "hswsim_linestats_version",
                          "hswsim_resources_version"}) {
    const auto it = out->find(key);
    if (it != out->end()) {
      return it->second == expected ? ReportLoadError::kOk
                                    : ReportLoadError::kUnknownVersion;
    }
  }
  return ReportLoadError::kUnknownVersion;
}

std::optional<std::map<std::string, std::string>> parse_report_flat(
    const std::string& path) {
  std::map<std::string, std::string> out;
  if (load_report_flat(path, &out) != ReportLoadError::kOk) {
    return std::nullopt;
  }
  return out;
}

}  // namespace hsw::metrics
