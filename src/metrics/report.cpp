#include "metrics/report.h"

#include <cstdio>
#include <string>
#include <vector>

#include "util/json.h"

namespace hsw::metrics {
namespace {

using json::appendf;

std::string escape(const std::string& s) { return json::escape(s); }

// `    "name": {`, one `      "<key_of(i)>": <value>` member per index (the
// value appended by append_value), then `    },`.
template <class KeyOf, class AppendValue>
void named_object(std::string& out, const char* name, std::size_t count,
                  KeyOf key_of, AppendValue append_value) {
  appendf(out, "    \"%s\": {\n", name);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string_view key = key_of(i);
    appendf(out, "      \"%.*s\": ", static_cast<int>(key.size()), key.data());
    append_value(i);
    appendf(out, "%s\n", i + 1 < count ? "," : "");
  }
  appendf(out, "    },\n");
}

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
  std::string out;
  appendf(out,
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
          manifest.quick ? "true" : "false", escape(manifest.git).c_str());
  return out;
}

std::string render_metrics_section(const MergedMetrics& m) {
  std::string out;
  out.reserve(8192 + 128 * m.samples.size());
  appendf(out, "  \"metrics\": {\n");
  appendf(out, "    \"accesses\": %llu,\n",
          static_cast<unsigned long long>(m.accesses));
  appendf(out, "    \"streams\": %zu,\n", m.streams);

  // Every name, zeros included: a report's schema must not depend on which
  // paths a run happened to exercise.
  named_object(
      out, "counters", kMCtrCount,
      [](std::size_t i) { return to_string(static_cast<MCtr>(i)); },
      [&](std::size_t i) {
        appendf(out, "%llu", static_cast<unsigned long long>(m.counters[i]));
      });
  named_object(
      out, "engine_counters", kCtrCount,
      [](std::size_t i) { return ctr_name(static_cast<Ctr>(i)); },
      [&](std::size_t i) {
        appendf(out, "%llu", static_cast<unsigned long long>(m.engine[i]));
      });
  named_object(
      out, "meters", kMMeterCount,
      [](std::size_t i) { return to_string(static_cast<MMeter>(i)); },
      [&](std::size_t i) { appendf(out, "%.6f", m.meters[i]); });
  named_object(
      out, "families", kMFamilyCount,
      [](std::size_t i) { return to_string(static_cast<MFamily>(i)); },
      [&](std::size_t i) {
        appendf(out, "[");
        for (std::size_t j = 0; j < m.families[i].size(); ++j) {
          appendf(out, "%s%llu", j == 0 ? "" : ", ",
                  static_cast<unsigned long long>(m.families[i][j]));
        }
        appendf(out, "]");
      });

  appendf(out, "    \"histograms\": {\n");
  for (std::size_t i = 0; i < kMHistCount; ++i) {
    const std::string_view name = to_string(static_cast<MHist>(i));
    const LogHistogram& hist = m.histograms[i];
    appendf(out, "      \"%.*s\": {\n        \"total\": %llu,\n"
            "        \"buckets\": [",
            static_cast<int>(name.size()), name.data(),
            static_cast<unsigned long long>(hist.total()));
    bool first = true;
    hist.for_each_bucket([&](int key, std::uint64_t count) {
      appendf(out,
              "%s\n          {\"lo\": %.6f, \"hi\": %.6f, \"count\": %llu}",
              first ? "" : ",", LogHistogram::bucket_lower(key),
              LogHistogram::bucket_upper(key),
              static_cast<unsigned long long>(count));
      first = false;
    });
    appendf(out, "%s]\n      }%s\n", first ? "" : "\n        ",
            i + 1 < kMHistCount ? "," : "");
  }
  appendf(out, "    },\n");

  named_object(
      out, "gauges", kMGaugeCount,
      [](std::size_t i) { return to_string(static_cast<MGauge>(i)); },
      [&](std::size_t i) {
        appendf(out, "%lld", static_cast<long long>(m.gauges[i]));
      });

  // The time series: a compact gauge-name legend once, then per-sample
  // value rows aligned with it.
  appendf(out, "    \"sample_gauges\": [");
  for (std::size_t i = 0; i < kMGaugeCount; ++i) {
    const std::string_view name = to_string(static_cast<MGauge>(i));
    appendf(out, "%s\"%.*s\"", i == 0 ? "" : ", ",
            static_cast<int>(name.size()), name.data());
  }
  appendf(out, "],\n");
  appendf(out, "    \"samples\": [");
  for (std::size_t s = 0; s < m.samples.size(); ++s) {
    const MetricsSample& sample = m.samples[s];
    appendf(out,
            "%s\n      {\"stream\": %u, \"seq\": %llu, \"access\": %llu, "
            "\"g\": [",
            s == 0 ? "" : ",", sample.stream,
            static_cast<unsigned long long>(sample.seq),
            static_cast<unsigned long long>(sample.access));
    for (std::size_t i = 0; i < kMGaugeCount; ++i) {
      appendf(out, "%s%lld", i == 0 ? "" : ", ",
              static_cast<long long>(sample.gauges[i]));
    }
    appendf(out, "]}");
  }
  appendf(out, "%s]\n  }", m.samples.empty() ? "" : "\n    ");
  return out;
}

bool write_report(const std::string& path, const ReportManifest& manifest,
                  std::span<const std::string> sections) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "report: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"hswsim_report_version\": %d,\n%s", kReportVersion,
               render_manifest(manifest).c_str());
  for (const std::string& section : sections) {
    std::fprintf(f, ",\n%s", section.c_str());
  }
  std::fprintf(f, "\n}\n");
  const bool io_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || io_error) {
    std::fprintf(stderr, "report: write to '%s' failed\n", path.c_str());
    return false;
  }
  return true;
}

bool write_report(const std::string& path, const ReportManifest& manifest,
                  const MergedMetrics& merged,
                  const std::string& extra_section) {
  std::vector<std::string> sections{render_metrics_section(merged)};
  if (!extra_section.empty()) sections.push_back(extra_section);
  return write_report(path, manifest, sections);
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
  // Only the schema version this binary understands: an older or future
  // document must be refused, not misread.
  const auto it = out->find("hswsim_report_version");
  return it != out->end() && it->second == std::to_string(kReportVersion)
             ? ReportLoadError::kOk
             : ReportLoadError::kUnknownVersion;
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
