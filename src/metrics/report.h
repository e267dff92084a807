// The versioned run report: one JSON document per run, whichever observers
// ran.
//
//   {
//     "hswsim_report_version": 2,
//     "manifest": {...},          invocation + environment provenance
//     "metrics": {...},           render_metrics_section (this module)
//     "lines": {...},             obs::render_linestats_section
//     "resources": {...}          obs::render_resources_section
//   }
//
// Each observer module renders its own section, so metrics never links
// against obs; write_report() only splices the rendered sections after the
// manifest.  Field order and float formatting are fixed, so a report is
// byte-identical for any --jobs value — the observer determinism CTests
// compare them with `cmake -E compare_files` (manifest jobs line masked).
//
// load_report_flat() reads a report back as a flat "dotted.path" -> raw
// token map — enough for the hswsim-report views and differ and the tests,
// without a JSON dependency.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>

#include "metrics/hub.h"

namespace hsw::metrics {

inline constexpr int kReportVersion = 2;

struct ReportManifest {
  std::string tool;         // bench binary name
  std::string config;       // bench summary line
  // Coherence-protocol family the run simulated (mesif|mesi|moesi|dragon).
  // The differ refuses to compare reports across protocols without --force:
  // every engine counter changes meaning when the transition tables change.
  std::string protocol = "mesif";
  std::string timing_hash;  // fingerprint over all TimingParams constants
  std::uint64_t seed = 1;
  unsigned jobs = 0;
  bool quick = false;
  std::string git;  // `git describe` of the build tree, or "unknown"
};

// Best-effort `git describe --always --dirty` (reports must stay writable
// outside a work tree: falls back to "unknown").
[[nodiscard]] std::string git_describe();

// The rendered `"manifest": {...}` block (two-space base indent, no
// trailing comma/newline).
[[nodiscard]] std::string render_manifest(const ReportManifest& manifest);

// The `"metrics": {...}` section: merged counters, engine protocol
// counters, per-link/channel/stop families, histograms, final gauges, and
// the sampled gauge time series (same indent rules as render_manifest).
[[nodiscard]] std::string render_metrics_section(const MergedMetrics& merged);

// The one report writer: the version key, the manifest, then each
// pre-rendered section (`  "name": {...}`, no trailing comma) in order.
// False (with a stderr message) when the file cannot be opened or written.
[[nodiscard]] bool write_report(const std::string& path,
                                const ReportManifest& manifest,
                                std::span<const std::string> sections);

// A report of the metrics section plus, if nonempty, one more pre-rendered
// section.
[[nodiscard]] bool write_report(const std::string& path,
                                const ReportManifest& manifest,
                                const MergedMetrics& merged,
                                const std::string& extra_section = {});

// Why a report failed to load — callers that face users (hswsim-report)
// need to distinguish these; tests pin the exit codes.
enum class ReportLoadError {
  kOk,
  kUnreadable,      // missing file / open failure
  kMalformed,       // not JSON we can parse
  kUnknownVersion,  // parsed, but not an hswsim_report_version 2 document
};

// Flattens a report produced by write_report into dotted-path keys
// ("manifest.seed", "metrics.counters.HA_SNOOP_BYPASS",
// "lines.patterns.ping_pong", ...).  Values are raw JSON scalars: numbers
// verbatim, strings unescaped.  The map is filled for kUnknownVersion too,
// so a caller can name the version it found.
[[nodiscard]] ReportLoadError load_report_flat(
    const std::string& path, std::map<std::string, std::string>* out);

// Convenience wrapper: nullopt on any load error.
[[nodiscard]] std::optional<std::map<std::string, std::string>>
parse_report_flat(const std::string& path);

}  // namespace hsw::metrics
