// hswsim-report: inspect and diff the --metrics / --linestats JSON reports.
//
//   hswsim-report show FILE              summary table of one report (plus
//                                        a listing of which sections the
//                                        file carries)
//   hswsim-report lines FILE             flight-recorder sharing summary +
//                                        top contended lines
//   hswsim-report transitions FILE       per-level state-transition matrix
//   hswsim-report bottlenecks FILE       per-resource queueing telemetry
//                                        ranked by utilization
//   hswsim-report diff A B [--rel R] [--abs A] [--force]
//
// diff compares every metric key tolerance-aware with the same cell
// machinery the golden-figure regression uses (src/check/golden.h):
// numeric values within rel/abs epsilon pass, everything else must match
// exactly.  Linestats keys (patterns, residency, the transition matrix,
// top lines) flatten to dotted keys and diff through the same path.
// Manifest fields are provenance, not metrics — differences are printed
// but do not fail the diff, with one exception: reports from different
// coherence-protocol families are refused outright (the engine counters
// change meaning across transition tables) unless --force is given.
// Exit 0 = reports match, 1 = metric mismatch, refused cross-protocol
// diff, or a missing/malformed/unknown-version report, 2 = usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "check/golden.h"
#include "metrics/report.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

using FlatReport = std::map<std::string, std::string>;

int usage() {
  std::fprintf(stderr,
               "usage: hswsim-report show FILE\n"
               "       hswsim-report lines FILE\n"
               "       hswsim-report transitions FILE\n"
               "       hswsim-report bottlenecks FILE\n"
               "       hswsim-report diff A B [--rel R] [--abs A] [--force]\n");
  return 2;
}

// Reports written before the protocol axis existed carry no manifest
// protocol; they could only have simulated MESIF.
[[nodiscard]] std::string protocol_of(const FlatReport& report) {
  const auto it = report.find("manifest.protocol");
  return it == report.end() ? std::string{"mesif"} : it->second;
}

// Loads and validates one report; 0 on success, 1 with a cause-specific
// message otherwise (CI greps these, so each failure mode names itself).
int load(const std::string& path, FlatReport* out) {
  using hsw::metrics::ReportLoadError;
  switch (hsw::metrics::load_report_flat(path, out)) {
    case ReportLoadError::kOk:
      return 0;
    case ReportLoadError::kUnreadable:
      std::fprintf(stderr,
                   "hswsim-report: cannot read '%s': no such file or not "
                   "readable\n",
                   path.c_str());
      return 1;
    case ReportLoadError::kMalformed:
      std::fprintf(stderr,
                   "hswsim-report: '%s' is not a valid report: malformed or "
                   "truncated JSON\n",
                   path.c_str());
      return 1;
    case ReportLoadError::kUnknownVersion:
      std::fprintf(stderr,
                   "hswsim-report: '%s' has an unknown report version "
                   "(expected hswsim_metrics_version, "
                   "hswsim_linestats_version, or hswsim_resources_version "
                   "= %d); regenerate the report with "
                   "this build\n",
                   path.c_str(), hsw::metrics::kReportVersion);
      return 1;
  }
  return 1;
}

[[nodiscard]] std::string lookup(const FlatReport& report,
                                 const std::string& key) {
  const auto it = report.find(key);
  return it == report.end() ? std::string{} : it->second;
}

// All report flavours share the version value; the key names the flavour.
[[nodiscard]] std::string version_of(const FlatReport& report) {
  for (const char* key : {"hswsim_metrics_version", "hswsim_linestats_version",
                          "hswsim_resources_version"}) {
    const std::string version = lookup(report, key);
    if (!version.empty()) return version;
  }
  return {};
}

// The flight-recorder section is present in --linestats reports and in
// --metrics reports from runs that also set --linestats.
[[nodiscard]] bool has_linestats(const FlatReport& report) {
  return !lookup(report, "linestats.hswsim_linestats_version").empty();
}

int require_linestats(const FlatReport& report, const std::string& path) {
  if (has_linestats(report)) return 0;
  std::fprintf(stderr,
               "hswsim-report: %s has no linestats section; rerun the bench "
               "with --linestats (or --metrics together with --linestats)\n",
               path.c_str());
  return 1;
}

// The resources section is present in --resstats reports and in --metrics
// reports from simulated-engine runs that also set --resstats.
[[nodiscard]] bool has_resources(const FlatReport& report) {
  return !lookup(report, "resources.hswsim_resources_version").empty();
}

int require_resources(const FlatReport& report, const std::string& path) {
  if (has_resources(report)) return 0;
  std::fprintf(stderr,
               "hswsim-report: %s has no resources section; rerun the bench "
               "with --engine simulated and --resstats (or --metrics "
               "together with --resstats)\n",
               path.c_str());
  return 1;
}

// `bottlenecks` view: every simulated FIFO resource ranked by busy-fraction
// utilization (ties broken by total queueing wait), so the saturated box —
// the bottleneck — tops the table.
int bottlenecks_view(const FlatReport& report, const std::string& path) {
  if (require_resources(report, path) != 0) return 1;
  std::printf("resource telemetry %s (%s streams, %s ns simulated)\n",
              path.c_str(), lookup(report, "resources.streams").c_str(),
              lookup(report, "resources.elapsed_ns").c_str());

  struct Item {
    double utilization = 0.0;
    double wait_total = 0.0;
    std::vector<std::string> cells;
  };
  std::vector<Item> items;
  for (int i = 0;; ++i) {
    const std::string prefix = "resources.items." + std::to_string(i) + ".";
    const std::string name = lookup(report, prefix + "name");
    if (name.empty()) break;
    Item item;
    item.utilization = std::atof(lookup(report, prefix + "utilization").c_str());
    item.wait_total = std::atof(lookup(report, prefix + "wait_total_ns").c_str());
    item.cells = {name,
                  lookup(report, prefix + "utilization"),
                  lookup(report, prefix + "capacity_gbps"),
                  lookup(report, prefix + "busy_ns"),
                  lookup(report, prefix + "services"),
                  lookup(report, prefix + "arrivals_per_us"),
                  lookup(report, prefix + "wait_mean_ns"),
                  lookup(report, prefix + "wait_max_ns"),
                  lookup(report, prefix + "depth_mean"),
                  lookup(report, prefix + "depth_max")};
    items.push_back(std::move(item));
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     if (a.utilization != b.utilization) {
                       return a.utilization > b.utilization;
                     }
                     return a.wait_total > b.wait_total;
                   });

  hsw::Table table({"resource", "utilization", "capacity GB/s", "busy ns",
                    "services", "arrivals/us", "wait mean ns", "wait max ns",
                    "depth mean", "depth max"});
  for (const Item& item : items) table.add_row(item.cells);
  std::printf("resources by utilization (bottleneck first)\n%s\n",
              table.to_string().c_str());
  return 0;
}

// `lines` view: sharing-pattern census, per-state L3 residency, and the
// top contended lines ranked by invalidations + forwards.
int lines_view(const FlatReport& report, const std::string& path) {
  if (require_linestats(report, path) != 0) return 1;
  std::printf(
      "line stats %s (protocol %s, %s streams, %s accesses, %s lines)\n",
      path.c_str(), lookup(report, "linestats.protocol").c_str(),
      lookup(report, "linestats.streams").c_str(),
      lookup(report, "linestats.accesses").c_str(),
      lookup(report, "linestats.lines_tracked").c_str());

  hsw::Table patterns({"sharing pattern", "lines"});
  for (const char* name : {"private", "read_shared", "migratory", "ping_pong",
                           "false_shared", "mixed"}) {
    patterns.add_row(
        {name, lookup(report, std::string("linestats.patterns.") + name)});
  }
  std::printf("%s\n", patterns.to_string().c_str());

  hsw::Table residency({"state", "L3 residency ns"});
  for (const char* state : {"I", "S", "F", "E", "M", "O"}) {
    residency.add_row(
        {state, lookup(report, std::string("linestats.residency_ns.") + state)});
  }
  std::printf("%s\n", residency.to_string().c_str());

  hsw::Table top({"line", "stream", "pattern", "cores", "reads", "writes",
                  "inval", "fwd", "upd", "contention"});
  for (int i = 0;; ++i) {
    const std::string prefix =
        "linestats.top_lines." + std::to_string(i) + ".";
    const std::string line = lookup(report, prefix + "line");
    if (line.empty()) break;
    top.add_row({line, lookup(report, prefix + "stream"),
                 lookup(report, prefix + "pattern"),
                 lookup(report, prefix + "cores"),
                 lookup(report, prefix + "reads"),
                 lookup(report, prefix + "writes"),
                 lookup(report, prefix + "invalidations"),
                 lookup(report, prefix + "forwards"),
                 lookup(report, prefix + "updates"),
                 lookup(report, prefix + "contention")});
  }
  std::printf("top contended lines (by invalidations + forwards)\n%s\n",
              top.to_string().c_str());
  return 0;
}

// `transitions` view: every nonzero (level, from-state, bus-op, to-state)
// cell of the transition matrix.  Keys sort lexicographically — stable
// across runs, so the output diffs cleanly.
int transitions_view(const FlatReport& report, const std::string& path) {
  if (require_linestats(report, path) != 0) return 1;
  std::printf("state transitions %s (protocol %s)\n", path.c_str(),
              lookup(report, "linestats.protocol").c_str());
  hsw::Table table({"level", "from", "op", "to", "count"});
  const std::string prefix = "linestats.transitions.";
  for (const auto& [key, value] : report) {
    if (!key.starts_with(prefix)) continue;
    // Key tail: LEVEL.FROM.OP.TO (e.g. "L3.M.SnoopRead.S").
    std::vector<std::string> parts;
    std::string rest = key.substr(prefix.size());
    std::size_t pos = 0;
    while ((pos = rest.find('.')) != std::string::npos) {
      parts.push_back(rest.substr(0, pos));
      rest.erase(0, pos + 1);
    }
    parts.push_back(rest);
    if (parts.size() != 4) continue;
    table.add_row({parts[0], parts[1], parts[2], parts[3], value});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}

int show(const FlatReport& report, const std::string& path) {
  std::printf("metrics report %s (version %s)\n", path.c_str(),
              version_of(report).c_str());

  // Which optional sections this file carries, so the reader knows which
  // views (lines / transitions / bottlenecks) will have data.
  const bool metrics = !lookup(report, "hswsim_metrics_version").empty();
  hsw::Table sections({"section", "present", "view"});
  sections.add_row({"metrics", metrics ? "yes" : "no", "show"});
  sections.add_row({"linestats", has_linestats(report) ? "yes" : "no",
                    "lines, transitions"});
  sections.add_row({"resources", has_resources(report) ? "yes" : "no",
                    "bottlenecks"});
  std::printf("%s\n", sections.to_string().c_str());

  hsw::Table manifest({"manifest", "value"});
  for (const auto& [key, value] : report) {
    if (key.starts_with("manifest.")) {
      manifest.add_row({key.substr(sizeof("manifest.") - 1), value});
    }
  }
  manifest.add_row({"accesses", lookup(report, "accesses")});
  manifest.add_row({"streams", lookup(report, "streams")});
  std::printf("%s\n", manifest.to_string().c_str());

  hsw::Table counters({"counter", "value"});
  for (const auto& [key, value] : report) {
    const bool counter_like = key.starts_with("counters.") ||
                              key.starts_with("engine_counters.") ||
                              key.starts_with("meters.") ||
                              key.starts_with("gauges.");
    if (counter_like && value != "0" && value != "0.000000") {
      counters.add_row({key, value});
    }
  }
  std::printf("nonzero counters, meters, and final gauges\n%s\n",
              counters.to_string().c_str());
  return 0;
}

int diff(const FlatReport& a, const FlatReport& b, const std::string& path_a,
         const std::string& path_b, const hsw::check::GoldenTolerance& tol,
         bool force) {
  if (version_of(a) != version_of(b)) {
    std::fprintf(stderr, "hswsim-report: version mismatch (%s vs %s)\n",
                 version_of(a).c_str(), version_of(b).c_str());
    return 1;
  }
  if (protocol_of(a) != protocol_of(b)) {
    if (!force) {
      std::fprintf(stderr,
                   "hswsim-report: refusing to diff across coherence "
                   "protocols (%s ran %s, %s ran %s); the engine counters "
                   "are not comparable — pass --force to diff anyway\n",
                   path_a.c_str(), protocol_of(a).c_str(), path_b.c_str(),
                   protocol_of(b).c_str());
      return 1;
    }
    std::printf("note: cross-protocol diff forced (%s vs %s)\n",
                protocol_of(a).c_str(), protocol_of(b).c_str());
  }

  std::vector<std::string> keys;
  for (const auto& [key, value] : a) keys.push_back(key);
  for (const auto& [key, value] : b) {
    if (!a.contains(key)) keys.push_back(key);
  }

  hsw::Table table({"key", path_a, path_b});
  std::size_t mismatches = 0;
  std::size_t manifest_diffs = 0;
  constexpr std::size_t kMaxRows = 40;
  for (const std::string& key : keys) {
    const bool in_a = a.contains(key);
    const bool in_b = b.contains(key);
    const std::string va = in_a ? a.at(key) : "<missing>";
    const std::string vb = in_b ? b.at(key) : "<missing>";
    const bool match =
        in_a && in_b && hsw::check::cells_match(va, vb, tol);
    if (match) continue;
    if (key.starts_with("manifest.")) {
      ++manifest_diffs;
      continue;
    }
    ++mismatches;
    if (mismatches <= kMaxRows) table.add_row({key, va, vb});
  }

  if (manifest_diffs > 0) {
    std::printf("note: %zu manifest field(s) differ (provenance only)\n",
                manifest_diffs);
  }
  if (mismatches == 0) {
    std::printf("reports match (rel %g, abs %g)\n", tol.rel, tol.abs);
    return 0;
  }
  std::printf("%zu metric key(s) differ (rel %g, abs %g)%s\n%s", mismatches,
              tol.rel, tol.abs,
              mismatches > kMaxRows ? ", first 40 shown" : "",
              table.to_string().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  hsw::CommandLine cli(
      "inspect (show) or tolerance-diff (diff) hswsim --metrics reports");
  hsw::check::GoldenTolerance tol;
  bool force = false;
  cli.add_double("rel", &tol.rel, "relative tolerance for numeric values");
  cli.add_double("abs", &tol.abs, "absolute tolerance for numeric values");
  cli.add_bool("force", &force,
               "diff reports even when their coherence protocols differ");
  switch (cli.parse_status(argc, argv)) {
    case hsw::CommandLine::ParseStatus::kHelp:
      return 0;
    case hsw::CommandLine::ParseStatus::kError:
      return 2;
    case hsw::CommandLine::ParseStatus::kOk:
      break;
  }
  const std::vector<std::string>& pos = cli.positional();
  if (pos.empty()) return usage();

  if (pos[0] == "show" && pos.size() == 2) {
    FlatReport report;
    if (load(pos[1], &report) != 0) return 1;
    return show(report, pos[1]);
  }
  if (pos[0] == "lines" && pos.size() == 2) {
    FlatReport report;
    if (load(pos[1], &report) != 0) return 1;
    return lines_view(report, pos[1]);
  }
  if (pos[0] == "transitions" && pos.size() == 2) {
    FlatReport report;
    if (load(pos[1], &report) != 0) return 1;
    return transitions_view(report, pos[1]);
  }
  if (pos[0] == "bottlenecks" && pos.size() == 2) {
    FlatReport report;
    if (load(pos[1], &report) != 0) return 1;
    return bottlenecks_view(report, pos[1]);
  }
  if (pos[0] == "diff" && pos.size() == 3) {
    FlatReport a;
    FlatReport b;
    if (load(pos[1], &a) != 0 || load(pos[2], &b) != 0) return 1;
    return diff(a, b, pos[1], pos[2], tol, force);
  }
  return usage();
}
