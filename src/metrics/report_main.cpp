// hswsim-report: inspect and diff the --observe ... --report documents.
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
// exactly.  Every section (metrics, lines, resources) flattens to dotted
// keys and diffs through the same path.  Only hswsim_report_version 2
// documents are read; anything else is refused as an unknown version.
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
#include <utility>
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
    case ReportLoadError::kUnknownVersion: {
      // Name what the file carries: a future version, or a retired
      // single-observer report (the pre-v2 standalone metrics / linestats /
      // resources files).
      std::string found = "no version key";
      for (const char* key :
           {"hswsim_report_version", "hswsim_metrics_version",
            "hswsim_linestats_version", "hswsim_resources_version"}) {
        const auto it = out->find(key);
        if (it != out->end()) {
          found = std::string(key) + " " + it->second;
          break;
        }
      }
      std::fprintf(stderr,
                   "hswsim-report: '%s' has an unknown report version "
                   "(found %s, this build reads hswsim_report_version %d); "
                   "regenerate the report with this build\n",
                   path.c_str(), found.c_str(), hsw::metrics::kReportVersion);
      return 1;
    }
  }
  return 1;
}

[[nodiscard]] std::string lookup(const FlatReport& report,
                                 const std::string& key) {
  const auto it = report.find(key);
  return it == report.end() ? std::string{} : it->second;
}

// Each observer that ran has a top-level section named after it.
[[nodiscard]] bool has_section(const FlatReport& report,
                               const std::string& section) {
  const auto it = report.lower_bound(section + ".");
  return it != report.end() && it->first.starts_with(section + ".");
}

// The section-presence check the lines / transitions / bottlenecks views
// share: 0 when present, 1 with a message naming the flag that adds it.
int require_section(const FlatReport& report, const std::string& path,
                    const std::string& section) {
  if (has_section(report, section)) return 0;
  std::fprintf(stderr,
               "hswsim-report: %s has no %s section; rerun with --observe %s "
               "--report FILE%s\n",
               path.c_str(), section.c_str(), section.c_str(),
               section == "resources" ? " (and --engine simulated)" : "");
  return 1;
}

// The rows of an array section ("<array>.0.<field>", "<array>.1.<field>",
// ...): one cell per field, until the first element missing fields[0].
[[nodiscard]] std::vector<std::vector<std::string>> array_rows(
    const FlatReport& report, const std::string& array,
    const std::vector<std::string>& fields) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0;; ++i) {
    const std::string prefix = array + "." + std::to_string(i) + ".";
    if (!report.contains(prefix + fields.front())) return rows;
    std::vector<std::string>& row = rows.emplace_back();
    for (const std::string& field : fields) {
      row.push_back(lookup(report, prefix + field));
    }
  }
}

// `bottlenecks` view: every simulated FIFO resource ranked by busy-fraction
// utilization (ties broken by total queueing wait), so the saturated box —
// the bottleneck — tops the table.
int bottlenecks_view(const FlatReport& report, const std::string& path) {
  if (require_section(report, path, "resources") != 0) return 1;
  std::printf("resource telemetry %s (%s streams, %s ns simulated)\n",
              path.c_str(), lookup(report, "resources.streams").c_str(),
              lookup(report, "resources.elapsed_ns").c_str());

  // Rank by utilization (cell 1), then by total wait (the last cell).
  std::vector<std::vector<std::string>> rows = array_rows(
      report, "resources.items",
      {"name", "utilization", "capacity_gbps", "busy_ns", "services",
       "arrivals_per_us", "wait_mean_ns", "wait_max_ns", "depth_mean",
       "depth_max", "wait_total_ns"});
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     const double ua = std::atof(a[1].c_str());
                     const double ub = std::atof(b[1].c_str());
                     if (ua != ub) return ua > ub;
                     return std::atof(a.back().c_str()) >
                            std::atof(b.back().c_str());
                   });

  hsw::Table table({"resource", "utilization", "capacity GB/s", "busy ns",
                    "services", "arrivals/us", "wait mean ns", "wait max ns",
                    "depth mean", "depth max"});
  for (std::vector<std::string>& row : rows) {
    row.pop_back();  // the wait total only breaks ties
    table.add_row(std::move(row));
  }
  std::printf("resources by utilization (bottleneck first)\n%s\n",
              table.to_string().c_str());
  return 0;
}

// `lines` view: sharing-pattern census, per-state L3 residency, and the
// top contended lines ranked by invalidations + forwards.
int lines_view(const FlatReport& report, const std::string& path) {
  if (require_section(report, path, "lines") != 0) return 1;
  std::printf(
      "line stats %s (protocol %s, %s streams, %s accesses, %s lines)\n",
      path.c_str(), lookup(report, "lines.protocol").c_str(),
      lookup(report, "lines.streams").c_str(),
      lookup(report, "lines.accesses").c_str(),
      lookup(report, "lines.lines_tracked").c_str());

  hsw::Table patterns({"sharing pattern", "lines"});
  for (const char* name : {"private", "read_shared", "migratory", "ping_pong",
                           "false_shared", "mixed"}) {
    patterns.add_row(
        {name, lookup(report, std::string("lines.patterns.") + name)});
  }
  std::printf("%s\n", patterns.to_string().c_str());

  hsw::Table residency({"state", "L3 residency ns"});
  for (const char* state : {"I", "S", "F", "E", "M", "O"}) {
    residency.add_row(
        {state, lookup(report, std::string("lines.residency_ns.") + state)});
  }
  std::printf("%s\n", residency.to_string().c_str());

  hsw::Table top({"line", "stream", "pattern", "cores", "reads", "writes",
                  "inval", "fwd", "upd", "contention"});
  for (std::vector<std::string>& row : array_rows(
           report, "lines.top_lines",
           {"line", "stream", "pattern", "cores", "reads", "writes",
            "invalidations", "forwards", "updates", "contention"})) {
    top.add_row(std::move(row));
  }
  std::printf("top contended lines (by invalidations + forwards)\n%s\n",
              top.to_string().c_str());
  return 0;
}

// `transitions` view: every nonzero (level, from-state, bus-op, to-state)
// cell of the transition matrix.  Keys sort lexicographically — stable
// across runs, so the output diffs cleanly.
int transitions_view(const FlatReport& report, const std::string& path) {
  if (require_section(report, path, "lines") != 0) return 1;
  std::printf("state transitions %s (protocol %s)\n", path.c_str(),
              lookup(report, "lines.protocol").c_str());
  hsw::Table table({"level", "from", "op", "to", "count"});
  const std::string prefix = "lines.transitions.";
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
  std::printf("report %s (version %s)\n", path.c_str(),
              lookup(report, "hswsim_report_version").c_str());

  // Which sections this file carries, so the reader knows which views will
  // have data.
  hsw::Table sections({"section", "present", "view"});
  for (const auto& [section, view] :
       {std::pair{"metrics", "show"}, std::pair{"lines", "lines, transitions"},
        std::pair{"resources", "bottlenecks"}}) {
    sections.add_row(
        {section, has_section(report, section) ? "yes" : "no", view});
  }
  std::printf("%s\n", sections.to_string().c_str());

  hsw::Table manifest({"manifest", "value"});
  for (const auto& [key, value] : report) {
    if (key.starts_with("manifest.")) {
      manifest.add_row({key.substr(sizeof("manifest.") - 1), value});
    }
  }
  manifest.add_row({"accesses", lookup(report, "metrics.accesses")});
  manifest.add_row({"streams", lookup(report, "metrics.streams")});
  std::printf("%s\n", manifest.to_string().c_str());

  hsw::Table counters({"counter", "value"});
  for (const auto& [key, value] : report) {
    if (!key.starts_with("metrics.")) continue;
    const std::string name = key.substr(sizeof("metrics.") - 1);
    const bool counter_like =
        name.starts_with("counters.") || name.starts_with("engine_counters.") ||
        name.starts_with("meters.") || name.starts_with("gauges.");
    if (counter_like && value != "0" && value != "0.000000") {
      counters.add_row({name, value});
    }
  }
  std::printf("nonzero counters, meters, and final gauges\n%s\n",
              counters.to_string().c_str());
  return 0;
}

int diff(const FlatReport& a, const FlatReport& b, const std::string& path_a,
         const std::string& path_b, const hsw::check::GoldenTolerance& tol,
         bool force) {
  const std::string protocol_a = lookup(a, "manifest.protocol");
  const std::string protocol_b = lookup(b, "manifest.protocol");
  if (protocol_a != protocol_b) {
    if (!force) {
      std::fprintf(stderr,
                   "hswsim-report: refusing to diff across coherence "
                   "protocols (%s ran %s, %s ran %s); the engine counters "
                   "are not comparable — pass --force to diff anyway\n",
                   path_a.c_str(), protocol_a.c_str(), path_b.c_str(),
                   protocol_b.c_str());
      return 1;
    }
    std::printf("note: cross-protocol diff forced (%s vs %s)\n",
                protocol_a.c_str(), protocol_b.c_str());
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
      "inspect (show, lines, transitions, bottlenecks) or tolerance-diff "
      "(diff) hswsim --report documents");
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

  using View = int (*)(const FlatReport&, const std::string&);
  const std::pair<const char*, View> views[] = {
      {"show", show},
      {"lines", lines_view},
      {"transitions", transitions_view},
      {"bottlenecks", bottlenecks_view}};
  for (const auto& [name, view] : views) {
    if (pos[0] != name || pos.size() != 2) continue;
    FlatReport report;
    if (load(pos[1], &report) != 0) return 1;
    return view(report, pos[1]);
  }
  if (pos[0] == "diff" && pos.size() == 3) {
    FlatReport a;
    FlatReport b;
    if (load(pos[1], &a) != 0 || load(pos[2], &b) != 0) return 1;
    return diff(a, b, pos[1], pos[2], tol, force);
  }
  return usage();
}
