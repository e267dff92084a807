// Shared plumbing for the per-table / per-figure bench binaries.
//
// Every bench prints (a) the reproduced table/figure as ASCII, in the
// paper's layout, with the paper's reference values where they are scalar,
// and (b) optionally a CSV (--csv <path>) for external plotting.
// EXPERIMENTS.md is generated from these outputs.
//
// All benches take --jobs N (default: hardware_concurrency).  Sweep points
// are dispatched over one shared ThreadPool and written to slots indexed by
// (series, size), so the printed tables and CSVs are bit-identical for any
// job count; --jobs 1 is the fully serial path.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/hswbench.h"
#include "sim/thread_pool.h"
#include "util/cli.h"
#include "util/csv.h"

namespace hswbench {

struct BenchArgs {
  std::string csv;        // empty = no CSV output
  std::string trace;      // --trace FILE: export span trees (.csv or JSON)
  // --observe metrics,lines,resources --report FILE: the report observers
  // (only the three report flags of observe.set) and their document.
  hsw::ObserveFlags observe;
  bool attribution = false;  // print per-component latency attribution
  bool progress = false;  // --progress: sweep-point heartbeat on stderr
  bool quick = false;     // trim sweep sizes for smoke runs
  std::uint64_t seed = 1;
  unsigned jobs = 0;      // sweep-point worker threads; 0 = hardware_concurrency
  // Bandwidth-rate engine (--engine analytic|simulated, offered only by
  // the benches that pass engine_flag to parse_args).
  hsw::BandwidthEngine engine = hsw::BandwidthEngine::kAnalytic;
  std::string tool;       // bench binary name (report manifest)
  std::string summary;    // bench one-liner (report manifest)
};

// Output flags fail fast: a typo'd directory should kill the run before the
// sweeps burn minutes, not after.  Probes with O_APPEND so an existing file
// is left untouched; a newly created probe file is removed again.  Returns
// the error message (for a CommandLine check) instead of exiting.
inline std::optional<std::string> writable_path_error(const std::string& path,
                                                      const char* flag) {
  if (path.empty()) return std::nullopt;
  std::FILE* pre = std::fopen(path.c_str(), "r");
  const bool existed = pre != nullptr;
  if (pre != nullptr) std::fclose(pre);
  std::FILE* probe = std::fopen(path.c_str(), "a");
  if (probe == nullptr) {
    return std::string(flag) + ": cannot open " + path + " for writing";
  }
  std::fclose(probe);
  if (!existed) std::remove(path.c_str());
  return std::nullopt;
}

// Parses the standard bench flags, plus --engine when `engine_flag` is set
// (only the benches whose bandwidth stage runs on the engine the user picks
// set it; every other bench rejects the flag as unknown instead of ignoring
// it).  Exits 0 on --help, 1 on bad flags (CI must see a failure when an
// invocation has a typo).  Every validation — value ranges, flag
// combinations, output-path probes — runs as a CommandLine check inside
// parse_status(), so the switch below is the binary's only exit site for
// argument errors (the facade rule in core/hswbench.h: the library never
// exits, the CLI edge owns the policy).
inline BenchArgs parse_args(int argc, char** argv, const char* summary,
                            bool engine_flag = false) {
  BenchArgs args;
  hsw::CommandLine cli(summary);
  cli.add_string("csv", &args.csv, "write the series to this CSV file");
  cli.add_string("trace", &args.trace,
                 "export per-access protocol span trees to this file "
                 "(.csv = one row per span; anything else = Chrome-trace "
                 "JSON for https://ui.perfetto.dev)");
  hsw::add_observe_flags(cli, &args.observe);
  cli.add_bool("attribution", &args.attribution,
               "print the per-component latency attribution summary");
  cli.add_bool("progress", &args.progress,
               "print a sweep-point heartbeat to stderr (stdout untouched)");
  cli.add_bool("quick", &args.quick, "reduced sweep for smoke testing");
  std::int64_t seed = 1;
  cli.add_int("seed", &seed, "placement/chase RNG seed");
  std::int64_t jobs = 0;
  cli.add_int("jobs", &jobs,
              "worker threads for sweep points (1 = serial, 0 = all cores)");

  cli.add_check([&]() -> std::optional<std::string> {
    if (jobs < 0) return "--jobs must be >= 0";
    args.jobs = static_cast<unsigned>(jobs);
    args.seed = static_cast<std::uint64_t>(seed);
    return std::nullopt;
  });
  std::string engine = "analytic";
  if (engine_flag) {
    cli.add_string("engine", &engine,
                   "bandwidth-rate engine: analytic (max-min model) or "
                   "simulated (event-driven queueing)");
    cli.add_check([&]() -> std::optional<std::string> {
      const std::optional<hsw::BandwidthEngine> parsed =
          hsw::parse_bandwidth_engine(engine);
      if (!parsed) {
        return "--engine must be analytic or simulated, got '" + engine + "'";
      }
      args.engine = *parsed;
      return std::nullopt;
    });
  }
  // The per-resource recorder watches the simulated engine's FIFO servers;
  // the analytic solver (and every latency bench) has no queues to observe,
  // so the report would be all zeros.  Refuse the combination instead of
  // writing a misleading file.
  cli.add_check([&]() -> std::optional<std::string> {
    if (args.observe.set.resources &&
        args.engine != hsw::BandwidthEngine::kSimulated) {
      return "--observe resources requires a bandwidth bench run with "
             "--engine simulated: only the event-driven engine has FIFO "
             "servers to observe, so the resources section would be all "
             "zeros";
    }
    return std::nullopt;
  });
  cli.add_check([&]() -> std::optional<std::string> {
    if (auto e = writable_path_error(args.trace, "--trace")) return e;
    return writable_path_error(args.observe.report, "--report");
  });

  switch (cli.parse_status(argc, argv)) {
    case hsw::CommandLine::ParseStatus::kHelp:
      std::exit(0);
    case hsw::CommandLine::ParseStatus::kError:
      std::exit(1);
    case hsw::CommandLine::ParseStatus::kOk:
      break;
  }
  if (argc > 0 && argv != nullptr) {
    const std::string path = argv[0];
    const std::size_t slash = path.find_last_of('/');
    args.tool = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  args.summary = summary;
  return args;
}

// Writes the --report document with a section per --observe observer.
// Exits 1 on write failure so CI never mistakes a truncated report for a
// clean run.  Every bench that writes a report runs the paper's MESIF
// machine (the all-families benches ignore --observe).
inline void write_report(const BenchArgs& args, const hsw::ObserverHubs& hubs) {
  if (!args.observe.set.reports()) return;
  hsw::metrics::ReportManifest manifest =
      hsw::make_manifest(args.tool, args.summary, hsw::Protocol::kMesif);
  manifest.seed = args.seed;
  manifest.jobs = args.jobs;
  manifest.quick = args.quick;
  if (!hsw::write_observer_report(args.observe.report, manifest, hubs,
                                  args.observe.set)) {
    std::exit(1);
  }
  std::printf("wrote %s\n", args.observe.report.c_str());
}

// --- observers ------------------------------------------------------------
// Shared wiring behind the benches' --trace / --attribution / --observe
// flags.  A bench creates one BenchTrace, routes its measurements through
// it (sweep plans via *_plan_options, direct measure_latency calls via
// measure), and calls finish() last: finish writes the trace file and the
// report and prints the per-component attribution table.  Stream ids are
// assigned from configuration / call order, never from scheduling, so
// exported traces and reports are byte-identical for any --jobs value.

// Records retained per stream when exporting: enough protocol transactions
// to inspect every phase of a sweep point without the export growing with
// the measured line count (the tracer keeps the newest records).
inline constexpr std::size_t kBenchTraceCapacity = 192;

class BenchTrace {
 public:
  explicit BenchTrace(const BenchArgs& args) : args_(args) {}

  [[nodiscard]] bool enabled() const { return attribution() || tracing(); }
  [[nodiscard]] bool tracing() const { return !args_.trace.empty(); }
  [[nodiscard]] bool attribution() const { return args_.attribution; }
  [[nodiscard]] const hsw::ObserverSet& observe() const {
    return args_.observe.set;
  }

  [[nodiscard]] hsw::SweepTraceOptions latency_plan_options(std::size_t plan) {
    return plan_options(plan, latency_set());
  }
  [[nodiscard]] hsw::SweepTraceOptions bandwidth_plan_options(std::size_t plan) {
    return plan_options(plan, bandwidth_set());
  }

  // Wraps a direct measure_latency call (the serial table/ablation benches):
  // one set of observers per call, stream ids in call order, the breakdown
  // accumulated under `label`.
  hsw::LatencyResult measure(hsw::System& system, hsw::LatencyConfig config,
                             std::string label) {
    const hsw::LatencyResult result = observed(
        system, std::move(config), latency_set(), hsw::measure_latency);
    if (attribution()) note(std::move(label), result);
    return result;
  }

  // Direct measure_bandwidth calls (see bandwidth_set for the tracer mode).
  hsw::BandwidthResult measure_bw(hsw::System& system,
                                  hsw::BandwidthConfig config) {
    return observed(system, std::move(config), bandwidth_set(),
                    hsw::measure_bandwidth);
  }

  // Accumulates a measured point's component breakdown under `label`
  // (labels merge; insertion order is display order).
  void note(std::string label, const hsw::LatencyResult& result) {
    if (!result.has_attribution) return;
    Row& row = row_for(std::move(label));
    for (std::size_t c = 0; c < hsw::trace::kComponentCount; ++c) {
      row.ns[c] += result.component_ns[c];
    }
    row.accesses += static_cast<double>(result.lines_measured);
  }

  // Writes the trace file and the report and prints the attribution
  // table.  Call after the bench's own tables so the regular output (and
  // the golden CSVs) stay untouched.
  void finish() {
    hsw::trace::MergedTrace trace;
    if (enabled()) trace = hubs_.trace.merged();
    if (attribution()) {
      if (rows_.empty()) note_from_records(trace.records);
      print_attribution();
    }
    if (tracing() && hsw::trace::write_trace(args_.trace, trace.records)) {
      std::printf("wrote %s (%zu protocol transactions", args_.trace.c_str(),
                  trace.records.size());
      if (trace.dropped > 0) {
        std::printf("; %llu older ones dropped per stream cap",
                    static_cast<unsigned long long>(trace.dropped));
      }
      std::printf(")\n");
    }
    write_report(args_, hubs_);
  }

 private:
  struct Row {
    std::string label;
    std::array<double, hsw::trace::kComponentCount> ns{};
    double accesses = 0.0;
  };

  // Latency results carry their own attribution, so span trees are
  // retained only when a trace file was requested; latency points drive no
  // FIFO servers, so they run no resource recorder.
  [[nodiscard]] hsw::ObserverSet latency_set() const {
    hsw::ObserverSet set = args_.observe.set;
    set.trace = tracing();
    set.attribution = attribution();
    set.resources = false;
    set.trace_capacity = kBenchTraceCapacity;
    return set;
  }

  // Bandwidth results carry no per-access breakdown, so --attribution
  // retains span trees too and finish() attributes the records.
  [[nodiscard]] hsw::ObserverSet bandwidth_set() const {
    hsw::ObserverSet set = args_.observe.set;
    set.trace = enabled();
    set.trace_capacity = kBenchTraceCapacity;
    return set;
  }

  template <class Config, class Result>
  Result observed(hsw::System& system, Config config,
                  const hsw::ObserverSet& set,
                  Result (*run)(hsw::System&, const Config&)) {
    hsw::PointObservers observers(set, system.config().protocol,
                                  next_stream_++);
    config.instrumentation = observers.scope();
    const Result result = run(system, config);
    observers.absorb_into(hubs_);
    return result;
  }

  [[nodiscard]] hsw::SweepTraceOptions plan_options(
      std::size_t plan, const hsw::ObserverSet& set) {
    hsw::SweepTraceOptions t;
    t.observe = set;
    t.hubs = &hubs_;
    t.stream_base = static_cast<std::uint32_t>(plan) * hsw::kStreamsPerPlan;
    return t;
  }

  Row& row_for(std::string label) {
    for (Row& row : rows_) {
      if (row.label == label) return row;
    }
    rows_.push_back(Row{std::move(label), {}, 0.0});
    return rows_.back();
  }

  // Fallback for benches without LatencyResults (bandwidth): attribute the
  // retained span trees directly.
  void note_from_records(const std::vector<hsw::trace::TraceRecord>& records) {
    Row& row = row_for("all traced accesses");
    for (const hsw::trace::TraceRecord& record : records) {
      const hsw::trace::AccessAttribution a =
          hsw::trace::attribute(record.spans);
      for (std::size_t c = 0; c < hsw::trace::kComponentCount; ++c) {
        row.ns[c] += a.component_ns[c];
      }
      row.accesses += 1.0;
    }
  }

  void print_attribution() {
    std::vector<std::string> header{"measurement", "ns/access"};
    for (std::size_t c = 0; c < hsw::trace::kComponentCount; ++c) {
      header.push_back(
          hsw::trace::to_string(static_cast<hsw::trace::Component>(c)));
    }
    hsw::Table table(header);
    for (const Row& row : rows_) {
      if (row.accesses <= 0.0) continue;
      double total = 0.0;
      for (const double ns : row.ns) total += ns;
      std::vector<std::string> cells{row.label,
                                     hsw::cell(total / row.accesses, 1)};
      for (const double ns : row.ns) {
        cells.push_back(hsw::cell(ns / row.accesses, 1));
      }
      table.add_row(std::move(cells));
    }
    std::printf(
        "latency attribution: mean ns per access on the critical path, by "
        "protocol component\n%s\n",
        table.to_string().c_str());
  }

  BenchArgs args_;
  hsw::ObserverHubs hubs_;
  std::uint32_t next_stream_ = 0;
  std::vector<Row> rows_;
};

// One named series over a shared size axis.  The queueing columns are
// filled by the simulated bandwidth engine only; when empty (the analytic
// engine, and every latency bench) the printed table and CSV schema are
// exactly the historical ones, so the golden figures never change.
struct Series {
  std::string name;
  std::vector<double> values;  // aligned with the size axis
  std::vector<double> queue_ns = {};         // mean per-line queueing delay
  std::vector<std::string> bottleneck = {};  // busiest resource on the path

  [[nodiscard]] bool has_queueing() const { return !queue_ns.empty(); }
};

inline void print_sized_series(const char* title,
                               const std::vector<std::uint64_t>& sizes,
                               const std::vector<Series>& series,
                               const std::string& csv_path,
                               const char* unit) {
  std::printf("%s\n", title);
  std::vector<std::string> header{"data set size"};
  for (const Series& s : series) header.push_back(s.name);
  for (const Series& s : series) {
    if (!s.has_queueing()) continue;
    header.push_back(s.name + " queue ns");
    header.push_back(s.name + " bottleneck");
  }
  hsw::Table table(header);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row{hsw::format_bytes(sizes[i])};
    for (const Series& s : series) {
      row.push_back(i < s.values.size() ? hsw::cell(s.values[i], 1)
                                        : std::string{});
    }
    for (const Series& s : series) {
      if (!s.has_queueing()) continue;
      row.push_back(i < s.queue_ns.size() ? hsw::cell(s.queue_ns[i], 1)
                                          : std::string{});
      row.push_back(i < s.bottleneck.size() ? s.bottleneck[i]
                                            : std::string{});
    }
    table.add_row(std::move(row));
  }
  std::printf("%s(values in %s)\n\n", table.to_string().c_str(), unit);

  if (!csv_path.empty()) {
    std::vector<std::string> csv_header{"bytes"};
    for (const Series& s : series) csv_header.push_back(s.name);
    for (const Series& s : series) {
      if (!s.has_queueing()) continue;
      csv_header.push_back(s.name + " queue_ns");
      csv_header.push_back(s.name + " bottleneck");
    }
    hsw::CsvWriter csv(csv_path, csv_header);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::vector<std::string> row{std::to_string(sizes[i])};
      for (const Series& s : series) {
        row.push_back(i < s.values.size() ? hsw::cell(s.values[i], 3)
                                          : std::string{});
      }
      for (const Series& s : series) {
        if (!s.has_queueing()) continue;
        row.push_back(i < s.queue_ns.size() ? hsw::cell(s.queue_ns[i], 3)
                                            : std::string{});
        row.push_back(i < s.bottleneck.size() ? s.bottleneck[i]
                                              : std::string{});
      }
      csv.add_row(row);
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }
}

// Prints a finished table and optionally mirrors it to a CSV (the golden
// regression files compare the CSV form cell by cell).
inline void print_table(const char* title, const hsw::Table& table,
                        const std::string& csv_path) {
  std::printf("%s\n%s", title, table.to_string().c_str());
  if (!csv_path.empty()) {
    hsw::CsvWriter csv(csv_path, table.header());
    for (const std::vector<std::string>& row : table.data_rows()) {
      csv.add_row(row);
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }
}

// Sweep axis used by the figure benches.
inline std::vector<std::uint64_t> figure_sizes(const BenchArgs& args,
                                               std::uint64_t max_bytes) {
  if (args.quick) max_bytes = std::min<std::uint64_t>(max_bytes, hsw::mib(4));
  return hsw::sweep_sizes(hsw::kib(16), max_bytes);
}

// A named sweep queued for the parallel fan-out below.
struct LatencySeriesPlan {
  std::string name;
  hsw::LatencySweepConfig config;
};

struct BandwidthSeriesPlan {
  std::string name;
  hsw::BandwidthSweepConfig config;
};

// --progress heartbeat: one stderr line per finished sweep point (carriage-
// return overwrite, newline only at the end), so long sweeps show liveness
// without touching stdout — the printed tables and golden CSVs must stay
// byte-identical whether the flag is set or not.  tick() is called from the
// pool workers; the counters are atomic and each update is one fprintf.
class ProgressMeter {
 public:
  ProgressMeter(bool enabled, std::string tool, std::size_t total_points)
      : enabled_(enabled),
        tool_(std::move(tool)),
        total_(total_points),
        start_(std::chrono::steady_clock::now()) {}

  void tick(std::uint64_t accesses) {
    if (!enabled_) return;
    const std::size_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t acc =
        accesses_.fetch_add(accesses, std::memory_order_relaxed) + accesses;
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double rate = secs > 0.0 ? static_cast<double>(acc) / secs : 0.0;
    std::fprintf(stderr,
                 "\r[%s] sweep point %zu/%zu (%3.0f%%), %.2fM accesses, "
                 "%.0fk accesses/s ",
                 tool_.c_str(), done, total_,
                 total_ > 0 ? 100.0 * static_cast<double>(done) /
                                  static_cast<double>(total_)
                            : 100.0,
                 static_cast<double>(acc) / 1e6, rate / 1e3);
  }

  // Ends the overwrite line; call once after the fan-out drains.
  void finish() const {
    if (enabled_) std::fprintf(stderr, "\n");
  }

 private:
  bool enabled_;
  std::string tool_;
  std::size_t total_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::size_t> done_{0};
  std::atomic<std::uint64_t> accesses_{0};
};

// Runs every (series, size) sweep point of `plans` over one shared pool
// (--jobs workers, --progress heartbeat) and returns the full LatencyResult
// grid in (plan, size) order.  Each point writes its own pre-assigned slot,
// so the result is identical for any job count.
inline std::vector<std::vector<hsw::LatencyResult>> run_latency_grid(
    const std::vector<LatencySeriesPlan>& plans, const BenchArgs& args) {
  std::vector<std::vector<hsw::LatencyResult>> grid(plans.size());
  std::vector<std::pair<std::size_t, std::size_t>> work;  // (plan, size index)
  for (std::size_t p = 0; p < plans.size(); ++p) {
    grid[p].resize(plans[p].config.sizes.size());
    for (std::size_t i = 0; i < plans[p].config.sizes.size(); ++i) {
      work.emplace_back(p, i);
    }
  }
  ProgressMeter progress(args.progress, args.tool, work.size());
  hsw::ThreadPool pool(args.jobs);
  hsw::parallel_for_indexed(pool, work.size(), [&](std::size_t w) {
    const auto [p, i] = work[w];
    hsw::LatencySweepPoint point = hsw::latency_sweep_point(plans[p].config, i);
    progress.tick(point.result.lines_measured);
    grid[p][i] = std::move(point.result);
  });
  progress.finish();
  return grid;
}

// Mean-latency series (the figures' y-values) from a result grid.
inline std::vector<Series> mean_series(
    const std::vector<LatencySeriesPlan>& plans,
    const std::vector<std::vector<hsw::LatencyResult>>& grid) {
  std::vector<Series> series(plans.size());
  for (std::size_t p = 0; p < plans.size(); ++p) {
    series[p].name = plans[p].name;
    for (const hsw::LatencyResult& r : grid[p]) {
      series[p].values.push_back(r.mean_ns);
    }
  }
  return series;
}

// Per-series tail-latency summary at the largest sweep size (the memory
// regime, where the distribution is widest: DRAM page outcomes and snoop
// races spread the per-access latencies the mean hides).  Printed output
// only — the CSV schema the golden files compare stays untouched.
inline void print_latency_percentiles(
    const std::vector<LatencySeriesPlan>& plans,
    const std::vector<std::uint64_t>& sizes,
    const std::vector<std::vector<hsw::LatencyResult>>& grid) {
  if (sizes.empty() || plans.empty()) return;
  hsw::Table table({"series", "mean", "p50", "p95", "p99", "max"});
  const std::size_t last = sizes.size() - 1;  // ignore trace-only extra points
  for (std::size_t p = 0; p < plans.size(); ++p) {
    if (grid[p].size() <= last) continue;
    const hsw::LatencyResult& r = grid[p][last];
    table.add_row({plans[p].name, hsw::cell(r.mean_ns, 1),
                   hsw::cell(r.p50_ns, 1), hsw::cell(r.p95_ns, 1),
                   hsw::cell(r.p99_ns, 1), hsw::cell(r.max_ns, 1)});
  }
  std::printf("latency percentiles at %s (ns)\n%s\n",
              hsw::format_bytes(sizes.back()).c_str(),
              table.to_string().c_str());
}

// Feeds the largest-size point of every plan into the attribution table.
inline void note_largest_size(BenchTrace& trace,
                              const std::vector<LatencySeriesPlan>& plans,
                              const std::vector<std::uint64_t>& sizes,
                              const std::vector<std::vector<hsw::LatencyResult>>& grid) {
  if (!trace.attribution() || sizes.empty()) return;
  const std::size_t last = sizes.size() - 1;  // ignore trace-only extra points
  for (std::size_t p = 0; p < plans.size(); ++p) {
    if (grid[p].size() <= last) continue;
    trace.note(plans[p].name + " @ " + hsw::format_bytes(sizes[last]),
               grid[p][last]);
  }
}

// When a trace export was requested, appends one beyond-L3 size to every
// plan so the span trees cover the memory anatomy (home agent, DRAM read
// with its page outcome, and — under COD — directory/HitME probes) even in
// --quick runs, whose size axis stops inside the L3.  The extra point is
// trace-only: the printed tables, CSVs, and percentile/attribution rows all
// iterate the original `sizes` axis and never see it.
inline void extend_plans_for_trace(const BenchTrace& trace,
                                   std::vector<LatencySeriesPlan>& plans) {
  if (!trace.tracing() && !trace.observe().metrics) return;
  const std::uint64_t beyond_l3 = hsw::mib(40);  // node L3 is 12 x 2.5 MiB
  for (LatencySeriesPlan& plan : plans) {
    if (plan.config.sizes.empty() || plan.config.sizes.back() < beyond_l3) {
      plan.config.sizes.push_back(beyond_l3);
    }
  }
}

// run_latency_grid's fan-out for bandwidth sweeps; series values are GB/s.
// Bandwidth points carry no access count, so the heartbeat reports point
// progress only.
inline std::vector<Series> run_bandwidth_series(
    const std::vector<BandwidthSeriesPlan>& plans, unsigned jobs,
    ProgressMeter* progress = nullptr) {
  std::vector<Series> series(plans.size());
  std::vector<std::pair<std::size_t, std::size_t>> work;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    series[p].name = plans[p].name;
    series[p].values.resize(plans[p].config.sizes.size());
    // The simulated engine reports per-point queueing; surface it as extra
    // columns (the analytic engine leaves these empty and the schema
    // unchanged).
    if (plans[p].config.engine == hsw::BandwidthEngine::kSimulated) {
      series[p].queue_ns.resize(plans[p].config.sizes.size());
      series[p].bottleneck.resize(plans[p].config.sizes.size());
    }
    for (std::size_t i = 0; i < plans[p].config.sizes.size(); ++i) {
      work.emplace_back(p, i);
    }
  }
  hsw::ThreadPool pool(jobs);
  hsw::parallel_for_indexed(pool, work.size(), [&](std::size_t w) {
    const auto [p, i] = work[w];
    hsw::BandwidthSweepPoint point =
        hsw::bandwidth_sweep_point(plans[p].config, i);
    if (progress != nullptr) progress->tick(0);
    series[p].values[i] = point.gbps;
    if (series[p].has_queueing()) {
      series[p].queue_ns[i] = point.mean_queue_ns;
      series[p].bottleneck[i] = std::move(point.bottleneck);
    }
  });
  return series;
}

inline std::vector<Series> run_bandwidth_series(
    const std::vector<BandwidthSeriesPlan>& plans, const BenchArgs& args) {
  std::size_t total = 0;
  for (const BandwidthSeriesPlan& plan : plans) {
    total += plan.config.sizes.size();
  }
  ProgressMeter progress(args.progress, args.tool, total);
  std::vector<Series> series =
      run_bandwidth_series(plans, args.jobs, &progress);
  progress.finish();
  return series;
}

inline void print_paper_note(const char* note) {
  std::printf("paper reference: %s\n\n", note);
}

// For the few benches whose measurement path does not go through the
// coherence engine (model validation, application kernels): say so instead
// of silently ignoring the flags.
inline void warn_untraced(const BenchArgs& args) {
  if (args.attribution || !args.trace.empty() || args.observe.set.reports()) {
    std::fprintf(stderr,
                 "note: this bench does not issue per-line engine accesses; "
                 "--trace/--attribution/--observe produce no output here\n");
  }
}

}  // namespace hswbench
