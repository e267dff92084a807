// perfbench: end-to-end and per-layer benchmark of the hswsim library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --cells paper_cells.csv --out-dir DIR
//
// One process runs one workload on one thread as a closed loop: a single
// caller issues the workload's ops back to back.  The run makes
// round(S / pass_ref_s) passes over the op list, timing every op and running
// the fixed reference kernel between ops; host times are reported in
// reference seconds (see ref_kernel.h; an op or a set-up is scaled by the
// kernel runs around it, the per-layer spans by the run's median).  With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it also runs traced passes and prints the per-layer metrics.
// The last stdout line is the JSON result.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "check/differential.h"
#include "common.h"
#include "observers.h"
#include "paper.h"
#include "ref_kernel.h"
#include "spans.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cells;
  std::string out_dir;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--cells") {
      args.cells = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || args.cells.empty() ||
      args.out_dir.empty()) {
    return std::nullopt;
  }
  return args;
}

std::optional<Workload> build(const Args& args, Spans* spans) {
  std::optional<Workload> w;
  if (args.workload == "latency_sweep") w = make_latency_sweep(args.seed);
  if (args.workload == "bandwidth_sim") w = make_bandwidth_sim(args.seed);
  if (args.workload == "coherence_replay") {
    w = make_coherence_replay(args.seed, spans);
  }
  if (args.workload == "observed_sweep") {
    w = make_observed_sweep(args.seed, args.out_dir);
  }
  if (w) {
    // Seeded op order; the first op stays first (it is the warm-up op).
    std::mt19937_64 rng(args.seed);
    std::shuffle(w->ops.begin() + 1, w->ops.end(), rng);
  }
  return w;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Regularized incomplete beta function I_x(a, b), by its continued fraction
// (modified Lentz), on the side where that converges.
double incomplete_beta(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  if (x > (a + 1.0) / (a + b + 2.0)) return 1.0 - incomplete_beta(1.0 - x, b, a);
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x)) / a;
  constexpr double kTiny = 1e-300;
  double f = 1.0;
  double c = 1.0;
  double d = 0.0;
  for (int i = 0; i <= 1000; ++i) {
    const double m = i / 2;
    double num = 1.0;
    if (i > 0 && i % 2 == 0) {
      num = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
    } else if (i > 0) {
      num = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
    }
    d = 1.0 + num * d;
    d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
    c = 1.0 + num / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    f *= c * d;
    if (std::fabs(1.0 - c * d) < 1e-14) break;
  }
  return front * (f - 1.0);
}

// Harrell-Davis estimate of the p-th percentile (p in (0, 100)) of a sorted
// sample: a Beta-weighted mean of all order statistics.  Where op classes
// leave gaps between sample values, it moves smoothly across them instead
// of jumping with the one or two samples around the rank, so it varies
// less between runs than the interpolated sample percentile.
double percentile(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  const double a = p / 100.0 * (n + 1.0);
  const double b = (1.0 - p / 100.0) * (n + 1.0);
  double sum = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double upto =
        incomplete_beta(static_cast<double>(i + 1) / n, a, b);
    sum += (upto - below) * sorted[i];
    below = upto;
  }
  return sum;
}

// The highest of the usual percentiles with at least ten samples beyond it.
double tail_percentile(std::size_t samples) {
  double best = 50.0;
  for (double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

struct Usage {
  double sys_s = 0.0;
  std::uint64_t minor_faults = 0;
  double peak_rss_mb = 0.0;
};

Usage usage() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  Usage out;
  out.sys_s = static_cast<double>(u.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(u.ru_stime.tv_usec);
  out.minor_faults = static_cast<std::uint64_t>(u.ru_minflt);
  out.peak_rss_mb = static_cast<double>(u.ru_maxrss) / 1024.0;
  return out;
}

// What one section (a number of passes) of a run measured.
struct Section {
  double wall_s = 0.0;              // raw host seconds
  std::vector<double> op_s;         // raw host seconds per op
  std::vector<double> op_ref_s;     // reference seconds per op
  double ref_wall_s = 0.0;          // sum of op_ref_s
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t accesses = 0;       // per pass
  hsw::CounterSet::Snapshot counters{};  // per pass
  std::uint64_t digest = 0;         // per pass
  std::vector<std::pair<std::string, double>> cells;  // first pass
  bool deterministic = true;        // every pass agreed
};

// Counts an attempted op, and a failed one with the reasons on stderr.
void tally(Section& s, const std::string& what, const OpResult& result) {
  ++s.ops;
  if (result.failures.empty()) return;
  ++s.failed_ops;
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "perfbench: FAIL %s: %s\n", what.c_str(), f.c_str());
  }
}

bool pin_self(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

// The kernel runs before the first op, then after every 50 ms of ops (after
// every op once ops are longer), and after the last op.
constexpr double kKernelEvery_s = 0.05;
// Other tenants load the host's CPUs in bursts of a second or so, each CPU
// on its own.  When the kernel reads this much slower than the run's quiet
// level, the runner probes the other allowed CPUs and moves to the fastest.
constexpr double kMoveAbove = 1.15;

class Runner {
 public:
  Runner(const Workload& workload, RefKernelProcess& kernel,
         std::vector<int> cpus, int cpu)
      : workload_(workload), kernel_(kernel), cpus_(std::move(cpus)),
        cpu_(cpu) {}

  // Runs `passes` passes; with `spans`, through the traced twins.  Each op
  // is scaled to reference seconds by the mean of the kernel runs just
  // before and just after it on the CPU it ran on, so the scale follows the
  // host's speed through the run rather than its average.
  Section run(int passes, Spans* spans) {
    Section s;
    std::vector<std::pair<std::size_t, std::size_t>> around;  // per op
    std::size_t pending = 0;  // ops since the last kernel run
    std::size_t before = kernel();
    double since_kernel = 0.0;
    auto close_batch = [&] {
      const std::size_t after = kernel();
      for (; pending > 0; --pending) around.emplace_back(before, after);
      before = settle(after);
      since_kernel = 0.0;
    };
    for (int p = 0; p < passes; ++p) {
      Digest pass_digest;
      std::uint64_t accesses = 0;
      hsw::CounterSet::Snapshot counters{};
      for (const Op& op : workload_.ops) {
        OpResult result;
        const auto start = Clock::now();
        if (spans != nullptr) {
          auto scope = spans->span("op");
          op.traced(result, *spans);
        } else {
          op.run(result);
        }
        const double dt = seconds_between(start, Clock::now());
        s.wall_s += dt;
        s.op_s.push_back(dt);
        ++pending;
        events_.push_back({op.name, dt});
        tally(s, op.name, result);
        since_kernel += dt;
        if (since_kernel >= kKernelEvery_s) close_batch();
        pass_digest.add(result.digest.value());
        accesses += result.accesses;
        for (std::size_t i = 0; i < counters.size(); ++i) {
          counters[i] += result.counters[i];
        }
        if (p == 0) {
          s.cells.insert(s.cells.end(), result.cells.begin(),
                         result.cells.end());
        }
      }
      if (workload_.pass_check) {
        OpResult result;
        workload_.pass_check(result);
        tally(s, "pass check", result);
      }
      if (p == 0) {
        s.digest = pass_digest.value();
        s.accesses = accesses;
        s.counters = counters;
      } else if (pass_digest.value() != s.digest || accesses != s.accesses ||
                 counters != s.counters) {
        s.deterministic = false;
      }
    }
    if (pending > 0) close_batch();
    for (std::size_t i = 0; i < s.op_s.size(); ++i) {
      const double local =
          0.5 * (kernel_s_[around[i].first] + kernel_s_[around[i].second]);
      s.op_ref_s.push_back(to_reference(s.op_s[i], local));
      s.ref_wall_s += s.op_ref_s.back();
    }
    return s;
  }

  [[nodiscard]] double kernel_median_s() const { return median(kernel_s_); }
  [[nodiscard]] int moves() const { return moves_; }
  // Raw host seconds of every op and kernel run, in the order they ran.
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& events()
      const {
    return events_;
  }

 private:
  // Runs the kernel on the current CPU; returns its index in kernel_s_.
  std::size_t kernel() {
    kernel_s_.push_back(kernel_.run());
    events_.push_back({"kernel", kernel_s_.back()});
    return kernel_s_.size() - 1;
  }

  // After kernel run `last`: if this CPU reads slow, moves the caller and
  // the kernel helper to the fastest allowed CPU.  Returns the index of the
  // kernel run that opens the next batch, on the CPU it will run on.
  std::size_t settle(std::size_t last) {
    std::vector<double> sorted = kernel_s_;
    const auto quiet = sorted.begin() + static_cast<long>(sorted.size() / 5);
    std::nth_element(sorted.begin(), quiet, sorted.end());
    if (cpus_.size() < 2 || kernel_s_[last] <= kMoveAbove * *quiet) {
      return last;
    }
    int best_cpu = cpu_;
    double best_s = kernel_s_[last];
    for (int cpu : cpus_) {
      if (cpu == cpu_ || !kernel_.pin(cpu)) continue;
      const double t = kernel_.run();
      events_.push_back({"probe", t});
      if (t < best_s) {
        best_cpu = cpu;
        best_s = t;
      }
    }
    if (best_cpu == cpu_ || best_s * kMoveAbove > kernel_s_[last] ||
        !pin_self(best_cpu)) {
      kernel_.pin(cpu_);
      return last;
    }
    kernel_.pin(best_cpu);
    cpu_ = best_cpu;
    ++moves_;
    kernel_s_.push_back(best_s);
    events_.push_back({"kernel", best_s});
    return kernel_s_.size() - 1;
  }

  const Workload& workload_;
  RefKernelProcess& kernel_;
  std::vector<int> cpus_;  // CPUs this process may run on
  int cpu_;                // the one it runs on
  int moves_ = 0;
  std::vector<double> kernel_s_;
  std::vector<std::pair<std::string, double>> events_;
};

constexpr hsw::SnoopMode kSnoopModes[] = {
    hsw::SnoopMode::kSourceSnoop, hsw::SnoopMode::kHomeSnoop,
    hsw::SnoopMode::kCod};

// One seeded random-operation differential replay per snoop mode; returns
// the number that diverged from the reference model.
int differential_failures(std::uint64_t seed) {
  int failures = 0;
  for (hsw::SnoopMode mode : kSnoopModes) {
    hsw::check::DiffConfig config;
    config.mode = mode;
    config.seed = seed;
    const auto divergence =
        hsw::check::run_differential(config, hsw::check::random_trace(config));
    if (divergence) {
      std::fprintf(stderr, "perfbench: FAIL differential: %s\n",
                   divergence->description.c_str());
      ++failures;
    }
  }
  return failures;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t counters_digest(const hsw::CounterSet::Snapshot& c) {
  Digest d;
  for (std::uint64_t n : c) d.add(n);
  return d.value();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int run(const Args& args, Clock::time_point process_start,
        RefKernelProcess& kernel, std::vector<int> cpus, int cpu) {
  const auto cells = load_paper_cells(args.cells);
  if (!cells) {
    std::fprintf(stderr, "perfbench: cannot read paper cells %s\n",
                 args.cells.c_str());
    return 2;
  }

  // Set-up: configs, inputs and one untimed warm-up op, fifteen times; the
  // first repetition also covers process start.  The kernel runs after each
  // repetition, and each is scaled by the kernel runs around it.
  constexpr int kSetups = 15;
  std::vector<double> setup_s;
  std::vector<double> setup_kernel_s;
  std::optional<Workload> workload;
  Spans setup_spans;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = i == 0 ? process_start : Clock::now();
    const bool last = i == kSetups - 1;
    workload = build(args, args.trace && last ? &setup_spans : nullptr);
    if (!workload) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
    OpResult warmup;
    workload->ops.front().run(warmup);
    setup_s.push_back(seconds_between(start, Clock::now()));
    setup_kernel_s.push_back(kernel.run());
  }
  std::vector<double> setup_ref_s;
  for (int i = 0; i < kSetups; ++i) {
    const double local =
        i == 0 ? setup_kernel_s[0]
               : 0.5 * (setup_kernel_s[i - 1] + setup_kernel_s[i]);
    setup_ref_s.push_back(to_reference(setup_s[i], local));
  }

  const int passes = std::max(
      1, static_cast<int>(std::lround(args.seconds / workload->pass_ref_s)));
  Runner runner(*workload, kernel, std::move(cpus), cpu);
  const Usage before = usage();
  const Section timed = runner.run(passes, nullptr);
  const Usage after = usage();

  std::optional<Section> traced;
  Spans spans;
  const int traced_passes = std::max(1, passes / 2);
  if (args.trace) traced = runner.run(traced_passes, &spans);

  const int diff_failed = differential_failures(args.seed);
  {
    // Raw host times of every op and kernel run in the order they ran, so
    // the normalization can be checked.
    const std::string path = args.out_dir + "/raw_" + args.workload + ".csv";
    if (std::FILE* out = std::fopen(path.c_str(), "w")) {
      std::fprintf(out, "name,raw_s\n");
      for (const auto& [name, seconds] : runner.events()) {
        std::fprintf(out, "%s,%.9f\n", name.c_str(), seconds);
      }
      std::fclose(out);
    }
  }
  // Span times have no kernel run around them; they use the run's median.
  const double factor = to_reference(1.0, runner.kernel_median_s());

  std::vector<std::string> unknown;
  const double err = paper_err_pct(*cells, timed.cells, &unknown);
  for (const std::string& id : unknown) {
    std::fprintf(stderr, "perfbench: FAIL unknown paper cell %s\n", id.c_str());
  }

  std::uint64_t attempted = timed.ops + std::size(kSnoopModes);
  std::uint64_t failed =
      timed.failed_ops + static_cast<std::uint64_t>(diff_failed);
  if (!timed.deterministic) {
    std::fprintf(stderr, "perfbench: FAIL passes disagree on results\n");
    ++failed;
  }
  if (traced) {
    attempted += traced->ops;
    failed += traced->failed_ops;
    if (!traced->deterministic || traced->digest != timed.digest ||
        traced->counters != timed.counters ||
        traced->accesses != timed.accesses) {
      std::fprintf(stderr,
                   "perfbench: FAIL traced run does not reproduce the timed "
                   "run (digest %s vs %s)\n",
                   hex(traced->digest).c_str(), hex(timed.digest).c_str());
      ++failed;
    }
  }
  const bool correct = failed == 0 && unknown.empty();

  std::vector<double> op_sorted = timed.op_s;
  std::sort(op_sorted.begin(), op_sorted.end());
  std::vector<double> op_ref_sorted = timed.op_ref_s;
  std::sort(op_ref_sorted.begin(), op_ref_sorted.end());
  const double tail_p = tail_percentile(op_sorted.size());
  const double p50_raw = percentile(op_sorted, 50.0);
  const double tail_raw = percentile(op_sorted, tail_p);
  const double setup_raw = median(setup_s);
  const double setup_ref = median(setup_ref_s);
  const Usage end = usage();

  std::printf("perfbench: workload=%s seed=%" PRIu64
              " passes=%d ops_per_pass=%zu op_samples=%zu"
              " closed_loop_callers=1\n",
              args.workload.c_str(), args.seed, passes, workload->ops.size(),
              op_sorted.size());
  std::printf("perfbench: op_tail_ms is p%g of %zu op samples\n", tail_p,
              op_sorted.size());
  std::printf("perfbench: moved to a quieter CPU %d times\n", runner.moves());
  std::printf("perfbench: digest=%s counters=%s accesses_per_pass=%" PRIu64
              " paper_cells=%zu\n",
              hex(timed.digest).c_str(),
              hex(counters_digest(timed.counters)).c_str(),
              timed.accesses, timed.cells.size());
  std::printf("perfbench: raw host times: wall_s=%.6f op_p50_ms=%.4f "
              "op_tail_ms=%.4f setup_s=%.6f ref_kernel_ms=%.4f "
              "setup_factor=%.5f op_factor=%.5f\n",
              timed.wall_s, 1e3 * p50_raw, 1e3 * tail_raw, setup_raw,
              1e3 * runner.kernel_median_s(), setup_ref / setup_raw,
              timed.ref_wall_s / timed.wall_s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double wall = timed.ref_wall_s;
    metrics = {
        {"wall_s", wall, "s"},
        {"accesses_per_s",
         static_cast<double>(timed.accesses) * passes / wall, "1/s"},
        {"op_p50_ms", 1e3 * percentile(op_ref_sorted, 50.0), "ms"},
        {"op_tail_ms", 1e3 * percentile(op_ref_sorted, tail_p), "ms"},
        {"setup_s", setup_ref, "s"},
        {"peak_rss_mb", end.peak_rss_mb, "MiB"},
        {"paper_err_pct", err, "%"},
    };
  } else {
    const double tp = traced_passes;
    auto total = [&](const char* name) { return spans.total_s(name); };
    auto per = [&](double seconds, const char* count, double scale) {
      const double n = static_cast<double>(spans.counted(count));
      return n > 0 ? scale * seconds * factor / n : 0.0;
    };
    auto ratio = [&](const char* name) {
      const double base = total("obs.cost.detached");
      return base > 0 ? total(name) / base : 0.0;
    };
    auto count = [&](const char* name) {
      return static_cast<double>(spans.counted(name)) / tp;
    };
    double renders = 0;
    for (const Spans::Record& r : spans.records()) {
      renders += std::string(r.name) == "obs.render";
    }
    const double cost_s =
        total("obs.cost.detached") + total("obs.cost.attribution") +
        total("obs.cost.metrics") + total("obs.cost.linestats");
    // Both sides in reference seconds; the observer-cost spans run only in
    // the traced passes and are taken out.
    const double traced_pass_s =
        (traced->ref_wall_s -
         cost_s * traced->ref_wall_s / traced->wall_s) / tp;
    const double overhead =
        100.0 * (traced_pass_s / (timed.ref_wall_s / passes) - 1.0);
    metrics = {
        {"host.ref_kernel_ms", 1e3 * runner.kernel_median_s(), "ms"},
        {"host.raw_wall_s", timed.wall_s, "s"},
        {"host.sys_s", after.sys_s - before.sys_s, "s"},
        {"host.minor_faults",
         static_cast<double>(after.minor_faults - before.minor_faults),
         "count"},
        {"machine.construct_ms",
         per(total("machine.construct") + total("machine.destroy"),
             "machine.systems_built", 1e3),
         "ms"},
        {"machine.systems_built", count("machine.systems_built"), "count"},
        {"core.place_ns_per_line",
         per(total("core.place"), "core.lines_placed", 1e9), "ns"},
        {"core.lines_placed", count("core.lines_placed"), "count"},
        {"core.chase_ns_per_access",
         per(total("core.chase"), "core.chase_accesses", 1e9), "ns"},
        {"core.chase_accesses", count("core.chase_accesses"), "count"},
        {"coh.read_ns", per(total("coh.read"), "core.chase_accesses", 1e9),
         "ns"},
        {"exec.programs_ns_per_access",
         per(total("exec.run_programs"), "exec.program_accesses", 1e9), "ns"},
        {"exec.program_accesses", count("exec.program_accesses"), "count"},
        {"exec.closed_loop_ns_per_line",
         per(total("exec.closed_loop"), "exec.lines_retired", 1e9), "ns"},
        {"exec.lines_retired", count("exec.lines_retired"), "count"},
        {"bw.model_ms", per(total("bw.model"), "bw.points", 1e3), "ms"},
        {"workload.tracegen_s",
         setup_spans.total_s("workload.tracegen") * factor, "s"},
        {"workload.trace_events",
         static_cast<double>(setup_spans.counted("workload.trace_events")),
         "count"},
        {"obs.attribution_cost_x", ratio("obs.cost.attribution"), "x"},
        {"obs.metrics_cost_x", ratio("obs.cost.metrics"), "x"},
        {"obs.linestats_cost_x", ratio("obs.cost.linestats"), "x"},
        {"obs.render_ms",
         renders > 0 ? 1e3 * total("obs.render") * factor / renders : 0.0,
         "ms"},
        {"obs.report_bytes",
         renders > 0 ? static_cast<double>(spans.counted("obs.report_bytes")) /
                           renders
                     : 0.0,
         "bytes"},
        {"bench.trace_overhead_pct", overhead, "%"},
    };
    for (const auto& [name, value] : counters_by_name(timed.counters)) {
      metrics.push_back({name, static_cast<double>(value), "count"});
    }
    const std::string spans_path =
        args.out_dir + "/spans_" + args.workload + ".csv";
    if (!spans.write_csv(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    }
    std::printf("perfbench: traced passes=%d, spans written to %s\n",
                traced_passes, spans_path.c_str());
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed,
      metrics_json(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  // Keep freed memory in the process: no mmap for large blocks, no trimming.
  // Left to glibc's defaults, whether an op's System allocations fault in
  // fresh pages depends on the mmap threshold (which rises as large blocks
  // are freed) and on heap holes left by whatever ran earlier, so the same
  // op cost 0 or 20 000 page faults from one process to the next.  Pinned
  // like this, every op runs on recycled memory once the warm-up op has
  // grown the heap.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --cells FILE --out-dir DIR\n");
    return 2;
  }
  // Pin to the CPU we started on: host speed differs between CPUs and
  // drifts on each, and the kernel helper (which inherits the mask) must
  // measure the CPU the ops run on.  The runner may move to another of the
  // CPUs we were allowed.
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  const int cpu = sched_getcpu();
  if (cpu < 0 || !perfbench::pin_self(cpu)) cpus.clear();
  perfbench::RefKernelProcess kernel;
  return perfbench::run(*args, process_start, kernel, std::move(cpus), cpu);
}
