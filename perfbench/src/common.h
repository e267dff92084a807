// Shared types of the perfbench harness.
//
// A workload is a fixed list of ops (one "pass").  Each op calls one public
// hswsim entry point and returns what it simulated: the access count, the
// engine-counter deltas, a digest of its results, the paper cells it
// measured, and any failed output check.  Every op also has a traced twin
// that drives the same steps through the layers' own public calls inside
// spans and must reproduce the op's digest and counters exactly.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/counters.h"

namespace perfbench {

class Spans;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// FNV-1a over the bit patterns of simulated results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct OpResult {
  std::uint64_t accesses = 0;            // simulated accesses (engine-counted)
  hsw::CounterSet::Snapshot counters{};  // engine-counter deltas
  Digest digest;                         // of every simulated result
  std::vector<std::pair<std::string, double>> cells;  // paper cell id, value
  std::vector<std::string> failures;     // failed output checks

  void check(bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  }
  void add_counters(const hsw::CounterSet::Snapshot& delta) {
    for (std::size_t i = 0; i < delta.size(); ++i) counters[i] += delta[i];
  }
};

struct Op {
  std::string name;
  std::function<void(OpResult&)> run;             // through the entry point
  std::function<void(OpResult&, Spans&)> traced;  // same steps, in spans
};

struct Workload {
  std::string name;
  // Reference seconds one pass takes on the reference host; the run makes
  // round(--seconds / pass_ref_s) passes, so the amount of work is fixed by
  // --seconds alone and is the same on every commit.
  double pass_ref_s = 1.0;
  std::vector<Op> ops;  // ops[0] is also the untimed warm-up op
  // Optional check over a whole pass (untimed, counted as one op), for
  // facts that span several ops.
  std::function<void(OpResult&)> pass_check;
};

// Workload builders (one translation unit each).  `spans` is non-null in
// traced runs and receives the input-generation spans.
Workload make_latency_sweep(std::uint64_t seed);
Workload make_bandwidth_sim(std::uint64_t seed);
Workload make_coherence_replay(std::uint64_t seed, Spans* spans);
Workload make_observed_sweep(std::uint64_t seed, const std::string& out_dir);

}  // namespace perfbench
