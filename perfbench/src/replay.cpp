// coherence_replay: hsw::replay_concurrent of mixed sharing traces on fresh
// MESIF Systems under all three snoop modes.
//
// Each trace mixes, on disjoint cores: hot-set contention with writes,
// producer-consumer blocks, two ping-pong mailboxes, a contended lock,
// unpadded false sharing, streams with writes, and one latency-bound chase
// through fresh local memory whose unloaded mean latency is a Table III
// cell.  The coh write path (ownership migration, invalidations,
// writebacks, directory and HitME updates) and exec::run_programs do the
// work; System construction is a small share.  Traces are generated at
// set-up from the seed.
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "common.h"
#include "layers.h"
#include "spans.h"
#include "util/units.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

using hsw::kib;
using hsw::mib;
using hsw::SnoopMode;

constexpr int kChaseCore = 8;
constexpr int kTracesPerMode = 3;

hsw::Trace mixed_trace(hsw::System& gen, std::uint64_t seed) {
  hsw::Trace trace;
  auto append = [&trace](const hsw::Trace& part) {
    trace.insert(trace.end(), part.begin(), part.end());
  };
  append(hsw::make_hotset_trace(gen, {0, 1, 12, 13}, 64, 12'000, 0.3, seed));
  append(hsw::make_producer_consumer_trace(gen, 2, 14, kib(16), 16, seed));
  append(hsw::make_pingpong_trace(gen, 3, 15, 3'000));
  append(hsw::make_pingpong_trace(gen, 4, 5, 3'000));
  append(hsw::make_lock_trace(gen, {6, 7, 18, 19}, 4, 1'500, seed + 1));
  append(hsw::make_false_sharing_trace(gen, {9, 10, 20, 21}, 1'500, false));
  append(hsw::make_stream_trace(gen, {11, 22}, kib(512), 0.3, seed + 2));
  append(hsw::make_chase_trace(gen, {kChaseCore}, mib(64), 4'000, seed + 3));
  return trace;
}

Op replay_op(const std::string& name, SnoopMode mode,
             std::shared_ptr<const hsw::Trace> trace, std::string cell) {
  const hsw::SystemConfig system = hsw::SystemConfig::for_mode(mode);
  auto record = [trace, cell](OpResult& out,
                              const hsw::exec::ProgramExecStats& s) {
    out.accesses += s.accesses;
    out.add_counters(s.counters);
    out.digest.add(s.makespan_ns);
    out.digest.add(s.accesses);
    out.digest.add(s.flushes);
    out.digest.add(s.access_ns);
    out.digest.add(s.queue_ns);
    for (std::uint64_t n : s.by_source) out.digest.add(n);
    for (std::uint64_t n : s.counters) out.digest.add(n);
    for (const hsw::exec::CoreExecStats& c : s.per_core) {
      out.digest.add(static_cast<std::uint64_t>(c.core));
      out.digest.add(c.accesses);
      out.digest.add(c.access_ns);
      out.digest.add(c.queue_ns);
      out.digest.add(c.finish_ns);
      if (c.core == kChaseCore) {
        out.cells.emplace_back(cell, c.mean_access_ns());
      }
    }
    out.check(s.accesses + s.flushes == trace->size(),
              "accesses + flushes != trace events");
    out.check(std::accumulate(s.by_source.begin(), s.by_source.end(),
                              std::uint64_t{0}) == s.accesses,
              "by_source does not sum to accesses");
    out.check(std::isfinite(s.makespan_ns) && s.makespan_ns > 0.0,
              "makespan is not finite and positive");
  };
  Op op;
  op.name = name;
  op.run = [system, trace, record](OpResult& out) {
    hsw::System machine(system);
    record(out, hsw::replay_concurrent(machine, *trace));
  };
  op.traced = [system, trace, record](OpResult& out, Spans& spans) {
    record(out, traced_replay(system, *trace, {}, spans));
  };
  return op;
}

}  // namespace

Workload make_coherence_replay(std::uint64_t seed, Spans* spans) {
  struct Mode {
    const char* name;
    SnoopMode mode;
    const char* cell;  // Table III local-memory cell of the chase core
  };
  const Mode modes[] = {
      {"source", SnoopMode::kSourceSnoop, "t3.mem_local.source"},
      {"home", SnoopMode::kHomeSnoop, "t3.mem_local.home"},
      {"cod", SnoopMode::kCod, "t3.mem_local.cod2r1"},
  };
  Workload w;
  w.name = "coherence_replay";
  w.pass_ref_s = 0.55;
  for (const Mode& m : modes) {
    // Generators allocate from a System; a fresh System of the same
    // configuration allocates the same addresses, so each op replays on
    // its own fresh System.
    hsw::System gen(hsw::SystemConfig::for_mode(m.mode));
    for (int k = 0; k < kTracesPerMode; ++k) {
      const std::uint64_t trace_seed =
          seed * 1000 + static_cast<std::uint64_t>(k) * 10;
      std::shared_ptr<const hsw::Trace> trace;
      {
        std::optional<Spans::Scope> scope;
        if (spans != nullptr) scope.emplace(*spans, "workload.tracegen");
        trace =
            std::make_shared<const hsw::Trace>(mixed_trace(gen, trace_seed));
      }
      if (spans != nullptr) {
        spans->count("workload.trace_events", trace->size());
      }
      w.ops.push_back(replay_op(std::string("replay ") + m.name + " #" +
                                    std::to_string(k),
                                m.mode, trace, m.cell));
    }
  }
  return w;
}

}  // namespace perfbench
