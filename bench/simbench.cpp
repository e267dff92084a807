// google-benchmark microbenchmarks of the simulator itself: throughput of
// the hot paths (cache hits, protocol transactions, placement).  These keep
// the engine fast enough for the full-figure sweeps.
//
// Unless --benchmark_out is given, results are also written as JSON to
// BENCH_simcore.json (per-benchmark ns/op) so successive PRs can diff the
// perf trajectory.
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include <functional>
#include <queue>

#include "coh/protocol.h"
#include "core/hswbench.h"
#include "exec/engine.h"
#include "mem/cache_array.h"
#include "obs/line_stats.h"
#include "obs/resource_stats.h"
#include "sim/event_kernel.h"
#include "support/legacy_cache_array.h"
#include "trace/tracer.h"
#include "workload/trace.h"

namespace {

void BM_L1Hit(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  const hsw::PhysAddr addr = sys.alloc_on_node(0, 64).base;
  sys.write(0, addr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.read(0, addr).ns);
  }
}
BENCHMARK(BM_L1Hit);

void BM_L3Hit(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  const hsw::MemRegion region = sys.alloc_on_node(0, hsw::mib(1));
  const auto order = hsw::chase_order(region, 1);
  for (hsw::LineAddr line : order) sys.write(0, hsw::addr_of(line));
  sys.evict_core_caches(0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.read(1, hsw::addr_of(order[i])).ns);
    i = (i + 1) % order.size();
  }
}
BENCHMARK(BM_L3Hit);

void BM_MemoryRead(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  const hsw::MemRegion region = sys.alloc_on_node(0, hsw::mib(64));
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.read(0, region.addr_at((line * 64) % region.bytes)).ns);
    line += 97;  // stride past the caches
  }
}
BENCHMARK(BM_MemoryRead);

void BM_CrossSocketTransfer(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  const hsw::PhysAddr addr = sys.alloc_on_node(0, 64).base;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.write(0, addr).ns);
    benchmark::DoNotOptimize(sys.write(12, addr).ns);
  }
}
BENCHMARK(BM_CrossSocketTransfer);

void BM_CodSharedBroadcast(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::cluster_on_die());
  const hsw::SystemTopology& topo = sys.topology();
  const hsw::PhysAddr addr = sys.alloc_on_node(1, 64).base;
  for (auto _ : state) {
    state.PauseTiming();
    sys.write(topo.node(1).cores[1], addr);
    sys.flush_line(addr);
    sys.read(topo.node(1).cores[1], addr);
    sys.read(topo.node(2).cores[1], addr);
    sys.evict_core_caches(topo.node(1).cores[1]);
    sys.evict_core_caches(topo.node(2).cores[1]);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sys.read(0, addr).ns);
  }
}
BENCHMARK(BM_CodSharedBroadcast);

void BM_Placement64KiB(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  for (auto _ : state) {
    const hsw::MemRegion region = sys.alloc_on_node(0, hsw::kib(64));
    hsw::Placement placement;
    placement.owner_core = 0;
    placement.memory_node = 0;
    placement.state = hsw::Mesif::kExclusive;
    hsw::place(sys, region, placement);
    benchmark::DoNotOptimize(region.base);
  }
}
BENCHMARK(BM_Placement64KiB);

// --- Tracing overhead ----------------------------------------------------
//
// BM_L1Hit / BM_MemoryRead above ARE the disabled-tracing hot path: with no
// tracer attached every instrumentation site in the engine reduces to one
// null-pointer test.  The variants below attach a tracer so the cost of
// turning observability on is a recorded number, and the *TracingOff pair
// re-measures the null-tracer path in the same process so the off/on delta
// is visible in one BENCH_simcore.json.  scripts/check.sh guards the
// off-state lookup/insert numbers against the checked-in baseline.

void BM_L1HitTracingOff(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  sys.set_tracer(nullptr);  // explicit: the default, and the guarded path
  const hsw::PhysAddr addr = sys.alloc_on_node(0, 64).base;
  sys.write(0, addr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.read(0, addr).ns);
  }
}
BENCHMARK(BM_L1HitTracingOff);

void BM_L1HitAttribution(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  hsw::trace::Tracer tracer(hsw::trace::Tracer::Mode::kAttribution, 0, 0);
  sys.set_tracer(&tracer);
  const hsw::PhysAddr addr = sys.alloc_on_node(0, 64).base;
  sys.write(0, addr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.read(0, addr).ns);
  }
}
BENCHMARK(BM_L1HitAttribution);

void BM_MemoryReadTracingOff(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  sys.set_tracer(nullptr);
  const hsw::MemRegion region = sys.alloc_on_node(0, hsw::mib(64));
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.read(0, region.addr_at((line * 64) % region.bytes)).ns);
    line += 97;
  }
}
BENCHMARK(BM_MemoryReadTracingOff);

void BM_MemoryReadAttribution(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  hsw::trace::Tracer tracer(hsw::trace::Tracer::Mode::kAttribution, 0, 0);
  sys.set_tracer(&tracer);
  const hsw::MemRegion region = sys.alloc_on_node(0, hsw::mib(64));
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.read(0, region.addr_at((line * 64) % region.bytes)).ns);
    line += 97;
  }
}
BENCHMARK(BM_MemoryReadAttribution);

void BM_MemoryReadFullTrace(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  hsw::trace::Tracer tracer(hsw::trace::Tracer::Mode::kFull, 0, 4096);
  sys.set_tracer(&tracer);
  const hsw::MemRegion region = sys.alloc_on_node(0, hsw::mib(64));
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.read(0, region.addr_at((line * 64) % region.bytes)).ns);
    line += 97;
  }
}
BENCHMARK(BM_MemoryReadFullTrace);

// --- Metrics overhead ----------------------------------------------------
//
// Same story as the tracing pairs above, for the uncore-metrics registry:
// the *MetricsOff variants re-measure the detached path (one null-pointer
// test per instrumentation site) in the same process as the *MetricsOn
// variants, so the off/on delta lands in one BENCH_simcore.json.
// scripts/check.sh guards the off numbers against the checked-in baseline
// (the detached path must stay within noise of the pre-metrics engine).

void BM_L1HitMetricsOff(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  const hsw::PhysAddr addr = sys.alloc_on_node(0, 64).base;
  sys.write(0, addr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.read(0, addr).ns);
  }
}
BENCHMARK(BM_L1HitMetricsOff);

void BM_L1HitMetricsOn(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  hsw::metrics::MetricsRegistry registry(0, 0);  // no sampling: counter cost
  sys.attach_metrics(registry);
  const hsw::PhysAddr addr = sys.alloc_on_node(0, 64).base;
  sys.write(0, addr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.read(0, addr).ns);
  }
  sys.detach_metrics();
}
BENCHMARK(BM_L1HitMetricsOn);

void BM_MemoryReadMetricsOff(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  const hsw::MemRegion region = sys.alloc_on_node(0, hsw::mib(64));
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.read(0, region.addr_at((line * 64) % region.bytes)).ns);
    line += 97;
  }
}
BENCHMARK(BM_MemoryReadMetricsOff);

void BM_MemoryReadMetricsOn(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  hsw::metrics::MetricsRegistry registry(0, 0);
  sys.attach_metrics(registry);
  const hsw::MemRegion region = sys.alloc_on_node(0, hsw::mib(64));
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.read(0, region.addr_at((line * 64) % region.bytes)).ns);
    line += 97;
  }
  sys.detach_metrics();
}
BENCHMARK(BM_MemoryReadMetricsOn);

// --- Flight-recorder overhead --------------------------------------------
//
// Third verse, same as the first two: the *LineStatsOff variants re-measure
// the detached path (a null obs::LineStatsRecorder* per instrumentation
// site) in the same process as the *LineStatsOn variants.  scripts/check.sh
// guards the off numbers against the checked-in baseline and the on/off
// ratio, so attaching the per-line recorder stays a choice, not a tax.

void BM_L1HitLineStatsOff(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  const hsw::PhysAddr addr = sys.alloc_on_node(0, 64).base;
  sys.write(0, addr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.read(0, addr).ns);
  }
}
BENCHMARK(BM_L1HitLineStatsOff);

void BM_L1HitLineStatsOn(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  hsw::obs::LineStatsRecorder recorder(sys.config().protocol, 0);
  sys.attach_linestats(recorder);
  const hsw::PhysAddr addr = sys.alloc_on_node(0, 64).base;
  sys.write(0, addr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.read(0, addr).ns);
  }
  sys.detach_linestats();
}
BENCHMARK(BM_L1HitLineStatsOn);

void BM_MemoryReadLineStatsOff(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  const hsw::MemRegion region = sys.alloc_on_node(0, hsw::mib(64));
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.read(0, region.addr_at((line * 64) % region.bytes)).ns);
    line += 97;
  }
}
BENCHMARK(BM_MemoryReadLineStatsOff);

void BM_MemoryReadLineStatsOn(benchmark::State& state) {
  hsw::System sys(hsw::SystemConfig::source_snoop());
  hsw::obs::LineStatsRecorder recorder(sys.config().protocol, 0);
  sys.attach_linestats(recorder);
  const hsw::MemRegion region = sys.alloc_on_node(0, hsw::mib(64));
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sys.read(0, region.addr_at((line * 64) % region.bytes)).ns);
    line += 97;
  }
  sys.detach_linestats();
}
BENCHMARK(BM_MemoryReadLineStatsOn);

// --- CacheArray hot path (the inner loop of every simulated access) ------

// 256 KiB, 8-way: 512 sets x 8 ways = 4096 lines, filled completely so
// every lookup hits after a full-set tag scan.
constexpr std::uint64_t kArrayLines = 4096;

hsw::CacheArray filled_array(hsw::Replacement replacement) {
  hsw::CacheArray array(hsw::kib(256), 8, replacement);
  for (std::uint64_t line = 0; line < kArrayLines; ++line) {
    array.insert(line, hsw::Mesif::kExclusive);
  }
  return array;
}

void BM_CacheLookupHit(benchmark::State& state) {
  hsw::CacheArray array = filled_array(hsw::Replacement::kLru);
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.lookup(line));
    line = (line + 97) % kArrayLines;
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheLookupMiss(benchmark::State& state) {
  hsw::CacheArray array = filled_array(hsw::Replacement::kLru);
  std::uint64_t line = kArrayLines;  // same sets, never-present tags
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.lookup(line));
    line = kArrayLines + (line + 97) % kArrayLines;
  }
}
BENCHMARK(BM_CacheLookupMiss);

void BM_CacheInsertEvict(benchmark::State& state) {
  hsw::CacheArray array = filled_array(hsw::Replacement::kLru);
  std::uint64_t line = kArrayLines;  // every insert evicts an LRU victim
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.insert(line++, hsw::Mesif::kModified));
  }
}
BENCHMARK(BM_CacheInsertEvict);

void BM_CacheInsertPlru(benchmark::State& state) {
  hsw::CacheArray array = filled_array(hsw::Replacement::kTreePlru);
  std::uint64_t line = kArrayLines;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.insert(line++, hsw::Mesif::kModified));
  }
}
BENCHMARK(BM_CacheInsertPlru);

// --- Fast-path pairs: current implementation vs the PR 5 one --------------
//
// The committed BENCH_simcore.json numbers move with the build host, so
// each optimized subsystem carries a frozen copy of its predecessor in the
// same binary: the AoS CacheArray (tests/support/legacy_cache_array.h), a
// replica of the std::function priority-queue event kernel, and the MESIF
// switch ladders.  Every *Legacy row divided by its partner row is a
// machine-independent speedup measurement — that is the number the
// EXPERIMENTS.md speedup table quotes.

hswtest::LegacyCacheArray filled_legacy_array(hsw::Replacement replacement) {
  hswtest::LegacyCacheArray array(hsw::kib(256), 8, replacement);
  for (std::uint64_t line = 0; line < kArrayLines; ++line) {
    array.insert(line, hsw::Mesif::kExclusive);
  }
  return array;
}

void BM_CacheLookupHitLegacy(benchmark::State& state) {
  hswtest::LegacyCacheArray array = filled_legacy_array(hsw::Replacement::kLru);
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.lookup(line));
    line = (line + 97) % kArrayLines;
  }
}
BENCHMARK(BM_CacheLookupHitLegacy);

void BM_CacheLookupMissLegacy(benchmark::State& state) {
  hswtest::LegacyCacheArray array = filled_legacy_array(hsw::Replacement::kLru);
  std::uint64_t line = kArrayLines;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.lookup(line));
    line = kArrayLines + (line + 97) % kArrayLines;
  }
}
BENCHMARK(BM_CacheLookupMissLegacy);

void BM_CacheInsertEvictLegacy(benchmark::State& state) {
  hswtest::LegacyCacheArray array = filled_legacy_array(hsw::Replacement::kLru);
  std::uint64_t line = kArrayLines;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.insert(line++, hsw::Mesif::kModified));
  }
}
BENCHMARK(BM_CacheInsertEvictLegacy);

void BM_CacheInsertPlruLegacy(benchmark::State& state) {
  hswtest::LegacyCacheArray array =
      filled_legacy_array(hsw::Replacement::kTreePlru);
  std::uint64_t line = kArrayLines;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.insert(line++, hsw::Mesif::kModified));
  }
}
BENCHMARK(BM_CacheInsertPlruLegacy);

// The PR 5 event kernel, frozen: std::function actions in a
// std::priority_queue, top() copied out per pop.
class LegacyEventQueue {
 public:
  using Action = std::function<void()>;

  void schedule_at(double when, std::int32_t key, Action action) {
    heap_.push(Event{when, key, next_seq_++, std::move(action)});
  }
  void schedule_after(double delay, std::int32_t key, Action action) {
    schedule_at(now_ + delay, key, std::move(action));
  }
  std::uint64_t run(std::uint64_t max_events) {
    std::uint64_t executed = 0;
    while (!heap_.empty() && executed < max_events) {
      Event event = heap_.top();  // the copy the rewrite removed
      heap_.pop();
      now_ = event.when;
      event.action();
      ++executed;
    }
    return executed;
  }
  [[nodiscard]] double now() const { return now_; }

 private:
  struct Event {
    double when;
    std::int32_t key;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

// The exec engine's steady-state pattern: a fixed population of flows, each
// completion advancing its resource stage and rescheduling; every third
// completion re-issues at now() (the same-timestamp bursts epoch batching
// exists for).
constexpr int kChurnFlows = 32;
constexpr std::size_t kChurnStages = 3;

double churn_delay(std::uint32_t flow) {
  return (flow % 3 == 0) ? 0.0 : 0.7 * static_cast<double>(flow % 5);
}

// What the PR 5 engine's advance() captured per scheduled event
// (exec/engine.cpp: `[&, p, flow, base_ns, stage]` with bw::Flow by value,
// uses-vector included).  Far over std::function's inline buffer, so every
// schedule allocated — and the priority_queue top() copy allocated again.
struct LegacyFlowCtx {
  std::vector<double> uses;
  std::uint32_t flow = 0;
  double base_ns = 0.0;
  std::size_t stage = 0;
};

void BM_EventKernelChurn(benchmark::State& state) {
  // Same simulated workload as the legacy pair below, restructured the way
  // the rewrite did: flow context lives in an indexed side table and the
  // event payload is a POD index into it.
  struct Ev {
    std::uint32_t flow;
  };
  std::vector<std::size_t> stage(kChurnFlows, 0);
  hsw::EventKernel<Ev> kernel;
  kernel.reserve(kChurnFlows * 2);
  for (std::uint32_t f = 0; f < kChurnFlows; ++f) {
    kernel.schedule_at(0.1 * f, static_cast<std::int32_t>(f), Ev{f});
  }
  auto dispatch = [&](const Ev& ev) {
    stage[ev.flow] = (stage[ev.flow] + 1) % kChurnStages;
    kernel.schedule_after(churn_delay(ev.flow),
                          static_cast<std::int32_t>(ev.flow), Ev{ev.flow});
  };
  for (auto _ : state) {
    kernel.run(dispatch, 64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventKernelChurn);

void BM_EventKernelChurnLegacy(benchmark::State& state) {
  LegacyEventQueue queue;
  std::function<void(const LegacyFlowCtx&)> advance =
      [&](const LegacyFlowCtx& ctx) {
        LegacyFlowCtx next = ctx;
        next.stage = (next.stage + 1) % next.uses.size();
        queue.schedule_after(churn_delay(ctx.flow),
                             static_cast<std::int32_t>(ctx.flow),
                             [&advance, next] { advance(next); });
      };
  for (std::uint32_t f = 0; f < kChurnFlows; ++f) {
    queue.schedule_at(
        0.1 * f, static_cast<std::int32_t>(f),
        [&advance, ctx = LegacyFlowCtx{{1.0, 0.7, 0.4}, f, 1.0, 0}] {
          advance(ctx);
        });
  }
  for (auto _ : state) {
    queue.run(64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventKernelChurnLegacy);

// MESIF transition: the indexed tables vs a replica of the PR 5 switch
// ladder (coh/protocol.h vs the branches it replaced).
hsw::Mesif ladder_next_state(hsw::Mesif state, hsw::protocol::Op op) {
  using hsw::Mesif;
  using hsw::protocol::Op;
  switch (op) {
    case Op::kLocalRead:
      return state;
    case Op::kLocalStore:
      switch (state) {
        case Mesif::kExclusive:
        case Mesif::kModified:
          return Mesif::kModified;
        default:
          return state;
      }
    case Op::kSnoopRead:
      switch (state) {
        case Mesif::kInvalid:
          return Mesif::kInvalid;
        default:
          return Mesif::kShared;
      }
    case Op::kSnoopInvalidate:
      return Mesif::kInvalid;
    case Op::kSnoopUpdate:
      // Not part of the frozen PR 5 ladder (update-based protocols came
      // later); the stream never generates it.
      return state;
  }
  return state;
}

// A deterministic pseudo-random (state, op) stream shared by both variants.
std::vector<std::pair<hsw::Mesif, hsw::protocol::Op>> transition_stream() {
  std::vector<std::pair<hsw::Mesif, hsw::protocol::Op>> stream;
  stream.reserve(4096);
  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    stream.emplace_back(static_cast<hsw::Mesif>(x % 5),
                        static_cast<hsw::protocol::Op>((x >> 8) % 4));
  }
  return stream;
}

void BM_MesifTransitionTable(benchmark::State& state) {
  const auto stream = transition_stream();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, op] = stream[i];
    benchmark::DoNotOptimize(hsw::protocol::next_state(s, op));
    i = (i + 1) % stream.size();
  }
}
BENCHMARK(BM_MesifTransitionTable);

void BM_MesifTransitionLadder(benchmark::State& state) {
  const auto stream = transition_stream();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, op] = stream[i];
    benchmark::DoNotOptimize(ladder_next_state(s, op));
    i = (i + 1) % stream.size();
  }
}
BENCHMARK(BM_MesifTransitionLadder);

// Aggregate access path: one simulated access touches all three rewritten
// subsystems — a tag lookup, a MESIF transition on the hit, and an event
// pop + reschedule.  The pair measures the compounded speedup the tentpole
// claims; divide the Legacy row by this one.
void BM_AccessThroughput(benchmark::State& state) {
  hsw::CacheArray array = filled_array(hsw::Replacement::kLru);
  struct Ev {
    std::uint32_t flow;
  };
  std::vector<std::size_t> stage(kChurnFlows, 0);
  hsw::EventKernel<Ev> kernel;
  kernel.reserve(kChurnFlows * 2);
  for (std::uint32_t f = 0; f < kChurnFlows; ++f) {
    kernel.schedule_at(0.1 * f, static_cast<std::int32_t>(f), Ev{f});
  }
  auto dispatch = [&](const Ev& ev) {
    stage[ev.flow] = (stage[ev.flow] + 1) % kChurnStages;
    kernel.schedule_after(churn_delay(ev.flow),
                          static_cast<std::int32_t>(ev.flow), Ev{ev.flow});
  };
  std::uint64_t line = 0;
  for (auto _ : state) {
    hsw::CacheArray::Ref ref = array.lookup(line);
    ref.state() =
        hsw::protocol::next_state(ref.state(), hsw::protocol::Op::kLocalRead);
    kernel.run(dispatch, 1);
    line = (line + 97) % kArrayLines;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccessThroughput);

void BM_AccessThroughputLegacy(benchmark::State& state) {
  hswtest::LegacyCacheArray array = filled_legacy_array(hsw::Replacement::kLru);
  LegacyEventQueue queue;
  std::function<void(const LegacyFlowCtx&)> advance =
      [&](const LegacyFlowCtx& ctx) {
        LegacyFlowCtx next = ctx;
        next.stage = (next.stage + 1) % next.uses.size();
        queue.schedule_after(churn_delay(ctx.flow),
                             static_cast<std::int32_t>(ctx.flow),
                             [&advance, next] { advance(next); });
      };
  for (std::uint32_t f = 0; f < kChurnFlows; ++f) {
    queue.schedule_at(
        0.1 * f, static_cast<std::int32_t>(f),
        [&advance, ctx = LegacyFlowCtx{{1.0, 0.7, 0.4}, f, 1.0, 0}] {
          advance(ctx);
        });
  }
  std::uint64_t line = 0;
  for (auto _ : state) {
    hsw::CacheEntry* entry = array.lookup(line);
    entry->state = ladder_next_state(entry->state, hsw::protocol::Op::kLocalRead);
    queue.run(1);
    line = (line + 97) % kArrayLines;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccessThroughputLegacy);

void BM_CacheFillFlush(benchmark::State& state) {
  hsw::CacheArray array(hsw::kib(256), 8);
  for (auto _ : state) {
    for (std::uint64_t line = 0; line < kArrayLines; ++line) {
      array.insert(line, hsw::Mesif::kModified);
    }
    std::uint64_t evicted = 0;
    array.flush([&](const hsw::CacheEntry&) { ++evicted; });
    benchmark::DoNotOptimize(evicted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kArrayLines));
}
BENCHMARK(BM_CacheFillFlush);

// A streaming fill then flush: each insert writes one 16-byte record and a
// partial-tag byte (plus the set's ranks when the set was empty), where the
// frozen array writes one record holding a 64-bit LRU clock.  Recorded so
// the fill cost of the production layout stays visible beside its lookups.
void BM_CacheFillFlushLegacy(benchmark::State& state) {
  hswtest::LegacyCacheArray array(hsw::kib(256), 8);
  for (auto _ : state) {
    for (std::uint64_t line = 0; line < kArrayLines; ++line) {
      array.insert(line, hsw::Mesif::kModified);
    }
    std::uint64_t evicted = 0;
    array.flush([&](const hsw::CacheEntry&) { ++evicted; });
    benchmark::DoNotOptimize(evicted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kArrayLines));
}
BENCHMARK(BM_CacheFillFlushLegacy);

// --- Exec engine: the simulated bandwidth path and concurrent replay -----
//
// Analytic/simulated and serial/concurrent pairs, so BENCH_simcore.json
// records what switching a bandwidth point to the event-driven engine (or
// a replay to MLP-window interleaving) costs in simulator wall clock.

hsw::BandwidthConfig exec_bandwidth_point(hsw::BandwidthEngine engine) {
  hsw::BandwidthConfig bc;
  for (int c = 0; c < 4; ++c) {
    hsw::StreamConfig stream;
    stream.core = c;
    stream.placement.owner_core = c;
    stream.placement.memory_node = 0;
    stream.placement.state = hsw::Mesif::kModified;
    stream.placement.level = hsw::CacheLevel::kMemory;
    bc.streams.push_back(stream);
  }
  bc.buffer_bytes = hsw::mib(2);
  bc.engine = engine;
  return bc;
}

void BM_ExecEngineBandwidthAnalytic(benchmark::State& state) {
  const hsw::BandwidthConfig bc =
      exec_bandwidth_point(hsw::BandwidthEngine::kAnalytic);
  for (auto _ : state) {
    hsw::System system(hsw::SystemConfig::source_snoop());
    benchmark::DoNotOptimize(hsw::measure_bandwidth(system, bc).total_gbps);
  }
}
BENCHMARK(BM_ExecEngineBandwidthAnalytic)->Unit(benchmark::kMillisecond);

void BM_ExecEngineBandwidthSimulated(benchmark::State& state) {
  const hsw::BandwidthConfig bc =
      exec_bandwidth_point(hsw::BandwidthEngine::kSimulated);
  for (auto _ : state) {
    hsw::System system(hsw::SystemConfig::source_snoop());
    benchmark::DoNotOptimize(hsw::measure_bandwidth(system, bc).total_gbps);
  }
}
BENCHMARK(BM_ExecEngineBandwidthSimulated)->Unit(benchmark::kMillisecond);

// Fourth verse: the *ResStatsOff variant re-measures the detached path (a
// null obs::ResourceStatsRecorder* per closed-loop event) in the same
// process as the *ResStatsOn variant.  scripts/check.sh guards the off
// number against the checked-in baseline and the on/off ratio, so the
// per-resource queueing telemetry stays a choice, not a tax.

std::vector<hsw::exec::StreamTask> resstats_tasks() {
  std::vector<hsw::exec::StreamTask> tasks(4);
  for (std::size_t f = 0; f < tasks.size(); ++f) {
    tasks[f].core = static_cast<int>(f);
    tasks[f].demand_gbps = 8.0;
    tasks[f].latency_ns = 50.0;
    tasks[f].path = {{0, 1.0}};
  }
  return tasks;
}

void BM_ClosedLoopResStatsOff(benchmark::State& state) {
  const std::vector<hsw::exec::StreamTask> tasks = resstats_tasks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hsw::exec::run_closed_loop(tasks, {10.0}).total_gbps);
  }
}
BENCHMARK(BM_ClosedLoopResStatsOff)->Unit(benchmark::kMillisecond);

void BM_ClosedLoopResStatsOn(benchmark::State& state) {
  const std::vector<hsw::exec::StreamTask> tasks = resstats_tasks();
  for (auto _ : state) {
    // One recorder serves one run, so it is (deliberately) rebuilt per
    // iteration: the attach cost is part of what the pair measures.
    hsw::obs::ResourceStatsRecorder recorder;
    hsw::exec::ClosedLoopConfig config;
    config.resstats = &recorder;
    benchmark::DoNotOptimize(
        hsw::exec::run_closed_loop(tasks, {10.0}, config).total_gbps);
  }
}
BENCHMARK(BM_ClosedLoopResStatsOn)->Unit(benchmark::kMillisecond);

hsw::Trace exec_replay_trace(hsw::System& system) {
  return hsw::make_hotset_trace(system, {0, 1, 12, 13}, 64, 20000, 0.3, 1);
}

void BM_ExecEngineReplaySerial(benchmark::State& state) {
  for (auto _ : state) {
    hsw::System system(hsw::SystemConfig::source_snoop());
    const hsw::Trace trace = exec_replay_trace(system);
    benchmark::DoNotOptimize(hsw::replay(system, trace).events);
  }
}
BENCHMARK(BM_ExecEngineReplaySerial)->Unit(benchmark::kMillisecond);

void BM_ExecEngineReplayConcurrent(benchmark::State& state) {
  for (auto _ : state) {
    hsw::System system(hsw::SystemConfig::source_snoop());
    const hsw::Trace trace = exec_replay_trace(system);
    benchmark::DoNotOptimize(
        hsw::replay_concurrent(system, trace).accesses);
  }
}
BENCHMARK(BM_ExecEngineReplayConcurrent)->Unit(benchmark::kMillisecond);

// --- Whole-sweep wall clock (the harness's end-to-end unit of work) ------

void BM_LatencySweepWallClock(benchmark::State& state) {
  hsw::LatencySweepConfig config;
  config.system = hsw::SystemConfig::source_snoop();
  config.reader_core = 0;
  config.placement.owner_core = 1;
  config.placement.state = hsw::Mesif::kModified;
  config.sizes = hsw::sweep_sizes(hsw::kib(16), hsw::mib(2));
  config.max_measured_lines = 2048;
  config.jobs = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsw::latency_sweep(config).size());
  }
}
BENCHMARK(BM_LatencySweepWallClock)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

// BENCHMARK_MAIN, plus a default JSON dump to BENCH_simcore.json so the
// perf numbers of every PR land in a diffable artifact.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out")) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_simcore.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
