#include "layers.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "bw/model.h"
#include "core/instrumentation.h"
#include "core/placement.h"

namespace perfbench {
namespace {

std::optional<hsw::System> construct(const hsw::SystemConfig& config,
                                     Spans& spans) {
  std::optional<hsw::System> system;
  auto scope = spans.span("machine.construct");
  system.emplace(config);
  spans.count("machine.systems_built", 1);
  return system;
}

void destroy(std::optional<hsw::System>& system, Spans& spans) {
  auto scope = spans.span("machine.destroy");
  system.reset();
}

std::vector<hsw::LineAddr> place(hsw::System& system,
                                 const hsw::Placement& placement,
                                 std::uint64_t bytes, std::uint64_t seed,
                                 Spans& spans) {
  auto scope = spans.span("core.place");
  const hsw::MemRegion region =
      system.alloc_on_node(placement.memory_node, bytes);
  std::vector<hsw::LineAddr> order = hsw::chase_order(region, seed);
  hsw::place_lines(system, order, placement);
  spans.count("core.lines_placed", order.size());
  return order;
}

// The dependent-load chase of core/latency.cpp and core/bandwidth.cpp: the
// coh.read child covers the System calls alone, the core.chase parent adds
// the per-access bookkeeping.
struct Chase {
  std::vector<hsw::AccessResult> accesses;
  hsw::CounterSet::Snapshot counters{};
  std::array<double, hsw::trace::kComponentCount> component_ns{};
  bool has_attribution = false;
};

Chase chase(hsw::System& system, int core, bool write,
            const std::vector<hsw::LineAddr>& order, std::uint64_t lines,
            const hsw::InstrumentationScope& scope, Spans& spans) {
  Chase out;
  out.accesses.resize(lines);
  hsw::ScopedInstrumentation attached(system, scope);
  {
    auto read_scope = spans.span("coh.read");
    for (std::uint64_t i = 0; i < lines; ++i) {
      const hsw::PhysAddr addr = hsw::addr_of(order[i]);
      hsw::AccessResult& a = out.accesses[i];
      a = write ? system.write(core, addr) : system.read(core, addr);
      // The attribution pointer is only valid until the next access.
      if (a.attribution != nullptr) {
        out.has_attribution = true;
        for (std::size_t c = 0; c < hsw::trace::kComponentCount; ++c) {
          out.component_ns[c] += a.attribution->component_ns[c];
        }
        a.attribution = nullptr;
      }
    }
  }
  out.counters = attached.release();
  spans.count("core.chase_accesses", lines);
  return out;
}

std::size_t dominant(const std::array<std::uint64_t, 7>& counts) {
  std::size_t best = 0;
  for (std::size_t s = 1; s < counts.size(); ++s) {
    if (counts[s] > counts[best]) best = s;
  }
  return best;
}

}  // namespace

void record_latency(OpResult& out, const hsw::LatencyResult& result) {
  out.accesses += result.lines_measured;
  out.add_counters(result.counters);
  out.digest.add(result.mean_ns);
  out.digest.add(result.lines_measured);
  for (std::uint64_t n : result.source_counts) out.digest.add(n);
  for (std::uint64_t n : result.counters) out.digest.add(n);
  if (result.has_attribution) {
    for (double ns : result.component_ns) out.digest.add(ns);
  }
  out.check(std::isfinite(result.mean_ns) && result.mean_ns > 0.0,
            "latency is not finite and positive");
}

hsw::LatencyConfig sweep_point_config(const hsw::LatencySweepConfig& sweep,
                                      std::uint64_t bytes) {
  hsw::LatencyConfig lc;
  lc.reader_core = sweep.reader_core;
  lc.placement = sweep.placement;
  lc.placement.level = hsw::CacheLevel::kL1L2;
  lc.buffer_bytes = bytes;
  lc.max_measured_lines = sweep.max_measured_lines;
  lc.seed = sweep.seed;
  return lc;
}

hsw::LatencyResult traced_latency(const hsw::SystemConfig& system_config,
                                  const hsw::LatencyConfig& config,
                                  Spans& spans) {
  std::optional<hsw::System> system = construct(system_config, spans);
  hsw::LatencyResult result;
  {
    const std::vector<hsw::LineAddr> order = place(
        *system, config.placement, config.buffer_bytes, config.seed, spans);
    const std::uint64_t measured =
        std::min<std::uint64_t>(order.size(), config.max_measured_lines);
    auto chase_scope = spans.span("core.chase");
    const Chase c = chase(*system, config.reader_core, false, order, measured,
                          config.instrumentation, spans);
    double total = 0.0;
    for (const hsw::AccessResult& a : c.accesses) {
      total += a.ns;
      ++result.source_counts[static_cast<std::size_t>(a.source)];
    }
    result.lines_measured = measured;
    result.counters = c.counters;
    result.mean_ns = measured ? total / static_cast<double>(measured) : 0.0;
    result.has_attribution = c.has_attribution;
    result.component_ns = c.component_ns;
    result.dominant_source =
        static_cast<hsw::ServiceSource>(dominant(result.source_counts));
  }
  destroy(system, spans);
  return result;
}

hsw::BandwidthResult traced_bandwidth(const hsw::SystemConfig& system_config,
                                      const hsw::BandwidthConfig& config,
                                      Spans& spans,
                                      hsw::CounterSet::Snapshot* totals) {
  std::optional<hsw::System> system = construct(system_config, spans);
  hsw::BandwidthResult result;
  std::vector<hsw::bw::StreamSpec> specs;
  std::uint64_t seed = config.seed;
  for (const hsw::StreamConfig& stream : config.streams) {
    const std::vector<hsw::LineAddr> order = place(
        *system, stream.placement, config.buffer_bytes, seed, spans);
    const std::uint64_t lines =
        std::min<std::uint64_t>(order.size(), config.probe_lines);
    auto probe = [&] {
      auto chase_scope = spans.span("core.chase");
      const Chase c = chase(*system, stream.core, stream.write, order, lines,
                            config.instrumentation, spans);
      std::array<std::uint64_t, 7> counts{};
      std::array<int, 7> nodes{};
      double total = 0.0;
      for (const hsw::AccessResult& a : c.accesses) {
        total += a.ns;
        ++counts[static_cast<std::size_t>(a.source)];
        nodes[static_cast<std::size_t>(a.source)] = a.source_node;
      }
      hsw::StreamResult sr;
      sr.probe_latency_ns = lines ? total / static_cast<double>(lines) : 0.0;
      const std::size_t best = dominant(counts);
      sr.source = static_cast<hsw::ServiceSource>(best);
      sr.source_node = nodes[best];
      sr.stale_directory =
          c.counters[static_cast<std::size_t>(hsw::Ctr::kSnoopBroadcasts)] >
          lines / 2;
      return sr;
    };
    hsw::StreamResult sr = probe();
    const bool memory = sr.source == hsw::ServiceSource::kLocalDram ||
                        sr.source == hsw::ServiceSource::kRemoteDram;
    if (config.steady_state &&
        (stream.placement.level == hsw::CacheLevel::kMemory || memory)) {
      {
        auto drain_scope = spans.span("core.place");
        system->evict_core_caches(stream.core);
        system->flush_node_l3(system->topology().node_of_core(stream.core));
      }
      sr = probe();
    }
    sr.stale_directory = sr.stale_directory && system->topology().cod() &&
                         (sr.source == hsw::ServiceSource::kLocalDram ||
                          sr.source == hsw::ServiceSource::kRemoteDram);
    hsw::bw::StreamSpec spec;
    spec.core = stream.core;
    spec.write = stream.write;
    spec.width = stream.width;
    spec.source = sr.source;
    spec.source_node = sr.source_node;
    spec.home_node = stream.placement.memory_node;
    spec.latency_ns = sr.probe_latency_ns;
    spec.stale_directory = sr.stale_directory;
    specs.push_back(spec);
    result.streams.push_back(sr);
    ++seed;
  }

  std::optional<hsw::bw::BandwidthModel> model;
  std::vector<hsw::exec::StreamTask> tasks;
  {
    auto model_scope = spans.span("bw.model");
    spans.count("bw.points", 1);
    model.emplace(*system, config.model);
    for (const hsw::bw::StreamSpec& spec : specs) {
      const hsw::bw::Flow flow = model->flow_for(spec);
      tasks.push_back({spec.core, flow.demand, spec.latency_ns, flow.uses});
    }
  }
  hsw::exec::ClosedLoopResult sim;
  {
    auto loop_scope = spans.span("exec.closed_loop");
    hsw::exec::ClosedLoopConfig loop;
    loop.window_ns = config.window_ns;
    loop.resstats = config.instrumentation.resstats;
    sim = hsw::exec::run_closed_loop(tasks, model->capacities(), loop);
    spans.count("exec.lines_retired", sim.lines_retired);
  }
  {
    auto model_scope = spans.span("bw.model");
    const std::vector<std::string> names =
        hsw::bw::resource_names(model->capacities().size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      hsw::StreamResult& sr = result.streams[i];
      double best = -1.0;
      for (const hsw::bw::Flow::Use& use : tasks[i].path) {
        const auto r = static_cast<std::size_t>(use.resource);
        if (r < sim.resource_busy_ns.size() && sim.resource_busy_ns[r] > best) {
          best = sim.resource_busy_ns[r];
          sr.bottleneck = names[r];
        }
      }
      sr.gbps = sim.gbps[i];
      sr.queue_ns = sim.mean_queue_ns[i];
      result.total_gbps += sim.gbps[i];
    }
  }
  *totals = system->counters().snapshot();
  destroy(system, spans);
  return result;
}

hsw::exec::ProgramExecStats traced_replay(
    const hsw::SystemConfig& system_config, const hsw::Trace& trace,
    const hsw::ConcurrentReplayConfig& config, Spans& spans) {
  std::optional<hsw::System> system = construct(system_config, spans);
  hsw::exec::ProgramExecStats stats;
  {
    std::vector<hsw::exec::Program> programs;
    {
      auto split_scope = spans.span("workload.split");
      std::vector<std::size_t> slot_of(
          static_cast<std::size_t>(system->core_count()), SIZE_MAX);
      for (const hsw::TraceEvent& event : trace) {
        const auto core = static_cast<std::size_t>(event.core);
        if (slot_of[core] == SIZE_MAX) {
          slot_of[core] = programs.size();
          programs.push_back({event.core, {}});
        }
        const hsw::exec::OpKind kind =
            event.op == hsw::TraceOp::kRead    ? hsw::exec::OpKind::kRead
            : event.op == hsw::TraceOp::kWrite ? hsw::exec::OpKind::kWrite
                                               : hsw::exec::OpKind::kFlush;
        programs[slot_of[core]].ops.push_back({kind, event.addr});
      }
    }
    auto run_scope = spans.span("exec.run_programs");
    hsw::exec::ProgramExecConfig ec;
    ec.window = config.window;
    ec.model = config.model;
    ec.instrumentation = config.instrumentation;
    stats = hsw::exec::run_programs(*system, programs, ec);
    spans.count("exec.program_accesses", stats.accesses);
  }
  destroy(system, spans);
  return stats;
}

}  // namespace perfbench
