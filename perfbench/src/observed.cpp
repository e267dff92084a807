// observed_sweep: Fig. 7 shared-line placements under COD with every
// observer attached, plus the rendered report.
//
// Each op is one Fig. 7 point: a case (home node, Forward-copy node) at one
// size from 64 KiB to 4 MiB, across the 256 KiB HitME coverage step,
// measured with hsw::measure_latency with the tracer (attribution), the
// metrics registry and the line-stats recorder attached, as
// fig7_latency_shared runs under --trace-attribution --metrics --linestats,
// and ending with the rendered report.  Observers do most of the work here.
// The traced twin also times each observer alone against a detached run.
#include <optional>

#include "common.h"
#include "core/latency.h"
#include "layers.h"
#include "observers.h"
#include "spans.h"
#include "util/units.h"

namespace perfbench {
namespace {

using hsw::kib;
using hsw::mib;
using hsw::ServiceSource;

// Sizes the HitME cache covers (14 KiB of entries track 256 KiB of lines).
constexpr std::uint64_t kHitmeCoverage = 256 * 1024;

struct Case {
  const char* name;
  int home_node;
  int forward_node;
  std::string cell;        // Table IV cell beyond HitME coverage
  bool three_node;         // also a Fig. 7 three-node forward cell
};

// The reader's node holds the line when it is the home; a Forward copy in
// the home node forwards (two-node); a three-node line is served from home
// memory while HitME covers the set, and by the Forward holder beyond.
ServiceSource expected_source(const Case& c, std::uint64_t bytes) {
  if (c.home_node == 0) return ServiceSource::kL3;
  if (c.forward_node == c.home_node) return ServiceSource::kRemoteFwd;
  return bytes <= kHitmeCoverage ? ServiceSource::kRemoteDram
                                 : ServiceSource::kRemoteFwd;
}

Op point_op(const Case& c, std::uint64_t bytes, const hsw::SystemTopology& topo,
            const std::string& report_path, std::uint64_t seed) {
  const hsw::SystemConfig system = hsw::SystemConfig::cluster_on_die();
  hsw::LatencyConfig lc;
  lc.reader_core = 0;
  lc.placement.owner_core = topo.node(c.home_node).cores[1];
  lc.placement.memory_node = c.home_node;
  lc.placement.state = hsw::Mesif::kShared;
  lc.placement.sharers = {c.forward_node == c.home_node
                              ? topo.node(c.forward_node).cores[2]
                              : topo.node(c.forward_node).cores[1]};
  lc.placement.level = hsw::CacheLevel::kL3;
  lc.buffer_bytes = bytes;
  lc.max_measured_lines = 8192;
  lc.seed = seed;

  auto record = [c, bytes](OpResult& out, const hsw::LatencyResult& r) {
    record_latency(out, r);
    out.check(r.has_attribution, "no latency attribution");
    out.check(r.dominant_source == expected_source(c, bytes),
              std::string("dominant source ") +
                  hsw::to_string(r.dominant_source));
    if (bytes >= mib(1)) {
      out.cells.emplace_back(c.cell, r.mean_ns);
      if (c.three_node) out.cells.emplace_back("f7.three_node", r.mean_ns);
    }
  };
  auto report = [report_path, seed](OpResult& out, const ObservedHubs& hubs) {
    const std::uint64_t bytes = render_report(hubs, report_path, seed);
    out.check(bytes > 0, "report was not rendered");
    out.digest.add(bytes);
    return bytes;
  };

  Op op;
  op.name = std::string("fig7 ") + c.name + " " + std::to_string(bytes);
  op.run = [system, lc, record, report](OpResult& out) {
    ObservedHubs hubs;
    hsw::System machine(system);
    PointObservers observers(kAllObservers, system.protocol, 0);
    hsw::LatencyConfig config = lc;
    config.instrumentation = observers.scope();
    record(out, hsw::measure_latency(machine, config));
    observers.absorb_into(hubs);
    report(out, hubs);
  };
  op.traced = [system, lc, record, report](OpResult& out, Spans& spans) {
    ObservedHubs hubs;
    std::optional<PointObservers> observers;
    hsw::LatencyConfig config = lc;
    {
      auto scope = spans.span("obs.attach");
      observers.emplace(kAllObservers, system.protocol, 0);
      config.instrumentation = observers->scope();
    }
    record(out, traced_latency(system, config, spans));
    {
      auto scope = spans.span("obs.attach");
      observers->absorb_into(hubs);
    }
    {
      auto scope = spans.span("obs.render");
      spans.count("obs.report_bytes", report(out, hubs));
    }
    // Cost of each observer alone: the same point with one observer
    // attached, against a detached run (spans outside the reproduced op).
    const std::pair<const char*, ObserverSet> variants[] = {
        {"obs.cost.detached", ObserverSet{}},
        {"obs.cost.attribution", ObserverSet{true, false, false}},
        {"obs.cost.metrics", ObserverSet{false, true, false}},
        {"obs.cost.linestats", ObserverSet{false, false, true}},
    };
    for (const auto& [name, set] : variants) {
      auto scope = spans.span(name);
      ObservedHubs variant_hubs;
      hsw::System machine(system);
      PointObservers variant(set, system.protocol, 0);
      hsw::LatencyConfig variant_config = lc;
      variant_config.instrumentation = variant.scope();
      (void)hsw::measure_latency(machine, variant_config);
      variant.absorb_into(variant_hubs);
    }
  };
  return op;
}

}  // namespace

Workload make_observed_sweep(std::uint64_t seed, const std::string& out_dir) {
  const std::string report_path = out_dir + "/observed_report.json";
  const Case cases[] = {
      {"H:n0 F:n1", 0, 1, "t4.f1.h0", false},
      {"H:n1 F:n1", 1, 1, "t4.f1.h1", false},
      {"H:n1 F:n2", 1, 2, "t4.f2.h1", true},
      {"H:n2 F:n1", 2, 1, "t4.f1.h2", true},
  };
  Workload w;
  w.name = "observed_sweep";
  w.pass_ref_s = 1.45;
  const hsw::System cod(hsw::SystemConfig::cluster_on_die());
  // The first op is also the warm-up op: a three-node point beyond HitME
  // coverage, so set-up includes a typical op rather than the smallest.
  w.ops.push_back(
      point_op(cases[2], mib(1), cod.topology(), report_path, seed));
  for (const Case& c : cases) {
    for (std::uint64_t bytes : {kib(64), kib(128), kib(256), kib(384), mib(1),
                                mib(4)}) {
      if (&c == &cases[2] && bytes == mib(1)) continue;
      w.ops.push_back(point_op(c, bytes, cod.topology(), report_path, seed));
    }
  }
  return w;
}

}  // namespace perfbench
