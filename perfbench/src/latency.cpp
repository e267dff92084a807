// latency_sweep: the Fig. 4-6 latency curves and the Table III cells.
//
// Each curve op is one hsw::latency_sweep call (jobs = 1) over a size
// ladder, on a fresh System per point; each Table III op is one cell, a
// hsw::measure_latency call with an explicit level, as the table3 bench
// measures it.  System construction, placement and the coh read path do
// the work here.  The six 40 MiB memory curves, one in seven ops, are the
// slowest class by a wide margin, so op_tail_ms falls inside that class
// rather than in the gap below it.
#include <optional>

#include "common.h"
#include "core/sweep.h"
#include "layers.h"
#include "util/units.h"

namespace perfbench {
namespace {

using hsw::kib;
using hsw::mib;
using hsw::Mesif;
using hsw::ServiceSource;
using hsw::SnoopMode;

// Where a natural-level placement must be serviced from, or nullopt for a
// size within a quarter of a capacity boundary (mixed sources).  L1D is
// 32 KiB and L2 256 KiB per core on the paper's machine.
std::optional<ServiceSource> expected_source(const hsw::System& machine,
                                             int reader,
                                             const hsw::Placement& p,
                                             std::uint64_t bytes) {
  const hsw::SystemTopology& topo = machine.topology();
  const int reader_node = topo.node_of_core(reader);
  const int owner_node = topo.node_of_core(p.owner_core);
  const std::uint64_t l3 = machine.node_l3_bytes(owner_node);
  if (bytes >= l3 + l3 / 4) {
    return p.memory_node == reader_node ? ServiceSource::kLocalDram
                                        : ServiceSource::kRemoteDram;
  }
  if (bytes > l3 / 2) return std::nullopt;
  if (owner_node != reader_node) return ServiceSource::kRemoteFwd;
  if (p.owner_core == reader) {
    if (bytes <= kib(24)) return ServiceSource::kL1;
    if (bytes > kib(48) && bytes <= kib(192)) return ServiceSource::kL2;
    if (bytes > kib(384)) return ServiceSource::kL3;
    return std::nullopt;
  }
  if (bytes <= kib(192)) {
    return p.state == Mesif::kModified ? ServiceSource::kCoreFwd
                                       : ServiceSource::kL3;
  }
  if (bytes > kib(384)) return ServiceSource::kL3;
  return std::nullopt;
}

struct Curve {
  const char* name;
  SnoopMode mode;
  int owner;
  int sharer;  // -1: none
  int memory_node;
  Mesif state;
  std::vector<std::uint64_t> sizes;
};

Op curve_op(const Curve& curve, const hsw::System& machine,
            std::uint64_t seed) {
  hsw::LatencySweepConfig sweep;
  sweep.system = hsw::SystemConfig::for_mode(curve.mode);
  sweep.reader_core = 0;
  sweep.placement.owner_core = curve.owner;
  sweep.placement.memory_node = curve.memory_node;
  sweep.placement.state = curve.state;
  if (curve.sharer >= 0) sweep.placement.sharers = {curve.sharer};
  sweep.sizes = curve.sizes;
  sweep.max_measured_lines = 8192;
  sweep.seed = seed;
  sweep.jobs = 1;

  // Expected sources are fixed at set-up, outside the timed ops; `machine`
  // is a System of the curve's configuration, used for its topology only.
  std::vector<std::optional<ServiceSource>> want;
  for (std::uint64_t bytes : sweep.sizes) {
    want.push_back(
        expected_source(machine, sweep.reader_core, sweep.placement, bytes));
  }
  auto check = [sweep, want](OpResult& out, std::size_t point,
                             const hsw::LatencyResult& r) {
    record_latency(out, r);
    out.check(!want[point] || r.dominant_source == *want[point],
              std::string("dominant source ") +
                  hsw::to_string(r.dominant_source) + " at " +
                  std::to_string(sweep.sizes[point]) + " B");
  };
  Op op;
  op.name = std::string("curve ") + curve.name;
  op.run = [sweep, check](OpResult& out) {
    const std::vector<hsw::LatencySweepPoint> points =
        hsw::latency_sweep(sweep);
    for (std::size_t i = 0; i < points.size(); ++i) {
      check(out, i, points[i].result);
    }
  };
  op.traced = [sweep, check](OpResult& out, Spans& spans) {
    for (std::size_t i = 0; i < sweep.sizes.size(); ++i) {
      check(out, i,
            traced_latency(sweep.system,
                           sweep_point_config(sweep, sweep.sizes[i]), spans));
    }
  };
  return op;
}

// A Table III cell, measured as table3_latency_summary measures it.
struct Cell {
  std::string id;
  int owner;
  int node;
  bool memory;  // memory row (M, flushed to DRAM) vs L3 row (E in L3)
};

// One op per cell: measure_latency on a fresh System, explicit level.
void add_table3_ops(std::vector<Op>& ops, SnoopMode mode, int reader,
                    const std::vector<Cell>& cells, std::uint64_t seed) {
  const hsw::SystemConfig system = hsw::SystemConfig::for_mode(mode);
  for (const Cell& cell : cells) {
    hsw::LatencyConfig lc;
    lc.reader_core = reader;
    lc.placement.owner_core = cell.memory ? reader : cell.owner;
    lc.placement.memory_node = cell.node;
    lc.placement.state = cell.memory ? Mesif::kModified : Mesif::kExclusive;
    lc.placement.level =
        cell.memory ? hsw::CacheLevel::kMemory : hsw::CacheLevel::kL3;
    lc.buffer_bytes = cell.memory ? mib(4) : kib(512);
    lc.max_measured_lines = cell.memory ? 4096 : 2048;
    lc.seed = seed;
    const std::string id = cell.id;
    Op op;
    op.name = "table3 " + id;
    op.run = [system, lc, id](OpResult& out) {
      hsw::System machine(system);
      const hsw::LatencyResult r = hsw::measure_latency(machine, lc);
      record_latency(out, r);
      out.cells.emplace_back(id, r.mean_ns);
    };
    op.traced = [system, lc, id](OpResult& out, Spans& spans) {
      const hsw::LatencyResult r = traced_latency(system, lc, spans);
      record_latency(out, r);
      out.cells.emplace_back(id, r.mean_ns);
    };
    ops.push_back(std::move(op));
  }
}

}  // namespace

Workload make_latency_sweep(std::uint64_t seed) {
  const std::vector<std::uint64_t> cache = {kib(16), kib(128), mib(1), mib(4)};
  const std::vector<std::uint64_t> memory = {mib(40)};
  const hsw::System source(hsw::SystemConfig::source_snoop());
  const hsw::System home(hsw::SystemConfig::home_snoop());
  const hsw::System cod(hsw::SystemConfig::cluster_on_die());
  const hsw::SystemTopology& topo = cod.topology();
  const int cod_n1 = topo.node(1).cores[0];
  const int cod_n3 = topo.node(3).cores[0];
  constexpr SnoopMode kSource = SnoopMode::kSourceSnoop;
  constexpr SnoopMode kHome = SnoopMode::kHomeSnoop;
  constexpr SnoopMode kCod = SnoopMode::kCod;
  constexpr Mesif kM = Mesif::kModified;
  constexpr Mesif kE = Mesif::kExclusive;
  constexpr Mesif kS = Mesif::kShared;
  const Curve curves[] = {
      {"source local M", kSource, 0, -1, 0, kM, cache},
      {"source node E", kSource, 1, -1, 0, kE, cache},
      {"source node M", kSource, 1, -1, 0, kM, cache},
      {"source socket2 M", kSource, 12, -1, 0, kM, cache},
      {"source socket2 S", kSource, 12, 13, 0, kS, cache},
      {"home socket2 E", kHome, 12, -1, 0, kE, cache},
      {"cod local M", kCod, 0, -1, 0, kM, cache},
      {"cod node1 E", kCod, cod_n1, -1, 1, kE, cache},
      {"cod node3 M", kCod, cod_n3, -1, 3, kM, cache},
      {"source local memory", kSource, 0, -1, 0, kM, memory},
      {"source remote memory", kSource, 12, -1, 1, kM, memory},
      {"home local memory", kHome, 0, -1, 0, kM, memory},
      {"home remote memory", kHome, 12, -1, 1, kM, memory},
      {"cod local memory", kCod, 0, -1, 0, kM, memory},
      {"cod node3 memory", kCod, cod_n3, -1, 3, kM, memory},
  };

  Workload w;
  w.name = "latency_sweep";
  w.pass_ref_s = 4.4;
  for (const Curve& c : curves) {
    const hsw::System& machine = c.mode == SnoopMode::kSourceSnoop ? source
                                 : c.mode == SnoopMode::kHomeSnoop ? home
                                                                   : cod;
    w.ops.push_back(curve_op(c, machine, seed));
  }

  // Table III columns: default, Early Snoop off, and the three COD core
  // groups (reader in the first node; second node on ring 0 / ring 1).
  auto two_socket = [](const char* mode) {
    const std::string m(mode);
    return std::vector<Cell>{{"t3.l3_local." + m, 0, 0, false},
                             {"t3.l3_remote1." + m, 12, 1, false},
                             {"t3.mem_local." + m, 0, 0, true},
                             {"t3.mem_remote1." + m, 0, 1, true}};
  };
  add_table3_ops(w.ops, SnoopMode::kSourceSnoop, 0, two_socket("source"), seed);
  add_table3_ops(w.ops, SnoopMode::kHomeSnoop, 0, two_socket("home"), seed);
  struct Group {
    const char* name;
    int reader;
    int local_node;
  };
  const Group groups[] = {{"cod1", 0, 0}, {"cod2r0", 6, 1}, {"cod2r1", 8, 1}};
  for (const Group& g : groups) {
    const std::string m(g.name);
    add_table3_ops(w.ops, SnoopMode::kCod, g.reader,
                   {{"t3.l3_local." + m, g.reader, g.local_node, false},
                    {"t3.l3_remote1." + m, topo.node(2).cores[0], 2, false},
                    {"t3.l3_remote2." + m, topo.node(3).cores[0], 3, false},
                    {"t3.mem_local." + m, 0, g.local_node, true},
                    {"t3.mem_remote1." + m, 0, 2, true},
                    {"t3.mem_remote2." + m, 0, 3, true}},
                   seed);
  }

  return w;
}

}  // namespace perfbench
