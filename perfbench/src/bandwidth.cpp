// bandwidth_sim: Table VII scaling points and Fig. 8 curves under the
// event-driven engine (BandwidthEngine::kSimulated).
//
// A point op is one Table VII cell: a hsw::measure_bandwidth call on a
// fresh System with one stream per core, as table7_bandwidth_scaling and
// bottleneck_knee measure them; a check after each pass finds the remote
// read knees.  A curve op is one hsw::bandwidth_sweep call (jobs = 1).
// exec::run_closed_loop and the bw model run on every point; the read chase
// only probes 2048 lines per stream.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common.h"
#include "core/sweep.h"
#include "layers.h"
#include "util/units.h"

namespace perfbench {
namespace {

using hsw::kib;
using hsw::mib;
using hsw::SnoopMode;

void record_bandwidth(OpResult& out, const hsw::BandwidthResult& r) {
  out.digest.add(r.total_gbps);
  for (const hsw::StreamResult& s : r.streams) {
    out.digest.add(s.gbps);
    out.digest.add(s.probe_latency_ns);
    out.digest.add(static_cast<std::uint64_t>(s.source));
    out.digest.add(static_cast<std::uint64_t>(s.source_node));
    out.digest.add(static_cast<std::uint64_t>(s.stale_directory));
    out.digest.add(s.queue_ns);
    out.digest.add(s.bottleneck);
    out.check(std::isfinite(s.gbps) && s.gbps > 0.0,
              "stream rate is not finite and positive");
  }
}

// Demand loads the engine serviced on the whole System (placement included).
std::uint64_t loads(const hsw::CounterSet::Snapshot& c) {
  std::uint64_t n = 0;
  for (hsw::Ctr k : {hsw::Ctr::kLoadsL1Hit, hsw::Ctr::kLoadsL2Hit,
                     hsw::Ctr::kLoadsL3Hit, hsw::Ctr::kLoadsLocalDram,
                     hsw::Ctr::kLoadsRemoteDram, hsw::Ctr::kLoadsRemoteFwd}) {
    n += c[static_cast<std::size_t>(k)];
  }
  return n;
}

// Aggregate rates of the remote-read points of one pass, by snoop mode and
// core count, for the knee check.
using KneeBoard = std::map<std::pair<SnoopMode, int>, hsw::BandwidthResult>;

struct Point {
  const char* row;
  SnoopMode mode;
  int node;  // memory node of every stream
  bool write;
  int cores;
  std::string cell;  // paper cell id measured here, if any
  bool knee;         // recorded for the knee check
};

Op point_op(const Point& point, std::uint64_t seed,
            std::shared_ptr<KneeBoard> board) {
  const hsw::SystemConfig system = hsw::SystemConfig::for_mode(point.mode);
  hsw::BandwidthConfig bc;
  for (int c = 0; c < point.cores; ++c) {
    hsw::StreamConfig stream;
    stream.core = c;
    stream.write = point.write;
    stream.placement.owner_core = c;
    stream.placement.memory_node = point.node;
    stream.placement.state = hsw::Mesif::kModified;
    stream.placement.level = hsw::CacheLevel::kMemory;
    bc.streams.push_back(stream);
  }
  bc.buffer_bytes = mib(2);
  bc.seed = seed;
  bc.engine = hsw::BandwidthEngine::kSimulated;

  auto finish = [point, board](OpResult& out, const hsw::BandwidthResult& r,
                               const hsw::CounterSet::Snapshot& totals) {
    record_bandwidth(out, r);
    out.add_counters(totals);
    out.accesses += loads(totals);
    if (!point.cell.empty()) out.cells.emplace_back(point.cell, r.total_gbps);
    if (point.knee) (*board)[{point.mode, point.cores}] = r;
  };
  Op op;
  op.name = std::string("table7 ") + point.row + " x" +
            std::to_string(point.cores);
  op.run = [system, bc, finish](OpResult& out) {
    hsw::System machine(system);
    const hsw::BandwidthResult r = hsw::measure_bandwidth(machine, bc);
    finish(out, r, machine.counters().snapshot());
  };
  op.traced = [system, bc, finish](OpResult& out, Spans& spans) {
    hsw::CounterSet::Snapshot totals{};
    const hsw::BandwidthResult r = traced_bandwidth(system, bc, spans, &totals);
    finish(out, r, totals);
  };
  return op;
}

// bottleneck_knee's rule: the knee is the first core count within 5% of the
// row's peak, and the stream that queues most there names a QPI link.
void check_knee(OpResult& out, const KneeBoard& board, SnoopMode mode,
                const char* row, int expected) {
  std::vector<const hsw::BandwidthResult*> results;
  for (int cores = 1; board.count({mode, cores}) != 0; ++cores) {
    results.push_back(&board.at({mode, cores}));
  }
  out.check(!results.empty(), std::string(row) + ": no points");
  if (results.empty()) return;
  double peak = 0.0;
  for (const auto* r : results) peak = std::max(peak, r->total_gbps);
  std::size_t knee = 0;
  while (results[knee]->total_gbps < 0.95 * peak) ++knee;
  out.check(static_cast<int>(knee) + 1 == expected,
            std::string(row) + ": knee at " + std::to_string(knee + 1) +
                " cores");
  const auto& streams = results[knee]->streams;
  const auto worst = std::max_element(
      streams.begin(), streams.end(),
      [](const auto& a, const auto& b) { return a.queue_ns < b.queue_ns; });
  out.check(worst->bottleneck.rfind("QPI", 0) == 0,
            std::string(row) + ": knee bottleneck " + worst->bottleneck);
}

struct Curve {
  const char* name;
  SnoopMode mode;
  int owner;
  hsw::Mesif state;
};

Op curve_op(const Curve& curve, std::uint64_t seed) {
  hsw::BandwidthSweepConfig sweep;
  sweep.system = hsw::SystemConfig::for_mode(curve.mode);
  sweep.stream.core = 0;
  sweep.stream.placement.owner_core = curve.owner;
  sweep.stream.placement.state = curve.state;
  sweep.sizes = {kib(16), kib(128), mib(1), mib(4)};
  sweep.seed = seed;
  sweep.engine = hsw::BandwidthEngine::kSimulated;
  sweep.jobs = 1;

  // A point's probe chases min(lines, probe_lines) loads, twice for a
  // memory-resident stream (steady state).
  const std::uint64_t probe_lines = hsw::BandwidthConfig{}.probe_lines;
  auto record = [probe_lines](OpResult& out, std::uint64_t bytes, double gbps,
                              hsw::ServiceSource source,
                              const std::string& bottleneck) {
    out.digest.add(gbps);
    out.digest.add(static_cast<std::uint64_t>(source));
    out.digest.add(bottleneck);
    const bool memory = source == hsw::ServiceSource::kLocalDram ||
                        source == hsw::ServiceSource::kRemoteDram;
    out.accesses += std::min(bytes / 64, probe_lines) * (memory ? 2 : 1);
    out.check(std::isfinite(gbps) && gbps > 0.0,
              "rate is not finite and positive");
  };

  Op op;
  op.name = std::string("fig8 ") + curve.name;
  op.run = [sweep, record](OpResult& out) {
    for (const hsw::BandwidthSweepPoint& p : hsw::bandwidth_sweep(sweep)) {
      record(out, p.bytes, p.gbps, p.source, p.bottleneck);
    }
  };
  op.traced = [sweep, record](OpResult& out, Spans& spans) {
    for (std::uint64_t bytes : sweep.sizes) {
      hsw::BandwidthConfig bc;
      hsw::StreamConfig stream = sweep.stream;
      stream.placement.level = hsw::CacheLevel::kL1L2;
      bc.streams = {stream};
      bc.buffer_bytes = bytes;
      bc.seed = sweep.seed;
      bc.model = sweep.model;
      bc.engine = sweep.engine;
      hsw::CounterSet::Snapshot totals{};
      const hsw::BandwidthResult r =
          traced_bandwidth(sweep.system, bc, spans, &totals);
      record(out, bytes, r.total_gbps, r.streams.front().source,
             r.streams.front().bottleneck);
    }
  };
  return op;
}

}  // namespace

Workload make_bandwidth_sim(std::uint64_t seed) {
  const char* source_read = "local read (source snoop)";
  const char* home_read = "local read (home snoop)";
  const char* write = "local write";
  const SnoopMode source = SnoopMode::kSourceSnoop;
  const SnoopMode home = SnoopMode::kHomeSnoop;
  std::vector<Point> points = {
      {source_read, source, 0, false, 1, "", false},
      {source_read, source, 0, false, 2, "", false},
      {source_read, source, 0, false, 4, "", false},
      {source_read, source, 0, false, 8, "", false},
      {source_read, source, 0, false, 12, "t7.local_read.source", false},
      {home_read, home, 0, false, 4, "", false},
      {home_read, home, 0, false, 12, "t7.local_read.home", false},
      {write, source, 0, true, 1, "", false},
      {write, source, 0, true, 5, "t7.write_peak", false},  // the paper's peak
      {write, source, 0, true, 12, "", false},
  };
  // Remote reads at 1..6 cores are the knee rows of bottleneck_knee; the
  // 12-core points complete the rows and the 12-core class of ops.
  for (int cores : {1, 2, 3, 4, 5, 6, 12}) {
    points.push_back({"remote read (source snoop)", source, 1, false, cores,
                      cores == 6 ? "t7.remote_read.source" : "", cores <= 6});
    points.push_back({"remote read (home snoop)", home, 1, false, cores,
                      cores == 6 ? "t7.remote_read.home" : "", cores <= 6});
  }
  const Curve curves[] = {
      {"source local M", SnoopMode::kSourceSnoop, 0, hsw::Mesif::kModified},
      {"source node M", SnoopMode::kSourceSnoop, 1, hsw::Mesif::kModified},
      {"source socket2 M", SnoopMode::kSourceSnoop, 12, hsw::Mesif::kModified},
      {"home socket2 E", SnoopMode::kHomeSnoop, 12, hsw::Mesif::kExclusive},
  };
  Workload w;
  w.name = "bandwidth_sim";
  w.pass_ref_s = 3.4;
  auto board = std::make_shared<KneeBoard>();
  for (const Point& p : points) w.ops.push_back(point_op(p, seed, board));
  for (const Curve& c : curves) w.ops.push_back(curve_op(c, seed));
  // Knees: QPI saturates at 2 cores under source snoop (broadcast weight)
  // and at 4 under home snoop.
  w.pass_check = [board](OpResult& out) {
    check_knee(out, *board, SnoopMode::kSourceSnoop,
               "remote read (source snoop)", 2);
    check_knee(out, *board, SnoopMode::kHomeSnoop, "remote read (home snoop)",
               4);
    board->clear();
  };
  return w;
}

}  // namespace perfbench
