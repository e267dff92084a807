// Protocol cost matrix: the PR 7 headline figure.
//
// Replays the three sharing-dominated workload traces (mailbox ping-pong,
// contended lock, false sharing — plus the padded false-sharing control)
// under every coherence-protocol family (MESIF / MESI / MOESI / Dragon) on
// the paper's source-snoop machine and prints the (protocol x scenario)
// cost matrix: mean ns per access plus the traffic counters where the
// families differ by design.
//
// What the matrix must show (asserted below, so the golden cannot silently
// drift away from the story):
//   - MOESI's Owned state suppresses the per-demotion memory writebacks
//     MESIF pays on every dirty-line read snoop: iMC writes drop on the
//     sharing scenarios.
//   - Dragon's update broadcasts avoid the invalidation ping-pong: readers
//     of a producer/consumer mailbox keep a live Shared copy instead of
//     re-missing every round.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "sim/thread_pool.h"
#include "workload/trace.h"

namespace {

struct Cell {
  double mean_ns = 0.0;
  std::uint64_t dram_writes = 0;
  std::uint64_t l3_writebacks = 0;
  std::uint64_t snoops_sent = 0;
  std::uint64_t updates_sent = 0;
};

constexpr hsw::Protocol kProtocols[] = {
    hsw::Protocol::kMesif, hsw::Protocol::kMesi, hsw::Protocol::kMoesi,
    hsw::Protocol::kDragon};

struct Scenario {
  const char* name;
  // Builds the trace on the cell's own System (generators allocate their
  // buffers there); identical across protocols because allocation does not
  // depend on the protocol tables.
  hsw::Trace (*make)(hsw::System&, int rounds);
};

// Cross-socket sharing set: half the cores from each socket, so every
// ownership handoff crosses QPI the way the paper's worst cases do.
std::vector<int> sharing_cores(const hsw::System& system) {
  const int far = system.core_count() / 2;
  return {0, 1, 2, 3, far, far + 1, far + 2, far + 3};
}

hsw::Trace make_pingpong(hsw::System& system, int rounds) {
  return hsw::make_pingpong_trace(system, 0, system.core_count() / 2, rounds);
}

hsw::Trace make_lock(hsw::System& system, int rounds) {
  return hsw::make_lock_trace(system, sharing_cores(system), 4, rounds, 1);
}

hsw::Trace make_false_sharing(hsw::System& system, int rounds) {
  return hsw::make_false_sharing_trace(system, sharing_cores(system), rounds,
                                       /*padded=*/false);
}

hsw::Trace make_false_sharing_padded(hsw::System& system, int rounds) {
  return hsw::make_false_sharing_trace(system, sharing_cores(system), rounds,
                                       /*padded=*/true);
}

constexpr Scenario kScenarios[] = {
    {"pingpong", make_pingpong},
    {"lock", make_lock},
    {"false_sharing", make_false_sharing},
    {"false_sharing_padded", make_false_sharing_padded},
};

constexpr std::size_t kProtocolN = std::size(kProtocols);
constexpr std::size_t kScenarioN = std::size(kScenarios);

Cell run_cell(hsw::Protocol protocol, const Scenario& scenario, int rounds) {
  hsw::SystemConfig config = hsw::SystemConfig::source_snoop();
  config.protocol = protocol;
  hsw::System system(config);
  const hsw::Trace trace = scenario.make(system, rounds);
  const hsw::ReplayStats stats = hsw::replay(system, trace);

  Cell cell;
  cell.mean_ns = stats.mean_ns();
  cell.dram_writes = stats.counters[static_cast<std::size_t>(hsw::Ctr::kDramWrites)];
  cell.l3_writebacks =
      stats.counters[static_cast<std::size_t>(hsw::Ctr::kL3WritebacksToMem)];
  cell.snoops_sent =
      stats.counters[static_cast<std::size_t>(hsw::Ctr::kSnoopsSent)];
  cell.updates_sent =
      stats.counters[static_cast<std::size_t>(hsw::Ctr::kUpdatesSent)];
  return cell;
}

const Cell& cell_of(const std::vector<Cell>& cells, std::size_t protocol,
                    std::size_t scenario) {
  return cells[protocol * kScenarioN + scenario];
}

}  // namespace

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv,
      "protocol x scenario cost matrix: sharing-heavy traces replayed under "
      "MESIF, MESI, MOESI, and Dragon",
      hswbench::ProtocolFlagPolicy::kAllFamilies);
  if (!args.trace.empty() || args.attribution || args.observe.set.reports()) {
    std::fprintf(stderr,
                 "note: protocol_matrix sweeps all four protocols in one "
                 "run; --trace/--attribution/--observe would mix counters "
                 "that are not comparable across protocols and are "
                 "ignored here\n");
  }
  const int rounds = args.quick ? 400 : 4000;

  // One independent System per cell, fanned out over the shared pool into
  // pre-assigned slots: byte-identical output for any --jobs value.
  std::vector<Cell> cells(kProtocolN * kScenarioN);
  hsw::ThreadPool pool(args.jobs);
  hsw::parallel_for_indexed(pool, cells.size(), [&](std::size_t i) {
    cells[i] = run_cell(kProtocols[i / kScenarioN],
                        kScenarios[i % kScenarioN], rounds);
  });

  hsw::Table table({"protocol", "scenario", "mean ns/access", "iMC writes",
                    "L3 writebacks", "snoops sent", "updates sent"});
  for (std::size_t p = 0; p < kProtocolN; ++p) {
    for (std::size_t s = 0; s < kScenarioN; ++s) {
      const Cell& c = cell_of(cells, p, s);
      table.add_row({std::string(hsw::to_string(kProtocols[p])),
                     kScenarios[s].name, hsw::cell(c.mean_ns, 1),
                     std::to_string(c.dram_writes),
                     std::to_string(c.l3_writebacks),
                     std::to_string(c.snoops_sent),
                     std::to_string(c.updates_sent)});
    }
  }
  hswbench::print_table(
      "protocol cost matrix (source snoop, cross-socket sharing sets)\n",
      table, args.csv);

  // The matrix is a regression gate, not just a figure: fail the run when a
  // family stops exhibiting its defining behaviour.
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "protocol_matrix: FAILED expectation: %s\n", what);
      ok = false;
    }
  };
  constexpr std::size_t kMesif = 0;
  constexpr std::size_t kMoesi = 2;
  constexpr std::size_t kDragon = 3;
  // Read-snoops of dirty lines are where Owned pays off: MESIF demotes
  // M->S with an eager memory writeback, MOESI demotes M->O and defers it.
  // (false_sharing is write/write: dirty ownership migrates cache-to-cache
  // on the invalidating snoop in every family, so neither side touches the
  // iMC and the comparison is 0 == 0 there.)
  for (const std::size_t s : {std::size_t{0}, std::size_t{1}}) {
    expect(cell_of(cells, kMoesi, s).dram_writes <
               cell_of(cells, kMesif, s).dram_writes,
           "MOESI iMC writes below MESIF on a read-shared scenario");
  }
  expect(cell_of(cells, kMoesi, 2).dram_writes ==
             cell_of(cells, kMesif, 2).dram_writes,
         "write/write false sharing costs MOESI and MESIF the same iMC "
         "writes (ownership migrates cache-to-cache)");
  expect(cell_of(cells, kDragon, 0).mean_ns < cell_of(cells, kMesif, 0).mean_ns,
         "Dragon mean latency below MESIF on pingpong (updates avoid the "
         "invalidation ping-pong)");
  expect(cell_of(cells, kDragon, 0).updates_sent > 0,
         "Dragon sends update broadcasts on pingpong");
  expect(cell_of(cells, kMesif, 0).updates_sent == 0,
         "MESIF never sends updates");
  // The padded control: with private lines there is nothing to share, so
  // the families converge.
  expect(cell_of(cells, kDragon, 3).updates_sent == 0,
         "padded false sharing generates no Dragon updates");

  if (ok) std::printf("\nmatrix expectations: ok\n");
  return ok ? 0 : 1;
}
