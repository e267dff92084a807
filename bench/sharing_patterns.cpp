// Sharing-pattern matrix: the flight recorder's behaviour gate.
//
// Replays the three contention traces (mailbox ping-pong, contended lock,
// false sharing) under every coherence-protocol family with the per-line
// flight recorder attached, and prints per (protocol x scenario) what the
// recorder saw of the hottest line: its classified sharing pattern, the
// contention counters, the transition-matrix cells where the families
// differ by design, and the per-state residency.
//
// What the matrix must show (asserted below, so the golden cannot silently
// drift away from the story):
//   - the classifier names each generator's pattern on all four families:
//     pingpong -> ping_pong, lock -> migratory, false sharing ->
//     false_shared (the protocol changes the cost, not the access shape);
//   - MOESI's read snoops demote M -> Owned (nonzero Owned residency and
//     M.SnoopRead.O cells) where MESIF demotes M -> S with an eager memory
//     writeback (M.SnoopRead.S) and never touches Owned;
//   - Dragon's update broadcasts keep reader copies alive: nonzero update
//     counts on the contended line and no invalidations, where MESIF pays
//     an invalidation per ownership handoff and never updates.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "obs/line_stats.h"
#include "sim/thread_pool.h"
#include "workload/trace.h"

namespace {

struct Cell {
  hsw::obs::SharingPattern pattern = hsw::obs::SharingPattern::kPrivate;
  hsw::obs::LineRecord top;     // hottest line's record
  // Owner-demotion cells of the L3 transition matrix: a read snoop hits a
  // node that holds the line E or M (the L3 may record E while the dirty
  // copy sits in a core — the from-state is the pre-snoop L3 state).
  // MESIF/MESI demote to S with an eager memory writeback; MOESI defers it
  // via Owned.
  std::uint64_t snoop_to_s = 0;  // L3 {E,M} --SnoopRead--> S
  std::uint64_t snoop_to_o = 0;  // L3 {E,M} --SnoopRead--> O
};

constexpr hsw::Protocol kProtocols[] = {
    hsw::Protocol::kMesif, hsw::Protocol::kMesi, hsw::Protocol::kMoesi,
    hsw::Protocol::kDragon};

struct Scenario {
  const char* name;
  hsw::obs::SharingPattern expected;
  hsw::Trace (*make)(hsw::System&, int rounds);
};

// Cross-socket sharing set, same shape as protocol_matrix: half the cores
// from each socket so every handoff crosses QPI.
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

constexpr Scenario kScenarios[] = {
    {"pingpong", hsw::obs::SharingPattern::kPingPong, make_pingpong},
    {"lock", hsw::obs::SharingPattern::kMigratory, make_lock},
    {"false_sharing", hsw::obs::SharingPattern::kFalseShared,
     make_false_sharing},
};

constexpr std::size_t kProtocolN = std::size(kProtocols);
constexpr std::size_t kScenarioN = std::size(kScenarios);

Cell run_cell(hsw::Protocol protocol, const Scenario& scenario, int rounds) {
  hsw::SystemConfig config = hsw::SystemConfig::source_snoop();
  config.protocol = protocol;
  hsw::System system(config);
  const hsw::Trace trace = scenario.make(system, rounds);

  hsw::obs::LineStatsRecorder recorder(protocol, /*stream=*/0);
  hsw::InstrumentationScope scope;
  scope.linestats = &recorder;
  hsw::replay(system, trace, scope);

  hsw::obs::LineStatsHub hub;
  hub.absorb(std::move(recorder));
  const hsw::obs::MergedLineStats merged = hub.merged();

  Cell cell;
  for (const hsw::Mesif from : {hsw::Mesif::kExclusive, hsw::Mesif::kModified}) {
    cell.snoop_to_s +=
        merged.transition(hsw::obs::Level::kL3, from,
                          hsw::obs::LineOp::kSnoopRead, hsw::Mesif::kShared);
    cell.snoop_to_o +=
        merged.transition(hsw::obs::Level::kL3, from,
                          hsw::obs::LineOp::kSnoopRead, hsw::Mesif::kOwned);
  }
  if (!merged.top_lines.empty()) {
    cell.pattern = merged.top_lines.front().pattern;
    cell.top = merged.top_lines.front().record;
  }
  return cell;
}

const Cell& cell_of(const std::vector<Cell>& cells, std::size_t protocol,
                    std::size_t scenario) {
  return cells[protocol * kScenarioN + scenario];
}

constexpr std::size_t kStateIdx(hsw::Mesif s) {
  return hsw::protocol::idx(s);
}

}  // namespace

int main(int argc, char** argv) {
  const hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv,
      "flight-recorder sharing-pattern matrix: contention traces classified "
      "per coherence-protocol family",
      hswbench::ProtocolFlagPolicy::kAllFamilies);
  if (!args.trace.empty() || args.attribution || args.observe.set.reports()) {
    std::fprintf(stderr,
                 "note: sharing_patterns attaches its own per-cell flight "
                 "recorder across all four protocols; --trace/--attribution/"
                 "--observe are ignored here\n");
  }
  const int rounds = args.quick ? 400 : 4000;

  // One independent System + recorder per cell, fanned out over the shared
  // pool into pre-assigned slots: byte-identical output for any --jobs.
  std::vector<Cell> cells(kProtocolN * kScenarioN);
  hsw::ThreadPool pool(args.jobs);
  hsw::parallel_for_indexed(pool, cells.size(), [&](std::size_t i) {
    cells[i] = run_cell(kProtocols[i / kScenarioN],
                        kScenarios[i % kScenarioN], rounds);
  });

  hsw::Table table({"protocol", "scenario", "pattern", "cores", "reads",
                    "writes", "inval", "fwd", "upd", "snoop to S",
                    "snoop to O", "S res ns", "M res ns", "O res ns"});
  for (std::size_t p = 0; p < kProtocolN; ++p) {
    for (std::size_t s = 0; s < kScenarioN; ++s) {
      const Cell& c = cell_of(cells, p, s);
      table.add_row(
          {std::string(hsw::to_string(kProtocols[p])), kScenarios[s].name,
           hsw::obs::to_string(c.pattern), std::to_string(c.top.cores_seen()),
           std::to_string(c.top.reads), std::to_string(c.top.writes),
           std::to_string(c.top.invalidations),
           std::to_string(c.top.forwards), std::to_string(c.top.updates),
           std::to_string(c.snoop_to_s), std::to_string(c.snoop_to_o),
           hsw::cell(c.top.residency_ns[kStateIdx(hsw::Mesif::kShared)], 1),
           hsw::cell(c.top.residency_ns[kStateIdx(hsw::Mesif::kModified)], 1),
           hsw::cell(c.top.residency_ns[kStateIdx(hsw::Mesif::kOwned)], 1)});
    }
  }
  hswbench::print_table(
      "sharing-pattern matrix: the flight recorder's view of the hottest "
      "line per (protocol, contention scenario)\n",
      table, args.csv);

  // Behaviour gates: the golden must keep telling the protocol story.
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "sharing_patterns: FAILED expectation: %s\n", what);
      ok = false;
    }
  };
  constexpr std::size_t kMesif = 0;
  constexpr std::size_t kMoesi = 2;
  constexpr std::size_t kDragon = 3;
  // The classifier reads the access shape, which the trace fixes; every
  // family must agree on what the workload *is*.
  for (std::size_t p = 0; p < kProtocolN; ++p) {
    for (std::size_t s = 0; s < kScenarioN; ++s) {
      expect(cell_of(cells, p, s).pattern == kScenarios[s].expected,
             "each contention generator classifies as its own pattern on "
             "every protocol family");
    }
  }
  const std::size_t owned = kStateIdx(hsw::Mesif::kOwned);
  for (std::size_t s = 0; s < kScenarioN; ++s) {
    expect(cell_of(cells, kMesif, s).top.residency_ns[owned] == 0.0,
           "MESIF never accrues Owned residency");
  }
  expect(cell_of(cells, kMoesi, 0).top.residency_ns[owned] > 0.0,
         "MOESI accrues Owned residency on pingpong (M demotes to O instead "
         "of an eager writeback)");
  expect(cell_of(cells, kMoesi, 0).snoop_to_o > 0 &&
             cell_of(cells, kMoesi, 0).snoop_to_s == 0,
         "MOESI owner demotions on pingpong land in Owned, never Shared "
         "(the writeback is deferred)");
  expect(cell_of(cells, kMesif, 0).snoop_to_s > 0 &&
             cell_of(cells, kMesif, 0).snoop_to_o == 0,
         "MESIF owner demotions on pingpong land in Shared (eager "
         "writeback), never Owned");
  for (std::size_t s = 0; s < kScenarioN; ++s) {
    expect(cell_of(cells, kMesif, s).snoop_to_o == 0,
           "MESIF's transition matrix never enters Owned");
  }
  expect(cell_of(cells, kDragon, 0).top.updates > 0,
         "Dragon updates the contended pingpong line in place");
  expect(cell_of(cells, kDragon, 0).top.invalidations == 0,
         "Dragon records no invalidations on pingpong (updates keep reader "
         "copies alive)");
  expect(cell_of(cells, kMesif, 0).top.updates == 0 &&
             cell_of(cells, kMesif, 0).top.invalidations > 0,
         "MESIF pays an invalidation per pingpong handoff and never updates");

  if (ok) std::printf("\nmatrix expectations: ok\n");
  return ok ? 0 : 1;
}
