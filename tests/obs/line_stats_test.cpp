// Unit tests of the per-line coherence flight recorder (obs/line_stats.h):
// the episode-based sharing-pattern classifier, the transition matrix and
// L3 residency clock, the contention ranking of the hub merge, the report
// section, and equivalence with the earlier std::map recorder.
// Absorb-order independence of the merge is covered for every hub by
// stream_hub_test.cpp.  Engine integration (which hooks fire where) is
// covered by the sharing_patterns golden and the determinism ctest scripts.
#include "obs/line_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iterator>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "machine/system.h"
#include "metrics/report.h"

namespace {

using hsw::Mesif;
using hsw::obs::Level;
using hsw::obs::LineOp;
using hsw::obs::LineRecord;
using hsw::obs::LineStatsHub;
using hsw::obs::LineStatsRecorder;
using hsw::obs::MergedLineStats;
using hsw::obs::SharingPattern;

// The record of `line`; fails the test (and returns a blank record) when the
// recorder never tracked the line.
const LineRecord& tracked(const LineStatsRecorder& recorder,
                          hsw::LineAddr line) {
  static const LineRecord kMissing;
  const LineRecord* record = recorder.find(line);
  EXPECT_NE(record, nullptr) << "line " << line << " is not tracked";
  return record != nullptr ? *record : kMissing;
}

// Classify one line's history as driven through the recorder's episode
// machinery (not a hand-built LineRecord: finalize() must close episodes).
SharingPattern classify_history(
    const std::vector<std::pair<int, bool>>& accesses) {
  LineStatsRecorder recorder(hsw::Protocol::kMesif);
  for (const auto& [core, is_write] : accesses) {
    recorder.on_access(core, /*line=*/7, is_write, 1.0);
  }
  recorder.finalize();
  return hsw::obs::classify(tracked(recorder, 7));
}

constexpr bool kR = false;
constexpr bool kW = true;

TEST(LineStatsClassifier, SingleCoreIsPrivate) {
  EXPECT_EQ(classify_history({{0, kR}, {0, kW}, {0, kR}, {0, kW}}),
            SharingPattern::kPrivate);
}

TEST(LineStatsClassifier, MultiCoreReadOnlyIsReadShared) {
  EXPECT_EQ(classify_history({{0, kR}, {1, kR}, {2, kR}, {1, kR}}),
            SharingPattern::kReadShared);
}

TEST(LineStatsClassifier, ReadModifyWriteHandoffsAreMigratory) {
  // A lock word: each core's episode reads the line, then writes it.
  EXPECT_EQ(classify_history({{0, kR}, {0, kW}, {1, kR}, {1, kW},
                              {2, kR}, {2, kW}, {0, kR}, {0, kW}}),
            SharingPattern::kMigratory);
}

TEST(LineStatsClassifier, AlternatingPureEpisodesArePingPong) {
  // A mailbox: the producer's episodes are pure writes, the consumer's are
  // pure reads, and no episode mixes the two.
  EXPECT_EQ(classify_history({{0, kW}, {1, kR}, {0, kW}, {1, kR}, {0, kW}}),
            SharingPattern::kPingPong);
}

TEST(LineStatsClassifier, MultiWriterNoReaderIsFalseShared) {
  EXPECT_EQ(classify_history({{0, kW}, {1, kW}, {0, kW}, {1, kW}}),
            SharingPattern::kFalseShared);
}

TEST(LineStatsClassifier, UnstructuredMultiCoreTrafficIsMixed) {
  // Mixed episodes without the migratory read-first signature.
  EXPECT_EQ(classify_history({{0, kW}, {0, kR}, {0, kW}, {1, kR},
                              {0, kW}, {0, kR}}),
            SharingPattern::kMixed);
}

TEST(LineStatsRecorderTest, EpisodeCountersFollowHandoffs) {
  LineStatsRecorder recorder(hsw::Protocol::kMesif);
  // core 0: R W (rmw) | core 1: R | core 0: W | finalize closes the last.
  recorder.on_access(0, 3, kR, 1.0);
  recorder.on_access(0, 3, kW, 1.0);
  recorder.on_access(1, 3, kR, 1.0);
  recorder.on_access(0, 3, kW, 1.0);
  recorder.finalize();
  const LineRecord& r = tracked(recorder, 3);
  EXPECT_EQ(r.episodes, 3u);
  EXPECT_EQ(r.handoffs, 2u);   // the final episode closes without a handoff
  EXPECT_EQ(r.rmw_handoffs, 1u);
  EXPECT_EQ(r.pure_read_episodes, 1u);
  EXPECT_EQ(r.pure_write_episodes, 1u);
  EXPECT_EQ(r.mixed_episodes, 1u);
  EXPECT_EQ(r.cores_seen(), 2);
}

TEST(LineStatsRecorderTest, ExternalClockDrivesResidency) {
  LineStatsRecorder recorder(hsw::Protocol::kMesif);
  recorder.set_now(0.0);
  recorder.on_transition(Level::kL3, /*unit=*/0, /*line=*/9, Mesif::kInvalid,
                         LineOp::kLocalRead, Mesif::kExclusive);
  recorder.set_now(100.0);
  recorder.on_transition(Level::kL3, 0, 9, Mesif::kExclusive,
                         LineOp::kSnoopRead, Mesif::kShared);
  recorder.set_now(250.0);
  recorder.finalize();
  const LineRecord& r = tracked(recorder, 9);
  EXPECT_DOUBLE_EQ(r.residency_ns[hsw::protocol::idx(Mesif::kExclusive)],
                   100.0);
  EXPECT_DOUBLE_EQ(r.residency_ns[hsw::protocol::idx(Mesif::kShared)], 150.0);
  EXPECT_DOUBLE_EQ(r.residency_ns[hsw::protocol::idx(Mesif::kModified)], 0.0);
}

TEST(LineStatsRecorderTest, FinalizeIsIdempotent) {
  LineStatsRecorder recorder(hsw::Protocol::kMesif);
  recorder.on_access(0, 1, kW, 1.0);
  recorder.finalize();
  recorder.finalize();
  EXPECT_EQ(tracked(recorder, 1).episodes, 1u);
}

TEST(LineStatsRecorderTest, EngineRecordsOwnerDemotionAndForward) {
  // One cross-socket producer/consumer handoff through the real engine:
  // core 0 dirties a line, core 12 (other socket) reads it.  MESIF demotes
  // the owner to Shared on the read snoop and the holder forwards data.
  hsw::System sys(hsw::SystemConfig::source_snoop());
  hsw::obs::LineStatsRecorder recorder(sys.config().protocol, /*stream=*/0);
  sys.attach_linestats(recorder);
  const hsw::PhysAddr addr = sys.alloc_on_node(0, 64).base;
  sys.write(0, addr);
  sys.read(12, addr);
  sys.detach_linestats();

  EXPECT_EQ(recorder.accesses(), 2u);
  const LineRecord& r = tracked(recorder, hsw::line_of(addr));
  EXPECT_EQ(r.writes, 1u);
  EXPECT_EQ(r.reads, 1u);
  EXPECT_EQ(r.cores_seen(), 2);
  EXPECT_GE(r.forwards, 1u);
  // The owner-demotion cell: the holding node's L3 leaves {E,M} for S.
  std::uint64_t demotions = 0;
  for (const Mesif from : {Mesif::kExclusive, Mesif::kModified}) {
    demotions += recorder.transitions(Level::kL3, from, LineOp::kSnoopRead,
                                      Mesif::kShared);
  }
  EXPECT_GE(demotions, 1u);
  // Residency accrued somewhere: the access latencies advanced the clock.
  double total = 0.0;
  for (const double ns : r.residency_ns) total += ns;
  EXPECT_GT(total, 0.0);
}

TEST(LineStatsHubTest, TopLinesRankByContention) {
  LineStatsRecorder r(hsw::Protocol::kMesif, 0);
  // Line 1: quiet.  Line 2: two invalidating snoops of a held copy.
  r.on_access(0, 1, kR, 1.0);
  r.on_transition(Level::kL3, 0, 2, Mesif::kShared, LineOp::kSnoopInvalidate,
                  Mesif::kInvalid);
  r.on_transition(Level::kL3, 0, 2, Mesif::kShared, LineOp::kSnoopInvalidate,
                  Mesif::kInvalid);
  LineStatsHub hub;
  hub.absorb(std::move(r));
  const MergedLineStats m = hub.merged();
  ASSERT_EQ(m.top_lines.size(), 2u);
  EXPECT_EQ(m.top_lines[0].line, 2u);
  EXPECT_EQ(m.top_lines[0].record.invalidations, 2u);
  EXPECT_EQ(m.top_lines[1].line, 1u);
}

TEST(LineStatsHubTest, EmptyHubMergesClean) {
  LineStatsHub hub;
  const MergedLineStats m = hub.merged();
  EXPECT_EQ(m.streams, 0u);
  EXPECT_EQ(m.accesses, 0u);
  EXPECT_TRUE(m.top_lines.empty());
}

TEST(LineStatsHubTest, MergeRefusesAnUnfinalizedRecorder) {
  LineStatsRecorder r(hsw::Protocol::kMesif, 3);
  r.on_access(0, 1, kR, 1.0);
  const LineStatsRecorder* in[] = {&r};
  EXPECT_THROW((void)hsw::obs::merge_streams(in), std::logic_error);
  r.finalize();
  EXPECT_EQ(hsw::obs::merge_streams(in).lines_tracked, 1u);
}

// The recorder as it was before the flat line table: every line in a
// std::map, every open L3 interval in a second std::map keyed
// line * kMaxNodes + node, and a merge that copies every record and
// stable-sorts them all.  The equivalence test below drives it and the
// real recorder with the same stream.
struct MapRecorder {
  MapRecorder(hsw::Protocol p, std::uint32_t s)
      : protocol(p), pol(&hsw::protocol::policy(p)), stream(s) {}

  void close_episode(LineRecord& record, bool handoff) {
    if (record.episode_core < 0) return;
    record.episodes += 1;
    if (record.episode_has_read && record.episode_has_write) {
      record.mixed_episodes += 1;
    } else if (record.episode_has_read) {
      record.pure_read_episodes += 1;
    } else {
      record.pure_write_episodes += 1;
    }
    if (handoff) {
      record.handoffs += 1;
      if (record.episode_read_first && record.episode_has_write) {
        record.rmw_handoffs += 1;
      }
    }
    record.episode_core = -1;
    record.episode_read_first = false;
    record.episode_has_read = false;
    record.episode_has_write = false;
  }

  void on_access(int core, hsw::LineAddr line, bool is_write, double ns) {
    LineRecord& record = lines[line];
    if (is_write) {
      record.writes += 1;
    } else {
      record.reads += 1;
    }
    record.core_mask |= std::uint64_t{1} << (core < 63 ? core : 63);
    if (record.episode_core != core) {
      close_episode(record, record.episode_core >= 0);
      record.episode_core = core;
      record.episode_read_first = !is_write;
    }
    record.episode_has_read |= !is_write;
    record.episode_has_write |= is_write;
    accesses += 1;
    if (!external_clock) now += ns;
  }

  void set_now(double ns) {
    external_clock = true;
    now = ns;
  }

  void on_transition(Level level, int unit, hsw::LineAddr line, Mesif from,
                     LineOp op, Mesif to) {
    transitions[LineStatsRecorder::transition_index(level, from, op, to)] += 1;
    if (level != Level::kL3) return;
    LineRecord& record = lines[line];
    if (op == LineOp::kSnoopInvalidate && from != Mesif::kInvalid) {
      record.invalidations += 1;
    } else if (op == LineOp::kSnoopRead && pol->snoop_read(from).forwards) {
      record.forwards += 1;
    } else if (op == LineOp::kSnoopUpdate && from != Mesif::kInvalid) {
      record.updates += 1;
    }
    const std::uint64_t key =
        line * hsw::kMaxNodes + static_cast<unsigned>(unit);
    const auto it = open.find(key);
    if (it != open.end()) {
      record.residency_ns[hsw::protocol::idx(it->second.first)] +=
          now - it->second.second;
      if (to == Mesif::kInvalid) {
        open.erase(it);
      } else {
        it->second = {to, now};
      }
    } else if (to != Mesif::kInvalid) {
      open[key] = {to, now};
    }
  }

  void finalize() {
    if (finalized) return;
    finalized = true;
    for (auto& [line, record] : lines) close_episode(record, false);
    for (const auto& [key, interval] : open) {
      lines[key / hsw::kMaxNodes]
          .residency_ns[hsw::protocol::idx(interval.first)] +=
          now - interval.second;
    }
    open.clear();
  }

  hsw::Protocol protocol;
  const hsw::protocol::ProtocolPolicy* pol;
  std::uint32_t stream;
  double now = 0.0;
  bool external_clock = false;
  bool finalized = false;
  std::uint64_t accesses = 0;
  std::map<hsw::LineAddr, LineRecord> lines;
  std::array<std::uint64_t, LineStatsRecorder::kTransitionCells> transitions{};
  std::map<std::uint64_t, std::pair<Mesif, double>> open;
};

MergedLineStats map_merge(const std::vector<const MapRecorder*>& in) {
  MergedLineStats m;
  m.streams = in.size();
  m.protocol = in.front()->protocol;
  for (const MapRecorder* r : in) {
    m.accesses += r->accesses;
    for (std::size_t c = 0; c < LineStatsRecorder::kTransitionCells; ++c) {
      m.transitions[c] += r->transitions[c];
    }
    for (const auto& [line, record] : r->lines) {
      m.lines_tracked += 1;
      m.patterns[static_cast<std::size_t>(hsw::obs::classify(record))] += 1;
      for (std::size_t s = 0; s < hsw::protocol::kStateCount; ++s) {
        m.residency_ns[s] += record.residency_ns[s];
      }
      m.top_lines.push_back(hsw::obs::TopLine{
          r->stream, line, hsw::obs::classify(record), record});
    }
  }
  std::stable_sort(m.top_lines.begin(), m.top_lines.end(),
                   [](const hsw::obs::TopLine& a, const hsw::obs::TopLine& b) {
                     if (a.record.contention() != b.record.contention()) {
                       return a.record.contention() > b.record.contention();
                     }
                     const std::uint64_t at = a.record.reads + a.record.writes;
                     const std::uint64_t bt = b.record.reads + b.record.writes;
                     if (at != bt) return at > bt;
                     if (a.stream != b.stream) return a.stream < b.stream;
                     return a.line < b.line;
                   });
  if (m.top_lines.size() > hsw::obs::kTopLines) {
    m.top_lines.resize(hsw::obs::kTopLines);
  }
  return m;
}

void expect_same_record(const LineRecord& a, const LineRecord& b,
                        hsw::LineAddr line) {
  SCOPED_TRACE("line " + std::to_string(line));
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.core_mask, b.core_mask);
  EXPECT_EQ(a.episode_core, b.episode_core);
  EXPECT_EQ(a.episode_read_first, b.episode_read_first);
  EXPECT_EQ(a.episode_has_read, b.episode_has_read);
  EXPECT_EQ(a.episode_has_write, b.episode_has_write);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.rmw_handoffs, b.rmw_handoffs);
  EXPECT_EQ(a.pure_read_episodes, b.pure_read_episodes);
  EXPECT_EQ(a.pure_write_episodes, b.pure_write_episodes);
  EXPECT_EQ(a.mixed_episodes, b.mixed_episodes);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.forwards, b.forwards);
  EXPECT_EQ(a.updates, b.updates);
  for (std::size_t s = 0; s < hsw::protocol::kStateCount; ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.residency_ns[s]),
              std::bit_cast<std::uint64_t>(b.residency_ns[s]))
        << "state " << s << ": " << a.residency_ns[s] << " vs "
        << b.residency_ns[s];
  }
}

TEST(LineStatsEquivalenceTest, FlatTableMatchesTheMapRecorder) {
  constexpr std::uint32_t kStreams = 4;
  std::mt19937_64 rng(20150901);
  // Line pool: dense runs, far-apart addresses and multiples of the table
  // size, so the flat table sees probe collisions and several growths.
  std::vector<hsw::LineAddr> pool;
  for (hsw::LineAddr l = 0; l < 200; ++l) pool.push_back(0x40000 + l);
  for (hsw::LineAddr l = 0; l < 200; ++l) pool.push_back(l * 4096);
  for (hsw::LineAddr l = 0; l < 200; ++l) pool.push_back(rng() >> 8);
  // Lines every stream touches identically: equal contention and access
  // counts across streams, so the ranking breaks ties on (stream, line).
  const hsw::LineAddr tied[] = {0x40003, 0x40007};

  std::vector<LineStatsRecorder> flat;
  std::vector<MapRecorder> ref;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    flat.emplace_back(hsw::Protocol::kMesif, s);
    ref.emplace_back(hsw::Protocol::kMesif, s);
  }
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto state = [&] { return static_cast<Mesif>(pick(5)); };
  bool multi_open = false;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    LineStatsRecorder& f = flat[s];
    MapRecorder& m = ref[s];
    for (const hsw::LineAddr line : tied) {
      for (int k = 0; k < 3; ++k) {
        f.on_access(k, line, k == 1, 2.5);
        m.on_access(k, line, k == 1, 2.5);
        f.on_transition(Level::kL3, 1, line, Mesif::kShared,
                        LineOp::kSnoopInvalidate, Mesif::kInvalid);
        m.on_transition(Level::kL3, 1, line, Mesif::kShared,
                        LineOp::kSnoopInvalidate, Mesif::kInvalid);
      }
    }
    // Stream 1 runs on an external clock; stream 3 keeps recording after
    // a first finalize, as a recorder reused across measured sections does.
    double clock = 0.0;
    for (int step = 0; step < 6000; ++step) {
      if (s == 3 && step == 4000) {
        f.finalize();
        m.finalize();
      }
      const hsw::LineAddr line = pool[pick(pool.size())];
      const std::size_t what = pick(10);
      if (what < 4) {
        const int core = static_cast<int>(pick(36));
        const bool is_write = pick(3) == 0;
        const double ns = 1.0 + static_cast<double>(pick(400)) / 7.0;
        f.on_access(core, line, is_write, ns);
        m.on_access(core, line, is_write, ns);
      } else if (what < 9) {
        const auto level = static_cast<Level>(pick(hsw::obs::kLevelCount));
        const int unit = static_cast<int>(pick(level == Level::kL3 ? 8 : 36));
        const Mesif from = state();
        const auto op = static_cast<LineOp>(pick(hsw::obs::kLineOpCount));
        const Mesif to = pick(4) == 0 ? Mesif::kInvalid : state();
        f.on_transition(level, unit, line, from, op, to);
        m.on_transition(level, unit, line, from, op, to);
      } else if (s == 1) {
        clock += static_cast<double>(pick(1000)) / 3.0;
        f.set_now(clock);
        m.set_now(clock);
      }
    }
    // Some lines must still be open in more than one L3 at finalize.
    for (auto it = m.open.begin(); it != m.open.end(); ++it) {
      const auto next = std::next(it);
      if (next != m.open.end() &&
          next->first / hsw::kMaxNodes == it->first / hsw::kMaxNodes) {
        multi_open = true;
      }
    }
    f.finalize();
    m.finalize();
  }
  EXPECT_TRUE(multi_open);

  for (std::uint32_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    const auto lines = flat[s].lines();
    ASSERT_EQ(lines.size(), ref[s].lines.size());
    std::size_t k = 0;
    for (const auto& [line, record] : ref[s].lines) {
      ASSERT_EQ(lines[k].line, line);
      expect_same_record(lines[k].record, record, line);
      const LineRecord* found = flat[s].find(line);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found, &lines[k].record);
      ++k;
    }
    EXPECT_EQ(flat[s].accesses(), ref[s].accesses);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(flat[s].now()),
              std::bit_cast<std::uint64_t>(ref[s].now));
  }
  EXPECT_EQ(flat[3].find(0x7fffffffffffull), nullptr);

  std::vector<const LineStatsRecorder*> flat_in;
  std::vector<const MapRecorder*> ref_in;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    flat_in.push_back(&flat[s]);
    ref_in.push_back(&ref[s]);
  }
  const MergedLineStats got = hsw::obs::merge_streams(flat_in);
  const MergedLineStats want = map_merge(ref_in);
  ASSERT_EQ(got.top_lines.size(), want.top_lines.size());
  bool tie_across_streams = false;
  for (std::size_t i = 0; i < want.top_lines.size(); ++i) {
    SCOPED_TRACE("top line " + std::to_string(i));
    EXPECT_EQ(got.top_lines[i].stream, want.top_lines[i].stream);
    EXPECT_EQ(got.top_lines[i].line, want.top_lines[i].line);
    EXPECT_EQ(got.top_lines[i].pattern, want.top_lines[i].pattern);
    expect_same_record(got.top_lines[i].record, want.top_lines[i].record,
                       want.top_lines[i].line);
    if (i > 0) {
      const LineRecord& a = want.top_lines[i - 1].record;
      const LineRecord& b = want.top_lines[i].record;
      tie_across_streams |=
          a.contention() == b.contention() &&
          a.reads + a.writes == b.reads + b.writes &&
          want.top_lines[i - 1].stream != want.top_lines[i].stream;
    }
  }
  EXPECT_TRUE(tie_across_streams);
  EXPECT_EQ(hsw::obs::render_linestats_section(got),
            hsw::obs::render_linestats_section(want));
}

TEST(LineStatsReportTest, SectionCarriesVersionAndNonzeroCellsOnly) {
  LineStatsRecorder r(hsw::Protocol::kMesif, 0);
  r.on_transition(Level::kL1, 0, 1, Mesif::kInvalid, LineOp::kLocalStore,
                  Mesif::kModified);
  LineStatsHub hub;
  hub.absorb(std::move(r));
  const std::string section =
      hsw::obs::render_linestats_section(hub.merged());
  // The section carries no version of its own: the one report document's
  // version key covers it.
  EXPECT_EQ(section.find("version"), std::string::npos);
  // ctest runs cases in parallel: no other case may use this path.
  const std::string path = ::testing::TempDir() + "line_stats_section.json";
  ASSERT_TRUE(hsw::metrics::write_report(path, hsw::metrics::ReportManifest{},
                                         std::vector<std::string>{section}));
  const auto flat = hsw::metrics::parse_report_flat(path);
  std::remove(path.c_str());
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(flat->at("hswsim_report_version"), "2");
  EXPECT_EQ(flat->at("lines.transitions.L1.I.LocalStore.M"), "1");
  EXPECT_NE(section.find("\"I.LocalStore.M\": 1"), std::string::npos);
  // Zero transition cells are omitted, not printed as zero.
  EXPECT_EQ(section.find("\"I.LocalRead.I\""), std::string::npos);
  EXPECT_EQ(section.find("\"M.Evict.I\""), std::string::npos);
}

TEST(LineStatsReportTest, WriteFailsCleanlyOnBadPath) {
  const std::vector<std::string> sections{
      hsw::obs::render_linestats_section(MergedLineStats{})};
  EXPECT_FALSE(hsw::metrics::write_report("/nonexistent-dir/line_stats.json",
                                          hsw::metrics::ReportManifest{},
                                          sections));
}

}  // namespace
