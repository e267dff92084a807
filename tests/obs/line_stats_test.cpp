// Unit tests of the per-line coherence flight recorder (obs/line_stats.h):
// the episode-based sharing-pattern classifier, the transition matrix and
// L3 residency clock, the contention ranking of the hub merge, and the
// report section.  Absorb-order independence of the merge is covered for
// every hub by stream_hub_test.cpp.  Engine integration (which hooks fire where) is covered by
// the sharing_patterns golden and the determinism ctest scripts.
#include "obs/line_stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "machine/system.h"
#include "metrics/report.h"

namespace {

using hsw::Mesif;
using hsw::obs::Level;
using hsw::obs::LineOp;
using hsw::obs::LineStatsHub;
using hsw::obs::LineStatsRecorder;
using hsw::obs::MergedLineStats;
using hsw::obs::SharingPattern;

// Classify one line's history as driven through the recorder's episode
// machinery (not a hand-built LineRecord: finalize() must close episodes).
SharingPattern classify_history(
    const std::vector<std::pair<int, bool>>& accesses) {
  LineStatsRecorder recorder(hsw::Protocol::kMesif);
  for (const auto& [core, is_write] : accesses) {
    recorder.on_access(core, /*line=*/7, is_write, 1.0);
  }
  recorder.finalize();
  return hsw::obs::classify(recorder.lines().at(7));
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
  const hsw::obs::LineRecord& r = recorder.lines().at(3);
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
  const hsw::obs::LineRecord& r = recorder.lines().at(9);
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
  EXPECT_EQ(recorder.lines().at(1).episodes, 1u);
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
  const hsw::obs::LineRecord& r = recorder.lines().at(hsw::line_of(addr));
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
