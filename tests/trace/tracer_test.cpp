// Unit tests for the span-tree builder, fold/attribution arithmetic, the
// (stream, seq) merge, and the exporters.  Absorb-order independence of the
// merge is covered for every hub by tests/obs/stream_hub_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/sink.h"
#include "trace/span.h"
#include "trace/tracer.h"

namespace hsw::trace {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(Fold, SerialLeavesAddLeftAssociated) {
  Tracer t;
  t.begin_access('R', 0, 42);
  t.leaf(Component::kCore, "l1", 1.3);
  t.leaf(Component::kCbo, "cbo", 2.7);
  t.leaf(Component::kRing, "ring", 0.9);
  t.end_access((1.3 + 2.7) + 0.9, "L3");
  const TraceRecord* r = t.last_record();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(fold(0.0, r->spans), (1.3 + 2.7) + 0.9);
  EXPECT_TRUE(recomposes_exactly(*r));
}

TEST(Fold, GroupChildrenMustReproduceItsCost) {
  Tracer t;
  t.begin_access('R', 0, 1);
  t.open_group(Component::kCbo, "peer_ca_handling");
  t.leaf(Component::kCbo, "lookup", 2.0);
  t.leaf(Component::kCore, "extract", 3.5);
  t.close_group(2.0 + 3.5);
  t.end_access(0.0 + (2.0 + 3.5), "L3_other_node");
  ASSERT_NE(t.last_record(), nullptr);
  EXPECT_TRUE(recomposes_exactly(*t.last_record()));

  // A group whose children do NOT sum to its cost is caught.
  Tracer bad;
  bad.begin_access('R', 0, 2);
  bad.open_group(Component::kCbo, "broken");
  bad.leaf(Component::kCbo, "lookup", 2.0);
  bad.close_group(5.0);  // children fold to 2.0, not 5.0
  bad.end_access(5.0, "L3");
  ASSERT_NE(bad.last_record(), nullptr);
  EXPECT_FALSE(recomposes_exactly(*bad.last_record()));
}

TEST(Fold, ParallelJoinIsMaxOverGatingLegs) {
  Tracer t;
  t.begin_access('R', 3, 7);
  t.leaf(Component::kCbo, "prefix", 10.0);
  t.open_parallel("race");
  t.open_leg("snoop");
  t.leaf(Component::kRing, "out", 4.0);
  t.leaf(Component::kCoreSnoop, "probe", 9.0);
  t.close_leg();
  t.open_leg("memory");
  t.leaf(Component::kDram, "dram", 6.0);
  t.close_leg();
  t.close_parallel(Tracer::Join::kAll);
  t.end_access(10.0 + std::max(4.0 + 9.0, 6.0), "LocalDram");
  ASSERT_NE(t.last_record(), nullptr);
  // Fork at 10, legs end at 23 and 16, join = 23.
  EXPECT_EQ(fold(0.0, t.last_record()->spans), 23.0);
  EXPECT_TRUE(recomposes_exactly(*t.last_record()));
}

TEST(Fold, WinnerJoinIgnoresNonGatingLegs) {
  Tracer t;
  t.begin_access('R', 0, 9);
  t.open_parallel("race");
  t.open_leg("memory");
  t.leaf(Component::kDram, "dram", 50.0);
  t.close_leg();
  t.open_leg("forward");
  t.leaf(Component::kQpi, "qpi", 20.0);
  t.close_leg();
  // kWinner: only the most recently closed leg (forward) gates the join.
  t.close_parallel(Tracer::Join::kWinner);
  t.end_access(20.0, "L3_other_node");
  ASSERT_NE(t.last_record(), nullptr);
  EXPECT_EQ(fold(0.0, t.last_record()->spans), 20.0);
  EXPECT_TRUE(recomposes_exactly(*t.last_record()));
  // The losing leg is retained for visibility but marked non-gating.
  const Span& par = t.last_record()->spans.front();
  ASSERT_EQ(par.children.size(), 2u);
  EXPECT_FALSE(par.children[0].gating);
  EXPECT_TRUE(par.children[1].gating);
}

TEST(Fold, NoneJoinIsAnAside) {
  Tracer t;
  t.begin_access('R', 0, 9);
  t.leaf(Component::kHa, "ha", 5.0);
  t.open_parallel("aside");
  t.open_leg("snoop");
  t.leaf(Component::kRing, "out", 100.0);
  t.close_leg();
  t.close_parallel(Tracer::Join::kNone);
  t.leaf(Component::kDram, "dram", 3.0);
  t.end_access(5.0 + 3.0, "LocalDram");
  ASSERT_NE(t.last_record(), nullptr);
  EXPECT_EQ(fold(0.0, t.last_record()->spans), 8.0);
  EXPECT_TRUE(recomposes_exactly(*t.last_record()));
}

TEST(Attribution, BucketsSumOverCriticalPathOnly) {
  Tracer t;
  t.begin_access('R', 0, 1);
  t.leaf(Component::kCbo, "cbo", 2.0);
  t.open_parallel("race");
  t.open_leg("loser");
  t.leaf(Component::kQpi, "qpi", 1.0);
  t.close_leg();
  t.open_leg("winner");
  t.leaf(Component::kDram, "dram", 7.0);
  t.close_leg();
  t.close_parallel(Tracer::Join::kAll);
  const AccessAttribution* a = t.end_access(2.0 + 7.0, "LocalDram");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->total, 9.0);
  EXPECT_EQ(a->component(Component::kCbo), 2.0);
  EXPECT_EQ(a->component(Component::kDram), 7.0);
  // The losing QPI leg is off the critical path: not attributed.
  EXPECT_EQ(a->component(Component::kQpi), 0.0);
}

TEST(Tracer, EmissionsOutsideAnAccessAreNoOps) {
  Tracer t;
  t.leaf(Component::kDram, "stray", 5.0);
  t.open_group(Component::kCbo, "stray");
  t.close_group(1.0);
  EXPECT_EQ(t.records().size(), 0u);
  t.begin_access('W', 1, 2);
  t.leaf(Component::kCore, "l1", 1.0);
  t.end_access(1.0, "L1");
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records().front().spans.size(), 1u);
}

TEST(Tracer, AttributionModeRetainsNoRecords) {
  Tracer t(Tracer::Mode::kAttribution);
  t.begin_access('R', 0, 1);
  t.leaf(Component::kDram, "dram", 4.0);
  const AccessAttribution* a = t.end_access(4.0, "LocalDram");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->total, 4.0);
  EXPECT_EQ(t.records().size(), 0u);
}

TEST(Tracer, BoundedBufferDropsOldestDeterministically) {
  Tracer t(Tracer::Mode::kFull, 0, 4);
  for (int i = 0; i < 10; ++i) {
    t.begin_access('R', 0, static_cast<std::uint64_t>(i));
    t.leaf(Component::kCore, "l1", 1.0);
    t.end_access(1.0, "L1");
  }
  EXPECT_EQ(t.records().size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // The survivors are the newest records, in sequence order.
  EXPECT_EQ(t.records().front().seq, 6u);
  EXPECT_EQ(t.records().back().seq, 9u);
}

TEST(Sink, MergeIsStableByStreamAndSeq) {
  TraceHub sink;
  // Absorb out of order (stream 2 before stream 1), as parallel workers do.
  Tracer t2(Tracer::Mode::kFull, 2);
  for (int i = 0; i < 3; ++i) {
    t2.begin_access('R', 0, 20 + static_cast<std::uint64_t>(i));
    t2.leaf(Component::kCore, "l1", 1.0);
    t2.end_access(1.0, "L1");
  }
  Tracer t1(Tracer::Mode::kFull, 1);
  for (int i = 0; i < 2; ++i) {
    t1.begin_access('R', 0, 10 + static_cast<std::uint64_t>(i));
    t1.leaf(Component::kCore, "l1", 1.0);
    t1.end_access(1.0, "L1");
  }
  sink.absorb(std::move(t2));
  sink.absorb(std::move(t1));
  const std::vector<TraceRecord> merged = sink.merged().records;
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].stream, 1u);
  EXPECT_EQ(merged[0].seq, 0u);
  EXPECT_EQ(merged[1].stream, 1u);
  EXPECT_EQ(merged[1].seq, 1u);
  EXPECT_EQ(merged[2].stream, 2u);
  EXPECT_EQ(merged[4].line, 22u);
}

TEST(Sink, ExportersWriteNamedSpans) {
  TraceHub sink;
  Tracer t(Tracer::Mode::kFull, 7);
  t.begin_access('R', 5, 123);
  t.leaf(Component::kDirectory, "dir_lookup", 2.5);
  t.open_parallel("hitme_shortcut");
  t.open_leg("memory");
  t.leaf(Component::kDram, "dram_page_hit", 40.0);
  t.close_leg();
  t.close_parallel(Tracer::Join::kAll);
  t.end_access(2.5 + 40.0, "LocalDram");
  sink.absorb(std::move(t));

  const std::string json_path = temp_path("trace_test.json");
  const std::string csv_path = temp_path("trace_test.csv");
  const std::vector<TraceRecord> records = sink.merged().records;
  ASSERT_TRUE(write_trace(json_path, records));
  ASSERT_TRUE(write_trace(csv_path, records));

  const std::string json = slurp(json_path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("dir_lookup"), std::string::npos);
  EXPECT_NE(json.find("dram_page_hit"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);

  const std::string csv = slurp(csv_path);
  EXPECT_NE(csv.find("stream,seq,op,core,line,source,total_ns"),
            std::string::npos);
  EXPECT_NE(csv.find("dir_lookup"), std::string::npos);
  EXPECT_NE(csv.find("directory"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace hsw::trace
