// The one hub test: every observer's StreamHub (util/stream_hub.h) must
// fold to the same bytes whatever order — and from however many threads —
// its recorders are absorbed in, and must refuse two recorders on one
// stream id.  Each recorder kind supplies how to build a non-trivial
// recorder for a stream, how to render a merged result to bytes, and the
// merge invariants specific to it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "metrics/hub.h"
#include "metrics/report.h"
#include "obs/line_stats.h"
#include "obs/resource_stats.h"
#include "trace/sink.h"

namespace hsw {
namespace {

constexpr std::uint32_t kStreams = 8;

template <class Recorder>
struct Kind;

template <>
struct Kind<trace::Tracer> {
  static constexpr const char* kName = "Trace";
  static trace::Tracer make(std::uint32_t stream) {
    trace::Tracer t(trace::Tracer::Mode::kFull, stream);
    for (std::uint32_t i = 0; i <= stream % 3; ++i) {
      t.begin_access('R', 0, 100 * stream + i);
      t.leaf(trace::Component::kRing, "ring", 1.5 * (stream + 1));
      t.end_access(1.5 * (stream + 1), "L3");
    }
    return t;
  }
  static std::string render(const trace::MergedTrace& m) {
    // ctest runs cases in parallel: no other case may use this path.
    const std::string path = ::testing::TempDir() + "stream_hub_trace.json";
    EXPECT_TRUE(trace::write_trace(path, m.records));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    std::remove(path.c_str());
    return out.str();
  }
  // (stream, seq) order: Sink.MergeIsStableByStreamAndSeq.
  static void check(const trace::MergedTrace&) {}
};

template <>
struct Kind<metrics::MetricsRegistry> {
  static constexpr const char* kName = "Metrics";
  static metrics::MetricsRegistry make(std::uint32_t stream) {
    using namespace metrics;
    MetricsRegistry reg(stream, 2);
    for (std::uint32_t i = 0; i < 6; ++i) {
      reg.bump(MCtr::kImcPageHit, stream + 1);
      // Meters are doubles: their sum is only reproducible in one order.
      reg.meter(MMeter::kRingHops, 0.1 * static_cast<double>(stream + 1));
      reg.bump_family(MFamily::kRingStopCbo, stream % 3);
      reg.observe(MHist::kAccessNs, 50.0 * static_cast<double>(stream + 1));
      if (reg.access_tick()) {
        reg.set_gauge(MGauge::kDirectoryTracked,
                      static_cast<std::int64_t>(stream * 10 + i));
        reg.take_sample();
      }
    }
    return reg;
  }
  static std::string render(const metrics::MergedMetrics& m) {
    return metrics::render_metrics_section(m);
  }
  static void check(const metrics::MergedMetrics& m) {
    for (std::size_t i = 1; i < m.samples.size(); ++i) {
      const metrics::MetricsSample& a = m.samples[i - 1];
      const metrics::MetricsSample& b = m.samples[i];
      EXPECT_TRUE(a.stream < b.stream || (a.stream == b.stream && a.seq < b.seq))
          << "sample " << i << " out of (stream, seq) order";
    }
  }
};

template <>
struct Kind<obs::LineStatsRecorder> {
  static constexpr const char* kName = "Lines";
  static obs::LineStatsRecorder make(std::uint32_t stream) {
    obs::LineStatsRecorder r(Protocol::kMesif, stream);
    const int core = static_cast<int>(stream % 4);
    r.on_access(core, 11, /*is_write=*/true, 1.0);
    r.on_access(core + 1, 11, /*is_write=*/false, 2.0 + stream);
    r.on_transition(obs::Level::kL3, 0, 11, Mesif::kInvalid,
                    obs::LineOp::kLocalStore, Mesif::kModified);
    r.on_transition(obs::Level::kL3, 0, 11, Mesif::kModified,
                    obs::LineOp::kSnoopRead, Mesif::kShared);
    return r;
  }
  static std::string render(const obs::MergedLineStats& m) {
    return obs::render_linestats_section(m);
  }
  static void check(const obs::MergedLineStats& m) {
    EXPECT_EQ(m.accesses, 2u * kStreams);
  }
};

template <>
struct Kind<obs::ResourceStatsRecorder> {
  static constexpr const char* kName = "Resources";
  static obs::ResourceStatsRecorder make(std::uint32_t stream) {
    obs::ResourceStatsRecorder r(stream);
    r.bind({"A", "B"}, {10.0, 20.0});
    const double shift = 0.3 * stream;
    r.on_service(0, shift, shift, shift + 2.0, 64.0);
    r.on_service(1, shift + 1.0, shift + 2.0, shift + 3.0, 128.0);
    r.finalize(shift + 5.0);
    return r;
  }
  static std::string render(const obs::MergedResourceStats& m) {
    return obs::render_resources_section(m);
  }
  static void check(const obs::MergedResourceStats& m) {
    ASSERT_EQ(m.usage.size(), 2u);
    EXPECT_EQ(m.usage[0].services, kStreams);
  }
};

template <class Recorder>
class StreamHubTest : public ::testing::Test {};

struct KindName {
  template <class Recorder>
  static std::string GetName(int) {
    return Kind<Recorder>::kName;
  }
};

using RecorderKinds =
    ::testing::Types<trace::Tracer, metrics::MetricsRegistry,
                     obs::LineStatsRecorder, obs::ResourceStatsRecorder>;
TYPED_TEST_SUITE(StreamHubTest, RecorderKinds, KindName);

TYPED_TEST(StreamHubTest, MergeIsAbsorbOrderAndThreadIndependent) {
  using K = Kind<TypeParam>;
  StreamHub<TypeParam> forward;
  for (std::uint32_t s = 0; s < kStreams; ++s) forward.absorb(K::make(s));
  StreamHub<TypeParam> reverse;
  for (std::uint32_t s = kStreams; s-- > 0;) reverse.absorb(K::make(s));
  // Interleaved across threads, as sweep workers absorb finished points.
  StreamHub<TypeParam> threaded;
  {
    std::vector<std::thread> workers;
    for (std::uint32_t w = 0; w < 4; ++w) {
      workers.emplace_back([&threaded, w] {
        for (std::uint32_t s = w; s < kStreams; s += 4) {
          threaded.absorb(K::make(kStreams - 1 - s));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  ASSERT_EQ(threaded.stream_count(), kStreams);

  const auto merged = forward.merged();
  K::check(merged);
  const std::string bytes = K::render(merged);
  EXPECT_EQ(bytes, K::render(reverse.merged()));
  EXPECT_EQ(bytes, K::render(threaded.merged()));
}

TYPED_TEST(StreamHubTest, DuplicateStreamIdThrows) {
  using K = Kind<TypeParam>;
  StreamHub<TypeParam> hub;
  hub.absorb(K::make(1));
  hub.absorb(K::make(3));
  hub.absorb(K::make(3));
  try {
    (void)hub.merged();
    FAIL() << "two recorders on stream 3 merged";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("stream id 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hsw
