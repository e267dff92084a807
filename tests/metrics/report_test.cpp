// Run-report round trip: write_report's JSON must parse back (via the
// flat parser the differ uses) with every metrics field present, exact
// counter values, and stable float formatting; unwritable paths must fail
// loudly instead of silently dropping the report.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "coh/timing.h"
#include "metrics/report.h"

namespace hsw::metrics {
namespace {

// ctest runs every case as its own process, in parallel, so each case
// writes only paths named after itself and its pid.
std::string temp_path(const std::string& suffix) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "hswsim_report_" + test->name() + "_" +
         std::to_string(::getpid()) + suffix;
}

class ReportTest : public ::testing::Test {
 protected:
  std::string path_;
  void SetUp() override { path_ = temp_path(".json"); }
  void TearDown() override { std::remove(path_.c_str()); }
};

MergedMetrics sample_metrics() {
  MetricsHub hub;
  MetricsRegistry reg(3, 2);
  reg.bump(MCtr::kHaBypass, 17);
  reg.bump(MCtr::kHaStaleBroadcast, 5);
  reg.meter(MMeter::kRingHops, 12.5);
  reg.bump_family(MFamily::kQpiLinkBytes, 0, 72);
  reg.bump_family(MFamily::kQpiLinkBytes, 1, 144);
  reg.observe(MHist::kAccessNs, 96.0);
  for (int i = 0; i < 4; ++i) {
    if (reg.access_tick()) {
      reg.set_gauge(MGauge::kHitmeEntries, 2 + i);
      reg.take_sample();
    }
  }
  hub.absorb(std::move(reg));
  return hub.merged();
}

ReportManifest sample_manifest() {
  ReportManifest m;
  m.tool = "report_test";
  m.config = "unit \"quoted\" summary";
  m.protocol = "moesi";
  m.timing_hash = timing_fingerprint(TimingParams::haswell_ep(), m.protocol);
  m.seed = 9;
  m.jobs = 4;
  m.quick = true;
  m.git = "unknown";
  return m;
}

TEST_F(ReportTest, WriteThenParseRoundTrips) {
  ASSERT_TRUE(write_report(path_, sample_manifest(), sample_metrics()));

  const auto flat = parse_report_flat(path_);
  ASSERT_TRUE(flat.has_value());
  const auto& map = *flat;

  EXPECT_EQ(map.at("hswsim_report_version"), "2");
  EXPECT_EQ(map.at("manifest.tool"), "report_test");
  EXPECT_EQ(map.at("manifest.config"), "unit \"quoted\" summary");
  EXPECT_EQ(map.at("manifest.seed"), "9");
  EXPECT_EQ(map.at("manifest.jobs"), "4");
  EXPECT_EQ(map.at("manifest.quick"), "true");
  EXPECT_EQ(map.at("manifest.protocol"), "moesi");
  ASSERT_EQ(map.at("manifest.timing_hash").size(), 16u);

  EXPECT_EQ(map.at("metrics.counters.HA_SNOOP_BYPASS"), "17");
  EXPECT_EQ(map.at("metrics.counters.HA_DIRECTORY_STALE_BCAST"), "5");
  // Schema is complete even for untouched events.
  EXPECT_EQ(map.at("metrics.counters.IMC_PAGE_CONFLICT"), "0");
  EXPECT_EQ(map.at("metrics.engine_counters.uncore_ha.hitme_hit"), "0");

  // Fixed %.6f float formatting.
  EXPECT_EQ(map.at("metrics.meters.RING_HOPS"), "12.500000");
  EXPECT_EQ(map.at("metrics.families.QPI_LINK_BYTES.0"), "72");
  EXPECT_EQ(map.at("metrics.families.QPI_LINK_BYTES.1"), "144");
  EXPECT_EQ(map.at("metrics.histograms.ACCESS_LATENCY_NS.total"), "1");

  // The sampler fired at accesses 2 and 4 (interval 2, 4 ticks).
  EXPECT_EQ(map.at("metrics.samples.0.stream"), "3");
  EXPECT_EQ(map.at("metrics.samples.0.access"), "2");
  EXPECT_EQ(map.at("metrics.samples.1.seq"), "1");
  const auto gauge_index =
      std::to_string(static_cast<std::size_t>(MGauge::kHitmeEntries));
  EXPECT_EQ(map.at("metrics.samples.1.g." + gauge_index), "5");
}

TEST_F(ReportTest, IdenticalInputsProduceIdenticalBytes) {
  const std::string other = temp_path("_2.json");
  ASSERT_TRUE(write_report(path_, sample_manifest(), sample_metrics()));
  ASSERT_TRUE(write_report(other, sample_manifest(), sample_metrics()));

  const auto slurp = [](const std::string& p) {
    std::string text;
    std::FILE* f = std::fopen(p.c_str(), "rb");
    EXPECT_NE(f, nullptr) << "cannot read " << p;
    if (f == nullptr) return text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    return text;
  };
  EXPECT_EQ(slurp(path_), slurp(other));
  std::remove(other.c_str());
}

TEST_F(ReportTest, UnwritablePathFailsLoudly) {
  EXPECT_FALSE(write_report("/nonexistent_dir/report.json", sample_manifest(),
                            sample_metrics()));
}

TEST_F(ReportTest, ParseRejectsNonReports) {
  EXPECT_FALSE(parse_report_flat(path_ + ".missing").has_value());
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fputs("{\"not_a_report\": 1}\n", f);
  std::fclose(f);
  EXPECT_FALSE(parse_report_flat(path_).has_value());
  // A version-1 metrics report parses as JSON but is not a v2 document.
  f = std::fopen(path_.c_str(), "w");
  std::fputs("{\"hswsim_metrics_version\": 1}\n", f);
  std::fclose(f);
  std::map<std::string, std::string> flat;
  EXPECT_EQ(load_report_flat(path_, &flat), ReportLoadError::kUnknownVersion);
  EXPECT_EQ(flat.at("hswsim_metrics_version"), "1");
}

TEST_F(ReportTest, TimingFingerprintTracksConstants) {
  const TimingParams base = TimingParams::haswell_ep();
  TimingParams tweaked = base;
  tweaked.dram_page_hit += 0.1;
  EXPECT_EQ(timing_fingerprint(base), timing_fingerprint(base));
  EXPECT_NE(timing_fingerprint(base), timing_fingerprint(tweaked));
}

TEST_F(ReportTest, TimingFingerprintTracksProtocolTag) {
  // Same constants under different coherence protocols must not
  // fingerprint-match: the counters the reports carry are not comparable.
  const TimingParams base = TimingParams::haswell_ep();
  EXPECT_EQ(timing_fingerprint(base, "mesif"), timing_fingerprint(base, "mesif"));
  EXPECT_NE(timing_fingerprint(base, "mesif"), timing_fingerprint(base, "moesi"));
  EXPECT_NE(timing_fingerprint(base, "mesif"), timing_fingerprint(base));
}

}  // namespace
}  // namespace hsw::metrics
