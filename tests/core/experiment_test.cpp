// ExperimentSpec: JSON round-trip, defaults, and one named error per
// malformed document.
#include <string>
#include <vector>

#include "core/experiment.h"
#include "gtest/gtest.h"

namespace hsw {
namespace {

ExperimentSpec busy_spec() {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kBandwidth;
  spec.mode = SnoopMode::kCod;
  spec.protocol = Protocol::kMesi;
  spec.engine = BandwidthEngine::kSimulated;
  spec.seed = 42;
  spec.sample_ratio = 0.25;
  spec.sample_seed = 7;
  spec.core = 3;
  spec.write = true;
  spec.width = bw::LoadWidth::kSse128;
  spec.owner_core = 13;
  spec.memory_node = 2;
  spec.state = Mesif::kShared;
  spec.sharers = {1, 14};
  spec.sizes = {16384, 1048576};
  spec.max_measured_lines = 512;
  return spec;
}

TEST(ExperimentSpec, PrettyJsonRoundTripsExactly) {
  const ExperimentSpec spec = busy_spec();
  std::string error;
  const auto parsed = spec_from_json(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(spec, *parsed);
}

TEST(ExperimentSpec, DefaultSpecRoundTrips) {
  const ExperimentSpec spec;
  std::string error;
  const auto parsed = spec_from_json(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(spec, *parsed);
}

TEST(ExperimentSpec, OmittedFieldsKeepDefaults) {
  std::string error;
  const auto parsed = spec_from_json(
      "{\"hswsim_spec_version\": 1, \"kind\": \"latency\"}", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(ExperimentSpec{}, *parsed);
  EXPECT_EQ(std::vector<std::uint64_t>{64 * 1024}, parsed->sizes);
}

// Key order and whitespace do not reach the parsed spec.
TEST(ExperimentSpec, ParseIndependentOfKeyOrderAndWhitespace) {
  const ExperimentSpec spec = busy_spec();
  const std::string reordered =
      "{ \"sizes\" : [ 16384 , 1048576 ],\n"
      "  \"max_measured_lines\": 512,\n"
      "  \"placement\": { \"state\": \"S\", \"sharers\": [1, 14],\n"
      "                   \"memory_node\": 2, \"owner_core\": 13 },\n"
      "  \"width\": \"sse128\", \"write\": true, \"core\": 3,\n"
      "  \"sample_seed\": 7, \"sample_ratio\": 0.25, \"seed\": 42,\n"
      "  \"engine\": \"simulated\", \"protocol\": \"mesi\",\n"
      "  \"mode\": \"cod\", \"kind\": \"bandwidth\",\n"
      "  \"hswsim_spec_version\": 1 }";
  std::string error;
  const auto parsed = spec_from_json(reordered, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(spec, *parsed);
}

struct BadDoc {
  const char* label;
  const char* text;
  const char* message_fragment;
};

TEST(ExperimentSpecErrors, EachFailureNamesItself) {
  const BadDoc docs[] = {
      {"malformed JSON", "{\"hswsim_spec_version\": 1,", "not valid JSON"},
      {"missing version", "{\"kind\": \"latency\"}",
       "missing hswsim_spec_version"},
      {"unknown version", "{\"hswsim_spec_version\": 99}",
       "unknown hswsim_spec_version"},
      {"unknown key", "{\"hswsim_spec_version\": 1, \"knid\": \"latency\"}",
       "unknown key"},
      {"bad kind", "{\"hswsim_spec_version\": 1, \"kind\": \"both\"}",
       "unknown kind"},
      {"bad mode", "{\"hswsim_spec_version\": 1, \"mode\": \"snoopy\"}",
       "unknown mode"},
      {"bad protocol", "{\"hswsim_spec_version\": 1, \"protocol\": \"mosei\"}",
       "unknown protocol"},
      {"bad engine", "{\"hswsim_spec_version\": 1, \"engine\": \"exact\"}",
       "unknown engine"},
      {"zero sample ratio",
       "{\"hswsim_spec_version\": 1, \"sample_ratio\": 0}", "sample_ratio"},
      {"state I", "{\"hswsim_spec_version\": 1, \"placement\": {\"state\": "
                  "\"I\"}}",
       "placement state"},
      {"core out of range", "{\"hswsim_spec_version\": 1, \"core\": 512}",
       "core"},
      {"node out of range",
       "{\"hswsim_spec_version\": 1, \"placement\": {\"memory_node\": 9}}",
       "memory_node"},
      {"size too small", "{\"hswsim_spec_version\": 1, \"sizes\": [64]}",
       "must be in [4096, 1GiB]"},
  };
  for (const BadDoc& doc : docs) {
    std::string error;
    const auto parsed = spec_from_json(doc.text, &error);
    EXPECT_FALSE(parsed.has_value()) << doc.label;
    EXPECT_NE(error.find(doc.message_fragment), std::string::npos)
        << doc.label << ": error was '" << error << "'";
  }
}

TEST(ExperimentSpecErrors, MissingFileReportsPath) {
  std::string error;
  const auto parsed =
      spec_from_file("/nonexistent/spec_test_nowhere.json", &error);
  EXPECT_FALSE(parsed.has_value());
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

}  // namespace
}  // namespace hsw
